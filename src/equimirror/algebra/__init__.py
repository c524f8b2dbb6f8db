"""Exact rational algebra: polynomials, Laurent polynomials, class functions."""

from .bilaurent import BiLaurent
from .classfun import ClassFun, ClassPoly
from .unipoly import UniPoly, series_inverse, series_ratio

__all__ = [
    "BiLaurent",
    "ClassFun",
    "ClassPoly",
    "UniPoly",
    "series_inverse",
    "series_ratio",
]
