"""Rendering of computed invariants as text and canonical JSON.

The JSON form is the machine contract: keys are sorted, exact rationals
appear as ``[numerator, denominator]`` pairs, and no timing or other
run-dependent data is included, so two runs of the same configuration
produce byte-identical documents.  The text form is for humans and lays
Hodge diamonds out in the usual centered shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..algebra.bilaurent import BiLaurent
from ..algebra.classfun import ClassFun
from ..algebra.unipoly import UniPoly
from ..geometry.intlinalg import IntMatrix
from ..groups import MatrixGroup

SCHEMA_VERSION = 1


def format_fraction(x: Fraction) -> str:
    return str(Fraction(x))


def format_unipoly(p: UniPoly) -> str:
    return str(p)


def format_bilaurent(b: BiLaurent) -> str:
    return str(b)


def fraction_json(x: Fraction) -> List[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def classfun_json(fn: ClassFun) -> List[object]:
    """Per-class values in class order; polynomials keep their own encoding."""
    out: List[object] = []
    for v in fn.values:
        if isinstance(v, (UniPoly, BiLaurent)):
            out.append(v.to_json())
        else:
            out.append(fraction_json(v))
    return out


def matrix_json(m: IntMatrix) -> List[List[int]]:
    return [list(r) for r in m.rows]


def element_order(group: MatrixGroup, g: IntMatrix) -> int:
    """The order of the element ``g``, which the group records per class."""
    return group.class_orders[group.class_index_of_element(g)]


def group_json(group: MatrixGroup) -> Dict[str, object]:
    classes = []
    for k, rep_idx in enumerate(group.class_reps):
        rep = group.elements[rep_idx]
        classes.append(
            {
                "index": k,
                "size": group.class_sizes[k],
                "order": element_order(group, rep),
                "trace": rep.trace(),
                "representative": matrix_json(rep),
            }
        )
    return {"order": group.order, "classes": classes}


def describe_classes(group: MatrixGroup) -> List[str]:
    lines = [f"group order {group.order}, {len(group.classes)} conjugacy classes:"]
    for k, rep_idx in enumerate(group.class_reps):
        rep = group.elements[rep_idx]
        lines.append(
            f"  class {k}: size {group.class_sizes[k]}, element order "
            f"{element_order(group, rep)}, trace {rep.trace()}"
        )
    return lines


def diamond_rows(entries: Dict[tuple, object], n: int) -> List[List[str]]:
    """Rows of the centered diamond, one per total degree p + q."""
    rows = []
    for k in range(2 * n + 1):
        row = []
        for p in range(min(k, n), max(0, k - n) - 1, -1):
            row.append(str(entries[(p, k - p)]))
        rows.append(row)
    return rows


def render_diamond(rows: Sequence[Sequence[str]]) -> List[str]:
    cell = max((len(s) for row in rows for s in row), default=1)
    rendered = ["  ".join(s.center(cell) for s in row) for row in rows]
    width = max(len(r) for r in rendered)
    return [r.center(width).rstrip() for r in rendered]


@dataclass
class InvariantReport:
    """Accumulated command outputs for one configuration run."""

    model: Dict[str, object]
    group: Dict[str, object]
    results: Dict[str, object] = field(default_factory=dict)
    text_lines: List[str] = field(default_factory=list)

    def add(self, command: str, payload: object, lines: Sequence[str]) -> None:
        self.results[command] = payload
        if self.text_lines:
            self.text_lines.append("")
        self.text_lines.append(f"== {command} ==")
        self.text_lines.extend(lines)

    def payload(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "group": self.group,
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        return "\n".join(self.text_lines) + "\n"
