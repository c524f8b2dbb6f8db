"""Command-line front end: configs, builtin models, reports, dispatch.

The executable entry point lives in :mod:`equimirror.cli.main`; it is
deliberately not re-exported here so that the submodule name stays
importable as a module.
"""

from .models import ModelConfig, build_fermat, build_model, parse_config
from .report import InvariantReport

__all__ = [
    "InvariantReport",
    "ModelConfig",
    "build_fermat",
    "build_model",
    "parse_config",
]
