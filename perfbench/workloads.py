"""The benchmark's workloads: the model configs each one feeds the program.

Each workload is a list of models and a way to run them:

- ``run``: ``equimirror.cli.main.run`` on every config, in plan order, in
  one process (so the sweep shares the process-wide counting cache the way
  a library user's process would);
- ``cli``: ``equimirror.cli.main.main`` with the workload's command,
  ``--config`` and ``--json``, exactly as a command-line user runs it.

The seed only orders the sweep: the set of models, and therefore the set
of distinct count keys and every report, is the same for every seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

ALL_COMMANDS = [
    "faces",
    "phi",
    "hg",
    "stilde",
    "ehodge",
    "stringy",
    "mirror-check",
    "diamond",
    "euler",
    "identities",
]

# Sym5, A5, then the seven subgroups of Sym5 that ``selftest`` checks.
QUINTIC_GROUPS: List[Tuple[str, List[str]]] = [
    ("Sym5", ["(12)", "(12345)"]),
    ("A5", ["(12)(34)", "(123)", "(12345)"]),
    ("Z2", ["(12)(34)"]),
    ("Z2xZ2", ["(12)(34)", "(13)(24)"]),
    ("Z3", ["(123)"]),
    ("Z5", ["(12345)"]),
    ("A4", ["(12)(34)", "(123)"]),
    ("Sym3", ["(12)(45)", "(23)(45)"]),
    ("D5", ["(12)(35)", "(12345)"]),
]

# Spans every traced sample of the workload must record at least once.
_COMMON_SPANS = [
    "cli.run",
    "cli.parse_config",
    "cli.build_model",
    "cli.report",
    "groups.generate",
    "groups.classes",
    "cones.build",
    "counting",
    "scan.prepare",
    "scan.count",
    "intlinalg.integer_kernel",
    "intlinalg.det",
    "combinatorics.phi",
    "algebra.unipoly_mul",
]

WORKLOADS: Dict[str, dict] = {
    "cube4-central-all": {
        "kind": "run",
        "models": [
            ("cube4-central", {"builtin": "cube", "d": 4, "group": ["central"],
                               "commands": ALL_COMMANDS}),
        ],
        "expected_spans": _COMMON_SPANS + [
            "cones.charpoly",
            "cones.element_charpoly",
            "intlinalg.char_poly",
            "algebra.exact_div",
            "algebra.bilaurent_mul",
            "combinatorics.hg",
            "combinatorics.stilde",
            "combinatorics.verify",
            "invariants.affine",
            "invariants.stringy",
            "invariants.mirror",
            "invariants.diamond",
            "invariants.checks",
        ],
    },
    "quintic-mirror-sweep": {
        "kind": "run",
        "shuffle": True,
        "models": [
            (name, {"builtin": "fermat", "d": 4, "group": gens,
                    "commands": ["mirror-check"]})
            for name, gens in QUINTIC_GROUPS
        ],
        "expected_spans": _COMMON_SPANS + [
            "groups.dual",
            "cones.charpoly",
            "cones.element_charpoly",
            "intlinalg.char_poly",
            "algebra.exact_div",
            "algebra.bilaurent_mul",
            "combinatorics.hg",
            "combinatorics.stilde",
            "invariants.stringy",
            "invariants.mirror",
        ],
    },
    "cube5-phi": {
        "kind": "cli",
        "command": "phi",
        "models": [("cube5", {"builtin": "cube", "d": 5, "group": []})],
        "expected_spans": _COMMON_SPANS + ["cli.main"],
    },
}


def plan(workload: str, seed: int) -> List[Tuple[str, dict]]:
    """The models of one sample in the order the program sees them."""
    models = list(WORKLOADS[workload]["models"])
    if WORKLOADS[workload].get("shuffle"):
        random.Random(seed).shuffle(models)
    return models
