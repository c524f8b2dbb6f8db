"""Command-line driver: build a model, run commands, render reports.

Exit codes: 0 on success, 2 for configuration problems (bad JSON, bad
generators, a command that needs reflexivity on a model without it),
3 when a verified identity fails (including a false mirror verdict),
4 when the group-size or dimension cap is hit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.bilaurent import BiLaurent
from ..algebra.unipoly import UniPoly
from ..combinatorics import IdentityReport, tables_for, verify_identities
from ..errors import (
    CapExceeded,
    ConfigError,
    DimensionCap,
    EquimirrorError,
    IdentityFailure,
    InexactDivision,
    NegativeExponent,
    PhiNotPolynomial,
)
from ..geometry.cones import ConeComplex
from ..geometry.intlinalg import IntMatrix, det
from ..invariants import (
    Diamond,
    EPoly,
    cs_closed_forms,
    e_affine_hypersurface,
    e_stringy_reflexive,
    euler_characteristics,
    hodge_diamond,
    hypersurface_checks,
    mirror_check,
)
from .models import (
    COMMANDS,
    ModelConfig,
    build_model,
    parse_config,
    with_cap,
    with_commands,
)
from .report import (
    SCHEMA_VERSION,
    InvariantReport,
    classfun_json,
    describe_classes,
    diamond_rows,
    element_order,
    format_bilaurent,
    format_fraction,
    format_unipoly,
    fraction_json,
    group_json,
    render_diamond,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENTITY = 3
EXIT_CAP = 4

_CAP_ERRORS = (CapExceeded, DimensionCap)
_IDENTITY_ERRORS = (IdentityFailure, PhiNotPolynomial, InexactDivision, NegativeExponent)


class RunContext:
    """Everything a command handler needs besides the complex itself."""

    __slots__ = ("complex", "gamma", "quotient")

    def __init__(
        self, complex: ConeComplex, gamma: Optional[int] = None, quotient: bool = False
    ):
        self.complex = complex
        self.gamma = gamma
        self.quotient = quotient


def _class_indices(ctx: RunContext) -> List[int]:
    """The classes a per-class report covers; :func:`run` has checked
    ``gamma``."""
    if ctx.gamma is None:
        return list(range(len(ctx.complex.group.classes)))
    return [ctx.gamma]


def _identity_class(cx: ConeComplex) -> int:
    return cx.group.class_of(cx.group.identity_index)


# ---------------------------------------------------------------------------
# command handlers: each returns (json payload, text lines, ok)


def _cmd_faces(ctx: RunContext):
    cx = ctx.complex
    by_dim = Counter(face.dim for face in cx.faces)
    ks = _class_indices(ctx)
    counts = [len(cx.invariant_faces(cx.group.class_reps[k])) for k in ks]
    reflexive = cx.polytope.is_reflexive()
    payload = {
        "total": cx.face_count,
        "by_cone_dim": {str(d): by_dim[d] for d in sorted(by_dim)},
        "orbits": len(cx.face_orbits()),
        "invariant_per_class": {str(k): c for k, c in zip(ks, counts)},
        "reflexive": reflexive,
    }
    lines = [
        f"{cx.face_count} cone faces over a {cx.dim}-dimensional polytope"
        f" ({'reflexive' if reflexive else 'not reflexive'})",
        "by cone dimension: "
        + ", ".join(f"{d}: {by_dim[d]}" for d in sorted(by_dim)),
        f"face orbits: {payload['orbits']}",
    ]
    lines += [f"class {k}: {c} invariant faces" for k, c in zip(ks, counts)]
    return payload, lines, True


# A top-face column: (payload key, text name, dotted path of the table method).
_Column = Tuple[str, str, str]


def _top_command(ctx: RunContext, primal: Sequence[_Column], dual: Sequence[_Column]):
    """Tabulate top-face polynomials per class, one text line per class and
    column; then, when the polytope is reflexive, the ``dual`` columns on
    the polar dual at the contragredient of each class rep."""
    cx = ctx.complex
    ks = _class_indices(ctx)
    reps = [cx.group.class_reps[k] for k in ks]
    sides = [(cx, reps, primal)]
    if cx.polytope.is_reflexive():
        sides.append((cx.dual(), reps, dual))
    payload, lines = {}, []
    for side, elements, columns in sides:
        tables = tables_for(side)
        polys = [
            [attrgetter(path)(tables)(side.top_index, e) for e in elements]
            for _, _, path in columns
        ]
        for (key, _, _), column in zip(columns, polys):
            payload[key] = {str(k): p.to_json() for k, p in zip(ks, column)}
        for i, k in enumerate(ks):
            lines += [
                f"{name}(class {k}) = {format_unipoly(column[i])}"
                for (_, name, _), column in zip(columns, polys)
            ]
    return payload, lines, True


def _cmd_phi(ctx: RunContext):
    return _top_command(
        ctx, [("top", "phi[C]", "phi.poly")], [("dual_top", "phi[C*]", "phi.poly")]
    )


def _cmd_hg(ctx: RunContext):
    return _top_command(
        ctx,
        [("h_top", "h[C]", "hg.h_face"), ("g_top", "g[C]", "hg.g_face")],
        [("dual_g_top", "g[C*]", "hg.g_face")],
    )


def _cmd_stilde(ctx: RunContext):
    return _top_command(
        ctx,
        [("top", "stilde[C]", "stilde.poly")],
        [("dual_top", "stilde[C*]", "stilde.poly")],
    )


def _epoly_payload(ctx: RunContext, epoly: EPoly):
    ks = _class_indices(ctx)
    payload = {
        "kind": epoly.kind,
        "hypersurface_dim": epoly.dim - 1,
        "per_class": {str(k): epoly.value_at_class(k).to_json() for k in ks},
    }
    lines = [
        f"E(class {k}) = {format_bilaurent(epoly.value_at_class(k))}" for k in ks
    ]
    return payload, lines


def _cmd_ehodge(ctx: RunContext):
    epoly = e_affine_hypersurface(ctx.complex)
    payload, lines = _epoly_payload(ctx, epoly)
    return payload, lines, True


def _cmd_stringy(ctx: RunContext):
    epoly = e_stringy_reflexive(ctx.complex)
    payload, lines = _epoly_payload(ctx, epoly)
    return payload, lines, True


def _cmd_mirror_check(ctx: RunContext):
    cx = ctx.complex
    rep = mirror_check(cx)
    ks = _class_indices(ctx)
    payload = {
        "verdict": rep.verdict,
        "left": {str(k): rep.left[k].to_json() for k in ks},
        "right": {str(k): rep.right[k].to_json() for k in ks},
        "residual": {str(k): rep.residual[k].to_json() for k in ks},
    }
    lines = [f"verdict: {'true' if rep.verdict else 'FALSE'}"]
    for k in ks:
        if rep.residual[k].is_zero():
            lines.append(f"class {k}: ok")
        else:
            lines.append(
                f"class {k}: residual = {format_bilaurent(rep.residual[k])}"
            )
    return payload, lines, rep.verdict


def _cmd_diamond(ctx: RunContext):
    cx = ctx.complex
    epoly = e_stringy_reflexive(cx)
    diamond = hodge_diamond(epoly)
    n = diamond.size
    k_id = _identity_class(cx)
    payload = {
        "size": n,
        "entries": {
            f"{p},{q}": classfun_json(diamond.hodge(p, q))
            for p in range(n + 1)
            for q in range(n + 1)
        },
        "invariant": {
            f"{p},{q}": diamond.invariant_entry(p, q)
            for p in range(n + 1)
            for q in range(n + 1)
        },
    }
    if ctx.quotient:
        grid = {(p, q): diamond.invariant_entry(p, q) for p in range(n + 1) for q in range(n + 1)}
        lines = ["quotient Hodge diamond (invariant dimensions):"]
    else:
        grid = {
            (p, q): format_fraction(diamond.hodge(p, q).values[k_id])
            for p in range(n + 1)
            for q in range(n + 1)
        }
        lines = ["Hodge diamond (dimensions at the identity):"]
    lines += render_diamond(diamond_rows(grid, n))
    for p in range(n + 1):
        for q in range(p, n + 1):
            values = diamond.hodge(p, q).values
            if len(set(values)) > 1:
                lines.append(
                    f"h^{{{p},{q}}} by class: "
                    + ", ".join(format_fraction(v) for v in values)
                )
    return payload, lines, True


def _cmd_euler(ctx: RunContext):
    cx = ctx.complex
    if cx.polytope.is_reflexive():
        epoly = e_stringy_reflexive(cx)
    else:
        epoly = e_affine_hypersurface(cx)
    chars = euler_characteristics(epoly)
    ks = _class_indices(ctx)
    payload = {
        "kind": epoly.kind,
        "per_class": {str(k): fraction_json(chars.per_class.values[k]) for k in ks},
        "quotient": fraction_json(chars.quotient),
    }
    lines = [
        f"chi(class {k}) = {format_fraction(chars.per_class.values[k])}" for k in ks
    ]
    lines.append(f"quotient chi = {format_fraction(chars.quotient)}")
    return payload, lines, True


def _cmd_identities(ctx: RunContext):
    cx = ctx.complex
    report = IdentityReport(verify_identities(cx).checks + hypersurface_checks(cx).checks)
    payload = {
        "ok": report.ok,
        "checks": [
            {
                "name": c.name,
                "ok": c.ok,
                "failures": [[f, k, msg] for f, k, msg in c.failures],
            }
            for c in report.checks
        ],
    }
    return payload, report.summary().splitlines(), report.ok


_HANDLERS: Dict[str, Callable] = {
    "faces": _cmd_faces,
    "phi": _cmd_phi,
    "hg": _cmd_hg,
    "stilde": _cmd_stilde,
    "ehodge": _cmd_ehodge,
    "stringy": _cmd_stringy,
    "mirror-check": _cmd_mirror_check,
    "diamond": _cmd_diamond,
    "euler": _cmd_euler,
    "identities": _cmd_identities,
}


def run(
    config: ModelConfig, threads: int = 1, gamma: Optional[int] = None
) -> Tuple[InvariantReport, int]:
    """Build the configured model and execute its commands in order.

    ``gamma`` restricts every per-class output to one class index, checked
    here before any command runs.  ``threads`` is accepted and ignored:
    commands run sequentially, and the keyword stays only because
    ``perfbench/sample.py`` passes ``threads=1``.
    """
    polytope, group, name = build_model(config)
    n = len(group.classes)
    if gamma is not None and not 0 <= gamma < n:
        raise ConfigError(
            f"--gamma {gamma} out of range; the group has {n} conjugacy classes"
        )
    cx = ConeComplex(polytope, group)
    ctx = RunContext(complex=cx, gamma=gamma, quotient=config.quotient_only)
    report = InvariantReport(model=config.describe(), group=group_json(cx.group))
    report.text_lines = [f"model {name}, ambient dimension {cx.dim}"]
    report.text_lines += describe_classes(cx.group)
    code = EXIT_OK
    for command in config.commands:
        handler = _HANDLERS.get(command)
        if handler is None:
            raise ConfigError(f"unknown command {command!r}")
        payload, lines, ok = handler(ctx)
        report.add(command, payload, lines)
        if not ok:
            code = EXIT_IDENTITY
    return report, code


# ---------------------------------------------------------------------------
# selftest: one table of golden values plus a fault-injection and a
# determinism control


_QUINTIC_GROUPS = {
    "A5": ("(12)(34)", "(123)", "(12345)"),
    "Sym5": ("(12)", "(12345)"),
    "Z2": ("(12)(34)",),
    "Z2xZ2": ("(12)(34)", "(13)(24)"),
    "Z3": ("(123)",),
    "Z5": ("(12345)",),
    "A4": ("(12)(34)", "(123)"),
    "Sym3": ("(12)(45)", "(23)(45)"),
    "D5": ("(12)(35)", "(12345)"),
}

_MODELS: Dict[str, ModelConfig] = {
    "cube3": ModelConfig(builtin="cube", d=3),
    "cube3/central": ModelConfig(builtin="cube", d=3, group=("central",)),
    "cube4": ModelConfig(builtin="cube", d=4),
    "cube4/central": ModelConfig(builtin="cube", d=4, group=("central",)),
    **{f"simplex{d}": ModelConfig(builtin="simplex", d=d) for d in range(1, 5)},
    **{
        f"quintic/{name}": ModelConfig(builtin="fermat", d=4, group=gens)
        for name, gens in _QUINTIC_GROUPS.items()
    },
    "cubic-curve": ModelConfig(vertices=((2, -1), (-1, 2), (-1, -1))),
}


def _complex_of(model: str) -> ConeComplex:
    polytope, group, _ = build_model(_MODELS[model])
    return ConeComplex(polytope, group)


def _diamond(cx: ConeComplex) -> Diamond:
    return hodge_diamond(e_stringy_reflexive(cx))


def _mu_signature(cx: ConeComplex) -> Tuple[Tuple[int, int, int], ...]:
    """The h^{2,1} character on the determinant-1 classes, as sorted
    (class size, element order, value) triples, one per class."""
    group = cx.group
    h21 = _diamond(cx).hodge(2, 1).values
    return tuple(
        sorted(
            (group.class_sizes[k], element_order(group, rep), int(h21[k]))
            for k, rep in enumerate(group.elements[i] for i in group.class_reps)
            if det(rep) == 1
        )
    )


def _halving_rule_holds(cx: ConeComplex) -> bool:
    """The free-involution halving rule maps the cover diamond (dimensions
    at the identity) to the computed quotient diamond."""
    diamond = _diamond(cx)
    k_id = _identity_class(cx)
    cover = [
        [int(diamond.hodge(p, q).values[k_id]) for q in range(diamond.size + 1)]
        for p in range(diamond.size + 1)
    ]
    return cs_closed_forms(cx.dim, cover).quotient == diamond.invariant


def _proper_stilde_support(cx: ConeComplex, e: int) -> Tuple[int, ...]:
    """The proper faces (neither apex nor top) where Stilde(F, e) is nonzero."""
    stilde = tables_for(cx).stilde
    return tuple(
        face.index
        for face in cx.faces
        if 0 < face.dim < cx.cdim and not stilde.poly(face.index, e).is_zero()
    )


# Each golden quantity as a function of (complex, element index or None).
# A quantity named with a trailing "*" is read on the polar dual instead, at
# the contragredient element.
_QUANTITIES: Dict[str, Callable[[ConeComplex, Optional[int]], object]] = {
    "order": lambda cx, e: cx.group.order,
    "phi": lambda cx, e: tables_for(cx).phi.poly(cx.top_index, e),
    "h": lambda cx, e: tables_for(cx).hg.h_face(cx.top_index, e),
    "g": lambda cx, e: tables_for(cx).hg.g_face(cx.top_index, e),
    "stilde": lambda cx, e: tables_for(cx).stilde.poly(cx.top_index, e),
    "stilde support on proper faces": _proper_stilde_support,
    "E_affine": lambda cx, e: e_affine_hypersurface(cx).value_of_element(e),
    "E_st": lambda cx, e: e_stringy_reflexive(cx).value_of_element(e),
    "chi": lambda cx, e: e_stringy_reflexive(cx).value_of_element(e).at_one(),
    "h11 character": lambda cx, e: _diamond(cx).hodge(1, 1).values,
    "mu": lambda cx, e: _mu_signature(cx),
    "quotient diamond": lambda cx, e: _diamond(cx).invariant,
    "quotient (h11, h21)": lambda cx, e: (
        _diamond(cx).invariant_entry(1, 1),
        _diamond(cx).invariant_entry(2, 1),
    ),
    "quotient chi": lambda cx, e: euler_characteristics(
        e_stringy_reflexive(cx)
    ).quotient,
    "halving rule": lambda cx, e: _halving_rule_holds(cx),
    "mirror verdict": lambda cx, e: mirror_check(cx).verdict,
}

# The golden values: (case, model, element, quantity, expected).  The element
# is the scalar c of the matrix c*I, or None for a quantity of the whole
# group.
_GOLDEN: Tuple[Tuple[str, str, Optional[int], str, object], ...] = (
    ("cube4-trivial", "cube4", 1, "phi", UniPoly((1, 76, 230, 76, 1))),
    ("cube4-trivial", "cube4", 1, "h", UniPoly((1, 12, 14, 12, 1))),
    ("cube4-trivial", "cube4", 1, "g", UniPoly((1, 11, 2))),
    ("cube4-trivial", "cube4", 1, "stilde", UniPoly((0, 1, 68, 68, 1))),
    ("cube4-trivial", "cube4", 1, "phi*", UniPoly((1, 4, 6, 4, 1))),
    ("cube4-trivial", "cube4", 1, "g*", UniPoly((1, 3, 2))),
    ("cube4-trivial", "cube4", 1, "stilde*", UniPoly((0, 1, 4, 4, 1))),
    ("cube4-trivial", "cube4", 1, "stilde support on proper faces*", ()),
    ("cube4-trivial", "cube4", None, "quotient (h11, h21)", (4, 68)),
    ("cube4-trivial", "cube4", None, "quotient (h11, h21)*", (68, 4)),
    ("cube4-trivial", "cube4", None, "quotient chi", -128),
    ("cube4-trivial", "cube4", None, "quotient chi*", 128),
    ("cube4-central", "cube4/central", -1, "h", UniPoly((1, 4, 6, 4, 1))),
    ("cube4-central", "cube4/central", -1, "phi", UniPoly((1, 4, 6, 4, 1))),
    ("cube4-central", "cube4/central", -1, "E_st",
     cs_closed_forms(4).stringy_identity),
    ("cube4-central", "cube4/central", -1, "chi", 0),
    ("cube4-central", "cube4/central", None, "quotient (h11, h21)", (4, 36)),
    ("cube4-central", "cube4/central", None, "halving rule", True),
    ("cube4-central", "cube4/central", None, "quotient (h11, h21)*", (36, 4)),
    ("cube4-central", "cube4/central", None, "quotient chi", -64),
    ("cube4-central", "cube4/central", None, "quotient chi*", 64),
    ("cube4-central", "cube4/central", None, "mirror verdict", True),
    ("quintic-a5", "quintic/A5", None, "order", 60),
    ("quintic-a5", "quintic/A5", None, "h11 character", (1,) * 5),
    ("quintic-a5", "quintic/A5", None, "mu",
     ((1, 1, 101), (12, 5, 1), (12, 5, 1), (15, 2, 5), (20, 3, 5))),
    ("quintic-a5", "quintic/A5", None, "quotient (h11, h21)", (1, 5)),
    ("quintic-a5", "quintic/A5", None, "quotient (h11, h21)*", (5, 1)),
    ("quintic-a5", "quintic/A5", None, "mirror verdict", True),
    ("quintic-sym5", "quintic/Sym5", None, "order", 120),
    ("quintic-sym5", "quintic/Sym5", None, "h11 character", (1,) * 7),
    ("quintic-sym5", "quintic/Sym5", None, "mu",
     ((1, 1, 101), (15, 2, 5), (20, 3, 5), (24, 5, 1))),
    ("quintic-sym5", "quintic/Sym5", None, "mirror verdict", True),
    *(
        ("quintic-subgroup-mirrors", f"quintic/{name}", None, "mirror verdict", True)
        for name in ("Z2", "Z2xZ2", "Z3", "Z5", "A4", "Sym3", "D5")
    ),
    ("d3-surfaces", "cube3", None, "quotient diamond",
     ((1, 0, 1), (0, 20, 0), (1, 0, 1))),
    ("d3-surfaces", "cube3", None, "quotient chi", 24),
    ("d3-surfaces", "cube3/central", -1, "E_st",
     BiLaurent.one()
     - BiLaurent.monomial(2, 0)
     - BiLaurent.monomial(0, 2)
     + BiLaurent.monomial(2, 2)),
    ("d3-surfaces", "cube3/central", None, "quotient diamond",
     ((1, 0, 0), (0, 10, 0), (0, 0, 1))),
    ("d3-surfaces", "cube3/central", None, "quotient chi", 12),
    *(
        row
        for d in range(1, 5)
        for row in (
            ("simplex-hg", f"simplex{d}", 1, "h", UniPoly((1,) * (d + 1))),
            ("simplex-hg", f"simplex{d}", 1, "g", UniPoly.one()),
        )
    ),
    ("cubic-curve", "cubic-curve", 1, "phi", UniPoly((1, 7, 1))),
    ("cubic-curve", "cubic-curve", 1, "E_affine",
     BiLaurent.monomial(1, 1)
     - BiLaurent.monomial(1, 0)
     - BiLaurent.monomial(0, 1)
     - BiLaurent.monomial(0, 0, 8)),
)


def _golden_case(name: str) -> Callable[[List[str]], None]:
    """The selftest case that checks every ``_GOLDEN`` row of ``name``,
    building each of its models once (the complex keeps its tables, stringy
    E-polynomial and dual, so rows share them)."""

    def case(failures: List[str]) -> None:
        models: Dict[str, ConeComplex] = {}
        for row_case, model, element, quantity, expected in _GOLDEN:
            if row_case != name:
                continue
            if model not in models:
                models[model] = _complex_of(model)
            cx = models[model]
            e = None
            if element is not None:
                scalar = IntMatrix.identity(cx.dim).scale(element)
                e = cx.base_group.index_of[scalar]
            evaluate = _QUANTITIES[quantity.rstrip("*")]
            if quantity.endswith("*"):
                cx = cx.dual()
            got = evaluate(cx, e)
            if got != expected:
                at = "" if element is None else f" at {element}*I"
                failures.append(
                    f"{quantity} of {model}{at}: got {got!r}, expected {expected!r}"
                )

    return case


def _case_fault_injection(failures: List[str]) -> None:
    cx = _complex_of("cube3")
    tables = tables_for(cx)
    top = cx.top_index
    doctored = tables.phi.override(
        top, 0, tables.phi.poly(top, 0) + UniPoly((0, 1))
    )
    report = verify_identities(cx, phi_table=doctored)
    if report.ok:
        failures.append("doctored phi table went undetected")
    cited = {
        (f, k)
        for check in report.checks
        for f, k, _ in check.failures
        if check.name == "reciprocity"
    }
    if (top, 0) not in cited:
        failures.append(
            "reciprocity failure does not cite the corrupted face and class"
        )


def _case_determinism(failures: List[str]) -> None:
    config = parse_config(
        '{"builtin": "cube", "d": 3, "group": ["central"], '
        '"commands": ["faces", "phi", "hg", "stilde", "stringy", "diamond", "euler"]}'
    )
    documents = []
    for attempt in range(3):
        report, code = run(config)
        if code != EXIT_OK:
            failures.append(f"determinism run {attempt} exited {code}")
        documents.append(report.to_json())
    if len(set(documents)) != 1:
        failures.append("reports differ between identical runs")


_SELFTEST_CASES: Tuple[Tuple[str, Callable[[List[str]], None]], ...] = (
    *((name, _golden_case(name)) for name in dict.fromkeys(r[0] for r in _GOLDEN)),
    ("fault-injection", _case_fault_injection),
    ("determinism", _case_determinism),
)


def _write_json(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def selftest(threads: int = 1, json_path: Optional[Path] = None, out=None) -> int:
    """Run the golden table and the controls in order; returns 0 when every
    case passes.  ``threads`` is accepted and ignored (the cases ran no
    faster on threads), so callers that pass it keep working."""
    out = out if out is not None else sys.stdout
    all_ok = True
    cases_json = []
    for name, fn in _SELFTEST_CASES:
        failures: List[str] = []
        started = time.perf_counter()
        try:
            fn(failures)
        except EquimirrorError as exc:
            failures.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        ok = not failures
        all_ok = all_ok and ok
        out.write(f"{name:<28} {'ok' if ok else 'FAIL':<5} ({elapsed:.2f}s)\n")
        for failure in failures:
            out.write(f"    {failure}\n")
        cases_json.append({"name": name, "ok": ok, "failures": failures})
    out.write(f"selftest: {'all passed' if all_ok else 'FAILURES'}\n")
    if json_path is not None:
        document = {"schema": SCHEMA_VERSION, "selftest": cases_json}
        _write_json(json_path, json.dumps(document, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if all_ok else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    # imported here, so that importing this module (for ``run``) loads
    # neither argparse nor the gettext it imports
    import argparse

    parser = argparse.ArgumentParser(
        prog="equimirror",
        description="Exact equivariant invariants of lattice polytopes "
        "with finite symmetry.",
    )
    parser.add_argument("command", choices=COMMANDS + ("selftest",))
    parser.add_argument(
        "--config", type=Path, help="JSON model configuration (see README)"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored: every command and the selftest run "
        "sequentially (threads gave no speed-up under the GIL)",
    )
    parser.add_argument(
        "--json", type=Path, dest="json_path", help="also write the report as JSON"
    )
    parser.add_argument(
        "--cap-group",
        type=int,
        default=None,
        help="abort if the generated group grows past this many elements",
    )
    parser.add_argument(
        "--gamma",
        type=int,
        default=None,
        help="restrict per-class output to one conjugacy class index",
    )
    parser.add_argument(
        "--quotient",
        action="store_true",
        help="render the invariant (quotient) diamond instead of the cover's",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return selftest(json_path=args.json_path)
        if args.config is None:
            raise ConfigError(f"command {args.command!r} requires --config")
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        config = parse_config(text)
        config = with_commands(with_cap(config, args.cap_group), (args.command,))
        if args.quotient:
            config = config.replace(quotient_only=True)
        report, code = run(config, gamma=args.gamma)
        sys.stdout.write(report.render())
        if args.json_path is not None:
            _write_json(args.json_path, report.to_json())
        return code
    except _CAP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except _IDENTITY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except EquimirrorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
