"""Command-line driver: build a model, run commands, render reports.

Exit codes: 0 on success, 2 for configuration problems (bad JSON, bad
generators, a command that needs reflexivity on a model without it),
3 when a verified identity fails (including a false mirror verdict),
4 when the group-size or dimension cap is hit.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.bilaurent import BiLaurent
from ..algebra.unipoly import UniPoly
from ..combinatorics import verify_identities
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
from ..geometry.intlinalg import IntMatrix
from ..groups import generate_group
from ..invariants import (
    EPoly,
    cs_closed_forms,
    e_affine_hypersurface,
    e_stringy_reflexive,
    euler_characteristics,
    hodge_diamond,
    hypersurface_checks,
    mirror_check,
    tables_for,
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


@dataclass
class RunContext:
    """Everything a command handler needs besides the complex itself."""

    complex: ConeComplex
    threads: int = 1
    gamma: Optional[int] = None
    quotient: bool = False


def _class_indices(ctx: RunContext) -> List[int]:
    n = len(ctx.complex.group.classes)
    if ctx.gamma is None:
        return list(range(n))
    if not 0 <= ctx.gamma < n:
        raise ConfigError(
            f"--gamma {ctx.gamma} out of range; the group has {n} conjugacy classes"
        )
    return [ctx.gamma]


def _pmap(ctx: RunContext, fn: Callable, items: Sequence) -> List:
    """Order-preserving map, fanned out over threads when asked to."""
    items = list(items)
    if ctx.threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=ctx.threads) as pool:
        return list(pool.map(fn, items))


def _identity_class(cx: ConeComplex) -> int:
    identity = IntMatrix.identity(cx.group.dim)
    return cx.group.class_index_of_element(identity)


# ---------------------------------------------------------------------------
# command handlers: each returns (json payload, text lines, ok)


def _cmd_faces(ctx: RunContext):
    cx = ctx.complex
    by_dim = Counter(face.dim for face in cx.faces)
    ks = _class_indices(ctx)
    counts = _pmap(ctx, lambda k: len(cx.invariant_faces(cx.group.class_reps[k])), ks)
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


def _dual_aligned(ctx: RunContext, value_of_dual_element: Callable) -> List:
    """Evaluate a dual-side quantity at the contragredient of each class rep."""
    cx = ctx.complex
    return _pmap(
        ctx,
        lambda k: value_of_dual_element(
            cx.dual_element_index(cx.group.class_reps[k])
        ),
        _class_indices(ctx),
    )


def _cmd_phi(ctx: RunContext):
    cx = ctx.complex
    tables = tables_for(cx)
    ks = _class_indices(ctx)
    polys = _pmap(
        ctx, lambda k: tables.phi.poly(cx.top_index, cx.group.class_reps[k]), ks
    )
    payload = {"top": {str(k): p.to_json() for k, p in zip(ks, polys)}}
    lines = [f"phi[C](class {k}) = {format_unipoly(p)}" for k, p in zip(ks, polys)]
    if cx.polytope.is_reflexive():
        dual = cx.dual()
        dual_tables = tables_for(dual)
        duals = _dual_aligned(ctx, lambda e: dual_tables.phi.poly(dual.top_index, e))
        payload["dual_top"] = {str(k): p.to_json() for k, p in zip(ks, duals)}
        lines += [
            f"phi[C*](class {k}) = {format_unipoly(p)}" for k, p in zip(ks, duals)
        ]
    return payload, lines, True


def _cmd_hg(ctx: RunContext):
    cx = ctx.complex
    tables = tables_for(cx)
    ks = _class_indices(ctx)
    reps = [cx.group.class_reps[k] for k in ks]
    hs = _pmap(ctx, lambda e: tables.hg.h_face(cx.top_index, e), reps)
    gs = _pmap(ctx, lambda e: tables.hg.g_face(cx.top_index, e), reps)
    payload = {
        "h_top": {str(k): p.to_json() for k, p in zip(ks, hs)},
        "g_top": {str(k): p.to_json() for k, p in zip(ks, gs)},
    }
    lines = []
    for k, h_poly, g_poly in zip(ks, hs, gs):
        lines.append(f"h[C](class {k}) = {format_unipoly(h_poly)}")
        lines.append(f"g[C](class {k}) = {format_unipoly(g_poly)}")
    if cx.polytope.is_reflexive():
        dual = cx.dual()
        dual_tables = tables_for(dual)
        dgs = _dual_aligned(ctx, lambda e: dual_tables.hg.g_face(dual.top_index, e))
        payload["dual_g_top"] = {str(k): p.to_json() for k, p in zip(ks, dgs)}
        lines += [f"g[C*](class {k}) = {format_unipoly(p)}" for k, p in zip(ks, dgs)]
    return payload, lines, True


def _cmd_stilde(ctx: RunContext):
    cx = ctx.complex
    tables = tables_for(cx)
    ks = _class_indices(ctx)
    polys = _pmap(
        ctx, lambda k: tables.stilde.poly(cx.top_index, cx.group.class_reps[k]), ks
    )
    payload = {"top": {str(k): p.to_json() for k, p in zip(ks, polys)}}
    lines = [f"stilde[C](class {k}) = {format_unipoly(p)}" for k, p in zip(ks, polys)]
    if cx.polytope.is_reflexive():
        dual = cx.dual()
        dual_tables = tables_for(dual)
        duals = _dual_aligned(
            ctx, lambda e: dual_tables.stilde.poly(dual.top_index, e)
        )
        payload["dual_top"] = {str(k): p.to_json() for k, p in zip(ks, duals)}
        lines += [
            f"stilde[C*](class {k}) = {format_unipoly(p)}" for k, p in zip(ks, duals)
        ]
    return payload, lines, True


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
    combined = verify_identities(cx).checks + hypersurface_checks(cx).checks
    ok = all(c.ok for c in combined)
    payload = {
        "ok": ok,
        "checks": [
            {
                "name": c.name,
                "ok": c.ok,
                "failures": [[f, k, msg] for f, k, msg in c.failures],
            }
            for c in combined
        ],
    }
    lines = []
    for c in combined:
        lines.append(f"{c.name}: {'ok' if c.ok else f'FAILED x{len(c.failures)}'}")
        for f, k, msg in c.failures[:3]:
            lines.append(f"  face {f}, class {k}: {msg}")
    return payload, lines, ok


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
    config: ModelConfig,
    threads: int = 1,
    gamma: Optional[int] = None,
    quotient: Optional[bool] = None,
) -> Tuple[InvariantReport, int]:
    """Build the configured model and execute its commands in order."""
    polytope, group, name = build_model(config)
    cx = ConeComplex(polytope, group)
    ctx = RunContext(
        complex=cx,
        threads=max(1, threads),
        gamma=gamma,
        quotient=config.quotient_only if quotient is None else quotient,
    )
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
# selftest: the golden table suite plus negative and determinism controls


def _check(failures: List[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def _complex_for(builtin: str, d: int, group_entries: Sequence) -> ConeComplex:
    config = ModelConfig(builtin=builtin, d=d, group=tuple(group_entries))
    polytope, group, _ = build_model(config)
    return ConeComplex(polytope, group)


def _invariant_pair(cx: ConeComplex) -> Tuple[int, int]:
    """(h^{1,1}, h^{2,1}) of the quotient for a 3-fold model."""
    diamond = hodge_diamond(e_stringy_reflexive(cx))
    return diamond.invariant_entry(1, 1), diamond.invariant_entry(2, 1)


def _case_cube4(failures: List[str]) -> None:
    cx = _complex_for("cube", 4, ())
    tables = tables_for(cx)
    top = cx.top_index
    _check(
        failures,
        tables.phi.poly(top, 0) == UniPoly((1, 76, 230, 76, 1)),
        "phi[C] of the 4-cube",
    )
    _check(
        failures,
        tables.hg.h_face(top, 0) == UniPoly((1, 12, 14, 12, 1)),
        "h[C] of the 4-cube",
    )
    _check(
        failures, tables.hg.g_face(top, 0) == UniPoly((1, 11, 2)), "g[C] of the 4-cube"
    )
    _check(
        failures,
        tables.stilde.poly(top, 0) == UniPoly((0, 1, 68, 68, 1)),
        "stilde[C] of the 4-cube",
    )
    dual = cx.dual()
    dual_tables = tables_for(dual)
    _check(
        failures,
        dual_tables.phi.poly(dual.top_index, 0) == UniPoly((1, 4, 6, 4, 1)),
        "phi[C*] of the 4-cube",
    )
    _check(
        failures,
        dual_tables.hg.g_face(dual.top_index, 0) == UniPoly((1, 3, 2)),
        "g[C*] of the 4-cube",
    )
    _check(
        failures,
        dual_tables.stilde.poly(dual.top_index, 0) == UniPoly((0, 1, 4, 4, 1)),
        "stilde[C*] of the 4-cube",
    )
    proper = [
        f
        for f in range(dual.face_count)
        if 0 < dual.faces[f].dim < dual.cdim
    ]
    _check(
        failures,
        all(dual_tables.stilde.poly(f, 0) == UniPoly.zero() for f in proper),
        "stilde of every proper dual face vanishes",
    )
    primal = hodge_diamond(e_stringy_reflexive(cx))
    partner = hodge_diamond(e_stringy_reflexive(dual))
    _check(
        failures,
        (primal.invariant_entry(1, 1), primal.invariant_entry(2, 1)) == (4, 68),
        "4-cube diamond (4, 68)",
    )
    _check(
        failures,
        (partner.invariant_entry(1, 1), partner.invariant_entry(2, 1)) == (68, 4),
        "dual diamond (68, 4)",
    )
    _check(
        failures,
        euler_characteristics(e_stringy_reflexive(cx)).quotient == Fraction(-128),
        "4-cube Euler characteristic -128",
    )
    _check(
        failures,
        euler_characteristics(e_stringy_reflexive(dual)).quotient == Fraction(128),
        "dual Euler characteristic 128",
    )


def _case_cube4_central(failures: List[str]) -> None:
    cx = _complex_for("cube", 4, ("central",))
    tables = tables_for(cx)
    eps = cx.base_group.index_of[IntMatrix.identity(4).scale(-1)]
    top = cx.top_index
    _check(
        failures,
        tables.hg.h_face(top, eps) == UniPoly((1, 4, 6, 4, 1)),
        "h[C](central) = (1+t)^4",
    )
    _check(
        failures,
        tables.phi.poly(top, eps) == UniPoly((1, 4, 6, 4, 1)),
        "phi[C](central) = (1+t)^4",
    )
    stringy = e_stringy_reflexive(cx)
    forms = cs_closed_forms(4)
    _check(
        failures,
        stringy.value_of_element(eps) == forms.stringy_identity,
        "E_st(central) closed form",
    )
    _check(
        failures,
        stringy.value_of_element(eps).at_one() == 0,
        "chi(central) = 0",
    )
    diamond = hodge_diamond(stringy)
    _check(
        failures,
        (diamond.invariant_entry(1, 1), diamond.invariant_entry(2, 1)) == (4, 36),
        "quotient diamond (4, 36)",
    )
    k_id = _identity_class(cx)
    cover = [
        [int(diamond.hodge(p, q).values[k_id]) for q in range(diamond.size + 1)]
        for p in range(diamond.size + 1)
    ]
    _check(
        failures,
        cs_closed_forms(4, cover).quotient == diamond.invariant,
        "halving rule reproduces the quotient diamond",
    )
    partner = hodge_diamond(e_stringy_reflexive(cx.dual()))
    _check(
        failures,
        (partner.invariant_entry(1, 1), partner.invariant_entry(2, 1)) == (36, 4),
        "mirror quotient diamond (36, 4)",
    )
    _check(
        failures,
        euler_characteristics(stringy).quotient == Fraction(-64),
        "quotient Euler characteristic -64",
    )
    _check(
        failures,
        euler_characteristics(e_stringy_reflexive(cx.dual())).quotient
        == Fraction(64),
        "mirror quotient Euler characteristic 64",
    )
    _check(failures, mirror_check(cx).verdict, "mirror identity for the central pair")


def _mu_signature(cx: ConeComplex, diamond) -> Dict[Tuple[int, int], Fraction]:
    """Map (class size, element order) -> h^{2,1} character value."""
    from .report import element_order

    out = {}
    for k, rep_idx in enumerate(cx.group.class_reps):
        rep = cx.group.elements[rep_idx]
        key = (cx.group.class_sizes[k], element_order(cx.group, rep))
        out[key] = diamond.hodge(2, 1).values[k]
    return out


def _case_quintic_a5(failures: List[str]) -> None:
    cx = _complex_for("fermat", 4, ("(12)(34)", "(123)", "(12345)"))
    _check(failures, cx.group.order == 60, "A5 has order 60")
    stringy = e_stringy_reflexive(cx)
    diamond = hodge_diamond(stringy)
    _check(
        failures,
        all(v == 1 for v in diamond.hodge(1, 1).values),
        "h^{1,1} of the quintic is the trivial character",
    )
    expected = {(1, 1): 101, (15, 2): 5, (20, 3): 5, (12, 5): 1}
    got = _mu_signature(cx, diamond)
    _check(
        failures,
        {k: int(v) for k, v in got.items()} == expected,
        "h^{2,1} of the quintic has character mu = (101, 5, 5, 1, 1)",
    )
    _check(
        failures,
        (diamond.invariant_entry(1, 1), diamond.invariant_entry(2, 1)) == (1, 5),
        "quintic/A5 quotient diamond (1, 5)",
    )
    partner = hodge_diamond(e_stringy_reflexive(cx.dual()))
    _check(
        failures,
        (partner.invariant_entry(1, 1), partner.invariant_entry(2, 1)) == (5, 1),
        "mirror quintic/A5 quotient diamond (5, 1)",
    )
    _check(failures, mirror_check(cx).verdict, "mirror identity for the quintic/A5")


def _case_quintic_sym5(failures: List[str]) -> None:
    cx = _complex_for("fermat", 4, ("(12)", "(12345)"))
    _check(failures, cx.group.order == 120, "Sym5 has order 120")
    diamond = hodge_diamond(e_stringy_reflexive(cx))
    _check(
        failures,
        all(v == 1 for v in diamond.hodge(1, 1).values),
        "h^{1,1} under Sym5 is the trivial character",
    )
    got = _mu_signature(cx, diamond)
    even = {(1, 1): 101, (15, 2): 5, (20, 3): 5, (24, 5): 1}
    _check(
        failures,
        all(int(got[key]) == value for key, value in even.items()),
        "mu restricted to the even classes is (101, 5, 5, 1)",
    )
    _check(failures, mirror_check(cx).verdict, "mirror identity for the quintic/Sym5")


def _case_quintic_subgroup_mirrors(failures: List[str]) -> None:
    subgroups = {
        "Z2": ("(12)(34)",),
        "Z2xZ2": ("(12)(34)", "(13)(24)"),
        "Z3": ("(123)",),
        "Z5": ("(12345)",),
        "A4": ("(12)(34)", "(123)"),
        "Sym3": ("(12)(45)", "(23)(45)"),
        "D5": ("(12)(35)", "(12345)"),
    }
    for name, gens in subgroups.items():
        cx = _complex_for("fermat", 4, gens)
        _check(failures, mirror_check(cx).verdict, f"mirror identity for quintic/{name}")


def _case_d3(failures: List[str]) -> None:
    k3 = _complex_for("cube", 3, ())
    rows = hodge_diamond(e_stringy_reflexive(k3)).invariant
    _check(
        failures,
        rows == ((1, 0, 1), (0, 20, 0), (1, 0, 1)),
        "3-cube K3 diamond",
    )
    _check(
        failures,
        euler_characteristics(e_stringy_reflexive(k3)).quotient == Fraction(24),
        "K3 Euler characteristic 24",
    )
    enriques = _complex_for("cube", 3, ("central",))
    eps = enriques.base_group.index_of[IntMatrix.identity(3).scale(-1)]
    stringy = e_stringy_reflexive(enriques)
    expected = (
        BiLaurent.one()
        - BiLaurent.monomial(2, 0)
        - BiLaurent.monomial(0, 2)
        + BiLaurent.monomial(2, 2)
    )
    _check(
        failures,
        stringy.value_of_element(eps) == expected,
        "E_st(central) = 1 - u^2 - v^2 + (uv)^2 in dimension 3",
    )
    diamond = hodge_diamond(stringy)
    _check(
        failures,
        diamond.invariant == ((1, 0, 0), (0, 10, 0), (0, 0, 1)),
        "Enriques quotient diamond (h^{1,1} = 10, h^{2,0} = 0)",
    )
    _check(
        failures,
        euler_characteristics(stringy).quotient == Fraction(12),
        "Enriques Euler characteristic 12",
    )


def _case_simplex_hg(failures: List[str]) -> None:
    for d in range(1, 5):
        cx = _complex_for("simplex", d, ())
        tables = tables_for(cx)
        _check(
            failures,
            tables.hg.h_face(cx.top_index, 0) == UniPoly((1,) * (d + 1)),
            f"h[C] of the {d}-simplex is 1 + t + ... + t^{d}",
        )
        _check(
            failures,
            tables.hg.g_face(cx.top_index, 0) == UniPoly.one(),
            f"g[C] of the {d}-simplex is 1",
        )


def _case_cubic_curve(failures: List[str]) -> None:
    polytope, group, _ = build_model(
        ModelConfig(vertices=((2, -1), (-1, 2), (-1, -1)))
    )
    cx = ConeComplex(polytope, group)
    tables = tables_for(cx)
    _check(
        failures,
        tables.phi.poly(cx.top_index, 0) == UniPoly((1, 7, 1)),
        "phi of the cubic-curve triangle is 1 + 7t + t^2",
    )
    affine = e_affine_hypersurface(cx)
    expected = (
        BiLaurent.monomial(1, 1)
        - BiLaurent.monomial(1, 0)
        - BiLaurent.monomial(0, 1)
        - BiLaurent.monomial(0, 0, 8)
    )
    _check(
        failures,
        affine.value_at_class(0) == expected,
        "affine E-polynomial of the cubic curve is uv - u - v - 8",
    )


def _case_fault_injection(failures: List[str]) -> None:
    cx = _complex_for("cube", 3, ())
    tables = tables_for(cx)
    top = cx.top_index
    doctored = tables.phi.override(
        top, 0, tables.phi.poly(top, 0) + UniPoly((0, 1))
    )
    report = verify_identities(cx, phi_table=doctored)
    _check(failures, not report.ok, "doctored phi table is detected")
    cited = {
        (f, k)
        for check in report.checks
        for f, k, _ in check.failures
        if check.name == "reciprocity"
    }
    _check(
        failures,
        (top, 0) in cited,
        "reciprocity failure cites the corrupted face and class",
    )


def _case_determinism(failures: List[str]) -> None:
    config = parse_config(
        '{"builtin": "cube", "d": 3, "group": ["central"], '
        '"commands": ["faces", "phi", "hg", "stilde", "stringy", "diamond", "euler"]}'
    )
    documents = []
    for threads in (1, 2, 1):
        report, code = run(config, threads=threads)
        _check(failures, code == EXIT_OK, f"determinism run (threads={threads}) exits 0")
        documents.append(report.to_json())
    _check(
        failures,
        len(set(documents)) == 1,
        "reports are byte-identical across runs and thread counts",
    )


_SELFTEST_CASES: Tuple[Tuple[str, Callable[[List[str]], None]], ...] = (
    ("cube4-trivial", _case_cube4),
    ("cube4-central", _case_cube4_central),
    ("quintic-a5", _case_quintic_a5),
    ("quintic-sym5", _case_quintic_sym5),
    ("quintic-subgroup-mirrors", _case_quintic_subgroup_mirrors),
    ("d3-surfaces", _case_d3),
    ("simplex-hg", _case_simplex_hg),
    ("cubic-curve", _case_cubic_curve),
    ("fault-injection", _case_fault_injection),
    ("determinism", _case_determinism),
)


def selftest(threads: int = 1, json_path: Optional[Path] = None, out=None) -> int:
    """Run the golden suite; returns 0 when every case passes."""
    out = out if out is not None else sys.stdout

    def run_case(item):
        name, fn = item
        failures: List[str] = []
        started = time.perf_counter()
        try:
            fn(failures)
        except EquimirrorError as exc:
            failures.append(f"raised {type(exc).__name__}: {exc}")
        return name, failures, time.perf_counter() - started

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_case, _SELFTEST_CASES))
    else:
        results = [run_case(item) for item in _SELFTEST_CASES]

    all_ok = True
    cases_json = []
    for name, failures, elapsed in results:
        ok = not failures
        all_ok = all_ok and ok
        out.write(f"{name:<28} {'ok' if ok else 'FAIL':<5} ({elapsed:.2f}s)\n")
        for failure in failures:
            out.write(f"    {failure}\n")
        cases_json.append({"name": name, "ok": ok, "failures": failures})
    out.write(f"selftest: {'all passed' if all_ok else 'FAILURES'}\n")
    if json_path is not None:
        import json as _json

        document = {"schema": SCHEMA_VERSION, "selftest": cases_json}
        json_path.write_text(
            _json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK if all_ok else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
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
        help="fan per-class work out over N threads (output unchanged; no faster, "
        "as the GIL serialises the threads)",
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
            return selftest(threads=max(1, args.threads), json_path=args.json_path)
        if args.config is None:
            raise ConfigError(f"command {args.command!r} requires --config")
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        config = parse_config(text)
        config = with_commands(with_cap(config, args.cap_group), (args.command,))
        report, code = run(
            config,
            threads=max(1, args.threads),
            gamma=args.gamma,
            quotient=args.quotient or None,
        )
        sys.stdout.write(report.render())
        if args.json_path is not None:
            args.json_path.write_text(report.to_json(), encoding="utf-8")
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
