"""Span timers wrapped around equimirror's layers from outside the package.

``install()`` replaces public functions and methods of each layer with
wrappers that time every call.  A span is one call: it has a name, a start,
an end and a parent (the span that was open when it began).  Spans are
folded into per-name totals as they close, so memory stays flat however
many calls a workload makes:

- ``calls`` and ``self_s`` per span name, where self time is the span's
  duration minus the time its child spans cover;
- ``edges[(parent, child)]``, how often a span of one name opened inside
  a span of the other;
- ``counts``, work counters taken at the same boundaries (lattice points,
  Fourier-Motzkin rows, memo hits, faces, group elements).

A function imported by name into another module is a separate binding of
the same object, so ``install`` rebinds every module attribute (and every
value of a module-level dict) that is the original.  Nothing under ``src/`` is edited; the wrappers live only in the
process that installed them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Per-process span and counter store."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = {}
        self.wrapped: List[Tuple[str, str]] = []
        # one frame per open span: [name, time covered by its children]
        self._stack: List[list] = []

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A timed stand-in for ``fn``.

        ``before(tracer, args)`` runs ahead of the call and its value is
        handed to ``after(tracer, args, result, token)`` once the call has
        returned; both run outside the span's own time.
        """
        stack = self._stack
        calls = self.calls
        edges = self.edges
        self_s = self.self_s
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            token = before(self, args) if before is not None else None
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(self, args, result, token)
            return result

        return span

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in sorted(self.self_s)
            },
            "edges": sorted(
                [parent or "", child, n] for (parent, child), n in self.edges.items()
            ),
            "counts": dict(sorted(self.counts.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "wrapped": sorted(f"{owner}.{attr}" for owner, attr in self.wrapped),
        }


# ---------------------------------------------------------------------------
# probes: work counters read at span boundaries


def _count_backend(tracer: Tracer, args) -> None:
    from equimirror.geometry.scan import backend_name

    tracer.counts["scan.count.backend." + backend_name(args[0])] += 1


def _count_points(tracer: Tracer, args, result, token) -> None:
    tracer.counts["scan.points"] += result


def _count_fm_rows(tracer: Tracer, args, result, token) -> None:
    feasible, levels = result
    rows = sum(len(level) for level in levels)
    tracer.counts["scan.fm_rows"] += rows
    tracer.note_max("scan.fm_rows_max", rows)


def _memo_hit(attr: str, key_of: Callable) -> Callable:
    def before(tracer: Tracer, args) -> bool:
        return key_of(args) in getattr(args[0], attr)

    return before


def _tally_hit(prefix: str) -> Callable:
    def after(tracer: Tracer, args, result, hit: bool) -> None:
        tracer.counts[prefix + (".hits" if hit else ".misses")] += 1

    return after


def _nonintegral(tracer: Tracer, args, result, token) -> None:
    coeffs = result.coeffs if hasattr(result, "coeffs") else result.terms.values()
    if any(Fraction(c).denominator != 1 for c in coeffs):
        tracer.counts["algebra.exact_div.nonintegral"] += 1


def _faces(tracer: Tracer, args, result, token) -> None:
    tracer.counts["cones.faces"] += len(args[0].faces)


def _elements(tracer: Tracer, args, result, token) -> None:
    tracer.counts["groups.elements"] += len(args[0].elements)


# ---------------------------------------------------------------------------
# the layer map: (span name, module, attribute path, before, after)

PHI_KEY = _memo_hit("_polys", lambda a: (a[1], a[2]))
H_KEY = _memo_hit("_h", lambda a: a[1].key + (a[2],))
G_KEY = _memo_hit("_g", lambda a: a[1].key + (a[2],))

TARGETS = (
    # cli
    ("cli.main", "equimirror.cli.main", "main", None, None),
    ("cli.run", "equimirror.cli.main", "run", None, None),
    ("cli.parse_config", "equimirror.cli.models", "parse_config", None, None),
    ("cli.build_model", "equimirror.cli.models", "build_model", None, None),
    ("cli.report", "equimirror.cli.report", "format_fraction", None, None),
    ("cli.report", "equimirror.cli.report", "format_unipoly", None, None),
    ("cli.report", "equimirror.cli.report", "format_bilaurent", None, None),
    ("cli.report", "equimirror.cli.report", "fraction_json", None, None),
    ("cli.report", "equimirror.cli.report", "classfun_json", None, None),
    ("cli.report", "equimirror.cli.report", "matrix_json", None, None),
    ("cli.report", "equimirror.cli.report", "element_order", None, None),
    ("cli.report", "equimirror.cli.report", "group_json", None, None),
    ("cli.report", "equimirror.cli.report", "describe_classes", None, None),
    ("cli.report", "equimirror.cli.report", "diamond_rows", None, None),
    ("cli.report", "equimirror.cli.report", "render_diamond", None, None),
    ("cli.report", "equimirror.cli.report", "InvariantReport.add", None, None),
    ("cli.report", "equimirror.cli.report", "InvariantReport.to_json", None, None),
    ("cli.report", "equimirror.cli.report", "InvariantReport.render", None, None),
    # groups
    ("groups.generate", "equimirror.groups", "generate_group", None, None),
    ("groups.classes", "equimirror.groups", "MatrixGroup._build_classes", None, _elements),
    ("groups.inverse", "equimirror.groups", "inverse_unimodular", None, None),
    ("groups.dual", "equimirror.groups", "MatrixGroup.dual_group", None, None),
    ("groups.orbits", "equimirror.groups", "orbits", None, None),
    # geometry.cones
    ("cones.build", "equimirror.geometry.cones", "ConeComplex.__init__", None, _faces),
    ("cones.rho", "equimirror.geometry.cones", "ConeComplex.rho", None, None),
    ("cones.charpoly", "equimirror.geometry.cones", "ConeComplex.charpoly", None, None),
    ("cones.element_charpoly", "equimirror.geometry.cones",
     "AbstractCone.element_charpoly", None, None),
    # geometry.intlinalg
    ("intlinalg.integer_kernel", "equimirror.geometry.intlinalg", "integer_kernel",
     None, None),
    ("intlinalg.char_poly", "equimirror.geometry.intlinalg", "char_poly", None, None),
    ("intlinalg.det", "equimirror.geometry.intlinalg", "det", None, None),
    ("intlinalg.solve", "equimirror.geometry.intlinalg", "solve_in_row_basis",
     None, None),
    # geometry.counting and geometry.scan
    ("counting", "equimirror.geometry.counting", "fixed_slice_count", None, None),
    ("scan.system", "equimirror.geometry.scan", "count_system", None, None),
    ("scan.prepare", "equimirror.geometry.scan", "prepare_levels", None, _count_fm_rows),
    ("scan.count", "equimirror.geometry.scan", "count_levels", _count_backend,
     _count_points),
    # algebra
    ("algebra.exact_div", "equimirror.algebra.unipoly", "UniPoly.exact_div", None,
     _nonintegral),
    ("algebra.exact_div", "equimirror.algebra.bilaurent", "BiLaurent.exact_div", None,
     _nonintegral),
    ("algebra.unipoly_mul", "equimirror.algebra.unipoly", "UniPoly.__mul__", None, None),
    ("algebra.unipoly_mul", "equimirror.algebra.unipoly", "UniPoly.__rmul__", None, None),
    ("algebra.bilaurent_mul", "equimirror.algebra.bilaurent", "BiLaurent.__mul__",
     None, None),
    ("algebra.bilaurent_mul", "equimirror.algebra.bilaurent", "BiLaurent.__rmul__",
     None, None),
    ("algebra.classfun", "equimirror.algebra.classfun", "ClassFun.__mul__", None, None),
    ("algebra.classfun", "equimirror.algebra.classfun", "ClassFun.average", None, None),
    ("algebra.classfun", "equimirror.algebra.classfun", "ClassFun.invariant_dim",
     None, None),
    # combinatorics
    ("combinatorics.phi", "equimirror.combinatorics", "PhiTable.poly", PHI_KEY,
     _tally_hit("combinatorics.phi")),
    ("combinatorics.hg", "equimirror.combinatorics", "HGTable.h", H_KEY,
     _tally_hit("combinatorics.hg")),
    ("combinatorics.hg", "equimirror.combinatorics", "HGTable.g", G_KEY,
     _tally_hit("combinatorics.hg")),
    ("combinatorics.stilde", "equimirror.combinatorics", "StildeTable.poly", None, None),
    ("combinatorics.stilde", "equimirror.combinatorics",
     "StildeTable.class_poly_by_induction", None, None),
    ("combinatorics.verify", "equimirror.combinatorics", "verify_identities", None, None),
    # invariants
    ("invariants.tables", "equimirror.invariants", "tables_for", None, None),
    ("invariants.affine", "equimirror.invariants", "e_torus", None, None),
    ("invariants.affine", "equimirror.invariants", "face_torus_value", None, None),
    ("invariants.affine", "equimirror.invariants", "e_affine_face", None, None),
    ("invariants.affine", "equimirror.invariants", "e_affine_hypersurface", None, None),
    ("invariants.stringy", "equimirror.invariants", "e_stringy_reflexive", None, None),
    ("invariants.stringy", "equimirror.invariants", "e_stringy_strata", None, None),
    ("invariants.checks", "equimirror.invariants", "hypersurface_checks", None, None),
    ("invariants.mirror", "equimirror.invariants", "mirror_check", None, None),
    ("invariants.diamond", "equimirror.invariants", "hodge_diamond", None, None),
    ("invariants.euler", "equimirror.invariants", "euler_characteristics", None, None),
)


def _rebind_everywhere(original: FunctionType, replacement: Callable) -> int:
    """Point every equimirror module binding of ``original`` (and every
    module-level dict value holding it) at ``replacement``."""
    rebound = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("equimirror"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        rebound += 1
    return rebound


def install(tracer: Tracer) -> Tracer:
    """Wrap every target; raises if a target is missing, so a renamed
    function shows up as a failed traced run rather than a silent gap."""
    for name, modname, path, before, after in TARGETS:
        module = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            if not isinstance(original, FunctionType):
                raise TypeError(f"{modname}.{path} is not a plain method")
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        else:
            original = getattr(module, path)
            if not isinstance(original, FunctionType):
                raise TypeError(f"{modname}.{path} is not a plain function")
            wrapper = tracer.wrap(name, original, before, after)
            if not _rebind_everywhere(original, wrapper):
                raise LookupError(f"no binding of {modname}.{path} found")
        tracer.wrapped.append((modname, path))
    return tracer
