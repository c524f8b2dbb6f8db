"""Built-in model constructors and JSON configuration parsing.

A configuration names either a built-in family (``cube``, ``cross``,
``simplex``, ``fermat`` with a dimension) or an inline polytope, plus a
list of group generators.  Generators may be explicit integer matrices,
disjoint-cycle permutation words like ``"(12)(34)"``, or the keyword
``"central"`` for the antipodal map on a centrally symmetric model.
Permutations act on coordinates; for the ``fermat`` family they permute
the ``d + 1`` homogeneous directions and are conjugated into the rank-``d``
lattice the polytope actually lives in.
"""

from __future__ import annotations

import json
from itertools import product
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..geometry.intlinalg import IntMatrix
from ..geometry.polytope import LatticePolytope
from ..groups import (
    GROUP_CAP_DEFAULT,
    MatrixGroup,
    generate_group,
    parse_cycles,
    permutation_matrix,
)
from ..records import Frozen

BUILTIN_NAMES = ("cube", "cross", "simplex", "fermat")
COMMANDS = (
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
)


class ModelConfig(Frozen):
    """A validated run request: one polytope source, a group, commands."""

    __slots__ = (
        "builtin",
        "d",
        "vertices",
        "facets",
        "group",
        "commands",
        "cap_group",
        "quotient_only",
    )

    def __init__(
        self,
        builtin: Optional[str] = None,
        d: Optional[int] = None,
        vertices: Optional[Tuple[Tuple[int, ...], ...]] = None,
        facets: Optional[Tuple[Tuple[Tuple[int, ...], int], ...]] = None,
        group: Tuple[object, ...] = (),
        commands: Tuple[str, ...] = (),
        cap_group: int = GROUP_CAP_DEFAULT,
        quotient_only: bool = False,
    ):
        self._fill(
            builtin, d, vertices, facets, group, commands, cap_group, quotient_only
        )

    def replace(self, **changes: object) -> ModelConfig:
        """A copy with the named fields changed."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return ModelConfig(**fields)

    def describe(self) -> Dict[str, object]:
        """Deterministic JSON-able summary of the model source."""
        if self.builtin is not None:
            source: Dict[str, object] = {"builtin": self.builtin, "d": self.d}
        else:
            source = {"vertices": [list(v) for v in self.vertices or ()]}
        source["group"] = [
            g if isinstance(g, str) else [list(r) for r in g.rows] for g in self.group
        ]
        return source


def build_cube(d: int) -> LatticePolytope:
    verts = tuple(tuple(s) for s in product((-1, 1), repeat=d))
    facets = []
    for i in range(d):
        for s in (1, -1):
            a = [0] * d
            a[i] = s
            facets.append((tuple(a), 1))
    return LatticePolytope(verts, tuple(facets))


def build_cross(d: int) -> LatticePolytope:
    verts = []
    for i in range(d):
        for s in (1, -1):
            v = [0] * d
            v[i] = s
            verts.append(tuple(v))
    facets = tuple((tuple(s), 1) for s in product((-1, 1), repeat=d))
    return LatticePolytope(tuple(verts), facets)


def build_simplex(d: int) -> LatticePolytope:
    verts = [(0,) * d]
    for i in range(d):
        v = [0] * d
        v[i] = 1
        verts.append(tuple(v))
    facets = []
    for i in range(d):
        a = [0] * d
        a[i] = -1
        facets.append((tuple(a), 0))
    facets.append(((1,) * d, 1))
    return LatticePolytope(tuple(verts), tuple(facets))


def build_fermat(d: int) -> LatticePolytope:
    """The degree ``d + 1`` Fermat-hypersurface polytope, centered.

    This is ``(d+1)`` times the standard ``d``-simplex, realized in the
    lattice generated by the lattice points of its affine span and
    translated so its unique interior lattice point is the origin.  The
    vertices are ``(d+1)e_j - (1, ..., 1)`` and ``(-1, ..., -1)``; the
    facet offsets are all 1, so the polytope is reflexive.
    """
    verts = []
    for j in range(d):
        v = [-1] * d
        v[j] = d
        verts.append(tuple(v))
    verts.append((-1,) * d)
    facets = []
    for i in range(d):
        a = [0] * d
        a[i] = -1
        facets.append((tuple(a), 1))
    facets.append(((1,) * d, 1))
    return LatticePolytope(tuple(verts), tuple(facets))


def _cycles(word: str) -> Dict[int, int]:
    try:
        return parse_cycles(word)
    except ValueError as exc:
        raise ConfigError(f"bad permutation {word!r}: {exc}") from exc


def fermat_permutation(word: str, d: int) -> IntMatrix:
    """A permutation of the ``d + 1`` homogeneous coordinates as a rank-``d``
    matrix on the Fermat polytope's lattice.

    The lattice is the sum-zero hyperplane in ``Z^{d+1}`` with the last
    coordinate dropped; basis vector ``e_j`` lifts to ``e_j - e_{d+1}``.
    """
    perm = _cycles(word)
    n = d + 1
    if any(k > n or v > n for k, v in perm.items()):
        raise ConfigError(f"permutation {word!r} moves points beyond degree {n}")
    cols = []
    for j in range(1, n):
        img = [0] * d
        pj = perm.get(j, j)
        pn = perm.get(n, n)
        if pj <= d:
            img[pj - 1] += 1
        if pn <= d:
            img[pn - 1] -= 1
        cols.append(tuple(img))
    return IntMatrix.from_columns(cols)


_BUILDERS = {
    "cube": build_cube,
    "cross": build_cross,
    "simplex": build_simplex,
    "fermat": build_fermat,
}

_DIM_RANGE = {
    "cube": (1, 6),
    "cross": (1, 6),
    "simplex": (1, 5),
    "fermat": (2, 5),
}


def _builtin_polytope(name: str, d: int) -> LatticePolytope:
    lo, hi = _DIM_RANGE[name]
    if not lo <= d <= hi:
        raise ConfigError(f"builtin {name!r} needs {lo} <= d <= {hi}, got {d}")
    return _BUILDERS[name](d)


def _generator_matrix(
    entry: object, polytope: LatticePolytope, source: str
) -> IntMatrix:
    """One group generator as a matrix; ``source`` is the builtin's name, or
    ``"inline"``."""
    d = polytope.dim
    if isinstance(entry, IntMatrix):
        return entry
    if isinstance(entry, str):
        if entry == "central":
            vertices = frozenset(polytope.vertices)
            if any(tuple(-x for x in v) not in vertices for v in vertices):
                raise ConfigError(
                    f"'central' needs a centrally symmetric model, not {source!r}"
                )
            return IntMatrix.identity(d).scale(-1)
        if entry.startswith("("):
            if source == "fermat":
                return fermat_permutation(entry, d)
            perm = _cycles(entry)
            if any(k > d or v > d for k, v in perm.items()):
                raise ConfigError(
                    f"permutation {entry!r} moves points beyond degree {d}"
                )
            return permutation_matrix(perm, d)
        raise ConfigError(f"unrecognized generator keyword {entry!r}")
    try:
        return IntMatrix(entry)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator matrix: {exc}") from exc


def _check_generator(g: IntMatrix, polytope: LatticePolytope) -> None:
    """Reject a generator of the wrong size or one that maps a vertex of the
    polytope outside it, before the closure could run into the group cap."""
    d = polytope.dim
    if not g.is_square() or g.nrows != d:
        raise ConfigError(
            f"bad generator matrix: {g.nrows}x{g.ncols} on a polytope in Z^{d}, "
            f"expected {d}x{d}"
        )
    vertices = frozenset(polytope.vertices)
    for v in polytope.vertices:
        w = g.apply(v)
        if w not in vertices:
            raise ConfigError(
                f"generator {[list(r) for r in g.rows]} maps vertex {list(v)} "
                f"to {list(w)}, which is not a vertex of the polytope"
            )


def build_model(config: ModelConfig) -> Tuple[LatticePolytope, MatrixGroup, str]:
    """Construct the polytope and the generated matrix group of a config."""
    if config.builtin is not None:
        source = config.builtin
        polytope = _builtin_polytope(source, config.d)
        name = f"{source}{config.d}"
    else:
        try:
            polytope = LatticePolytope(config.vertices, config.facets)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad inline polytope: {exc}") from exc
        source = name = "inline"
    generators = [_generator_matrix(entry, polytope, source) for entry in config.group]
    for g in generators:
        _check_generator(g, polytope)
    group = generate_group(generators, cap=config.cap_group, rank=polytope.dim)
    return polytope, group, name


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _is_int(x: object) -> bool:
    """A JSON integer; ``true``/``false`` are bools, not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_config(text: str) -> ModelConfig:
    """Parse and validate a JSON configuration string."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "top-level config must be a JSON object")
    known = {
        "builtin",
        "d",
        "vertices",
        "facets",
        "group",
        "commands",
        "cap_group",
        "quotient",
    }
    unknown = sorted(set(raw) - known)
    _require(not unknown, f"unknown config keys: {', '.join(unknown)}")

    has_builtin = "builtin" in raw
    has_inline = "vertices" in raw
    _require(
        has_builtin != has_inline,
        "config needs exactly one source: 'builtin' (+ 'd') or 'vertices'",
    )

    builtin = None
    d = None
    vertices = None
    facets = None
    if has_builtin:
        builtin = raw["builtin"]
        _require(
            builtin in BUILTIN_NAMES,
            f"unknown builtin {builtin!r}; choose from {', '.join(BUILTIN_NAMES)}",
        )
        _require("d" in raw, "builtin models need the dimension key 'd'")
        d = raw["d"]
        _require(_is_int(d), "'d' must be an integer")
        _require("facets" not in raw, "'facets' only applies to inline polytopes")
    else:
        _require("d" not in raw, "'d' only applies to builtin models")
        v = raw["vertices"]
        _require(
            isinstance(v, list) and v and all(isinstance(p, list) for p in v),
            "'vertices' must be a non-empty list of integer lists",
        )
        _require(
            all(_is_int(x) for p in v for x in p),
            "vertex coordinates must be integers",
        )
        vertices = tuple(tuple(p) for p in v)
        if "facets" in raw:
            f = raw["facets"]
            _require(
                isinstance(f, list)
                and all(
                    isinstance(pair, list)
                    and len(pair) == 2
                    and isinstance(pair[0], list)
                    for pair in f
                ),
                "'facets' must be a list of [normal, offset] pairs",
            )
            _require(
                all(_is_int(x) for a, b in f for x in a + [b]),
                "facet normals and offsets must be integers",
            )
            facets = tuple((tuple(a), b) for a, b in f)

    group = raw.get("group", [])
    _require(isinstance(group, list), "'group' must be a list of generators")
    group_entries = []
    for entry in group:
        if isinstance(entry, str):
            group_entries.append(entry)
        elif isinstance(entry, list):
            _require(
                all(isinstance(r, list) and all(_is_int(x) for x in r) for r in entry),
                "bad generator matrix: rows must be lists of integers",
            )
            try:
                group_entries.append(IntMatrix(entry))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad generator matrix: {exc}") from exc
        else:
            raise ConfigError(
                f"group entries must be strings or matrices, got {type(entry).__name__}"
            )

    commands = raw.get("commands", [])
    _require(isinstance(commands, list), "'commands' must be a list of command names")
    commands = tuple(commands)
    for command in commands:
        _require(
            command in COMMANDS,
            f"unknown command {command!r}; choose from {', '.join(COMMANDS)}",
        )

    cap = raw.get("cap_group", GROUP_CAP_DEFAULT)
    _require(
        _is_int(cap) and cap >= 1,
        "'cap_group' must be a positive integer",
    )
    quotient = raw.get("quotient", False)
    _require(isinstance(quotient, bool), "'quotient' must be a boolean")

    return ModelConfig(
        builtin=builtin,
        d=d,
        vertices=vertices,
        facets=facets,
        group=tuple(group_entries),
        commands=commands,
        cap_group=cap,
        quotient_only=quotient,
    )


def with_commands(config: ModelConfig, commands: Sequence[str]) -> ModelConfig:
    return config.replace(commands=tuple(commands))


def with_cap(config: ModelConfig, cap: Optional[int]) -> ModelConfig:
    if cap is None:
        return config
    _require(cap >= 1, f"the group cap must be a positive integer, got {cap}")
    return config.replace(cap_group=cap)
