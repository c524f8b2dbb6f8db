"""Configuration parsing, command dispatch, exit codes, and report rendering."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import types
from collections import Counter
from fractions import Fraction
from io import StringIO

import pytest

import equimirror.cli.main as cli
from equimirror.algebra.bilaurent import BiLaurent
from equimirror.algebra.unipoly import UniPoly
from equimirror.cli.models import (
    BUILTIN_NAMES,
    COMMANDS,
    ModelConfig,
    build_cross,
    build_model,
    parse_config,
    with_cap,
    with_commands,
)
from equimirror.cli.report import (
    diamond_rows,
    element_order,
    format_bilaurent,
    format_fraction,
    format_unipoly,
    fraction_json,
    group_json,
    render_diamond,
)
from equimirror.errors import ConfigError, NegativeExponent
from equimirror.geometry import counting, scan
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.counting import fixed_slice_count, homogenize
from equimirror.geometry.intlinalg import IntMatrix
from equimirror.geometry.polytope import LatticePolytope
from equimirror.groups import generate_group


def write_config(tmp_path, text, name="model.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parse_config


def test_parse_config_builtin():
    cfg = parse_config(
        '{"builtin": "cube", "d": 3, "group": ["central"],'
        ' "commands": ["phi", "euler"], "cap_group": 100, "quotient": true}'
    )
    assert cfg.builtin == "cube"
    assert cfg.d == 3
    assert cfg.vertices is None
    assert cfg.group == ("central",)
    assert cfg.commands == ("phi", "euler")
    assert cfg.cap_group == 100
    assert cfg.quotient_only is True


def test_parse_config_inline_with_facets_and_matrix_generator():
    cfg = parse_config(
        '{"vertices": [[1, 0], [0, 1], [-1, -1]],'
        ' "facets": [[[2, -1], 1], [[-1, 2], 1], [[-1, -1], 1]],'
        ' "group": [[[0, 1], [1, 0]]]}'
    )
    assert cfg.builtin is None
    assert cfg.vertices == ((1, 0), (0, 1), (-1, -1))
    assert cfg.facets == (((2, -1), 1), ((-1, 2), 1), ((-1, -1), 1))
    assert isinstance(cfg.group[0], IntMatrix)
    assert cfg.group[0].rows == ((0, 1), (1, 0))
    # the describe() summary round-trips the matrix back to nested lists
    assert cfg.describe() == {
        "vertices": [[1, 0], [0, 1], [-1, -1]],
        "group": [[[0, 1], [1, 0]]],
    }


def test_parse_config_rejections():
    cases = [
        ('{"builtin": "cube" "d": 3}', "invalid JSON at line 1"),
        ("[1, 2]", "top-level config must be a JSON object"),
        ('{"builtin": "cube", "d": 3, "zz": 1, "flavor": 2}',
         "unknown config keys: flavor, zz"),
        ('{"builtin": "cube", "d": 3, "vertices": [[1]]}', "exactly one source"),
        ('{"group": []}', "exactly one source"),
        ('{"builtin": "tetra", "d": 3}', "unknown builtin 'tetra'"),
        ('{"builtin": "cube"}', "need the dimension key 'd'"),
        ('{"builtin": "cube", "d": true}', "'d' must be an integer"),
        ('{"builtin": "cube", "d": 3, "facets": []}',
         "'facets' only applies to inline polytopes"),
        ('{"vertices": [[1, 0]], "d": 2}', "'d' only applies to builtin models"),
        ('{"vertices": []}', "non-empty list of integer lists"),
        ('{"vertices": [[1, true]]}', "vertex coordinates must be integers"),
        ('{"vertices": [[1, 0]], "facets": [[[1, 0]]]}',
         "list of [normal, offset] pairs"),
        ('{"builtin": "cube", "d": 2, "group": [3]}',
         "group entries must be strings or matrices, got int"),
        ('{"builtin": "cube", "d": 2, "group": [[[1, "x"], [0, 1]]]}',
         "bad generator matrix"),
        # JSON true and 1.0 are not integers, as for vertices and facets
        ('{"builtin": "cube", "d": 2, "group": [[[true, 0], [0, true]]]}',
         "bad generator matrix: rows must be lists of integers"),
        ('{"builtin": "cube", "d": 2, "group": [[[1.0, 0], [0, 1]]]}',
         "bad generator matrix: rows must be lists of integers"),
        ('{"builtin": "cube", "d": 2, "group": [[[-1.0, 0], [0, -1.0]]]}',
         "bad generator matrix: rows must be lists of integers"),
        ('{"builtin": "cube", "d": 2, "group": [[1, 2]]}',
         "bad generator matrix: rows must be lists of integers"),
        ('{"builtin": "cube", "d": 2, "commands": ["fly"]}', "unknown command 'fly'"),
        ('{"builtin": "cube", "d": 2, "cap_group": 0}',
         "'cap_group' must be a positive integer"),
        ('{"builtin": "cube", "d": 2, "cap_group": true}',
         "'cap_group' must be a positive integer"),
        ('{"builtin": "cube", "d": 2, "quotient": "yes"}',
         "'quotient' must be a boolean"),
        ('{"builtin": "cube", "d": 2, "group": 5}', "'group' must be a list"),
        ('{"builtin": "cube", "d": 2, "group": "central"}', "'group' must be a list"),
        ('{"builtin": "cube", "d": 2, "commands": 5}', "'commands' must be a list"),
        ('{"builtin": "cube", "d": 2, "commands": "phi"}', "'commands' must be a list"),
        ('{"vertices": [[0, 0], [1, 0], [0, 1]], "facets": [[[1.7, 1], 1]]}',
         "facet normals and offsets must be integers"),
        ('{"vertices": [[0, 0], [1, 0], [0, 1]], "facets": [[[1, 1], 1.0]]}',
         "facet normals and offsets must be integers"),
        ('{"vertices": [[0, 0], [1, 0], [0, 1]], "facets": [[[1, true], 1]]}',
         "facet normals and offsets must be integers"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert needle in str(info.value), text


def test_parse_config_roundtrip_random():
    """Random well-formed configs parse into matching ModelConfig fields."""
    rng = random.Random(411)
    dims = {"cube": (1, 5), "cross": (1, 5), "simplex": (1, 5), "fermat": (2, 5)}
    for _ in range(60):
        name = rng.choice(BUILTIN_NAMES)
        lo, hi = dims[name]
        d = rng.randint(lo, hi)
        raw = {"builtin": name, "d": d}
        if rng.random() < 0.5:
            raw["commands"] = rng.sample(COMMANDS, rng.randint(0, 3))
        if rng.random() < 0.5:
            raw["cap_group"] = rng.randint(1, 10**6)
        if rng.random() < 0.3:
            raw["quotient"] = rng.choice([True, False])
        cfg = parse_config(json.dumps(raw))
        assert cfg.builtin == name and cfg.d == d
        assert cfg.commands == tuple(raw.get("commands", ()))
        if "cap_group" in raw:
            assert cfg.cap_group == raw["cap_group"]
        assert cfg.quotient_only == raw.get("quotient", False)
        described = cfg.describe()
        assert described["builtin"] == name and described["d"] == d


def test_with_commands_and_with_cap():
    cfg = parse_config('{"builtin": "cube", "d": 2}')
    assert with_commands(cfg, ["phi"]).commands == ("phi",)
    assert with_cap(cfg, None) is cfg
    assert with_cap(cfg, 7).cap_group == 7
    with pytest.raises(ConfigError):
        with_cap(cfg, 0)
    # originals are untouched (ModelConfig is read-only)
    assert cfg.commands == () and cfg.cap_group != 7


# ---------------------------------------------------------------------------
# build_model


def test_build_model_builtin_names_and_group():
    polytope, group, name = build_model(
        ModelConfig(builtin="cube", d=3, group=("central", "(12)"))
    )
    assert name == "cube3"
    assert polytope.dim == 3
    assert group.order == 4  # -I and a coordinate swap commute


def test_build_model_fermat_words_are_conjugated():
    # a 5-cycle on the five homogeneous directions really is a lattice
    # symmetry of the rank-4 model, so the complex builds without protest
    polytope, group, name = build_model(
        ModelConfig(builtin="fermat", d=4, group=("(12345)",))
    )
    assert name == "fermat4"
    assert group.order == 5
    cx = ConeComplex(polytope, group)
    assert cx.face_count == 32


def test_build_model_rejections():
    cases = [
        (ModelConfig(builtin="fermat", d=4, group=("central",)),
         "'central' needs a centrally symmetric model"),
        (ModelConfig(builtin="simplex", d=2, group=("central",)),
         "'central' needs a centrally symmetric model"),
        (ModelConfig(builtin="fermat", d=4, group=("(16)",)),
         "moves points beyond degree 5"),
        (ModelConfig(builtin="cube", d=3, group=("(14)",)),
         "moves points beyond degree 3"),
        (ModelConfig(builtin="cube", d=3, group=("spin",)),
         "unrecognized generator keyword 'spin'"),
        (ModelConfig(builtin="fermat", d=6), "'fermat' needs 2 <= d <= 5"),
        (ModelConfig(builtin="cube", d=0), "'cube' needs 1 <= d <= 6"),
        (ModelConfig(builtin="cross", d=7), "'cross' needs 1 <= d <= 6"),
        (ModelConfig(vertices=((0, 0), (1, 0))), "bad inline polytope"),
        (ModelConfig(vertices=((0.5, 0), (1, 0), (0, 1), (1.9, 1))),
         "bad inline polytope"),
        # point 0 is not a point, so these must not become the identity
        (ModelConfig(builtin="fermat", d=4, group=("(40)",)),
         "bad permutation '(40)'"),
        (ModelConfig(builtin="cube", d=2, group=("(20)",)), "bad permutation '(20)'"),
        (ModelConfig(builtin="cube", d=3, group=("(1a)",)), "bad permutation '(1a)'"),
        (ModelConfig(builtin="cube", d=3, group=("(11)",)), "bad permutation '(11)'"),
        (ModelConfig(builtin="cube", d=3, group=("(12",)), "bad permutation '(12'"),
        (ModelConfig(builtin="fermat", d=4, group=("(12",)), "bad permutation '(12'"),
        # an infinite-order shear: rejected before the closure reaches the cap
        (ModelConfig(builtin="cube", d=3, group=(((1, 1, 0), (0, 1, 0), (0, 0, 1)),)),
         "maps vertex [-1, -1, -1] to [-2, -1, -1]"),
        (ModelConfig(builtin="cube", d=2, group=(((2, 0), (0, 1)),)),
         "maps vertex [-1, -1] to [-2, -1]"),
        (ModelConfig(vertices=((0, 0), (2, 0), (0, 1)), group=(((0, 1), (1, 0)),)),
         "maps vertex [0, 1] to [1, 0]"),
        # generator matrices of the wrong size
        (ModelConfig(builtin="cube", d=3, group=(((1, 0), (0, 1)),)),
         "bad generator matrix: 2x2 on a polytope in Z^3"),
        (ModelConfig(builtin="cube", d=2, group=(((1, 0, 0), (0, 1, 0)),)),
         "bad generator matrix: 2x3 on a polytope in Z^2"),
        (ModelConfig(builtin="cube", d=3, group=((),)),
         "bad generator matrix: 0x0 on a polytope in Z^3"),
    ]
    for cfg, needle in cases:
        with pytest.raises(ConfigError) as info:
            build_model(cfg)
        assert needle in str(info.value), needle


def test_build_model_inline_central_detection():
    # an inline segment is centrally symmetric, so "central" is accepted
    polytope, group, name = build_model(
        ModelConfig(vertices=((1,), (-1,)), group=("central",))
    )
    assert name == "inline"
    assert group.order == 2


def test_incomplete_facet_list_exits_2(tmp_path, capsys):
    """The octahedron's facets without ``(1, 1, 1)`` each pass validation;
    the face lattice check rejects the list, where ``phi`` used to print
    ``1 + 4*t + 4*t^2 + t^3`` and exit 0."""
    octahedron = build_cross(3)
    vertices = [list(v) for v in octahedron.vertices]
    facets = [[list(a), b] for a, b in octahedron.facets]
    partial = [f for f in facets if f[0] != [1, 1, 1]]
    path = write_config(tmp_path, json.dumps({"vertices": vertices, "facets": partial}))
    assert cli.main(["phi", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "a facet is missing" in captured.err
    path = write_config(tmp_path, json.dumps({"vertices": vertices, "facets": facets}))
    assert cli.main(["phi", "--config", path]) == 0
    assert "phi[C](class 0) = 1 + 3*t + 3*t^2 + t^3" in capsys.readouterr().out
    # an edge midpoint listed with the square's vertices, facets searched:
    # phi used to end in a traceback from the dual's facet validation
    square = [[1, 1], [1, -1], [-1, 1], [-1, -1], [1, 0]]
    path = write_config(tmp_path, json.dumps({"vertices": square}))
    assert cli.main(["phi", "--config", path]) == 2
    assert "point [1, 0] is no face on its own" in capsys.readouterr().err


def test_given_facets_take_no_elimination(tmp_path, capsys):
    """A valid 4-polytope whose 28 facets, given, once failed closed with
    exit 4: a boundedness check by elimination would have combined 159,808
    row pairs, over the cap.  The face lattice decides that the list is
    complete, so ``faces`` prints the same with the facets given as with
    them searched."""
    vertices = [
        [-2, -2, 1, 2], [-2, -1, 2, 2], [-1, 1, 0, 1], [-1, 3, -3, -1],
        [0, -1, -3, -2], [0, -1, 1, 0], [1, 3, 0, -2], [2, 1, -1, 0],
        [3, -3, 1, 1], [3, 1, 1, 0],
    ]
    facets = [[list(a), b] for a, b in LatticePolytope(vertices).facets]
    assert len(facets) == 28
    outputs = []
    for name, config in (
        ("searched.json", {"vertices": vertices}),
        ("given.json", {"vertices": vertices, "facets": facets}),
    ):
        path = write_config(tmp_path, json.dumps(config), name)
        assert cli.main(["faces", "--config", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "134 cone faces" in outputs[0]


# ---------------------------------------------------------------------------
# exit codes through main()


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    cube3c = write_config(
        tmp_path, '{"builtin": "cube", "d": 3, "group": ["central"]}', "cube.json"
    )
    simplex3 = write_config(tmp_path, '{"builtin": "simplex", "d": 3}', "simplex.json")
    bad = write_config(tmp_path, '{"builtin": cube}', "bad.json")

    assert cli.main(["phi", "--config", cube3c]) == 0
    out = capsys.readouterr().out
    assert "phi[C](class 0)" in out and "phi[C*](class 0)" in out

    assert cli.main(["phi"]) == 2
    assert "requires --config" in capsys.readouterr().err

    assert cli.main(["phi", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    assert cli.main(["phi", "--config", bad]) == 2
    assert "invalid JSON at line 1" in capsys.readouterr().err

    # reflexivity-only commands on a non-reflexive model are config errors
    assert cli.main(["stringy", "--config", simplex3]) == 2
    assert cli.main(["mirror-check", "--config", simplex3]) == 2
    capsys.readouterr()

    # generator entries that JSON reads as bools or floats are config errors,
    # not the identity or -I
    for entries in ("[[true, 0], [0, true]]", "[[1.0, 0], [0, 1]]",
                    "[[-1.0, 0], [0, -1.0]]"):
        text = '{"builtin": "cube", "d": 2, "group": [%s]}' % entries
        path = write_config(tmp_path, text, "float.json")
        assert cli.main(["faces", "--config", path]) == 2
        assert "rows must be lists of integers" in capsys.readouterr().err

    assert cli.main(["faces", "--config", cube3c, "--cap-group", "1"]) == 4
    capsys.readouterr()
    # a cap below one is a bad option, as the config key is, not a cap hit
    for cap in ("0", "-3"):
        assert cli.main(["faces", "--config", cube3c, "--cap-group", cap]) == 2
        assert "must be a positive integer" in capsys.readouterr().err

    # a --json path that cannot be written is reported, not a traceback
    unwritable = str(tmp_path / "missing" / "r.json")
    assert cli.main(["faces", "--config", cube3c, "--json", unwritable]) == 2
    assert f"error: cannot write {unwritable}" in capsys.readouterr().err
    subset = tuple(item for item in cli._SELFTEST_CASES if item[0] == "simplex-hg")
    monkeypatch.setattr(cli, "_SELFTEST_CASES", subset)
    assert cli.main(["selftest", "--json", unwritable]) == 2
    assert f"error: cannot write {unwritable}" in capsys.readouterr().err

    # a generator that does not preserve the polytope is a config error, even
    # when it has infinite order and its closure would hit the cap
    shear = write_config(
        tmp_path,
        '{"builtin": "cube", "d": 3, "group": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]]}',
        "shear.json",
    )
    assert cli.main(["faces", "--config", shear]) == 2
    assert "not a vertex of the polytope" in capsys.readouterr().err
    wrong_size = write_config(
        tmp_path, '{"builtin": "cube", "d": 3, "group": [[[1, 0], [0, 1]]]}', "size.json"
    )
    assert cli.main(["faces", "--config", wrong_size]) == 2
    assert "bad generator matrix" in capsys.readouterr().err

    # checked before any command runs, so on every command
    for command in ("phi", "diamond", "identities"):
        assert cli.main([command, "--config", cube3c, "--gamma", "7"]) == 2
        assert "out of range" in capsys.readouterr().err

    # a zero-dimensional ambient space is a bad config, not a cap hit
    point = write_config(tmp_path, '{"vertices": [[]]}', "point.json")
    assert cli.main(["faces", "--config", point]) == 2
    assert "at least one coordinate" in capsys.readouterr().err

    # the 6-cross-polytope is within the dimension and vertex caps, and its
    # pruned elimination combines at most 6,561 row pairs in one step; under
    # a lower pair cap it fails closed in the slice counts of phi, while
    # faces takes no elimination, facets given or not
    cross6 = [[s if j == i else 0 for j in range(6)] for i in range(6) for s in (1, -1)]
    signs = [list(s) for s in itertools.product((-1, 1), repeat=6)]
    inline = write_config(tmp_path, json.dumps({"vertices": cross6}), "cross6.json")
    with_facets = write_config(
        tmp_path,
        json.dumps({"vertices": cross6, "facets": [[a, 1] for a in signs]}),
        "cross6f.json",
    )
    with monkeypatch.context() as patch:
        patch.setattr(scan, "FM_PAIR_CAP", 6_000)
        counting.clear_cache()  # no plan made under the real cap may answer
        assert cli.main(["phi", "--config", inline]) == 4
        assert "row pairs" in capsys.readouterr().err
        assert cli.main(["faces", "--config", inline]) == 0
        searched = capsys.readouterr().out
        assert cli.main(["faces", "--config", with_facets]) == 0
        assert capsys.readouterr().out == searched
    assert "730 cone faces" in searched

    # the affine invariants are fine without reflexivity
    assert cli.main(["euler", "--config", simplex3]) == 0
    assert cli.main(["ehodge", "--config", simplex3]) == 0
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate", "--config", cube3c])
    assert info.value.code == 2
    capsys.readouterr()


CROSS6_PHI = "1 + 6*t + 15*t^2 + 20*t^3 + 15*t^4 + 6*t^5 + t^6"
CUBE6_PHI = "1 + 722*t + 10543*t^2 + 23548*t^3 + 10543*t^4 + 722*t^5 + t^6"


def test_six_dimensional_cube_and_cross_phi(tmp_path, capsys):
    """``phi`` of the 6-cross-polytope, inline and built in, and of the
    built-in 6-cube (64 vertices, the vertex cap): the two are polar, so
    each one's ``phi[C*]`` is the other's ``phi[C]``."""
    cross6 = [[s if j == i else 0 for j in range(6)] for i in range(6) for s in (1, -1)]
    configs = [
        ({"vertices": cross6}, CROSS6_PHI, CUBE6_PHI),
        ({"builtin": "cross", "d": 6}, CROSS6_PHI, CUBE6_PHI),
        ({"builtin": "cube", "d": 6}, CUBE6_PHI, CROSS6_PHI),
    ]
    for i, (config, primal, dual) in enumerate(configs):
        path = write_config(tmp_path, json.dumps(config), f"six{i}.json")
        assert cli.main(["phi", "--config", path]) == 0
        out = capsys.readouterr().out
        assert f"phi[C](class 0) = {primal}\n" in out
        assert f"phi[C*](class 0) = {dual}\n" in out
    # the top-face slices: m times the 6-cross-polytope holds
    # sum_k 2^k C(6, k) C(m, k) lattice points
    rows = homogenize(build_cross(6).facets)
    identity = IntMatrix.identity(7)
    assert [fixed_slice_count(rows, (), identity, m) for m in (1, 2, 3)] == [13, 85, 377]


def test_one_dimensional_diamond_counts_two_points(tmp_path, capsys):
    """The hypersurface of a 1-dimensional reflexive model is two points,
    so ``h^{0,0} = 2``: the connectedness guard applies only from curves
    on.  Under ``central`` the two points are swapped, so the antipodal
    class fixes neither and the quotient is one point."""
    for name in ("cube", "cross"):
        trivial = write_config(tmp_path, json.dumps({"builtin": name, "d": 1}))
        json_path = tmp_path / "report.json"
        assert cli.main(["diamond", "--config", trivial, "--json", str(json_path)]) == 0
        assert capsys.readouterr().out.endswith(
            "Hodge diamond (dimensions at the identity):\n2\n"
        )
        diamond = json.loads(json_path.read_text())["results"]["diamond"]
        assert diamond["size"] == 0 and diamond["invariant"] == {"0,0": 2}
        central = write_config(
            tmp_path, json.dumps({"builtin": name, "d": 1, "group": ["central"]})
        )
        assert cli.main(["diamond", "--config", central, "--json", str(json_path)]) == 0
        assert "h^{0,0} by class: 0, 2\n" in capsys.readouterr().out
        diamond = json.loads(json_path.read_text())["results"]["diamond"]
        assert diamond["invariant"] == {"0,0": 1}


def test_main_identity_failure_exit(tmp_path, capsys, monkeypatch):
    """A failing verification and a raised identity error both map to 3."""
    cfg = write_config(tmp_path, '{"builtin": "cube", "d": 2}')

    bad = types.SimpleNamespace(
        name="reciprocity", ok=False, failures=((0, 0, "forced mismatch"),)
    )
    monkeypatch.setattr(
        cli, "verify_identities", lambda cx: types.SimpleNamespace(checks=(bad,))
    )
    assert cli.main(["identities", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "reciprocity: FAILED x1" in out
    assert "face 0, class 0: forced mismatch" in out
    monkeypatch.undo()
    assert cli.main(["identities", "--config", cfg]) == 0
    assert "reciprocity: ok" in capsys.readouterr().out

    def boom(ctx):
        raise NegativeExponent("exponent -1 out of range")

    monkeypatch.setitem(cli._HANDLERS, "euler", boom)
    assert cli.main(["euler", "--config", cfg]) == 3
    assert "exponent -1 out of range" in capsys.readouterr().err


def test_main_positional_command_replaces_config_commands(tmp_path, capsys):
    cfg = write_config(
        tmp_path, '{"builtin": "cube", "d": 2, "commands": ["phi", "euler"]}'
    )
    json_path = tmp_path / "report.json"
    assert cli.main(["stilde", "--config", cfg, "--json", str(json_path)]) == 0
    capsys.readouterr()
    document = json.loads(json_path.read_text())
    assert sorted(document["results"]) == ["stilde"]


def test_main_json_report_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, '{"builtin": "simplex", "d": 3}')
    json_path = tmp_path / "report.json"
    assert cli.main(["euler", "--config", cfg, "--json", str(json_path)]) == 0
    capsys.readouterr()
    document = json.loads(json_path.read_text())
    assert document["schema"] == 1
    assert document["model"] == {"builtin": "simplex", "d": 3, "group": []}
    assert document["group"]["order"] == 1
    euler = document["results"]["euler"]
    assert euler["kind"] == "affine"
    # chi of the 3-simplex hypersurface: exact rational as [num, den]
    assert euler["quotient"] == euler["per_class"]["0"]


def test_main_reports_are_byte_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path, '{"builtin": "cube", "d": 3, "group": ["central"]}'
    )
    blobs = []
    for threads in ("1", "4", "1"):
        json_path = tmp_path / f"report-{len(blobs)}.json"
        code = cli.main(
            ["diamond", "--config", cfg, "--threads", threads, "--json", str(json_path)]
        )
        assert code == 0
        capsys.readouterr()
        blobs.append(json_path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


REPORT_MODELS = {
    "cross3-central": {"builtin": "cross", "d": 3, "group": ["central"]},
    # A5 is not its own contragredient in the quintic's lattice basis
    "quintic-a5": {"builtin": "fermat", "d": 4, "group": ["(12)(34)", "(12345)"]},
    "fermat3-(12)(34)": {"builtin": "fermat", "d": 3, "group": ["(12)(34)"]},
}

# sha256 of each command's stdout, a NUL byte and its --json report
REPORT_DIGESTS = {
    "cross3-central": {
        "faces": "c0f8ef2f6cbbffc0593d8a68c7815f81ecc87e573edc648dd7eee324690ae189",
        "phi": "a8f2f159fd8e6346473550c5bec96b0449f3dd79770054b415950e533dbb40fa",
        "hg": "790bc8bc49f8557e9daa5876c121c2e54d801c4d0434aa99d52fa58402be054e",
        "stilde": "c704f6fc09ab098b200e58098c5849cbd90a6f9be2c216d91852ff22295f5047",
        "ehodge": "bf3733889fedac8cb27e2b036776af663442e9f5307193c334d2eed04760d34e",
        "stringy": "4743790a0f10e1fdccd0f3d8f74c4804a8e38391c90aa4d5f2fa1fa86ffd954c",
        "mirror-check": "73fa111fa2441cfbd607aad8bcd454cfbc9c8a4c079856ff10f24b3f3c987938",
        "diamond": "19803bb01ec0bc0b29c8020c4ca3dd4486ca4d4c4e33323f54d2e1f35b12502d",
        "euler": "a8176663a6532058b9fb35b5ea34162ac173c4ad403cc176b4ffac038dbba2c6",
        "identities": "703204a782aaa630152a7680d2ec396841460981cfbcff36e70a97d429b1db61",
    },
    "quintic-a5": {
        "faces": "6d94704bc2c723ecb6edafbfd73656d3fb55771d2d3fa3a485745cc8df9848ff",
        "phi": "443a59f9210b2c43322986e6cbb10e5f4adc1e9abfaaa0aed680b501daef95e3",
        "hg": "4ccaa9e5078a7ae27ee3c4f4ab5e28917d800c9aa6ae0b83cc6701f9c5fe7d80",
        "stilde": "6f7f73b10135263f09efd8db6c0f80e2e097f37b29d616602ca021c0f6ffea3a",
        "ehodge": "aaf389ad1f9bbb3769f1929b18ab7c90360ec48dea0819e28bc537f3688c448c",
        "stringy": "6bc5830bcea39edf92b3ba5be7cb656f353b8076573736177b6d789092ebffa4",
        "mirror-check": "ca4d5a4e69fd7dae296e15e93b3d95bf4ecd282dcb45dc9be54c3cc9565f9a98",
        "diamond": "52fbc04ecf6e8ae85a3f60de0bba1b43d38854b8aaf1f939c0a9e85615958e4d",
        "euler": "620e8b4ad58ff1bf7d0579bab2f637d5fe4f5a77cf3865cab6fc099471f9d34f",
        "identities": "3bd46187a1186b7faf0f2d114867023051e0c84953e9b5f95526c14c0f505d26",
    },
    "fermat3-(12)(34)": {
        "faces": "a10ff0d201895a16af37e1d31b2885bb1b54f1e8a12143c6c873b965215a9678",
        "phi": "d4b40ea459dd8320fd066ba82de208a40591eab9889fa091e98d23ff830d070a",
        "hg": "94f55a1e13c47ea939a81176778ceedfadf93410f56bd340f44072d36e13eba9",
        "stilde": "b95c5d5ffb3111fa084ff9057702fe6810de0a4d6b62382610252438a4608fef",
        "ehodge": "5aa09e901315952f4ee78c6e305673cd1bdc55781fe01692d2dfbd7c9a1a44da",
        "stringy": "17b3bbdce8a536c039f2e66675fb3ea8b83d29d8e4907c74f9a985541e9ba3e6",
        "mirror-check": "f93581d6c927702265b292fed3d4bc251f0f8351f4a328ba24339f8b98269704",
        "diamond": "33b704f79e1a063644e065cfc0936037d4308608453b38f0ce4d003f5a76c5fa",
        "euler": "95878e9c4b883ee26c61e5416365232902e241bb6ae1b3066789ff88caf95f47",
        "identities": "3cd8cf1dbf3c313541f5ea786fa6177f90d8eca8355ec75afe6ed630f34f1b87",
    },
}


def test_report_digests_are_pinned(tmp_path, capsys):
    """Every report of every command is byte-for-byte the pinned one: a
    refactor that changes a report, even only its order or formatting,
    fails here and has to update the digest on purpose."""
    json_path = tmp_path / "report.json"
    found = {}
    for name, config in REPORT_MODELS.items():
        path = write_config(tmp_path, json.dumps(config))
        found[name] = {}
        for command in COMMANDS:
            assert cli.main([command, "--config", path, "--json", str(json_path)]) == 0
            stdout = capsys.readouterr().out.encode()
            blob = stdout + b"\0" + json_path.read_bytes()
            found[name][command] = hashlib.sha256(blob).hexdigest()
    assert found == REPORT_DIGESTS


# ---------------------------------------------------------------------------
# the programmatic run() surface


def test_run_gamma_restricts_per_class_output():
    cfg = parse_config(
        '{"builtin": "cube", "d": 3, "group": ["central"],'
        ' "commands": ["phi", "euler", "stringy"]}'
    )
    report, code = cli.run(cfg, gamma=1)
    assert code == 0
    assert sorted(report.results["phi"]["top"]) == ["1"]
    assert sorted(report.results["euler"]["per_class"]) == ["1"]
    assert sorted(report.results["stringy"]["per_class"]) == ["1"]
    # the unrestricted run carries both classes
    full, _ = cli.run(cfg)
    assert sorted(full.results["phi"]["top"]) == ["0", "1"]


def test_run_quotient_changes_text_not_payload():
    cfg = parse_config('{"builtin": "cube", "d": 3, "commands": ["diamond"]}')
    plain, _ = cli.run(cfg)
    quotient, _ = cli.run(cfg.replace(quotient_only=True))
    assert plain.payload() == quotient.payload()
    assert any("dimensions at the identity" in line for line in plain.text_lines)
    assert any("quotient Hodge diamond" in line for line in quotient.text_lines)
    assert plain.render() != quotient.render()


def test_run_unknown_command_rejected():
    cfg = ModelConfig(builtin="cube", d=2, commands=("warp",))
    with pytest.raises(ConfigError, match="unknown command 'warp'"):
        cli.run(cfg)


def test_run_mirror_check_payload():
    cfg = parse_config(
        '{"builtin": "cube", "d": 2, "group": ["central"],'
        ' "commands": ["mirror-check"]}'
    )
    report, code = cli.run(cfg)
    assert code == 0
    payload = report.results["mirror-check"]
    assert payload["verdict"] is True
    zero = BiLaurent.zero().to_json()
    assert all(residual == zero for residual in payload["residual"].values())


# ---------------------------------------------------------------------------
# selftest


def test_selftest_subset_runs_and_writes_json(tmp_path, monkeypatch):
    subset = tuple(
        item for item in cli._SELFTEST_CASES
        if item[0] in ("simplex-hg", "cubic-curve")
    )
    assert len(subset) == 2
    monkeypatch.setattr(cli, "_SELFTEST_CASES", subset)
    buf = StringIO()
    json_path = tmp_path / "selftest.json"
    assert cli.selftest(threads=2, json_path=json_path, out=buf) == 0
    text = buf.getvalue()
    assert "simplex-hg" in text and "cubic-curve" in text
    assert "selftest: all passed" in text
    assert "(0." in text  # the text report shows timings ...
    document = json.loads(json_path.read_text())
    assert document["schema"] == 1
    # ... but the JSON document must not, so reruns compare byte-equal
    assert "time" not in json_path.read_text()
    assert document["selftest"] == [
        {"failures": [], "name": "simplex-hg", "ok": True},
        {"failures": [], "name": "cubic-curve", "ok": True},
    ]


def test_selftest_reports_failures(monkeypatch):
    def failing(failures):
        failures.append("deliberately wrong")

    def raising(failures):
        raise NegativeExponent("boom")

    monkeypatch.setattr(
        cli, "_SELFTEST_CASES", (("tiny-fail", failing), ("tiny-raise", raising))
    )
    buf = StringIO()
    assert cli.selftest(out=buf) == 3
    text = buf.getvalue()
    assert "tiny-fail" in text and "deliberately wrong" in text
    assert "raised NegativeExponent: boom" in text
    assert "selftest: FAILURES" in text


def test_selftest_case_functions_pass_directly():
    for name, fn in cli._SELFTEST_CASES:
        if name not in ("simplex-hg", "cubic-curve", "fault-injection"):
            continue
        failures = []
        fn(failures)
        assert failures == [], (name, failures)


def test_selftest_case_names_and_golden_row_counts():
    assert [name for name, _ in cli._SELFTEST_CASES] == [
        "cube4-trivial",
        "cube4-central",
        "quintic-a5",
        "quintic-sym5",
        "quintic-subgroup-mirrors",
        "d3-surfaces",
        "simplex-hg",
        "cubic-curve",
        "fault-injection",
        "determinism",
    ]
    per_case = Counter(row[0] for row in cli._GOLDEN)
    assert list(per_case.items()) == [
        ("cube4-trivial", 12),
        ("cube4-central", 10),
        ("quintic-a5", 6),
        ("quintic-sym5", 4),
        ("quintic-subgroup-mirrors", 7),
        ("d3-surfaces", 5),
        ("simplex-hg", 8),
        ("cubic-curve", 2),
    ]
    assert len(set(row[:4] for row in cli._GOLDEN)) == len(cli._GOLDEN)


def test_golden_quantities_and_models_have_no_dead_entries():
    quantities = {quantity.rstrip("*") for _, _, _, quantity, _ in cli._GOLDEN}
    assert quantities == set(cli._QUANTITIES)
    assert {model for _, model, _, _, _ in cli._GOLDEN} == set(cli._MODELS)
    assert {element for _, _, element, _, _ in cli._GOLDEN} == {None, 1, -1}


def test_selftest_flipped_golden_row_fails_only_its_case(monkeypatch):
    rows = list(cli._GOLDEN)
    index = rows.index(
        ("cubic-curve", "cubic-curve", 1, "phi", UniPoly((1, 7, 1)))
    )
    rows[index] = rows[index][:4] + (UniPoly((1, 8, 1)),)
    monkeypatch.setattr(cli, "_GOLDEN", tuple(rows))
    subset = tuple(
        item for item in cli._SELFTEST_CASES
        if item[0] in ("simplex-hg", "cubic-curve")
    )
    monkeypatch.setattr(cli, "_SELFTEST_CASES", subset)
    buf = StringIO()
    assert cli.selftest(out=buf) == 3
    lines = buf.getvalue().splitlines()
    assert lines[0].split()[:2] == ["simplex-hg", "ok"]
    assert lines[1].split()[:2] == ["cubic-curve", "FAIL"]
    assert lines[2].strip().startswith("phi of cubic-curve at 1*I: got UniPoly(")
    assert "expected UniPoly(1 + 8*t + t^2)" in lines[2]
    assert lines[3:] == ["selftest: FAILURES"]


def test_main_selftest_threads_and_exit_codes(tmp_path, monkeypatch, capsys):
    def failing(failures):
        failures.append("deliberately wrong")

    subset = tuple(
        item for item in cli._SELFTEST_CASES
        if item[0] in ("simplex-hg", "cubic-curve")
    )
    monkeypatch.setattr(cli, "_SELFTEST_CASES", subset)
    json_path = tmp_path / "selftest.json"
    assert cli.main(["selftest", "--threads", "2", "--json", str(json_path)]) == 0
    assert "selftest: all passed" in capsys.readouterr().out
    document = json.loads(json_path.read_text())
    assert document == {
        "schema": 1,
        "selftest": [
            {"failures": [], "name": "simplex-hg", "ok": True},
            {"failures": [], "name": "cubic-curve", "ok": True},
        ],
    }
    monkeypatch.setattr(cli, "_SELFTEST_CASES", subset + (("tiny-fail", failing),))
    assert cli.main(["selftest", "--threads", "2"]) == 3
    assert "deliberately wrong" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report helpers


def test_format_unipoly():
    assert format_unipoly(UniPoly(())) == "0"
    assert format_unipoly(UniPoly((1, 2, 0, -1))) == "1 + 2*t - t^3"
    assert format_unipoly(UniPoly((0, 1))) == "t"
    assert format_unipoly(UniPoly((Fraction(1, 2),))) == "1/2"


def test_format_bilaurent():
    one, u, v, uv = (
        BiLaurent.one(),
        BiLaurent.monomial(1, 0),
        BiLaurent.monomial(0, 1),
        BiLaurent.monomial(1, 1),
    )
    assert format_bilaurent(one - u - v + uv) == "1 - v - u + uv"
    assert format_bilaurent(BiLaurent.monomial(-1, 2, 3)) == "3*u^(-1)v^2"
    assert format_bilaurent(BiLaurent.zero()) == "0"


def test_format_fraction_and_json():
    assert format_fraction(Fraction(-3)) == "-3"
    assert format_fraction(Fraction(5, 2)) == "5/2"
    assert fraction_json(Fraction(5, 2)) == [5, 2]
    assert fraction_json(Fraction(-4, 2)) == [-2, 1]


def test_diamond_rendering():
    rows = diamond_rows({(0, 0): "1", (1, 0): "a", (0, 1): "bb", (1, 1): "1"}, 1)
    assert rows == [["1"], ["a", "bb"], ["1"]]
    rendered = render_diamond(rows)
    assert rendered == ["  1", "a   bb", "  1"]
    assert all(not line.endswith(" ") for line in rendered)


def test_element_order_and_group_json():
    group = generate_group([IntMatrix(((0, -1), (1, 0)))], rank=2)
    assert group.order == 4
    assert element_order(group, IntMatrix(((0, -1), (1, 0)))) == 4
    assert element_order(group, IntMatrix.identity(2)) == 1
    document = group_json(group)
    assert document["order"] == 4
    assert [c["index"] for c in document["classes"]] == list(
        range(len(group.classes))
    )
    assert sum(c["size"] for c in document["classes"]) == 4
    orders = sorted(c["order"] for c in document["classes"])
    assert orders == [1, 2, 4, 4]


def test_commands_tuple_matches_handlers():
    assert sorted(COMMANDS) == sorted(cli._HANDLERS)
