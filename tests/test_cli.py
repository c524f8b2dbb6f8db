"""Configuration parsing, command dispatch, exit codes, and report rendering."""

from __future__ import annotations

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
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.intlinalg import IntMatrix
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
        ('{"builtin": "cube", "d": 2, "commands": ["fly"]}', "unknown command 'fly'"),
        ('{"builtin": "cube", "d": 2, "cap_group": 0}',
         "'cap_group' must be a positive integer"),
        ('{"builtin": "cube", "d": 2, "cap_group": true}',
         "'cap_group' must be a positive integer"),
        ('{"builtin": "cube", "d": 2, "quotient": "yes"}',
         "'quotient' must be a boolean"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert needle in str(info.value), text


def test_parse_config_roundtrip_random():
    """Random well-formed configs parse into matching dataclass fields."""
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
    # originals are untouched (frozen dataclass)
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
        (ModelConfig(builtin="cube", d=0), "'cube' needs 1 <= d <= 5"),
        (ModelConfig(vertices=((0, 0), (1, 0))), "bad inline polytope"),
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


# ---------------------------------------------------------------------------
# exit codes through main()


def test_main_exit_codes(tmp_path, capsys):
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

    assert cli.main(["faces", "--config", cube3c, "--cap-group", "1"]) == 4
    capsys.readouterr()

    assert cli.main(["phi", "--config", cube3c, "--gamma", "7"]) == 2
    assert "out of range" in capsys.readouterr().err

    # the affine invariants are fine without reflexivity
    assert cli.main(["euler", "--config", simplex3]) == 0
    assert cli.main(["ehodge", "--config", simplex3]) == 0
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate", "--config", cube3c])
    assert info.value.code == 2
    capsys.readouterr()


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
    quotient, _ = cli.run(cfg, quotient=True)
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
