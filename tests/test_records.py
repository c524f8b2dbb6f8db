"""The package's records: construction, checks, read-only fields, defaults."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import at_identity

from equimirror.algebra import BiLaurent, ClassFun, UniPoly
from equimirror.cli.main import RunContext
from equimirror.cli.models import ModelConfig, parse_config, with_cap, with_commands
from equimirror.cli.report import InvariantReport
from equimirror.combinatorics import IdentityCheck, IdentityReport, Tables, tables_for
from equimirror.errors import SubgroupMismatch
from equimirror.geometry.cones import AbstractCone
from equimirror.geometry.polytope import Face
from equimirror.groups import GROUP_CAP_DEFAULT
from equimirror.invariants import (
    ClosedForms,
    Diamond,
    EPoly,
    EulerCharacteristics,
    MirrorReport,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def check_record(cls, fields, values, frozen=True):
    """Build ``cls`` by position and by keyword; each field reads back the
    value it was given, and on a frozen record no field can be set."""
    records = (cls(*values), cls(**dict(zip(fields, values))))
    for record in records:
        for name, value in zip(fields, values):
            assert getattr(record, name) is value, (cls.__name__, name)
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
                assert getattr(record, name) is value
            else:
                setattr(record, name, None)
                assert getattr(record, name) is None
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    return records[0]


def test_cone_records(square):
    mask = square.faces[1].mask
    face = check_record(
        Face, ("index", "vertex_ids", "tight", "dim", "mask"), (1, (0,), (0, 2), 1, mask)
    )
    assert face.mask == 0b1
    apex, top = square.apex_index, square.top_index
    cone = check_record(
        AbstractCone, ("complex", "kind", "base", "ambient"), (square, "Q", apex, top)
    )
    assert cone.key == ("Q", apex, top) and cone.dim == 3
    with pytest.raises(ValueError, match="unknown abstract cone kind 'X'"):
        AbstractCone(square, "X", apex, top)
    with pytest.raises(ValueError, match="base face is not a face of the ambient one"):
        AbstractCone(square, "D", top, apex)


def test_combinatorics_records(square):
    tables = tables_for(square)
    check_record(Tables, ("phi", "hg", "stilde"), (tables.phi, tables.hg, tables.stilde))
    failing = check_record(IdentityCheck, ("name", "failures"), ("reciprocity", ((1, 0, "bad"),)))
    passing = IdentityCheck("palindromy", ())
    assert passing.ok and not failing.ok
    report = check_record(IdentityReport, ("checks",), ((passing, failing),))
    assert not report.ok
    assert report.summary().splitlines() == [
        "palindromy: ok",
        "reciprocity: FAILED x1",
        "  face 1, class 0: bad",
    ]


def test_invariant_records(square):
    group = square.group
    one = BiLaurent.one()
    values = (one,) * len(group.classes)
    epoly = check_record(EPoly, ("group", "values", "dim", "kind"), (group, values, 2, "torus"))
    assert at_identity(epoly) == one
    with pytest.raises(SubgroupMismatch, match="2 values for 1 classes"):
        EPoly(group, (one, one), 2, "torus")
    with pytest.raises(SubgroupMismatch):
        EPoly(group=group, values=(), dim=2, kind="torus")
    zeros = (BiLaurent.zero(),) * len(group.classes)
    mirror = check_record(
        MirrorReport, ("group", "dim", "left", "right", "residual"), (group, 2, values, values, zeros)
    )
    assert mirror.verdict and mirror.failures() == ()
    fun = ClassFun(group, (Fraction(1),))
    diamond = check_record(
        Diamond, ("group", "size", "entries", "invariant"), (group, 0, ((fun,),), ((1,),))
    )
    assert diamond.hodge(0, 0) is fun and diamond.rows() == ((1,),)
    check_record(EulerCharacteristics, ("per_class", "quotient"), (fun, Fraction(1)))
    check_record(
        ClosedForms, ("alpha", "stringy_identity", "quotient"), (UniPoly.one(), one, None)
    )


def test_cli_records(square):
    fields = (
        "builtin", "d", "vertices", "facets", "group", "commands", "cap_group",
        "quotient_only",
    )
    defaults = (None, None, None, None, (), (), GROUP_CAP_DEFAULT, False)
    assert tuple(getattr(ModelConfig(), name) for name in fields) == defaults
    check_record(ModelConfig, fields, ("cube", 3, None, None, ("central",), ("phi",), 9, True))
    positional = ModelConfig("cube", 2)
    assert positional.builtin == "cube" and positional.d == 2 and positional.commands == ()

    check_record(RunContext, ("complex", "gamma", "quotient"), (square, 1, True), frozen=False)
    context = RunContext(square)
    assert context.gamma is None and context.quotient is False

    check_record(
        InvariantReport, ("model", "group", "results", "text_lines"), ({}, {}, {}, []), frozen=False
    )


def test_with_commands_and_with_cap_leave_the_original():
    config = parse_config('{"builtin": "cube", "d": 2, "group": ["central"], "quotient": true}')
    changed = with_cap(with_commands(config, ["phi", "faces"]), 7)
    assert (changed.commands, changed.cap_group) == (("phi", "faces"), 7)
    assert (changed.builtin, changed.d, changed.group, changed.quotient_only) == (
        "cube", 2, ("central",), True,
    )
    assert (config.commands, config.cap_group) == ((), GROUP_CAP_DEFAULT)


def test_invariant_reports_share_no_containers():
    first = InvariantReport(model={}, group={})
    second = InvariantReport({}, {})
    assert first.results is not second.results
    assert first.text_lines is not second.text_lines
    first.add("faces", {"total": 1}, ["one face"])
    assert second.results == {} and second.text_lines == []
    assert first.render() == "== faces ==\none face\n"


# ---------------------------------------------------------------------------
# what importing the CLI loads


_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext")

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import equimirror.cli.main as cli
loaded = sorted(set(sys.modules) - before)
code = cli.main(["faces", "--config", sys.argv[1]])
print(json.dumps({"loaded": loaded, "code": code}))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_argparse(tmp_path):
    config = tmp_path / "square.json"
    config.write_text(json.dumps({"builtin": "cube", "d": 2, "group": ["central"]}))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert [m for m in _HEAVY if m in result["loaded"]] == []
    assert "equimirror.cli.main" in result["loaded"]
    assert result["code"] == 0
    assert "10 cone faces over a 2-dimensional polytope" in done.stdout
