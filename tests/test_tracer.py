"""The benchmark's span tracer still finds every function it wraps, and a
traced run still produces the untraced report."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Installs the tracer the way a traced benchmark run does: the package is
# imported first, then every target is wrapped (``install`` raises on a
# target that is gone or no longer a plain function).
_SCRIPT = """
import equimirror.cli.main
import tracer

t = tracer.install(tracer.Tracer())
expected = [(modname, path) for _name, modname, path, _b, _a in tracer.TARGETS]
assert t.wrapped == expected, sorted(set(expected) - set(t.wrapped))
print(len(t.wrapped))
"""

# Runs all ten commands on the square under the quarter turn, untraced and
# then traced.  The memo probes read the tables' private dicts, so a renamed
# memo fails the traced run here rather than only in a benchmark run.
_SMOKE = """
import json
import equimirror.cli.main as cli_main
from equimirror.cli.models import COMMANDS, parse_config
import tracer

config = parse_config(json.dumps(
    {"builtin": "cube", "d": 2, "group": [[[0, -1], [1, 0]]], "commands": COMMANDS}
))
plain, plain_code = cli_main.run(config)
t = tracer.install(tracer.Tracer())
traced, traced_code = cli_main.run(config)
assert plain_code == traced_code == 0, (plain_code, traced_code)
assert traced.to_json() == plain.to_json()
assert traced.render() == plain.render()
counts = t.summary()["counts"]
print(counts["combinatorics.hg.hits"], counts["combinatorics.hg.misses"])
"""

# One benchmark workload, shrunk: the same kind, command and commands, a
# smaller model.  Like a benchmark sample it builds the first model before
# installing the tracer, then runs the workload in a fresh process (so the
# counting cache starts cold) and checks that every span the workload's
# traced samples must record was recorded.
_STAND_IN = """
import json
from pathlib import Path
import equimirror.cli.main as cli_main
from equimirror.cli import models
from equimirror.geometry.cones import ConeComplex
import tracer
from workloads import WORKLOADS

name, shrink, workdir = %r, %r, Path(%r)
workload = WORKLOADS[name]
config_path = workdir / "config.json"
config_path.write_text(json.dumps(dict(workload["models"][0][1], **shrink)))
polytope, group, _ = models.build_model(models.parse_config(config_path.read_text()))
ConeComplex(polytope, group)
t = tracer.install(tracer.Tracer())
if workload["kind"] == "run":
    _report, code = cli_main.run(models.parse_config(config_path.read_text()), threads=1)
else:
    code = cli_main.main([workload["command"], "--config", str(config_path),
                          "--json", str(workdir / "report.json"), "--threads", "1"])
assert code == 0, code
missing = [s for s in workload["expected_spans"] if not t.calls[s]]
assert not missing, f"{name} missing: {missing}"
"""

# The shrink per workload; a workload without one fails the guard below.
_SHRINK = {
    "cube4-central-all": {"d": 3},
    "quintic-mirror-sweep": {"group": ["(12)(34)"]},
    "cube5-phi": {"d": 3},
}


def _run(script: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = %r\n%s" % (path, script)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_tracer_target_wraps():
    result = _run(_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


def test_traced_run_matches_untraced():
    result = _run(_SMOKE)
    assert result.returncode == 0, result.stderr
    hits, misses = map(int, result.stdout.split())
    assert hits > 0 and misses > 0


def test_every_workload_has_a_stand_in():
    result = _run("from workloads import WORKLOADS; print(' '.join(sorted(WORKLOADS)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == sorted(_SHRINK)


@pytest.mark.parametrize("workload", sorted(_SHRINK))
def test_workload_stand_in_records_every_expected_span(workload, tmp_path):
    result = _run(_STAND_IN % (workload, _SHRINK[workload], str(tmp_path)))
    assert result.returncode == 0, result.stderr
