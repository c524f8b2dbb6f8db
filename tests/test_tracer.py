"""The benchmark's span tracer still finds every function it wraps."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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


def test_every_tracer_target_wraps():
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = %r\n%s" % (path, _SCRIPT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0
