"""One benchmark sample: a fresh process that runs one workload once.

Usage (the harness in ``run.py`` writes the plan)::

    python3 perfbench/sample.py PLAN.json RESULT.json

The plan names the source tree, the generated config files in the order
the program should see them, and whether to install the span tracer.  The
sample writes its measurements and the digests of the reports the program
produced to RESULT.json, then exits with the program's own exit code.

``setup_s`` is the import of ``equimirror`` plus ``build_model`` and
``ConeComplex(...)`` of the workload's first model, timed here, before the
workload runs.  The tracer, when asked for, is installed after that, so
the per-layer numbers describe the workload run alone.

An untraced sample runs the speed probe of ``calibrate.py`` from before
the import to the end of the workload, and writes the probe times to the
plan's ``probes`` file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

import calibrate


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])

    probe = None if plan["trace"] else calibrate.Probe()
    if probe is not None:
        probe.start()
    started = perf_counter()
    import equimirror.cli.main as cli_main
    from equimirror.cli import models
    from equimirror.geometry import counting, scan
    from equimirror.geometry.cones import ConeComplex

    setup_begin = started
    import_s = perf_counter() - started
    started = perf_counter()
    first = models.parse_config(Path(plan["setup_config"]).read_text(encoding="utf-8"))
    polytope, group, _ = models.build_model(first)
    ConeComplex(polytope, group)
    setup_end = perf_counter()
    model_s = setup_end - started

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())

    digests = {}
    verdicts = {}
    codes = {}
    if plan["kind"] == "run":
        for name, config_path in plan["configs"]:
            config = models.parse_config(Path(config_path).read_text(encoding="utf-8"))
            report, code = cli_main.run(config, threads=1)
            digests[name] = _digest(report.to_json().encode("utf-8"))
            mirror = report.results.get("mirror-check")
            if mirror is not None:
                verdicts[name] = mirror["verdict"]
            codes[name] = code
    else:
        (name, config_path), = plan["configs"]
        report_path = Path(plan["workdir"]) / "report.json"
        codes[name] = cli_main.main(
            [plan["command"], "--config", config_path, "--json", str(report_path),
             "--threads", "1"]
        )
        digests[name] = _digest(report_path.read_bytes())
    if probe is not None:
        probe.stop()

    result = {
        "setup_s": import_s + model_s,
        "import_s": import_s,
        "model_s": model_s,
        "digests": digests,
        "verdicts": verdicts,
        "codes": codes,
        "backend": scan.backend_name(),
        "compiled_available": scan.compiled_available(),
        "cache_entries": counting.cache_size(),
        "trace": tracer.summary() if tracer is not None else None,
        "setup_span": [setup_begin, setup_end],
        "probes": probe.save(plan["probes"]) if probe is not None else None,
    }
    Path(result_path).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return max(codes.values())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
