"""End-to-end benchmark of equimirror: cold-process samples in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check

Run from the root of a source checkout; nothing needs installing.  One
client runs one sample at a time: each sample is a fresh Python process
(``sample.py``) that runs the workload once at ``threads=1``.  A fresh
process is the point: the counting cache is process-wide and the table
memos live as long as their ``ConeComplex``, so a repeat inside one process
would read caches no command-line user ever sees warm.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics, including
the tracing overhead.  Untraced samples run the speed probe of
``calibrate.py``, and the end-to-end times are given in seconds of an
uncontended core, because the cores are shared and their speed drifts.  Every sample's reports are checked against the
recorded digests.  The last line of stdout is one JSON object; a result
file with the environment and every sample goes to ``.perfbench_out/``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import calibrate
from workloads import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED_EXIT = 0


# ---------------------------------------------------------------------------
# one sample


def run_sample(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    """Spawn one sample, wait for it, and check what it produced."""
    spec = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    configs = []
    for name, config in plan(workload, seed):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        configs.append([name, str(path)])
    setup_name = spec["models"][0][0]
    plan_doc = {
        "src": str(SRC),
        "workdir": str(workdir),
        "kind": spec["kind"],
        "command": spec.get("command"),
        "configs": configs,
        "setup_config": str(workdir / f"{setup_name}.json"),
        "trace": trace,
        "probes": str(workdir / "probes.bin"),
    }
    plan_path = workdir / "plan.json"
    result_path = workdir / "result.json"
    plan_path.write_text(json.dumps(plan_doc), encoding="utf-8")
    result_path.unlink(missing_ok=True)

    with open(workdir / "stdout.txt", "wb") as out, open(
        workdir / "stderr.txt", "wb"
    ) as err:
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "sample.py"), str(plan_path), str(result_path)],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=str(ROOT),
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        exited = perf_counter()
    wall_s = exited - started
    proc.returncode = os.waitstatus_to_exitcode(status)

    sample = {
        "traced": trace,
        "spawned": started,
        "exited": exited,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "problems": [],
    }
    problems = sample["problems"]
    if proc.returncode != EXPECTED_EXIT:
        tail = (workdir / "stderr.txt").read_text(errors="replace").strip()[-400:]
        problems.append(f"exit code {proc.returncode}: {tail}")
    if not result_path.is_file():
        problems.append("no result written")
        return sample
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["probes"] is not None:
        probes = calibrate.load(workdir / "probes.bin", result["probes"])
        result["wall_cal_s"] = calibrate.calibrated(*probes, started, exited)
        result["setup_cal_s"] = calibrate.calibrated(*probes, *result["setup_span"])
        result["slowdown"] = statistics.median(probes[2]) / calibrate.REFERENCE_S
    sample.update(result)
    problems.extend(check_result(workload, result))
    return sample


def reference_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def workload_digest(per_model: Dict[str, str]) -> str:
    """Order-free digest of a workload's reports."""
    return hashlib.sha256(json.dumps(per_model, sort_keys=True).encode()).hexdigest()


def check_result(workload: str, result: dict) -> List[str]:
    """Everything a sample must satisfy; an empty list means it passed."""
    problems = []
    expected = reference_digests()[workload]
    got = result["digests"]
    if set(got) != set(expected["models"]):
        problems.append(f"reports for {sorted(got)}, expected {sorted(expected['models'])}")
    for name, digest in sorted(got.items()):
        if expected["models"].get(name) != digest:
            problems.append(f"report digest of {name} is {digest}")
    if workload_digest(got) != expected["workload"]:
        problems.append("workload digest differs")
    for name, code in sorted(result["codes"].items()):
        if code != EXPECTED_EXIT:
            problems.append(f"{name} exited {code}")
    mirror_models = {
        name
        for name, config in WORKLOADS[workload]["models"]
        if "mirror-check" in config.get("commands", ())
    }
    verdicts = result["verdicts"]
    if set(verdicts) != mirror_models or not all(v is True for v in verdicts.values()):
        problems.append(f"mirror verdicts {verdicts}")
    if result["trace"] is not None:
        spans = result["trace"]["spans"]
        for name in WORKLOADS[workload]["expected_spans"]:
            if spans.get(name, {}).get("calls", 0) == 0:
                problems.append(f"expected span {name} recorded no calls")
    return problems


# ---------------------------------------------------------------------------
# metrics


def highest_tail(values: List[float], beyond: int = 10):
    """(percentile, value): the highest whole percentile with at least
    ``beyond`` samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    at_or_below = len(ordered) - beyond
    if at_or_below < 1:
        return None
    return 100 * at_or_below // len(ordered), ordered[at_or_below - 1]


def edge_count(trace: dict, parent: str, child: str) -> int:
    """How many ``child`` spans opened directly inside a ``parent`` span."""
    return sum(n for p, c, n in trace["edges"] if (p, c) == (parent, child))


def layer_metrics(traced: List[dict], untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics: times are medians over traced samples, counts
    come from the first one (they must repeat exactly)."""

    def span_self(sample, name):
        return sample["trace"]["spans"][name]["self_s"]

    def median_self(name):
        return statistics.median(span_self(s, name) for s in traced)

    first = traced[0]["trace"]
    spans, counts, maxima = first["spans"], first["counts"], first["maxima"]

    def calls(name):
        return spans[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    queries = calls("counting")
    scans = edge_count(first, "counting", "scan.system")
    phi_hits = counts.get("combinatorics.phi.hits", 0)
    hg_hits = counts.get("combinatorics.hg.hits", 0)
    return {
        "scan.count.self_s": median_self("scan.count"),
        "scan.count.calls": calls("scan.count"),
        "scan.points": counts.get("scan.points", 0),
        "scan.points_per_s": statistics.median(
            ratio(counts.get("scan.points", 0), span_self(s, "scan.count"))
            for s in traced
        ),
        "scan.prepare.self_s": median_self("scan.prepare"),
        "scan.prepare.calls": calls("scan.prepare"),
        "scan.fm_rows": counts.get("scan.fm_rows", 0),
        "scan.fm_rows_max": maxima.get("scan.fm_rows_max", 0),
        "counting.queries": queries,
        "counting.scans": scans,
        "counting.hit_ratio": ratio(queries - scans, queries),
        "counting.self_s": median_self("counting"),
        "counting.cache_entries": traced[0]["cache_entries"],
        "algebra.exact_div.self_s": median_self("algebra.exact_div"),
        "algebra.exact_div.calls": calls("algebra.exact_div"),
        "algebra.exact_div.nonintegral_ratio": ratio(
            counts.get("algebra.exact_div.nonintegral", 0), calls("algebra.exact_div")
        ),
        "algebra.unipoly_mul.self_s": median_self("algebra.unipoly_mul"),
        "algebra.bilaurent_mul.self_s": median_self("algebra.bilaurent_mul"),
        "groups.generate.self_s": median_self("groups.generate"),
        "groups.classes.self_s": median_self("groups.classes"),
        "groups.inverse.self_s": median_self("groups.inverse"),
        "groups.elements": counts.get("groups.elements", 0),
        "cones.build.self_s": median_self("cones.build"),
        "cones.build.calls": calls("cones.build"),
        "cones.faces": counts.get("cones.faces", 0),
        "cones.element_charpoly.self_s": median_self("cones.element_charpoly"),
        "intlinalg.integer_kernel.self_s": median_self("intlinalg.integer_kernel"),
        "intlinalg.char_poly.self_s": median_self("intlinalg.char_poly"),
        "intlinalg.det.self_s": median_self("intlinalg.det"),
        "intlinalg.solve.self_s": median_self("intlinalg.solve"),
        "combinatorics.phi.self_s": median_self("combinatorics.phi"),
        "combinatorics.hg.self_s": median_self("combinatorics.hg"),
        "combinatorics.stilde.self_s": median_self("combinatorics.stilde"),
        "combinatorics.verify.self_s": median_self("combinatorics.verify"),
        "combinatorics.phi.hit_ratio": ratio(phi_hits, calls("combinatorics.phi")),
        "combinatorics.hg.hit_ratio": ratio(hg_hits, calls("combinatorics.hg")),
        "invariants.stringy.self_s": median_self("invariants.stringy"),
        "invariants.affine.self_s": median_self("invariants.affine"),
        "invariants.mirror.self_s": median_self("invariants.mirror"),
        "invariants.diamond.self_s": median_self("invariants.diamond"),
        "invariants.checks.self_s": median_self("invariants.checks"),
        "cli.build_model.self_s": median_self("cli.build_model"),
        "cli.report.self_s": median_self("cli.report"),
        "trace.overhead_frac": statistics.median(s["wall_s"] for s in traced)
        / untraced_wall
        - 1.0,
    }


def counts_signature(sample: dict) -> dict:
    """The parts of a trace that must repeat exactly from sample to sample."""
    trace = sample["trace"]
    return {
        "calls": {name: s["calls"] for name, s in trace["spans"].items()},
        "edges": trace["edges"],
        "counts": trace["counts"],
        "maxima": trace["maxima"],
        "cache_entries": sample["cache_entries"],
    }


# ---------------------------------------------------------------------------
# environment


def git_commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, samples: List[dict]) -> dict:
    backends = sorted({s["backend"] for s in samples if "backend" in s})
    compiled = sorted({s["compiled_available"] for s in samples if "backend" in s})
    return {
        "scan_backend": backends[0] if len(backends) == 1 else backends,
        "compiled_available": compiled[0] if len(compiled) == 1 else compiled,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run samples back to back until the next one would overrun ``seconds``.

    With ``trace`` the loop alternates an untraced and a traced sample, so
    both halves see the same machine conditions.
    """
    pattern = [False, True] if trace else [False]
    samples: List[dict] = []
    started = perf_counter()
    while True:
        round_started = perf_counter()
        for traced in pattern:
            samples.append(run_sample(workload, seed, traced, workdir))
        round_s = perf_counter() - round_started
        if perf_counter() - started + round_s > seconds:
            return samples


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(workload: str, seed: int, trace: bool, samples: List[dict]):
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    clean_traced = [s for s in traced if not s["problems"]]
    for s in clean_traced[1:]:
        if counts_signature(s) != counts_signature(clean_traced[0]):
            s["problems"].append("trace counts differ from the first traced sample")
    failed = sum(1 for s in samples if s["problems"])
    correct = failed == 0

    walls = [s["wall_s"] for s in untraced]
    wall = statistics.median(walls)
    tail = highest_tail(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)} samples={len(samples)}",
        f"wall_s      median {wall:.4f} s over {len(walls)} samples; {tail_text}",
        f"fail_frac   {failed / len(samples):.4f} ratio ({failed} of {len(samples)} samples failed)",
    ]
    values: Dict[str, float] = {}
    if correct and trace:
        values = layer_metrics(traced, wall)
    elif correct:
        lines.append(
            f"setup_s     median {statistics.median(s['setup_s'] for s in untraced):.4f} s"
            f" as measured; median probe slowdown"
            f" {statistics.median(s['slowdown'] for s in untraced):.3f},"
            f" {statistics.median(s['probes'] for s in untraced):.0f} probes per sample"
        )
        values = {
            "wall_cal_s": statistics.median(s["wall_cal_s"] for s in untraced),
            "setup_s": statistics.median(s["setup_cal_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
    units = declared_units(trace)
    if values and set(values) != set(units):
        raise KeyError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if values}
    for name, metric in metrics.items():
        lines.append(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    for s in samples:
        for problem in s["problems"]:
            lines.append(f"FAILED sample: {problem}")
    outcome = {"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}
    return lines, outcome


def self_check(workdir: Path) -> int:
    """Untimed check of the harness: every workload once, digests match and
    the speed probe ran; then the sweep traced, whose wrappers must be live
    and whose counts and digests must be the same under two seeds."""
    ok = True
    for workload in WORKLOADS:
        sample = run_sample(workload, 1, False, workdir / workload)
        status = "ok" if not sample["problems"] else "; ".join(sample["problems"])
        print(f"{workload:<22} untraced {sample['wall_s']:.2f} s  {status}")
        ok = ok and not sample["problems"]
        if sample["problems"]:
            continue
        print(f"    {sample['probes']} probes, median slowdown {sample['slowdown']:.2f},"
              f" calibrated {sample['wall_cal_s']:.2f} s")
        if sample["probes"] < sample["wall_s"] / calibrate.INTERVAL_S / 2:
            print("    too few probes: the timer did not tick")
            ok = False
    signatures = []
    for seed in (1, 2):
        sample = run_sample("quintic-mirror-sweep", seed, True, workdir / f"seed{seed}")
        status = "ok" if not sample["problems"] else "; ".join(sample["problems"])
        print(f"quintic-mirror-sweep   traced seed={seed} {sample['wall_s']:.2f} s  {status}")
        ok = ok and not sample["problems"]
        if sample["problems"]:
            continue
        trace = sample["trace"]
        live = sum(1 for span in trace["spans"].values() if span["calls"])
        print(f"    {len(trace['wrapped'])} targets wrapped, {live} span names recorded"
              f" calls, counting.scans={edge_count(trace, 'counting', 'scan.system')}")
        signatures.append((counts_signature(sample), sample["digests"]))
    if len(signatures) == 2 and signatures[0] != signatures[1]:
        print("trace counts or digests differ between seeds 1 and 2")
        ok = False
    print("self-check:", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="untimed harness self-check")
    args = parser.parse_args(argv)
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    if not (SRC / "equimirror" / "__init__.py").is_file():
        print(f"error: no equimirror source tree at {SRC}", file=sys.stderr)
        return 2

    # Byte-compile up front so no sample pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.check:
            return self_check(workdir)
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines, outcome = summarize(args.workload, args.seed, bool(args.trace), samples)
    env = environment(args.seed, samples)
    record = {"workload": args.workload, "env": env, "samples": samples, **outcome}
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
