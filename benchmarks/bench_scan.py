"""Compare the two lattice-scan backends on dilation counting.

Both backends receive the same prepared level systems — integer points of
``m * P`` for a few built-in polytopes ``P`` — and must return identical
counts; the script exits nonzero on any disagreement.  Wall times are
best-of-``--repeats``.

Run from an installed checkout:

    python benchmarks/bench_scan.py
    python benchmarks/bench_scan.py --repeats 5 --scale 2
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from equimirror.cli.models import build_cross, build_cube, build_fermat
from equimirror.geometry import counting, scan
from equimirror.geometry.intlinalg import IntMatrix


def dilate_system(polytope, m):
    """The system ``(rows, k)`` of the height-``m`` slice of the cone, built
    by the counting layer exactly as ``fixed_slice_count`` builds it."""
    identity = IntMatrix.identity(polytope.dim + 1)
    return counting.slice_system(polytope.cone_rows, (), identity, m)


def workloads(scale):
    yield "cube3", build_cube(3), 30 * scale
    yield "cube4", build_cube(4), 10 * scale
    yield "cross4", build_cross(4), 14 * scale
    yield "fermat4", build_fermat(4), 7 * scale


def time_backend(levels, backend, repeats):
    best = None
    count = None
    for _ in range(repeats):
        started = perf_counter()
        value = scan.count_levels(levels, force_backend=backend)
        elapsed = perf_counter() - started
        if count is None:
            count = value
        elif value != count:
            raise AssertionError(f"{backend} backend is not deterministic")
        if best is None or elapsed < best:
            best = elapsed
    return count, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--scale", type=int, default=1, help="multiply every dilation factor"
    )
    args = parser.parse_args(argv)

    have_compiled = scan.compiled_available()
    if not have_compiled:
        print("compiled kernel not built; timing the pure-Python backend only")

    header = f"{'system':<10} {'dilation':>8} {'points':>12} {'python':>10}"
    if have_compiled:
        header += f" {'compiled':>10} {'speedup':>8}"
    print(header)

    mismatches = 0
    for name, polytope, m in workloads(args.scale):
        rows, k = dilate_system(polytope, m)
        feasible, levels = scan.prepare_levels(rows, k)
        if not feasible:
            raise AssertionError(f"{name} dilate system is infeasible")
        py_count, py_time = time_backend(levels, "python", args.repeats)
        line = f"{name:<10} {m:>8} {py_count:>12} {py_time:>9.4f}s"
        if have_compiled:
            c_count, c_time = time_backend(levels, "compiled", args.repeats)
            if c_count != py_count:
                mismatches += 1
                line += f"  MISMATCH (compiled says {c_count})"
            else:
                line += f" {c_time:>9.4f}s {py_time / c_time:>7.1f}x"
        print(line)

    if mismatches:
        print(f"{mismatches} count mismatches between backends")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
