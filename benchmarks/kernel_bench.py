#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

The two backends compute bit-identical big-integer results by different
algorithms; this times each kernel on both.  Run after building the
extension (pip install -e . --no-build-isolation):

    python benchmarks/kernel_bench.py [--full] [--json FILE]

--full raises the partition-table size to n = 100000, the bound the library
is expected to handle interactively.  --json also writes the rows, the
seconds of each backend per kernel, to FILE together with the Python
version and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from biparts import _fallback

try:
    from biparts import _speedups
except ImportError:
    _speedups = None


def best_of(runs: int, task) -> float:
    results = []
    for _ in range(runs):
        start = time.perf_counter()
        task()
        results.append(time.perf_counter() - start)
    return min(results)


def bench_partition_table(impl, upto: int):
    def task():
        table = [1]
        impl.extend_partition_table(table, upto)

    return task


def bench_bipartition_table(impl, upto: int):
    ptable = [1]
    impl.extend_partition_table(ptable, upto // 2)

    def task():
        table = [1]
        impl.extend_bipartition_table(table, ptable, upto)

    return task


def bench_self_convolution(impl, upto: int):
    src = [1]
    impl.extend_partition_table(src, upto)

    def task():
        out = []
        impl.extend_self_convolution(out, src, upto)

    return task


def bench_mul(impl, order: int):
    a = [1]
    impl.extend_partition_table(a, order)

    def task():
        impl.mul_series(a, a, order)

    return task


def bench_invert(impl, order: int):
    a = [1]
    impl.extend_partition_table(a, order)

    def task():
        impl.invert_series(a, order)

    return task


def bench_fold(impl, order: int):
    def task():
        vec = [1] + [0] * order
        for j in range(1, order + 1):
            impl.fold_binomial(vec, j)

    return task


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="use desk-scale bounds")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()

    n_table = 100_000 if args.full else 20_000
    cases = [
        (f"partition table to {n_table}", bench_partition_table, n_table),
        ("bipartition table to 20000", bench_bipartition_table, 20_000),
        ("self-convolution to 3000", bench_self_convolution, 3_000),
        ("series product at order 1500", bench_mul, 1_500),
        ("series inverse at order 1500", bench_invert, 1_500),
        ("binomial folds to order 2000", bench_fold, 2_000),
    ]

    backends = [("python", _fallback)]
    if _speedups is not None:
        backends.append(("c", _speedups))
    else:
        print("compiled kernels not built; timing the fallback only\n")

    width = max(len(name) for name, _, _ in cases)
    header = f"{'kernel'.ljust(width)}  " + "".join(
        f"{name:>10}" for name, _ in backends
    )
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    rows = []
    for name, factory, bound in cases:
        timings = [
            best_of(args.runs, factory(impl, bound)) for _, impl in backends
        ]
        rows.append({"kernel": name, **dict(zip([backend for backend, _ in backends], timings))})
        row = f"{name.ljust(width)}  " + "".join(f"{t:>9.3f}s" for t in timings)
        if len(timings) == 2 and timings[1] > 0:
            row += f"{timings[0] / timings[1]:>9.1f}x"
        print(row)
    if args.json:
        result = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "runs": args.runs,
            "rows": rows,
        }
        with open(args.json, "w") as out:
            json.dump(result, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
