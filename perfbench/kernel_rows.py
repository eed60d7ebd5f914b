"""Kernel micro-rows: the six rows of ``benchmarks/kernel_bench.py``.

Same cases and sizes, best of three, but timed through ``biparts.kernels`` so
they measure whichever backend the program selects.  Prints one JSON object
mapping ``kernels.bench.<row>_s`` to seconds.  Run from the repository root::

    PYTHONPATH=src python perfbench/kernel_rows.py
"""

from __future__ import annotations

import json
import time

from biparts import kernels

RUNS = 3


def best_of(task) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return min(times)


def p_table(upto: int) -> list:
    table = [1]
    kernels.extend_partition_table(table, upto)
    return table


def fold_all(order: int) -> None:
    vec = [1] + [0] * order
    for j in range(1, order + 1):
        kernels.fold_binomial(vec, j)


def main() -> None:
    p2_source = p_table(10_000)
    conv_source = p_table(3_000)
    series = p_table(1_500)
    rows = {
        "partition_table": lambda: p_table(20_000),
        "bipartition_table": lambda: kernels.extend_bipartition_table([1], p2_source, 20_000),
        "self_convolution": lambda: kernels.extend_self_convolution([], conv_source, 3_000),
        "mul_series": lambda: kernels.mul_series(series, series, 1_500),
        "invert_series": lambda: kernels.invert_series(series, 1_500),
        "fold_binomial": lambda: fold_all(2_000),
    }
    print(json.dumps({f"kernels.bench.{name}_s": best_of(task) for name, task in rows.items()}))


if __name__ == "__main__":
    main()
