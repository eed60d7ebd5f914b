"""Registry of the verification checks exposed by the CLI.

Each check takes one primary bound and returns a CheckReport.  Defaults are
chosen to run the full battery in well under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from biparts import partitions, series, symbols
from biparts.report import CheckReport, Recorder, combine


def check_partition_recursion(bound: int, recorder: Recorder) -> CheckReport:
    """Pentagonal-recurrence counts against the enumeration oracle."""
    # refuse up front: the per-call cap would otherwise fire only after the
    # smaller ranks were enumerated in full
    partitions.refuse_past_cap(partitions.partition_count, bound, "p")
    return recorder.compare(
        "euler",
        "recurrence equals exhaustive partition enumeration",
        bound,
        (
            (n, partitions.partition_count(n), len(partitions.enumerate_partitions(n)))
            for n in range(bound + 1)
        ),
    )


#: Enumeration cross-check bound inside check_bipartition_recursion.
BIPARTITION_ENUM_BOUND = 25


def _bipartition_tallies(n: int) -> tuple[int, int]:
    """(all, degenerate) bipartitions of n, by visiting every (top, bottom)
    pair of partition tuples; a pair is degenerate when its rows are equal."""
    total = fixed = 0
    for a in range(n, -1, -1):
        bottoms = list(partitions._partition_tuples(n - a))
        for top in partitions._partition_tuples(a):
            for bottom in bottoms:
                total += 1
                fixed += top == bottom
    return total, fixed


def check_bipartition_recursion(bound: int, recorder: Recorder) -> CheckReport:
    """Square-recurrence counts against convolution and enumeration."""
    enum_bound = min(bound, BIPARTITION_ENUM_BOUND)
    partitions.refuse_past_cap(partitions.bipartition_count, enum_bound, "p2")
    # fill both tables exactly to the bound: the reads below walk n upward,
    # and each read past a table's end would grow it by half
    partitions.bipartition_count_convolution(bound)
    partitions.bipartition_count(bound)
    convolution = recorder.compare(
        "thm1.convolution",
        "square recurrence equals the convolution of the partition table",
        bound,
        (
            (
                n,
                partitions.bipartition_count(n),
                partitions.bipartition_count_convolution(n),
            )
            for n in range(bound + 1)
        ),
    )
    # the enumeration pass runs before the next leaf, so its time is
    # thm1.enumeration's
    tallies = [_bipartition_tallies(n) for n in range(enum_bound + 1)]
    children = [
        convolution,
        recorder.compare(
            "thm1.enumeration",
            "square recurrence equals exhaustive bipartition enumeration",
            enum_bound,
            ((n, partitions.bipartition_count(n), tallies[n][0]) for n in range(enum_bound + 1)),
        ),
        recorder.compare(
            "thm1.degenerate",
            "degenerate count matches the transpose-fixed bipartitions",
            enum_bound,
            ((n, partitions.degenerate_count(n), tallies[n][1]) for n in range(enum_bound + 1)),
        ),
    ]
    return combine("thm1", bound, children)


@dataclass(frozen=True)
class Check:
    run: Callable[[int, Recorder], CheckReport]
    default_bound: int


CHECKS: dict[str, Check] = {
    "euler": Check(check_partition_recursion, 40),
    "thm1": Check(check_bipartition_recursion, 5000),
    "lemma22": Check(series.check_theta_product_chain, 1000),
    "jacobi": Check(series.check_jacobi_triple_product, 200),
    "firstproof": Check(series.check_convolution_identity, 1000),
    "families": Check(symbols.check_family_partition, 12),
    "corollary": Check(symbols.check_class_count_difference, 2000),
    "appendix": Check(series.check_quintic_identities, 500),
    "congruence": Check(series.check_mod5_congruences, 10_000),
}


def run_check(name: str, bound: int | None, recorder: Recorder) -> CheckReport:
    """Run one named check at the given (or, for None, default) bound."""
    check = CHECKS[name]
    return recorder.run(check.run, check.default_bound if bound is None else bound)


def run_all(bound: int | None, recorder: Recorder) -> list[CheckReport]:
    """Run every check through ``recorder``.

    With an explicit bound, each check runs at min(bound, its default) so a
    small bound gives a quick smoke pass and a huge one cannot push the
    enumeration-backed checks past feasibility.
    """
    return [
        run_check(
            name,
            check.default_bound if bound is None else min(bound, check.default_bound),
            recorder,
        )
        for name, check in CHECKS.items()
    ]
