"""Registry of the verification checks exposed by the CLI.

Each check takes one primary bound and returns a CheckReport.  Defaults are
chosen to run the full battery in well under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from biparts import partitions, series, symbols
from biparts.report import CheckReport, Recorder, combine, compare_values


def check_partition_recursion(bound: int, recorder: Recorder) -> CheckReport:
    """Pentagonal-recurrence counts against the enumeration oracle."""
    # refuse up front: the per-call cap would otherwise fire only after the
    # smaller ranks were enumerated in full
    if partitions.partition_count(bound) > partitions.ENUMERATION_CAP:
        raise partitions.EnumerationCapError(
            f"p({bound}) exceeds the enumeration cap; lower the bound"
        )
    return compare_values(
        "euler",
        "recurrence equals exhaustive partition enumeration",
        bound,
        (
            (n, partitions.partition_count(n), len(partitions.enumerate_partitions(n)))
            for n in range(bound + 1)
        ),
        recorder,
    )


#: Enumeration cross-check bound inside check_bipartition_recursion.
BIPARTITION_ENUM_BOUND = 25


def check_bipartition_recursion(
    bound: int, recorder: Recorder, enum_bound: int | None = None
) -> CheckReport:
    """Square-recurrence counts against convolution and enumeration."""
    if enum_bound is None:
        enum_bound = min(bound, BIPARTITION_ENUM_BOUND)
    children = [
        compare_values(
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
            recorder,
        ),
        compare_values(
            "thm1.enumeration",
            "square recurrence equals exhaustive bipartition enumeration",
            enum_bound,
            (
                (n, partitions.bipartition_count(n), len(partitions.enumerate_bipartitions(n)))
                for n in range(enum_bound + 1)
            ),
            recorder,
        ),
        compare_values(
            "thm1.degenerate",
            "degenerate count matches the transpose-fixed bipartitions",
            enum_bound,
            (
                (
                    n,
                    partitions.degenerate_count(n),
                    sum(1 for b in partitions.enumerate_bipartitions(n) if b.is_degenerate),
                )
                for n in range(enum_bound + 1)
            ),
            recorder,
        ),
    ]
    return combine("thm1", bound, children)


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[int, Recorder], CheckReport]
    default_bound: int
    description: str


CHECKS: dict[str, Check] = {
    check.name: check
    for check in [
        Check(
            "euler",
            check_partition_recursion,
            40,
            "partition recurrence vs. enumeration",
        ),
        Check(
            "thm1",
            check_bipartition_recursion,
            5000,
            "bipartition recurrence vs. convolution and enumeration",
        ),
        Check(
            "lemma22",
            series.check_theta_product_chain,
            1000,
            "alternating theta product chain and distinct=odd",
        ),
        Check(
            "jacobi",
            series.check_jacobi_triple_product,
            200,
            "two-variable triple product expansion",
        ),
        Check(
            "firstproof",
            series.check_convolution_identity,
            1000,
            "bipartition series times theta equals even-index partition series",
        ),
        Check(
            "families",
            symbols.check_family_partition,
            12,
            "families of special symbols partition the classes",
        ),
        Check(
            "corollary",
            symbols.check_class_count_difference,
            2000,
            "signed class-count difference equals the degenerate count",
        ),
        Check(
            "appendix",
            series.check_quintic_identities,
            500,
            "5-dissection identities of both counting series",
        ),
        Check(
            "congruence",
            series.check_mod5_congruences,
            10_000,
            "mod-5 residue checks on both tables",
        ),
    ]
}


def run_check(
    name: str, bound: int | None = None, recorder: Recorder | None = None
) -> CheckReport:
    """Run one named check at the given (or default) bound."""
    check = CHECKS[name]
    bound = check.default_bound if bound is None else bound
    return (recorder or Recorder()).run(check.run, bound)


def run_all(bound: int | None = None, recorder: Recorder | None = None) -> list[CheckReport]:
    """Run every check through ``recorder`` (by default a fresh one per check).

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
