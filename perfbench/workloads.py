"""The benchmark's four workloads and the independent checks of their outputs.

A workload is a fixed sequence of ``biparts`` CLI invocations.  The seed
picks each invocation's size from a small committed set within about +-2% of
the stated size, so cost stays steady while no hard-coded answer can pass.
Successive repeats cycle through a seeded order of each set, so every run of
a few repeats sees nearly the same mix of sizes.
Every output is compared with a reference that does not come from the route
being timed: sympy's Hardy-Ramanujan-Rademacher ``partition`` for p(n) when
sympy can be imported, digests committed in ``references.json`` otherwise
(recorded by ``record_references.py``), and for ``verify`` the expected
checks, bounds and an all-pass verdict.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Committed size sets; record_references.py writes a digest for each.
P_SIZES = (49_000, 49_500, 50_000, 50_500, 51_000)
P2_SIZES = (19_600, 19_800, 20_000, 20_200, 20_400)
TABLE_SIZES = (5_880, 5_940, 6_000, 6_060, 6_120)
#: (rank, defect) pairs whose classes are all images of the bipartitions of
#: 21 = rank - defect^2/4, so each lists the same number of classes.
SYMBOL_CLASSES = ((22, 2), (22, -2), (25, 4), (25, -4), (30, 6), (30, -6))
SPREAD = (0.98, 0.99, 1.0, 1.01, 1.02)

#: Default bound of each verify check, in the order ``verify all`` runs them.
VERIFY_DEFAULTS = {
    "euler": 40,
    "thm1": 5000,
    "lemma22": 1000,
    "jacobi": 200,
    "firstproof": 1000,
    "families": 12,
    "corollary": 2000,
    "appendix": 500,
    "congruence": 10_000,
}
#: ``verify all --max`` bound of verify-default; see README.md.
VERIFY_ALL_BOUND = 22
SERIES_BOUNDS = (("lemma22", 1500), ("firstproof", 1500), ("appendix", 800), ("jacobi", 150))
FAMILIES_BOUND = 15


class References:
    """Expected outputs; ``skew`` corrupts every one of them for the self-test."""

    def __init__(self, skew: int = 0):
        self.digests = json.loads(REFERENCES.read_text())
        self.skew = skew
        self._p: dict[int, int] = {}
        try:
            from sympy import partition
        except ImportError:
            partition = None
        self._sympy_partition = partition

    @property
    def p_route(self) -> str:
        return "sympy" if self._sympy_partition else "digest"

    def partition(self, n: int) -> int | None:
        """p(n) by sympy's Rademacher series, or None without sympy."""
        if self._sympy_partition is None:
            return None
        if n not in self._p:
            self._p[n] = int(self._sympy_partition(n))
        return self._p[n] + self.skew

    def digest(self, kind: str, key) -> str:
        value = self.digests[kind][str(key)]
        return hashlib.sha256(value.encode()).hexdigest() if self.skew else value


class Picker:
    """Seeded choice from a size set, cycling through a shuffled order."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._orders: dict[tuple, list] = {}
        self._taken: Counter = Counter()

    def __call__(self, options: tuple):
        if options not in self._orders:
            order = list(options)
            self._rng.shuffle(order)
            self._orders[options] = order
        index = self._taken[options]
        self._taken[options] += 1
        return self._orders[options][index % len(options)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check of its standard output (None means right)."""

    args: tuple[str, ...]
    check: Check

    @property
    def is_verify(self) -> bool:
        return self.args[0] == "verify"


def _count_check(refs: References, kind: str, n: int) -> Check:
    expected = refs.partition(n) if kind == "p" else None

    def check(out: bytes) -> str | None:
        text = out.strip()
        if expected is not None:
            return None if text == str(expected).encode() else f"{kind}({n}) differs from sympy"
        return None if sha256(text) == refs.digest(kind, n) else f"{kind}({n}) differs from its digest"

    return check


def _digest_check(refs: References, kind: str, key) -> Check:
    def check(out: bytes) -> str | None:
        return None if sha256(out) == refs.digest(kind, key) else f"{kind} {key} differs from its digest"

    return check


def _all_passed(report: dict) -> bool:
    return report["passed"] and all(map(_all_passed, report.get("children", ())))


def _verdict_check(refs: References, expected: list[tuple[str, int]]) -> Check:
    expected = [(name, bound + refs.skew) for name, bound in expected]

    def check(out: bytes) -> str | None:
        try:
            reports = json.loads(out)
        except ValueError:
            return "verify output is not JSON"
        got = [(report["name"], report["bound"]) for report in reports]
        if got != expected:
            return f"verify ran {got}, expected {expected}"
        if not all(map(_all_passed, reports)):
            return "a verify report failed"
        return None

    return check


def verify_failures(out: bytes) -> int:
    """Number of failed top-level reports in ``verify --format json`` output."""
    try:
        return sum(not report["passed"] for report in json.loads(out))
    except (ValueError, KeyError, TypeError):
        return 1


def _verify(refs: References, check: str, bound: int) -> Invocation:
    return Invocation(
        ("verify", check, "--max", str(bound), "--format", "json"),
        _verdict_check(refs, [(check, bound)]),
    )


def verify_default(pick: Picker, refs: References) -> list[Invocation]:
    expected = [(name, min(VERIFY_ALL_BOUND, bound)) for name, bound in VERIFY_DEFAULTS.items()]
    return [
        Invocation(
            ("verify", "all", "--max", str(VERIFY_ALL_BOUND), "--format", "json"),
            _verdict_check(refs, expected),
        )
    ]


def count_large(pick: Picker, refs: References) -> list[Invocation]:
    n, m = pick(P_SIZES), pick(P2_SIZES)
    return [
        Invocation(("p", str(n)), _count_check(refs, "p", n)),
        Invocation(("p2", str(m)), _count_check(refs, "p2", m)),
    ]


def series_deep(pick: Picker, refs: References) -> list[Invocation]:
    return [
        _verify(refs, check, round(bound * pick(SPREAD)))
        for check, bound in SERIES_BOUNDS
    ]


def lookup_symbols(pick: Picker, refs: References) -> list[Invocation]:
    size = pick(TABLE_SIZES)
    rank, defect = pick(SYMBOL_CLASSES)
    return [
        Invocation(
            ("table", "--max", str(size), "--format", "csv"),
            _digest_check(refs, "table", size),
        ),
        Invocation(
            ("symbols", "enumerate", "--rank", str(rank), "--defect", str(defect), "--format", "json"),
            _digest_check(refs, "symbols", f"{rank},{defect}"),
        ),
        _verify(refs, "families", FAMILIES_BOUND),
    ]


#: name -> (sequence builder, spans that must record calls when traced)
WORKLOADS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "verify-default": (
        verify_default,
        (
            "partitions.enumerate_partitions",
            "partitions.enumerate_bipartitions",
            "kernels.extend_partition_table",
            "kernels.extend_bipartition_table",
            "kernels.extend_self_convolution",
            "kernels.mul_series",
            "kernels.invert_series",
            "kernels.fold_binomial",
            "series.product_series",
            "series.TruncatedSeries.mul",
            "series.TruncatedSeries.inverse",
            "series.BivariateSeries.mul",
            "symbols.enumerate_classes",
            "symbols.class_counts",
            "symbols.SpecialSymbol.family",
            *(f"verify.{name}" for name in VERIFY_DEFAULTS),
            "cli.main",
        ),
    ),
    "count-large": (
        count_large,
        ("kernels.extend_partition_table", "kernels.extend_bipartition_table", "cli.main"),
    ),
    "series-deep": (
        series_deep,
        (
            "kernels.extend_partition_table",
            "kernels.extend_bipartition_table",
            "kernels.mul_series",
            "kernels.invert_series",
            "kernels.fold_binomial",
            "series.product_series",
            "series.TruncatedSeries.mul",
            "series.TruncatedSeries.inverse",
            "series.BivariateSeries.mul",
            *(f"verify.{name}" for name, _ in SERIES_BOUNDS),
            "cli.main",
        ),
    ),
    "lookup-symbols": (
        lookup_symbols,
        (
            "kernels.extend_partition_table",
            "kernels.extend_bipartition_table",
            "partitions.enumerate_bipartitions",
            "symbols.enumerate_classes",
            "symbols.class_counts",
            "symbols.SpecialSymbol.family",
            "symbols.from_bipartition",
            "symbols.to_bipartition",
            "verify.families",
            "cli.main",
        ),
    ),
}
