"""Acceptance gate: every shipping criterion at its stated bound.

All arithmetic is exact, so every comparison is equality; the only
tolerances are the stated wall-clock budgets.  Each criterion prints one
PASS line (run with -s to see them; a failure raises).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest
from golden import (
    FAMILY_OF_3120,
    RANK4_DEFECT0_BASE,
    RANK4_DEFECT0_DEGENERATE,
    RANK4_DEFECT2,
    RANK4_DEFECT4,
    RANK4_FAMILY_SIZES,
    RANK4_SPECIALS,
)

from biparts import partitions, series, symbols
from biparts.partitions import CountCache
from biparts.report import Recorder
from biparts.symbols import SpecialSymbol, Symbol, SymbolClass


def announce(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_bipartition_recursion_against_oracles():
    start = time.perf_counter()
    for n in range(5001):
        assert partitions.bipartition_count(n) == partitions.bipartition_count_convolution(n)
    for n in range(26):
        assert partitions.bipartition_count(n) == len(partitions.enumerate_bipartitions(n))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    announce(1, f"recursion = convolution to 5000, = enumeration to 25 ({elapsed:.1f}s)")


def test_criterion_2_partition_recursion_and_large_n():
    for n in range(41):
        assert partitions.partition_count(n) == len(partitions.enumerate_partitions(n))
    fresh = CountCache()
    start = time.perf_counter()
    value = fresh.partition_count(100_000)
    elapsed = time.perf_counter() - start
    assert value == partitions.partition_count(100_000)
    assert elapsed < 5.0, f"p(1e5) took {elapsed:.1f}s, budget 5s"
    announce(2, f"recursion = enumeration to 40; p(100000) in {elapsed:.1f}s")


def test_criterion_3_rank_four_tables():
    expected_defect0 = set(RANK4_DEFECT0_BASE + RANK4_DEFECT0_DEGENERATE) | {
        str(Symbol.parse(t).transpose()) for t in RANK4_DEFECT0_BASE
    }
    assert {str(c) for c in symbols.enumerate_classes(4, 0)} == expected_defect0
    assert len(expected_defect0) == 20
    assert {str(c) for c in symbols.enumerate_classes(4, 2)} == set(RANK4_DEFECT2)
    assert [str(c) for c in symbols.enumerate_classes(4, 4)] == RANK4_DEFECT4
    for d in (2, 4):
        assert set(symbols.enumerate_classes(4, -d)) == {
            c.transpose() for c in symbols.enumerate_classes(4, d)
        }

    specials = [c for c in symbols.enumerate_classes(4, 0) if symbols.is_special(c)]
    table = {
        str(c): (str(SpecialSymbol(c).singles), 4 ** SpecialSymbol(c).degree)
        for c in specials
    }
    assert table == RANK4_SPECIALS
    assert sorted(size for _, size in table.values()) == sorted(RANK4_FAMILY_SIZES)
    assert sum(size for _, size in table.values()) == 42

    family = SpecialSymbol(Symbol.parse("3,1;2,0")).family()
    assert {(str(m.subset), str(m.symbol)) for m in family} == FAMILY_OF_3120
    announce(3, "rank-4 class lists, special table, and 16-member family match")


def test_criterion_4_bijection_law():
    checked = 0
    for n in range(13):
        d = 0
        while d * d // 4 <= n:
            for signed in (d, -d) if d else (0,):
                weight = n - d * d // 4
                classes = symbols.enumerate_classes(n, signed)
                assert len(classes) == partitions.bipartition_count(weight)
                for cls in classes:
                    assert symbols.from_bipartition(symbols.to_bipartition(cls), signed) == cls
                for bp in partitions.enumerate_bipartitions(weight):
                    assert symbols.to_bipartition(symbols.from_bipartition(bp, signed)) == bp
                checked += 1
            d += 2
    announce(4, f"bijection counts and round trips hold for {checked} (n, d) pairs")


def test_criterion_5_parity_counts():
    total = 0
    for n in range(13):
        for cls in symbols.enumerate_classes(n, 0):
            if not symbols.is_special(cls):
                continue
            data = SpecialSymbol(cls)
            expected = 1 if data.degree == 0 else 0
            assert data.parity_difference() == expected
            assert symbols.parity_difference_binomial(data.degree) == expected
            total += 1
    announce(5, f"signed subset counts agree with the binomial form for {total} specials")


def test_criterion_6_signed_class_count_difference():
    for n in range(2001):
        counts = symbols.class_counts(n)
        assert counts.plus - counts.minus == partitions.degenerate_count(n)
    for n in range(13):
        assert symbols.class_counts(n) == symbols.class_counts(n, method="enumeration")
    announce(6, "plus-minus class difference equals p(n/2) to 2000, re-enumerated to 12")


def test_criterion_7_series_identities():
    budgets = {}
    for name, build, bound in [
        ("theta product chain", series.check_theta_product_chain, 1000),
        ("triple product", series.check_jacobi_triple_product, 200),
        ("convolution identity", series.check_convolution_identity, 1000),
    ]:
        report = Recorder().run(build, bound)
        assert report.passed, report.render()
        assert report.elapsed < 30.0, f"{name} took {report.elapsed:.1f}s"
        budgets[name] = report.elapsed
    # the distinct=odd identity at order 1000 plus its counting-level check
    distinct = series.product_series([(2, 2, 1), (1, 1, -1)], 1000)
    odd = series.product_series([(1, 2, -1)], 1000)
    assert distinct == odd
    for n in range(41):
        assert partitions.count_distinct_parts(n) == distinct.coeffs[n]
        assert partitions.count_odd_parts(n) == distinct.coeffs[n]
    timing = ", ".join(f"{k} {v:.1f}s" for k, v in budgets.items())
    announce(7, f"q-series identities at stated orders ({timing})")


def test_criterion_8_five_dissection_and_congruences():
    assert series.check_factor_square(Recorder()).passed
    report = series.check_fifth_dissections(500, Recorder())
    assert report.passed, report.render()
    congruences = series.check_mod5_congruences(10_000, Recorder())
    assert congruences.passed, congruences.render()
    announce(8, "factor-square table, dissections to 500, congruences to 10000")


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "biparts.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_criterion_9_verify_all_and_fault_injection():
    clean = run_cli("verify", "all")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "FAIL" not in clean.stdout

    faults = [
        ("firstproof", "100", "firstproof.identity.lhs:7", "first mismatch at index 7"),
        ("lemma22", "80", "lemma22.ratio.rhs:9", "first mismatch at index 9"),
        ("appendix", "60", "appendix.bipartition_form.rhs:10", "first mismatch at index 10"),
        ("jacobi", "12", "jacobi.rhs:3,-1:5", "first mismatch at q^3 z^-1"),
    ]
    for what, bound, spec, needle in faults:
        broken = run_cli("verify", what, "--max", bound, "--inject-fault", spec)
        assert broken.returncode == 1, f"{spec}: {broken.stdout}"
        assert needle in broken.stdout, f"{spec}: {broken.stdout}"

    as_json = run_cli("verify", "congruence", "--max", "500", "--format", "json")
    assert as_json.returncode == 0
    assert json.loads(as_json.stdout)[0]["passed"] is True
    announce(9, "verify all exits 0; injected corruptions exit 1 at the right spot")
