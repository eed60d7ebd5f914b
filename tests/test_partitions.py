"""Counting and enumeration, played against independent oracles."""

from __future__ import annotations

import threading
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biparts import kernels, partitions, verify
from biparts.partitions import (
    Bipartition,
    CountCache,
    EnumerationCapError,
    Partition,
    bipartition_count,
    bipartition_count_convolution,
    count_distinct_parts,
    count_odd_parts,
    degenerate_count,
    enumerate_bipartitions,
    enumerate_partitions,
    iter_bipartitions,
    iter_partitions,
    partition_count,
)
from biparts.report import Recorder
from biparts.symbols import enumerate_classes, iter_classes
from biparts.verify import (
    check_bipartition_recursion,
    check_family_partition,
    check_partition_recursion,
)


def oracle_partitions(n: int, cap: int | None = None) -> set[tuple[int, ...]]:
    """Set-based generation, independent of the library's generator."""
    if n < 0:
        return set()
    if n == 0:
        return {()}
    found = set()
    limit = n if cap is None else cap
    for first in range(1, limit + 1):
        for rest in oracle_partitions(n - first, first):
            found.add((first,) + rest)
    return found


def recursive_partitions(n: int, maxpart: int) -> Iterator[tuple[int, ...]]:
    """The recursive generator the library used before ZS1; kept as the order oracle."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


partition_strategy = st.lists(st.integers(1, 12), max_size=8).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


class TestPartitionType:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([3, 0])

    def test_rejects_float_part(self):
        with pytest.raises(ValueError, match="integers"):
            Partition([2.5, 1])

    def test_rejects_bool_part(self):
        with pytest.raises(ValueError, match="integers"):
            Partition([True])

    def test_weight_and_len(self):
        p = Partition([3, 1])
        assert p.weight == 4 and len(p) == 2
        assert Partition().weight == 0

    def test_text_round_trip(self):
        assert str(Partition([3, 1])) == "3,1"
        assert str(Partition()) == "-"
        assert Partition.parse("3,1") == Partition([3, 1])
        assert Partition.parse("-") == Partition()

    @given(partition_strategy)
    def test_parse_inverts_str(self, p):
        assert Partition.parse(str(p)) == p


class TestBipartitionType:
    def test_transpose_is_involution(self):
        b = Bipartition(Partition([2, 1]), Partition([1]))
        assert b.transpose().transpose() == b
        assert not b.is_degenerate
        assert Bipartition(Partition([2]), Partition([2])).is_degenerate

    def test_text_round_trip(self):
        b = Bipartition(Partition([2, 1]), Partition())
        assert str(b) == "2,1|-"
        assert Bipartition.parse("2,1|-") == b
        with pytest.raises(ValueError):
            Bipartition.parse("2,1")

    def test_rows_must_be_partitions(self):
        with pytest.raises(ValueError, match="partitions"):
            Bipartition((1,), ())
        with pytest.raises(ValueError, match="partitions"):
            Bipartition(Partition([1]), "1")

    def test_weight_sums_rows(self):
        b = Bipartition(Partition([2, 1]), Partition([3]))
        assert b.weight == 6


class TestEnumeration:
    def test_zero_and_negative(self):
        assert enumerate_partitions(0) == [Partition()]
        assert enumerate_partitions(-1) == []
        assert enumerate_bipartitions(0) == [Bipartition(Partition(), Partition())]
        assert enumerate_bipartitions(-2) == []

    def test_partitions_of_four(self):
        expected = [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
        assert [list(p.parts) for p in enumerate_partitions(4)] == expected

    def test_order_is_lexicographically_decreasing(self):
        for n in range(9):
            listed = [p.parts for p in enumerate_partitions(n)]
            assert listed == sorted(listed, reverse=True)

    @pytest.mark.parametrize("n", range(11))
    def test_matches_set_oracle(self, n):
        assert {p.parts for p in enumerate_partitions(n)} == oracle_partitions(n)

    def test_bipartitions_of_one(self):
        assert [str(b) for b in enumerate_bipartitions(1)] == ["1|-", "-|1"]

    def test_bipartition_order(self):
        weights = [b.top.weight for b in enumerate_bipartitions(6)]
        assert weights == sorted(weights, reverse=True)

    def test_bipartitions_cover_all_pairs(self):
        seen = {(b.top.parts, b.bottom.parts) for b in enumerate_bipartitions(5)}
        expected = {
            (t, u)
            for a in range(6)
            for t in oracle_partitions(a)
            for u in oracle_partitions(5 - a)
        }
        assert seen == expected

    @pytest.mark.parametrize("n", range(-1, 21))
    def test_order_matches_recursive_generator(self, n):
        expected = list(recursive_partitions(n, n)) if n >= 0 else []
        assert [p.parts for p in iter_partitions(n)] == expected

    @pytest.mark.parametrize("n", range(-1, 11))
    def test_bipartition_order_matches_nested_loops(self, n):
        expected = [
            (top, bottom)
            for a in range(n, -1, -1)
            for top in recursive_partitions(a, a)
            for bottom in recursive_partitions(n - a, n - a)
        ]
        got = [(b.top.parts, b.bottom.parts) for b in iter_bipartitions(n)]
        assert got == expected

    def test_enumerated_partitions_round_trip_constructor(self):
        for n in range(16):
            for p in iter_partitions(n):
                assert type(p) is Partition
                assert Partition(p.parts) == p
                assert Partition.parse(str(p)) == p

    def test_bipartitions_are_lazy(self):
        # the first item must not wait for the rows of any other top weight
        assert str(next(iter(iter_bipartitions(90)))) == "90|-"

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 10)
        with pytest.raises(EnumerationCapError):
            enumerate_partitions(30)
        with pytest.raises(EnumerationCapError):
            enumerate_bipartitions(30)


    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_partition_recursion(20_000, Recorder()),
            lambda: check_family_partition(20_000, Recorder()),
            lambda: enumerate_bipartitions(20_000),
            lambda: enumerate_classes(20_000, 0),
            lambda: iter_classes(20_000, 0),
        ],
        ids=["euler", "families", "bipartitions", "classes", "iter-classes"],
    )
    def test_large_bound_refused_without_filling_tables(self, monkeypatch, call):
        cache = CountCache()
        monkeypatch.setattr(partitions, "_CACHE", cache)
        with pytest.raises(EnumerationCapError):
            call()
        assert len(cache._p) < 100 and len(cache._p2) < 100


class TestThm1Enumeration:
    def test_refuses_before_enumerating(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated despite the cap")

        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 100)
        monkeypatch.setattr(partitions, "iter_bipartitions", forbidden)
        monkeypatch.setattr(partitions, "enumerate_bipartitions", forbidden)
        monkeypatch.setattr(partitions, "_partition_tuples", forbidden)
        with pytest.raises(EnumerationCapError):
            check_bipartition_recursion(30, Recorder())

    @pytest.mark.parametrize("n", range(26))
    def test_tallies_count_every_and_every_degenerate_bipartition(self, n):
        items = enumerate_bipartitions(n)
        degenerate = sum(b.is_degenerate for b in items)
        assert verify._bipartition_tallies(n)[n] == (len(items), degenerate)

    def test_tallies_equal_the_pair_loop(self):
        # every (top, bottom) pair visited one at a time, as a reference for
        # the counts taken over whole lists of bottoms
        def pair_loop(n):
            total = fixed = 0
            for a in range(n, -1, -1):
                bottoms = list(partitions._partition_tuples(n - a))
                for top in partitions._partition_tuples(a):
                    for bottom in bottoms:
                        total += 1
                        fixed += top == bottom
            return total, fixed

        assert verify._bipartition_tallies(25) == [pair_loop(n) for n in range(26)]
        assert verify._bipartition_tallies(0) == [(1, 1)]

    @pytest.mark.parametrize("weight, dropped", [(1, 0), (4, 2), (7, 0), (9, 14), (12, -1)])
    def test_a_lost_partition_fails_enumeration_at_its_weight(self, monkeypatch, weight, dropped):
        # the tuples of each weight are listed once, so a lost one is missing
        # from every n >= weight; the first mismatch is at n = weight
        listed = partitions._partition_tuples

        def lossy(n):
            rows = list(listed(n))
            if n == weight:
                del rows[dropped]
            return iter(rows)

        monkeypatch.setattr(partitions, "_partition_tuples", lossy)
        report = check_bipartition_recursion(20, Recorder())
        leaf = report.children[1]
        assert (leaf.name, leaf.passed) == ("thm1.enumeration", False)
        assert leaf.mismatch.location == (weight,)
        # the lost tuple was the top of one pair and the bottom of another
        assert leaf.mismatch.lhs == leaf.mismatch.rhs + 2

    def test_leaves_keep_ids_and_bounds(self, monkeypatch):
        monkeypatch.setattr(verify, "BIPARTITION_ENUM_BOUND", 12)
        report = check_bipartition_recursion(40, Recorder())
        assert report.passed
        assert [(c.name, c.bound) for c in report.children] == [
            ("thm1.convolution", 40),
            ("thm1.enumeration", 12),
            ("thm1.degenerate", 12),
        ]


class TestCounting:
    def test_conventions(self):
        assert partition_count(0) == 1
        assert partition_count(-3) == 0
        assert bipartition_count(0) == 1
        assert bipartition_count(-1) == 0
        assert bipartition_count_convolution(-1) == 0

    def test_small_values(self):
        assert partition_count(4) == 5
        assert bipartition_count(3) == 10
        assert bipartition_count(4) == 20
        assert bipartition_count_convolution(2) == 5

    @pytest.mark.parametrize("n", range(26))
    def test_counts_match_enumeration(self, n):
        assert partition_count(n) == len(enumerate_partitions(n))
        assert bipartition_count(n) == len(enumerate_bipartitions(n))

    def test_recursion_instantiation_at_four(self):
        # k = +-1, +-2 terms of the square recurrence
        assert bipartition_count(4) == (
            partition_count(2)
            + 2 * bipartition_count(3)
            - 2 * bipartition_count(0)
        )

    def test_two_routes_agree(self):
        for n in range(300):
            assert bipartition_count(n) == bipartition_count_convolution(n)

    def test_degenerate_count(self):
        assert degenerate_count(4) == 2
        assert degenerate_count(5) == 0
        assert degenerate_count(0) == 1
        assert degenerate_count(-2) == 0

    @pytest.mark.parametrize("n", range(16))
    def test_degenerate_matches_transpose_fixpoints(self, n):
        fixed = [b for b in enumerate_bipartitions(n) if b.transpose() == b]
        assert degenerate_count(n) == len(fixed)
        for b in fixed:
            assert b.top == b.bottom

    @pytest.mark.parametrize("n", range(16))
    def test_nondegenerate_pair_off(self, n):
        assert (bipartition_count(n) - degenerate_count(n)) % 2 == 0

    def test_prefix_accessors(self):
        assert partitions.partition_counts_upto(4) == [1, 1, 2, 3, 5]
        assert partitions.bipartition_counts_upto(4) == [1, 2, 5, 10, 20]


class TestDistinctOdd:
    def test_base_cases(self):
        assert count_distinct_parts(0) == 1
        assert count_odd_parts(0) == 1
        assert count_distinct_parts(-1) == 0

    @pytest.mark.parametrize(
        "n, expected", [(3, 2), (6, 4)]
    )
    def test_listed_values(self, n, expected):
        assert count_distinct_parts(n) == expected
        assert count_odd_parts(n) == expected

    @pytest.mark.parametrize("n", range(15))
    def test_against_enumeration_filters(self, n):
        listed = enumerate_partitions(n)
        distinct = [p for p in listed if len(set(p.parts)) == len(p.parts)]
        odd = [p for p in listed if all(part % 2 for part in p.parts)]
        assert count_distinct_parts(n) == len(distinct)
        assert count_odd_parts(n) == len(odd)

    def test_identity_holds(self):
        for n in range(80):
            assert count_distinct_parts(n) == count_odd_parts(n)


#: Each CountCache table as (kernel that fills it, reader).
GROWN_TABLES = [
    pytest.param("extend_partition_table", "partition_count", id="p"),
    pytest.param("extend_bipartition_table", "bipartition_count", id="p2"),
    pytest.param("extend_self_convolution", "bipartition_count_convolution", id="p2conv"),
]


def record_fills(monkeypatch, name: str) -> list:
    """Wrap ``kernels.<name>``; the list gets the table's length after each call."""
    lengths = []
    extend = getattr(kernels, name)

    def counted(table, *args):
        extend(table, *args)
        lengths.append(len(table))

    monkeypatch.setattr(kernels, name, counted)
    return lengths


class TestCountCache:
    def test_fresh_cache_is_consistent(self):
        cache = CountCache()
        # 2*(p0 p10 + p1 p9 + p2 p8 + p3 p7 + p4 p6) + p5^2, convolution by hand
        assert cache.bipartition_count(10) == 481
        assert cache.partition_prefix(5) == [1, 1, 2, 3, 5, 7]
        assert cache.convolution_prefix(10) == cache.bipartition_prefix(10)

    def test_negative_reads_are_zero_on_a_filled_cache(self):
        # after a fill, list indexing would wrap -1 round to the last entry
        cache = CountCache()
        assert cache.bipartition_count_convolution(10) == 481
        assert cache.bipartition_count(10) == 481
        for n in (-1, -3, -11):
            assert cache.partition_count(n) == 0
            assert cache.bipartition_count(n) == 0
            assert cache.bipartition_count_convolution(n) == 0
        assert cache.partition_prefix(-1) == []
        assert cache.partition_prefix(-3) == []
        assert cache.bipartition_prefix(-3) == []
        assert cache.convolution_prefix(-3) == []

    def test_concurrent_fillers_agree(self):
        cache = CountCache()
        results = []

        def fill():
            results.append(
                [
                    (cache.bipartition_count(n), cache.bipartition_count_convolution(n))
                    for n in range(400)
                ]
            )

        threads = [threading.Thread(target=fill) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
        assert results[0][4] == (20, 20)
        assert all(square == conv for square, conv in results[0])

    def test_a_read_inside_a_table_takes_no_lock(self):
        class LockTaken(Exception):
            pass

        class Refused:
            def __enter__(self):
                raise LockTaken

            def __exit__(self, *exc_info):
                return False

        tables = {
            "partition_count": "_p",
            "bipartition_count": "_p2",
            "bipartition_count_convolution": "_p2conv",
        }
        fresh = CountCache()
        fresh._lock = Refused()
        for read in tables:
            assert [getattr(fresh, read)(n) for n in (-1, -2, -50)] == [0, 0, 0]
        assert [len(getattr(fresh, table)) for table in tables.values()] == [1, 1, 1]

        filled = CountCache()
        filled.bipartition_count(49)
        filled.bipartition_count_convolution(49)
        expected = {read: [getattr(CountCache(), read)(n) for n in range(50)] for read in tables}
        filled._lock = Refused()
        for read, table in tables.items():
            length = len(getattr(filled, table))
            assert [getattr(filled, read)(n) for n in range(50)] == expected[read]
            assert getattr(filled, read)(length - 1) == getattr(filled, table)[-1]
            with pytest.raises(LockTaken):
                getattr(filled, read)(length)

    @pytest.mark.parametrize(("kernel", "read"), GROWN_TABLES)
    def test_one_entry_requests_square_logarithmically_often(self, monkeypatch, kernel, read):
        # each table grows by half its length, not to the request
        lengths = record_fills(monkeypatch, kernel)
        walked = getattr(CountCache(), read)
        values = [walked(n) for n in range(2001)]
        assert len(lengths) <= 20
        exact = getattr(CountCache(), read)
        exact(2000)
        assert values == [exact(n) for n in range(2001)]

    @pytest.mark.parametrize(("kernel", "read"), GROWN_TABLES)
    def test_fresh_table_fills_exactly_then_grows_by_half(self, monkeypatch, kernel, read):
        lengths = record_fills(monkeypatch, kernel)
        read = getattr(CountCache(), read)
        read(1000)
        assert lengths == [1001]
        read(1001)
        # one read past the full table fills it to index len + len // 2
        assert lengths == [1001, 1001 + 1001 // 2 + 1]

    def test_thm1_squares_once_at_its_bound(self, monkeypatch):
        grown = []
        extend = kernels.extend_self_convolution

        def counted(out, src, upto):
            before = len(out)
            extend(out, src, upto)
            if len(out) > before:
                grown.append(upto)

        monkeypatch.setattr(kernels, "extend_self_convolution", counted)
        monkeypatch.setattr(partitions, "_CACHE", CountCache())
        monkeypatch.setattr(verify, "BIPARTITION_ENUM_BOUND", 5)
        assert verify.run_check("thm1", 3000, Recorder()).passed
        assert grown == [3000]

    @pytest.mark.parametrize(
        ("check", "bound", "lengths"),
        [("congruence", 3000, ([3001], [3001])), ("corollary", 2000, ([2001], [13]))],
    )
    def test_check_fills_each_table_once_at_its_bound(self, monkeypatch, check, bound, lengths):
        # both checks read the tables upward; one read past a table's end
        # would grow it by half, past what the check needs
        p_fills = record_fills(monkeypatch, "extend_partition_table")
        p2_fills = record_fills(monkeypatch, "extend_bipartition_table")
        monkeypatch.setattr(partitions, "_CACHE", CountCache())
        assert verify.run_check(check, bound, Recorder()).passed
        assert (p_fills, p2_fills) == lengths

    def test_verify_all_reads_no_table_past_its_bound(self, monkeypatch):
        cache = CountCache()
        monkeypatch.setattr(partitions, "_CACHE", cache)
        assert all(report.passed for report in verify.run_all(300, Recorder()))
        assert [len(cache._p), len(cache._p2), len(cache._p2conv)] == [301, 301, 301]
