"""Symbol calculus: invariants, the staircase bijection, specials, families."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import (
    FAMILY_OF_3120,
    RANK4_DEFECT0_BASE,
    RANK4_DEFECT0_DEGENERATE,
    RANK4_DEFECT2,
    RANK4_SPECIALS,
)

from biparts.partitions import Bipartition, Partition, bipartition_count
from biparts.report import Recorder
from biparts.symbols import (
    FamilyMember,
    SpecialSymbol,
    Symbol,
    SymbolClass,
    check_class_count_difference,
    check_family_partition,
    class_counts,
    defect_offset,
    enumerate_classes,
    from_bipartition,
    is_special,
    parity_difference_binomial,
    to_bipartition,
)


def symbol_strategy(max_entry: int = 10, max_len: int = 5):
    row = st.frozensets(st.integers(0, max_entry), max_size=max_len).map(
        lambda s: tuple(sorted(s, reverse=True))
    )
    return st.builds(Symbol, row, row)


def special_strategy(max_m: int = 4, max_gap: int = 3):
    """Build the interleaving chain bottom-up from nonnegative gaps."""

    @st.composite
    def build(draw):
        m = draw(st.integers(0, max_m))
        gaps = [draw(st.integers(0, max_gap)) for _ in range(2 * m)]
        chain = []
        value = 0
        for gap in gaps:
            value += gap
            chain.append(value)
        # chain is weakly increasing: b_m, a_m, b_(m-1), a_(m-1), ...
        bottom = chain[0::2][::-1]
        top = chain[1::2][::-1]
        for row in (top, bottom):
            for i in range(len(row) - 1):
                if row[i] <= row[i + 1]:
                    return None
        return Symbol(tuple(top), tuple(bottom))

    return build().filter(lambda s: s is not None)


class TestSymbolBasics:
    def test_row_validation(self):
        with pytest.raises(ValueError):
            Symbol((1, 1), ())
        with pytest.raises(ValueError):
            Symbol((2, 3), ())
        with pytest.raises(ValueError):
            Symbol((-1,), ())

    @pytest.mark.parametrize(
        "text, rank, defect",
        [("3,1;2,0", 4, 0), ("3,2,1,0;-", 4, 4), ("-;-", 0, 0), ("4,0;-", 4, 2)],
    )
    def test_rank_defect(self, text, rank, defect):
        s = Symbol.parse(text)
        assert s.rank == rank
        assert s.defect == defect

    def test_transpose(self):
        s = Symbol.parse("3,1;2,0")
        assert s.transpose() == Symbol.parse("2,0;3,1")
        assert s.transpose().transpose() == s
        assert s.transpose().defect == -s.defect

    def test_text_round_trip(self):
        for text in ["3,1;2,0", "-;-", "3,2,1,0;-", "-;4"]:
            assert str(Symbol.parse(text)) == text
        with pytest.raises(ValueError):
            Symbol.parse("3,1")
        with pytest.raises(ValueError):
            Symbol.parse("a;b")

    @given(symbol_strategy())
    @settings(max_examples=100)
    def test_rank_dominates_defect(self, s):
        assert s.rank >= defect_offset(s.defect)

    @given(symbol_strategy(), st.integers(1, 3))
    @settings(max_examples=60)
    def test_shift_preserves_rank_and_defect(self, s, steps):
        shifted = s.shift(steps)
        assert shifted.rank == s.rank
        assert shifted.defect == s.defect

    @given(symbol_strategy(), st.integers(1, 3))
    @settings(max_examples=60)
    def test_reduce_undoes_shift(self, s, steps):
        reduced = s.reduced()
        assert reduced.is_reduced
        assert s.shift(steps).reduced() == reduced

    def test_reduce_examples(self):
        # only one row containing 0 blocks reduction
        s = Symbol.parse("4,1;1,0")
        assert s.reduced() == s
        assert Symbol.parse("4,2,1;2,1,0").reduced() == Symbol.parse("4,2,1;2,1,0")
        assert Symbol.parse("4,2,0;3,1,0").reduced() == Symbol.parse("3,1;2,0")

    def test_degenerate(self):
        assert Symbol.parse("2,1;2,1").is_degenerate
        assert not Symbol.parse("3,1;2,0").is_degenerate


class TestBijection:
    def test_staircase_examples(self):
        assert str(to_bipartition(Symbol.parse("4;0"))) == "4|-"
        assert str(to_bipartition(Symbol.parse("3,1;2,0"))) == "2,1|1"
        assert str(to_bipartition(Symbol.parse("-;-"))) == "-|-"

    def test_inverse_examples(self):
        four = Bipartition(Partition([4]), Partition())
        assert from_bipartition(four, 0).symbol == Symbol.parse("4;0")
        empty = Bipartition(Partition(), Partition())
        assert from_bipartition(empty, 4).symbol == Symbol.parse("3,2,1,0;-")

    def test_image_is_class_invariant(self):
        s = Symbol.parse("3,1;2,0")
        assert to_bipartition(s.shift(3)) == to_bipartition(s)

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("d", [-4, -3, -2, -1, 0, 1, 2, 3, 4])
    def test_round_trips(self, n, d):
        weight = n - defect_offset(d)
        classes = enumerate_classes(n, d)
        assert len(classes) == bipartition_count(weight)
        for cls in classes:
            bp = to_bipartition(cls)
            assert bp.weight == weight
            assert from_bipartition(bp, d) == cls

    def test_weight_law(self):
        for text in RANK4_DEFECT2:
            cls = SymbolClass(Symbol.parse(text))
            assert to_bipartition(cls).weight == 4 - defect_offset(2)

    def test_empty_when_defect_too_large(self):
        assert enumerate_classes(3, 4) == []

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_transpose_swaps_defect_sign(self, n, d):
        assert {c.transpose() for c in enumerate_classes(n, d)} == set(
            enumerate_classes(n, -d)
        )

    def test_degenerate_symbols_map_to_degenerate_bipartitions(self):
        for text in RANK4_DEFECT0_DEGENERATE:
            s = Symbol.parse(text)
            assert is_special(s)
            assert to_bipartition(s).is_degenerate


class TestRank4Tables:
    def test_defect0_classes(self):
        expected = set(RANK4_DEFECT0_BASE + RANK4_DEFECT0_DEGENERATE) | {
            str(Symbol.parse(t).transpose()) for t in RANK4_DEFECT0_BASE
        }
        assert len(expected) == 20
        assert {str(c) for c in enumerate_classes(4, 0)} == expected

    def test_defect2_classes(self):
        assert {str(c) for c in enumerate_classes(4, 2)} == set(RANK4_DEFECT2)

    def test_defect4_classes(self):
        assert [str(c) for c in enumerate_classes(4, 4)] == ["3,2,1,0;-"]

    def test_negative_defects_are_transposes(self):
        for d in (2, 4):
            transposed = {c.transpose() for c in enumerate_classes(4, d)}
            assert set(enumerate_classes(4, -d)) == transposed

    def test_counts(self):
        assert len(enumerate_classes(4, 0)) == 20
        assert len(enumerate_classes(4, 2)) == 10
        assert len(enumerate_classes(4, -2)) == 10
        assert len(enumerate_classes(4, 4)) == 1


class TestSpecials:
    def test_membership(self):
        assert is_special(Symbol.parse("3,1;2,0"))
        assert not is_special(Symbol.parse("3,0;2,1"))
        assert is_special(Symbol.parse("2,1;2,1"))
        assert not is_special(Symbol.parse("4,0;-"))

    def test_rank4_table(self):
        specials = [c for c in enumerate_classes(4, 0) if is_special(c)]
        assert len(specials) == 9
        table = {}
        for cls in specials:
            data = SpecialSymbol(cls)
            table[str(cls)] = (str(data.singles), 4**data.degree)
        assert table == RANK4_SPECIALS

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            SpecialSymbol(Symbol.parse("3,0;2,1"))

    def test_singles_examples(self):
        assert str(SpecialSymbol(Symbol.parse("4,1;1,0")).singles) == "4;0"
        assert SpecialSymbol(Symbol.parse("4,1;1,0")).degree == 1
        data = SpecialSymbol(Symbol.parse("3,1;2,0"))
        assert str(data.singles) == "3,1;2,0" and data.degree == 2
        data = SpecialSymbol(Symbol.parse("2,1;2,1"))
        assert str(data.singles) == "-;-" and data.degree == 0

    @given(special_strategy())
    @settings(max_examples=80)
    def test_generated_specials(self, z):
        assert is_special(z)
        data = SpecialSymbol(z)
        assert data.singles.defect == 0
        assert len(data.singles.top) == data.degree


class TestFamilies:
    def test_flip_examples(self):
        z = SpecialSymbol(Symbol.parse("3,1;2,0"))
        assert z.flip(Symbol.parse("3;-")) == Symbol.parse("1;3,2,0")
        assert z.flip(Symbol.parse("-;-")) == z.symbol
        assert z.flip(Symbol.parse("3,1;2,0")) == Symbol.parse("2,0;3,1")

    def test_flip_rejects_non_subset(self):
        z = SpecialSymbol(Symbol.parse("4,1;1,0"))
        with pytest.raises(ValueError):
            z.flip(Symbol.parse("1;-"))  # 1 is a repeated entry, not a single

    def test_family_of_3120_matches_table(self):
        z = SpecialSymbol(Symbol.parse("3,1;2,0"))
        family = z.family()
        assert len(family) == 16
        assert {(str(m.subset), str(m.symbol)) for m in family} == FAMILY_OF_3120

    def test_family_sizes(self):
        assert len(SpecialSymbol(Symbol.parse("2;2")).family()) == 1
        assert len(SpecialSymbol(Symbol.parse("4,1;1,0")).family()) == 4

    def test_subset_order_is_binary_counter(self):
        z = SpecialSymbol(Symbol.parse("4,1;1,0"))
        assert [str(m.subset) for m in z.family()] == ["-;-", "-;0", "4;-", "4;0"]

    @given(special_strategy())
    @settings(max_examples=40)
    def test_flip_defect_law(self, z):
        data = SpecialSymbol(z)
        members = data.family()
        assert len({m.symbol for m in members}) == 4**data.degree
        for member in members:
            assert member.symbol.defect == -2 * member.subset.defect
            entries = (
                sorted(member.symbol.top + member.symbol.bottom),
                sorted(z.top + z.bottom),
            )
            assert entries[0] == entries[1]

    def test_member_type(self):
        member = SpecialSymbol(Symbol.parse("2;2")).family()[0]
        assert isinstance(member, FamilyMember)


class TestParity:
    def test_degree_zero(self):
        assert SpecialSymbol(Symbol.parse("2;2")).parity_difference() == 1

    def test_degree_one(self):
        assert SpecialSymbol(Symbol.parse("4,1;1,0")).parity_difference() == 0

    def test_degree_two(self):
        assert SpecialSymbol(Symbol.parse("3,1;2,0")).parity_difference() == 0

    @pytest.mark.parametrize("degree", range(7))
    def test_binomial_closed_form(self, degree):
        assert parity_difference_binomial(degree) == (1 if degree == 0 else 0)

    @given(special_strategy())
    @settings(max_examples=40)
    def test_enumeration_agrees_with_binomial(self, z):
        data = SpecialSymbol(z)
        assert data.parity_difference() == parity_difference_binomial(data.degree)


class TestClassCounts:
    def test_rank4(self):
        counts = class_counts(4)
        assert counts.by_defect == {0: 20, 2: 10, -2: 10, 4: 1, -4: 1}
        assert counts.plus == 22
        assert counts.minus == 20
        assert counts.plus - counts.minus == 2

    def test_rank0_and_rank1(self):
        assert class_counts(0).plus == 1
        assert class_counts(0).minus == 0
        one = class_counts(1)
        assert one.plus - one.minus == 0

    def test_enumeration_mode_agrees(self):
        for n in range(7):
            assert class_counts(n) == class_counts(n, method="enumeration")

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            class_counts(-1)
        with pytest.raises(ValueError):
            class_counts(3, method="guess")


class TestChecks:
    def test_class_count_difference(self):
        report = check_class_count_difference(200, Recorder(), enum_bound=10)
        assert report.passed
        assert len(report.children) == 2

    def test_family_partition(self):
        report = check_family_partition(8, Recorder())
        assert report.passed
        assert len(report.children) == 9
