"""Symbol calculus: invariants, the staircase bijection, specials, families."""

from __future__ import annotations

import math
import operator

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

from biparts import partitions, symbols, verify
from biparts.partitions import (
    Bipartition,
    EnumerationCapError,
    Partition,
    bipartition_count,
    bipartition_counts_upto,
)
from biparts.report import Recorder
from biparts.symbols import (
    FamilyMember,
    SpecialSymbol,
    Symbol,
    SymbolClass,
    class_count_columns,
    class_counts,
    defect_offset,
    enumerate_classes,
    from_bipartition,
    is_special,
    iter_classes,
    to_bipartition,
)
from biparts.verify import check_class_count_difference, check_family_partition


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

    def test_rejects_bool_entry(self):
        with pytest.raises(ValueError, match="integers"):
            Symbol((True,), ())

    def test_rejects_float_entry(self):
        with pytest.raises(ValueError, match="integers"):
            Symbol((2.5,), ())

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

    def test_shift_refuses_negative_steps(self):
        s = Symbol.parse("2,0;1")
        assert s.shift(0) == s
        with pytest.raises(ValueError, match="nonnegative"):
            s.shift(-2)

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
        assert from_bipartition(four, 0) == Symbol.parse("4;0")
        empty = Bipartition(Partition(), Partition())
        assert from_bipartition(empty, 4) == Symbol.parse("3,2,1,0;-")

    def test_class_is_its_reduced_symbol(self):
        s = Symbol.parse("3,1;2,0")
        cls = SymbolClass(s.shift(3))
        assert isinstance(cls, Symbol)
        assert (cls.top, cls.bottom) == (s.top, s.bottom)
        assert cls == s.reduced() and s.reduced() == cls
        assert hash(cls) == hash(s.reduced())
        assert len({cls, s, SymbolClass(s)}) == 1
        assert (cls.rank, cls.defect) == (s.rank, s.defect)
        assert repr(cls) == "SymbolClass([3, 1], [2, 0])"

    def test_class_parse_gives_the_reduced_class(self):
        cls = SymbolClass.parse("4,2,0;3,1,0")
        assert type(cls) is SymbolClass
        assert (cls.top, cls.bottom) == ((3, 1), (2, 0))
        with pytest.raises(ValueError):
            SymbolClass.parse("3,1")

    def test_reduced_symbol_is_returned_as_it_is(self):
        s = Symbol.parse("3,1;2,0")
        assert s.reduced() is s
        shifted = s.shift(2)
        assert shifted.reduced() == s and shifted.reduced() is not shifted

    def test_from_bipartition_validates_no_row(self, monkeypatch):
        # its rows are ordered by construction; the generated objects are
        # checked against the validating constructors in the next test
        checked = []
        check_row = Symbol._check_row
        monkeypatch.setattr(
            Symbol, "_check_row", staticmethod(lambda row: checked.append(row) or check_row(row))
        )
        cls = from_bipartition(Bipartition(Partition([2, 1]), Partition([1])), 0)
        assert str(cls) == "3,1;2,0"
        assert checked == []

    def test_generated_objects_pass_the_validating_constructors(self):
        def revalidated(symbol):
            again = Symbol(symbol.top, symbol.bottom)
            assert (again.top, again.bottom) == (symbol.top, symbol.bottom)
            return again

        for n in range(21):
            for p in partitions.iter_partitions(n):
                assert Partition(p.parts).parts == p.parts
        for n in range(11):
            for d in range(-6, 7, 2):
                for cls in enumerate_classes(n, d):
                    # a class is its reduced symbol
                    again = SymbolClass(revalidated(cls))
                    assert (again.top, again.bottom) == (cls.top, cls.bottom)
                    bp = to_bipartition(cls)
                    assert Partition(bp.top.parts).parts == bp.top.parts
                    assert Partition(bp.bottom.parts).parts == bp.bottom.parts
                    if d == 0 and is_special(cls):
                        special = SpecialSymbol(cls)
                        revalidated(special.singles)
                        for member in special.iter_family():
                            revalidated(member.subset)
                            revalidated(member.symbol)

    @given(st.frozensets(st.integers(0, 60), max_size=12))
    @settings(max_examples=200)
    def test_staircase_strip_drops_the_zero_suffix(self, entries):
        row = tuple(sorted(entries, reverse=True))
        staircase = range(len(row) - 1, -1, -1)
        filtered = tuple([p for p in map(operator.sub, row, staircase) if p > 0])
        for image in (to_bipartition(Symbol(row, ())), to_bipartition(Symbol((), row)).transpose()):
            assert type(image.top) is Partition and image.bottom.parts == ()
            assert image.top.parts == filtered

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

    @staticmethod
    def assert_lawful_image(bp: Bipartition, d: int) -> None:
        """from_bipartition(bp, d) is a valid reduced class of rank |bp| +
        floor(d^2/4) and defect d that to_bipartition maps back to bp."""
        cls = from_bipartition(bp, d)
        assert type(cls) is SymbolClass
        again = Symbol(cls.top, cls.bottom)  # validates both rows
        assert again.is_reduced
        assert (again.rank, again.defect) == (bp.weight + defect_offset(d), d)
        assert (cls.rank, cls.defect) == (again.rank, again.defect)
        back = to_bipartition(cls)
        assert (back.top.parts, back.bottom.parts) == (bp.top.parts, bp.bottom.parts)
        assert type(back.top) is type(back.bottom) is Partition

    @pytest.mark.parametrize("d", range(-8, 9))
    def test_every_small_bipartition_at_every_defect(self, d):
        for weight in range(11):
            for bp in partitions.iter_bipartitions(weight):
                self.assert_lawful_image(bp, d)

    @given(
        st.lists(st.integers(1, 30), max_size=12),
        st.lists(st.integers(1, 30), max_size=12),
        st.integers(-20, 20),
    )
    @settings(max_examples=300)
    def test_random_bipartitions_at_random_defects(self, top, bottom, d):
        bp = Bipartition(
            Partition(sorted(top, reverse=True)), Partition(sorted(bottom, reverse=True))
        )
        self.assert_lawful_image(bp, d)

    def test_weight_law(self):
        for text in RANK4_DEFECT2:
            cls = SymbolClass(Symbol.parse(text))
            assert to_bipartition(cls).weight == 4 - defect_offset(2)

    def test_empty_when_defect_too_large(self):
        assert enumerate_classes(3, 4) == []

    @pytest.mark.parametrize("d", [-6, -5, -2, -1, 0, 1, 2, 3, 5, 6, 8])
    def test_iter_classes_lists_enumerate_classes(self, d):
        # d = 8 takes 16 from the rank, so every weight here is negative
        for n in range(13):
            classes = iter_classes(n, d)
            assert not isinstance(classes, list)
            assert list(classes) == enumerate_classes(n, d)

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
        with pytest.raises(ValueError):
            SpecialSymbol(Symbol.parse("4,0;-"))

    def test_splits_every_special_class_into_common_entries_and_singles(self):
        for n in range(9):
            for cls in filter(is_special, enumerate_classes(n, 0)):
                z = SpecialSymbol(cls)
                assert z.symbol is cls
                assert type(z.singles) is Symbol
                common = set(z.common)
                assert len(common) == len(z.common)
                assert common == set(cls.top) & set(cls.bottom)
                assert sorted(common | set(z.singles.top), reverse=True) == list(cls.top)
                assert sorted(common | set(z.singles.bottom), reverse=True) == list(cls.bottom)
                assert z.degree == len(z.singles.top) == len(z.singles.bottom)

    def test_singles_examples(self):
        assert str(SpecialSymbol(Symbol.parse("4,1;1,0")).singles) == "4;0"
        assert SpecialSymbol(Symbol.parse("4,1;1,0")).degree == 1
        data = SpecialSymbol(Symbol.parse("3,1;2,0"))
        assert str(data.singles) == "3,1;2,0" and data.degree == 2
        data = SpecialSymbol(Symbol.parse("2,1;2,1"))
        assert str(data.singles) == "-;-" and data.degree == 0
        assert sorted(data.common) == [1, 2]
        assert SpecialSymbol(Symbol.parse("4,1;1,0")).common == (1,)

    @staticmethod
    def loop_is_special(symbol):
        """The definition, one comparison at a time: the reference for
        :func:`is_special`."""
        if symbol.defect != 0:
            return False
        for a, b in zip(symbol.top, symbol.bottom):
            if a < b:
                return False
        for i in range(len(symbol.top) - 1):
            if symbol.bottom[i] < symbol.top[i + 1]:
                return False
        return True

    def test_membership_equals_the_loop_on_every_small_class(self):
        specials = 0
        for n in range(13):
            for d in class_counts(n):
                for cls in enumerate_classes(n, d):
                    assert is_special(cls) is self.loop_is_special(cls), str(cls)
                    specials += is_special(cls)
        assert specials == 767

    @given(symbol_strategy(max_entry=8, max_len=4))
    @settings(max_examples=200)
    def test_membership_equals_the_loop_on_any_rows(self, symbol):
        # unequal and empty rows included
        assert is_special(symbol) is self.loop_is_special(symbol)

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
        member_of = {m.subset: m.symbol for m in z.family()}
        assert member_of[Symbol.parse("3;-")] == Symbol.parse("1;3,2,0")
        assert member_of[Symbol.parse("-;-")] == z.symbol
        assert member_of[Symbol.parse("3,1;2,0")] == Symbol.parse("2,0;3,1")

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

    def test_iter_family_lists_family(self):
        z = SpecialSymbol(interleaved_special(3))
        members = z.iter_family()
        assert not isinstance(members, list)
        assert list(members) == z.family()

    def test_iter_family_refuses_before_returning(self):
        with pytest.raises(EnumerationCapError):
            SpecialSymbol(interleaved_special(12)).iter_family()

    def test_member_type(self):
        member = SpecialSymbol(Symbol.parse("2;2")).family()[0]
        assert isinstance(member, FamilyMember)
        assert member == (member.subset, member.symbol) == FamilyMember(*member)

    def test_members_match_the_counter_construction(self):
        # every special symbol of rank <= 14: the same members, in the same
        # order, as moving the singles of counter value v one set at a time
        def counter_members(z):
            top, bottom = set(z.symbol.top), set(z.symbol.bottom)
            entries = sorted(top | bottom, reverse=True)
            singles = (z.singles.top + z.singles.bottom)[::-1]
            for v in range(4**z.degree):
                moved = {s for i, s in enumerate(singles) if v >> i & 1}
                yield (
                    tuple(a for a in z.singles.top if a in moved),
                    tuple(b for b in z.singles.bottom if b in moved),
                    tuple(e for e in entries if (e in top) != (e in moved)),
                    tuple(e for e in entries if (e in bottom) != (e in moved)),
                )

        specials = 0
        for n in range(15):
            for cls in filter(is_special, enumerate_classes(n, 0)):
                z = SpecialSymbol(cls)
                members = [
                    (m.subset.top, m.subset.bottom, m.symbol.top, m.symbol.bottom)
                    for m in z.iter_family()
                ]
                assert members == list(counter_members(z)), str(cls)
                specials += 1
        assert specials == 1598

    def test_members_are_valid_symbols_in_the_builder_order(self):
        # every member of every special of rank <= 12 is a FamilyMember of two
        # plain symbols that the validating constructor accepts, and the
        # members come in the order of the constructor-built reference
        def reference(z):
            tops = [
                (moved, z.common + kept, z.common + moved)
                for kept, moved in symbols._row_halves(z.singles.top)
            ]
            for moved_top, top_row, bottom_row in tops:
                for kept_bottom, moved_bottom in symbols._row_halves(z.singles.bottom):
                    yield FamilyMember(
                        Symbol(moved_top, moved_bottom),
                        Symbol(
                            sorted(top_row + moved_bottom, reverse=True),
                            sorted(bottom_row + kept_bottom, reverse=True),
                        ),
                    )

        members = 0
        for n in range(13):
            for cls in filter(is_special, enumerate_classes(n, 0)):
                z = SpecialSymbol(cls)
                family = z.family()
                assert family == list(reference(z)), str(cls)
                for member in family:
                    assert type(member) is FamilyMember
                    for part in member:
                        assert type(part) is Symbol
                        assert part == Symbol(part.top, part.bottom)
                members += len(family)
        assert members == 7970


def interleaved_special(degree: int) -> Symbol:
    """The special symbol 2d-1,...,3,1;2d-2,...,2,0, whose 2d entries are all singles."""
    return Symbol(tuple(range(2 * degree - 1, 0, -2)), tuple(range(2 * degree - 2, -1, -2)))


def signed_member_sum(z: SpecialSymbol) -> int:
    """The sum of (-1)^(d/2) over the members of ``z``'s family, d being the
    member's defect."""
    return sum(1 if m.symbol.defect % 4 == 0 else -1 for m in z.iter_family())


def class_count_sums(n: int) -> tuple[int, int]:
    """phi_plus and phi_minus of rank n, summed from the by-defect counts
    over the defects = 0 and = 2 (mod 4)."""
    by_defect = class_counts(n)
    plus = sum(c for d, c in by_defect.items() if d % 4 == 0)
    minus = sum(c for d, c in by_defect.items() if d % 4 == 2)
    return plus, minus


class TestParity:
    def test_degree_zero(self):
        assert signed_member_sum(SpecialSymbol(Symbol.parse("2;2"))) == 1

    def test_degree_one(self):
        assert signed_member_sum(SpecialSymbol(Symbol.parse("4,1;1,0"))) == 0

    def test_degree_two(self):
        assert signed_member_sum(SpecialSymbol(Symbol.parse("3,1;2,0"))) == 0

    def test_subset_size_is_counter_bit_count(self):
        # the subset of counter value v holds the singles of v's set bits
        members = SpecialSymbol(interleaved_special(3)).family()
        sizes = [len(m.subset.top) + len(m.subset.bottom) for m in members]
        assert sizes == [v.bit_count() for v in range(4**3)]

    @pytest.mark.parametrize("degree, refused", [(11, False), (12, True), (13, True)])
    def test_enumeration_refuses_past_cap(self, degree, refused):
        # 4^11 is under the cap, 4^12 over it; the 4^11 members are not made
        data = SpecialSymbol(interleaved_special(degree))
        assert data.degree == degree
        if refused:
            with pytest.raises(EnumerationCapError):
                data.iter_family()
        else:
            assert next(data.iter_family()).symbol == data.symbol

    def test_enumeration_at_lowered_cap(self, monkeypatch):
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 4**3)
        assert signed_member_sum(SpecialSymbol(interleaved_special(3))) == 0
        with pytest.raises(EnumerationCapError):
            SpecialSymbol(interleaved_special(4)).iter_family()

    @pytest.mark.parametrize("degree", range(7))
    def test_binomial_closed_form(self, degree):
        # the 2d singles give sum_k (-1)^k C(2d, k) = [d = 0] signed subsets;
        # the members' defect signs and subset sizes both follow it
        closed_form = sum((-1) ** k * math.comb(2 * degree, k) for k in range(2 * degree + 1))
        assert closed_form == (1 if degree == 0 else 0)
        data = SpecialSymbol(interleaved_special(degree))
        assert data.degree == degree
        sizes = [len(m.subset.top) + len(m.subset.bottom) for m in data.iter_family()]
        assert sum((-1) ** size for size in sizes) == closed_form
        assert signed_member_sum(data) == closed_form

    @given(special_strategy())
    @settings(max_examples=40)
    def test_signed_member_sum_is_degree_zero_indicator(self, z):
        data = SpecialSymbol(z)
        assert signed_member_sum(data) == (1 if data.degree == 0 else 0)


class TestClassCounts:
    def test_rank4(self):
        assert class_counts(4) == {0: 20, 2: 10, -2: 10, 4: 1, -4: 1}
        plus, minus = class_count_columns(bipartition_counts_upto(4))
        assert plus[4] == 22
        assert minus[4] == 20
        assert plus[4] - minus[4] == 2

    def test_rank0_and_rank1(self):
        plus, minus = class_count_columns(bipartition_counts_upto(1))
        assert plus[0] == 1
        assert minus[0] == 0
        assert plus[1] - minus[1] == 0

    def test_enumeration_mode_agrees(self):
        for n in range(7):
            by_defect = class_counts(n)
            assert by_defect == {d: len(enumerate_classes(n, d)) for d in by_defect}

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            class_counts(-1)

    def test_key_order(self):
        # `symbols counts` JSON lists the defects in this order
        assert list(class_counts(9)) == [0, 2, -2, 4, -4, 6, -6]

    def test_columns_match_class_counts(self):
        p2 = bipartition_counts_upto(2000)
        assert list(zip(*class_count_columns(p2))) == [class_count_sums(n) for n in range(2001)]
        assert class_count_columns(p2[:1]) == ([1], [0])

    def test_signed_sums_by_defect_mod_4(self):
        # every n up to 60, perfect squares among them, where the largest
        # defect d has d^2/4 = n exactly; the prefix ends at n
        p2 = bipartition_counts_upto(60)
        for n in range(61):
            plus, minus = class_count_columns(p2[: n + 1])
            assert (plus[n], minus[n]) == class_count_sums(n)
            top = max(class_counts(n)) // 2
            assert top * top <= n < (top + 1) * (top + 1)


# Breakages of the symbol calculus, each confined to one rank; every one must
# fail exactly that rank's families leaf.


def _short_rank1_family(family):
    def patched(self):
        members = family(self)
        return members[:-1] if self.symbol.rank == 1 else members

    return patched


def _first_rank5_special_missed(is_special):
    missed = []

    def patched(symbol):
        special = is_special(symbol)
        if special and symbol.rank == 5 and not missed:
            missed.append(symbol)
        return special and symbol not in missed

    return patched


def _rank4_member_transposed(iter_family):
    def patched(self):
        for member in iter_family(self):
            if self.symbol.rank == 4 and member.subset.defect == 1:
                member = FamilyMember(member.subset, member.symbol.transpose())
            yield member

    return patched


def _rank4_subsets_transposed(iter_family):
    def patched(self):
        for member in iter_family(self):
            if self.symbol.rank == 4:
                member = FamilyMember(member.subset.transpose(), member.symbol)
            yield member

    return patched


def _rank6_family_repeats_first(family):
    def patched(self):
        members = family(self)
        if self.symbol.rank == 6 and len(members) > 1:
            members[-1] = members[0]
        return members

    return patched


class TestChecks:
    def test_class_count_difference(self, monkeypatch):
        monkeypatch.setattr(verify, "CLASS_ENUM_BOUND", 10)
        report = check_class_count_difference(200, Recorder())
        assert report.passed
        assert [(c.name, c.bound) for c in report.children] == [
            ("corollary.recurrence", 200),
            ("corollary.enumeration", 10),
        ]

    def test_recurrence_leaf_catches_a_wrong_p_table(self, monkeypatch):
        # the p2 table is built from p by the square recurrence that the
        # signed class-count sum re-adds, so only the convolution route can
        # tell a wrong p(150) from the right one
        cache = partitions.CountCache()
        monkeypatch.setattr(partitions, "_CACHE", cache)
        partitions.partition_count(300)
        cache._p[150] += 1
        report = check_class_count_difference(300, Recorder())
        recurrence = report.children[0]
        assert recurrence.name == "corollary.recurrence"
        assert not recurrence.passed
        assert recurrence.mismatch.location == (150,)
        assert recurrence.mismatch.lhs == recurrence.mismatch.rhs + 2

    def test_recurrence_leaf_reads_the_convolution_table(self, monkeypatch):
        cache = partitions.CountCache()
        monkeypatch.setattr(partitions, "_CACHE", cache)
        cache.bipartition_count(300)
        cache.bipartition_count_convolution(300)
        cache._p2conv[150] += 1
        recurrence = check_class_count_difference(300, Recorder()).children[0]
        assert recurrence.name == "corollary.recurrence"
        assert not recurrence.passed
        assert recurrence.mismatch.location == (150,)
        assert recurrence.mismatch.lhs == recurrence.mismatch.rhs + 1

    def test_recurrence_leaf_does_not_read_the_p2_table(self, monkeypatch):
        # the square recurrence builds p2 from the same signed sum, so a
        # leaf that read it would only restate that recurrence
        cache = partitions.CountCache()
        monkeypatch.setattr(partitions, "_CACHE", cache)
        cache.bipartition_count(300)
        cache.bipartition_count_convolution(300)
        cache._p2[150] += 1
        report = check_class_count_difference(300, Recorder())
        assert report.children[0].name == "corollary.recurrence"
        assert report.children[0].passed

    def test_broken_sign_symmetry_is_a_mismatch(self, monkeypatch):
        # one class lost at defect -2 of rank 5: reported, not raised
        original = symbols.enumerate_classes

        def lossy(rank, defect):
            classes = original(rank, defect)
            return classes[1:] if (rank, defect) == (5, -2) else classes

        monkeypatch.setattr(symbols, "enumerate_classes", lossy)
        report = check_class_count_difference(8, Recorder())
        assert not report.passed
        recurrence, enumeration = report.children
        assert recurrence.passed
        assert not enumeration.passed
        assert enumeration.mismatch.location == (5,)
        assert enumeration.mismatch.lhs == enumeration.mismatch.rhs + 1

    @pytest.mark.parametrize("rank, defect", [(5, -2), (6, 2), (8, 4), (7, -4)])
    def test_a_lost_class_fails_its_family_leaf(self, monkeypatch, rank, defect):
        # the families still reach the lost class, so the family sizes sum
        # to one more than the classes listed
        original = symbols.enumerate_classes

        def lossy(n, d):
            classes = original(n, d)
            return classes[1:] if (n, d) == (rank, defect) else classes

        monkeypatch.setattr(symbols, "enumerate_classes", lossy)
        report = check_family_partition(8, Recorder())
        assert [c.name for c in report.children if not c.passed] == [f"families.n{rank}"]
        leaf = report.children[rank]
        total = sum(class_counts(rank).values())
        assert (leaf.mismatch.lhs, leaf.mismatch.rhs) == (total, total - 1)

    def test_family_partition(self):
        report = check_family_partition(8, Recorder())
        assert report.passed
        assert len(report.children) == 9

    def test_lawless_members_are_distinct_but_reach_no_class(self, monkeypatch):
        # every member keeps its symbol, so each family still has 4^degree
        # distinct members and the sizes still sum to the class count; only
        # the members moved by a subset of nonzero defect break the defect law
        breakage = _rank4_subsets_transposed(SpecialSymbol.iter_family)
        monkeypatch.setattr(SpecialSymbol, "iter_family", breakage)
        leaf = check_family_partition(4, Recorder()).children[4]
        total = sum(class_counts(4).values())
        assert not leaf.passed
        assert leaf.mismatch.rhs == total and 0 < leaf.mismatch.lhs < total

    @pytest.mark.parametrize(
        "owner, name, breakage, leaf",
        [
            (symbols.SpecialSymbol, "family", _short_rank1_family, "families.n1"),
            (symbols, "is_special", _first_rank5_special_missed, "families.n5"),
            (symbols.SpecialSymbol, "iter_family", _rank4_member_transposed, "families.n4"),
            (symbols.SpecialSymbol, "family", _rank6_family_repeats_first, "families.n6"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_broken_family_fails_its_leaf(self, monkeypatch, owner, name, breakage, leaf):
        monkeypatch.setattr(owner, name, breakage(getattr(owner, name)))
        report = check_family_partition(8, Recorder())
        assert [c.name for c in report.children if not c.passed] == [leaf]
