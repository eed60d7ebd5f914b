"""Two-row symbol combinatorics: ranks, defects, similarity classes, the
staircase bijection onto bipartitions, special symbols and their families.

A symbol is an ordered pair of strictly decreasing sequences of nonnegative
integers.  Adding 1 to every entry and appending a 0 to both rows preserves
rank and defect; classes under that shift are represented by their unique
reduced member (the one without a 0 in both rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from biparts.partitions import (
    Bipartition,
    Partition,
    _format_row,
    _parse_row,
    bipartition_count,
    degenerate_count,
    enumerate_bipartitions,
    iter_bipartitions,
    refuse_past_cap,
)
from biparts.report import CheckReport, Recorder, combine


class Symbol:
    """An ordered pair of strictly decreasing rows of nonnegative integers."""

    __slots__ = ("top", "bottom")

    def __init__(self, top=(), bottom=()):
        self.top = self._check_row(tuple(top))
        self.bottom = self._check_row(tuple(bottom))

    @staticmethod
    def _check_row(row: tuple[int, ...]) -> tuple[int, ...]:
        for i, value in enumerate(row):
            if type(value) is not int:
                raise ValueError(f"entries must be integers: {row}")
            if value < 0:
                raise ValueError(f"entries must be nonnegative: {row}")
            if i and row[i - 1] <= value:
                raise ValueError(f"row must be strictly decreasing: {row}")
        return row

    @property
    def rank(self) -> int:
        total = len(self.top) + len(self.bottom)
        return sum(self.top) + sum(self.bottom) - (total - 1) ** 2 // 4

    @property
    def defect(self) -> int:
        return len(self.top) - len(self.bottom)

    def transpose(self) -> "Symbol":
        return Symbol(self.bottom, self.top)

    @property
    def is_degenerate(self) -> bool:
        return self.top == self.bottom

    def contains(self, other: "Symbol") -> bool:
        """Row-wise subset test."""
        return set(other.top) <= set(self.top) and set(other.bottom) <= set(
            self.bottom
        )

    def shift(self, steps: int = 1) -> "Symbol":
        """Apply the rank/defect-preserving shift ``steps`` times."""
        top, bottom = self.top, self.bottom
        for _ in range(steps):
            top = tuple(a + 1 for a in top) + (0,)
            bottom = tuple(b + 1 for b in bottom) + (0,)
        return Symbol(top, bottom)

    @property
    def is_reduced(self) -> bool:
        return not (
            self.top and self.bottom and self.top[-1] == 0 and self.bottom[-1] == 0
        )

    def reduced(self) -> "Symbol":
        """Undo the shift while both rows end in 0; a reduced symbol is
        returned as it is, not copied."""
        if self.is_reduced:
            return self
        top, bottom = self.top, self.bottom
        while top and bottom and top[-1] == 0 and bottom[-1] == 0:
            top = tuple(a - 1 for a in top[:-1])
            bottom = tuple(b - 1 for b in bottom[:-1])
        return Symbol(top, bottom)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Symbol)
            and self.top == other.top
            and self.bottom == other.bottom
        )

    def __hash__(self) -> int:
        return hash((self.top, self.bottom))

    def __lt__(self, other: "Symbol") -> bool:
        return (self.top, self.bottom) < (other.top, other.bottom)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.top)}, {list(self.bottom)})"

    def __str__(self) -> str:
        return f"{_format_row(self.top)};{_format_row(self.bottom)}"

    @staticmethod
    def parse(text: str) -> "Symbol":
        """Inverse of str(): ``3,1;2,0`` with ``-`` for an empty row."""
        head, sep, tail = text.partition(";")
        if not sep:
            raise ValueError(f"malformed symbol (missing ';'): {text!r}")
        return Symbol(_parse_row(head), _parse_row(tail))


class SymbolClass(Symbol):
    """A similarity class: the unique reduced representative of ``symbol``.

    It is that reduced :class:`Symbol`, so it compares and hashes equal to
    the plain symbol with the same rows.
    """

    __slots__ = ()

    def __init__(self, symbol: Symbol):
        reduced = symbol.reduced()
        self.top, self.bottom = reduced.top, reduced.bottom


def _staircase_strip(row: tuple[int, ...]) -> Partition:
    m = len(row)
    parts = [row[i] - (m - 1 - i) for i in range(m)]
    return Partition([p for p in parts if p > 0])


def to_bipartition(symbol: Symbol) -> Bipartition:
    """Staircase subtraction: rows minus (m-1, ..., 1, 0), zeros dropped.

    Constant on similarity classes; the image of a rank-n, defect-d class is
    a bipartition of n - floor((d/2)^2).
    """
    return Bipartition(_staircase_strip(symbol.top), _staircase_strip(symbol.bottom))


def from_bipartition(bipartition: Bipartition, defect: int = 0) -> SymbolClass:
    """The unique class of the given defect mapping onto ``bipartition``.

    Chooses the minimal row lengths (m_top, m_bottom) with
    m_top - m_bottom = defect that accommodate both partitions, pads with
    zeros, and adds the staircases back.
    """
    top, bottom = bipartition.top.parts, bipartition.bottom.parts
    m_bottom = max(len(bottom), len(top) - defect, -defect)
    m_top = m_bottom + defect
    padded_top = top + (0,) * (m_top - len(top))
    padded_bottom = bottom + (0,) * (m_bottom - len(bottom))
    new_top = tuple(padded_top[i] + (m_top - 1 - i) for i in range(m_top))
    new_bottom = tuple(padded_bottom[i] + (m_bottom - 1 - i) for i in range(m_bottom))
    return SymbolClass(Symbol(new_top, new_bottom))


def defect_offset(defect: int) -> int:
    """floor((defect/2)^2), the rank consumed by a nonzero defect."""
    return defect * defect // 4


def enumerate_classes(rank: int, defect: int) -> list[SymbolClass]:
    """All similarity classes of the given rank and defect.

    Produced as images of the bipartitions of rank - floor((defect/2)^2)
    under :func:`from_bipartition`, in bipartition enumeration order; empty
    when that weight is negative.
    """
    weight = rank - defect_offset(defect)
    return [from_bipartition(bp, defect) for bp in enumerate_bipartitions(weight)]


def iter_classes(rank: int, defect: int) -> Iterator[SymbolClass]:
    """The classes of :func:`enumerate_classes`, in its order, made one at a
    time.

    The cap check runs before this returns, so a refusal comes before the
    first class; ``EnumerationCapError`` as :func:`enumerate_bipartitions`.
    """
    weight = rank - defect_offset(defect)
    refuse_past_cap(bipartition_count, weight, "p2")
    return (from_bipartition(bp, defect) for bp in iter_bipartitions(weight))


def is_special(symbol: Symbol) -> bool:
    """Defect 0 and the interleaving a1 >= b1 >= a2 >= b2 >= ... holds.

    The property is shift-invariant, so testing any representative of a
    class gives the class-level answer.
    """
    if symbol.defect != 0:
        return False
    for a, b in zip(symbol.top, symbol.bottom):
        if a < b:
            return False
    for i in range(len(symbol.top) - 1):
        if symbol.bottom[i] < symbol.top[i + 1]:
            return False
    return True


@dataclass(frozen=True)
class FamilyMember:
    """One symbol of a family: the flipped subset and the resulting symbol."""

    subset: Symbol
    symbol: Symbol


class SpecialSymbol:
    """A special symbol together with its singles and degree.

    The singles are the entries appearing in exactly one row; flipping any
    subset of them between the rows generates the family.
    """

    __slots__ = ("symbol", "singles", "degree")

    def __init__(self, symbol: Symbol):
        if not is_special(symbol):
            raise ValueError(f"symbol {symbol} is not special")
        common = set(symbol.top) & set(symbol.bottom)
        self.symbol = symbol
        self.singles = Symbol(
            tuple(a for a in symbol.top if a not in common),
            tuple(b for b in symbol.bottom if b not in common),
        )
        self.degree = len(self.singles.top)

    def subsets(self) -> Iterator[Symbol]:
        """All subsymbols of the singles, in binary-counter order.

        Counter bits run over the 2*degree singles with the top row in the
        high bits (leftmost entry highest) and the bottom row in the low
        bits; subsets appear for counter values 0, 1, 2, ...
        """
        top, bottom = self.singles.top, self.singles.bottom
        d = self.degree
        for v in range(1 << (2 * d)):
            chosen_top = tuple(top[i] for i in range(d) if v >> (2 * d - 1 - i) & 1)
            chosen_bottom = tuple(bottom[i] for i in range(d) if v >> (d - 1 - i) & 1)
            yield Symbol(chosen_top, chosen_bottom)

    def flip(self, subset: Symbol) -> Symbol:
        """Move each entry of ``subset`` (a subsymbol of the singles) to the
        other row; the result has defect -2 * defect(subset)."""
        if not self.singles.contains(subset):
            raise ValueError(f"{subset} is not a subsymbol of the singles {self.singles}")
        top = (set(self.symbol.top) - set(subset.top)) | set(subset.bottom)
        bottom = (set(self.symbol.bottom) - set(subset.bottom)) | set(subset.top)
        return Symbol(sorted(top, reverse=True), sorted(bottom, reverse=True))

    def iter_family(self) -> Iterator[FamilyMember]:
        """All 4^degree flips, one per subset, in subset order, made one at a
        time.

        Refuses with :class:`EnumerationCapError` when 4^degree exceeds the
        enumeration cap, i.e. from degree 12 on; the refusal comes before
        this returns.
        """
        refuse_past_cap(lambda k: 4**k, self.degree, "4^")
        return (FamilyMember(subset, self.flip(subset)) for subset in self.subsets())

    def family(self) -> list[FamilyMember]:
        """The members of :meth:`iter_family` as a list."""
        return list(self.iter_family())

    def parity_difference(self) -> int:
        """(# even-size subsets of the singles) - (# odd-size subsets),
        by direct enumeration of the counter values of :meth:`subsets`: the
        subset of value v has v.bit_count() entries.

        Refuses with :class:`EnumerationCapError`, as :meth:`family` does,
        when 4^degree exceeds the enumeration cap.
        """
        refuse_past_cap(lambda k: 4**k, self.degree, "4^")
        count = 1 << (2 * self.degree)
        odd = sum(v.bit_count() & 1 for v in range(count))
        return count - 2 * odd

    def __repr__(self) -> str:
        return f"SpecialSymbol({self.symbol!r})"


def parity_difference_binomial(degree: int) -> int:
    """The same signed subset count via binomial coefficients:
    sum_{k even} C(2*degree, k) - sum_{k odd} C(2*degree, k)."""
    n = 2 * degree
    even = sum(math.comb(n, k) for k in range(0, n + 1, 2))
    odd = sum(math.comb(n, k) for k in range(1, n + 1, 2))
    return even - odd


@dataclass
class ClassCounts:
    """Class counts of one rank, split by defect residue mod 4."""

    plus: int
    minus: int
    by_defect: dict[int, int]


def class_counts(n: int) -> ClassCounts:
    """Counts of rank-n classes over all even defects, from the p2 table.

    ``by_defect`` is keyed by the defects in the order 0, 2, -2, 4, -4, ...
    and reads the table once per pair +-d: the classes of defect d = 2m
    have the bipartitions of n - m^2 as images.  ``plus`` collects defects
    = 0 (mod 4), ``minus`` defects = 2 (mod 4).
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    by_defect: dict[int, int] = {}
    for m in range(math.isqrt(n) + 1):
        by_defect[2 * m] = by_defect[-2 * m] = bipartition_count(n - m * m)
    plus = sum(c for d, c in by_defect.items() if d % 4 == 0)
    minus = sum(by_defect.values()) - plus
    return ClassCounts(plus, minus, by_defect)


#: Rank up to which check_class_count_difference re-enumerates the classes.
CLASS_ENUM_BOUND = 12


def check_class_count_difference(bound: int, recorder: Recorder) -> CheckReport:
    """plus-counts minus minus-counts equals the degenerate count p(n/2).

    Verified from the recurrence tables up to ``bound`` and re-verified, one
    defect at a time, by full class enumeration up to ``CLASS_ENUM_BOUND``.
    """
    enum_bound = min(CLASS_ENUM_BOUND, bound)
    # one exact fill of p2 to the bound, and with it of p to bound // 2: the
    # reads below walk n upward, and each read past a table's end would grow
    # it by half, past the bound
    bipartition_count(bound)
    children = [
        recorder.compare(
            "corollary.recurrence",
            "signed class-count difference equals the degenerate count",
            bound,
            (
                (n, counts.plus - counts.minus, degenerate_count(n))
                for n in range(bound + 1)
                for counts in (class_counts(n),)
            ),
        ),
        recorder.compare(
            "corollary.enumeration",
            "recurrence counts agree with explicit class enumeration",
            enum_bound,
            (
                (n, count, len(enumerate_classes(n, d)))
                for n in range(enum_bound + 1)
                for d, count in class_counts(n).by_defect.items()
            ),
        ),
    ]
    return combine("corollary", bound, children)


def check_family_partition(bound: int, recorder: Recorder) -> CheckReport:
    """Families of special symbols partition the even-defect classes.

    For each rank n <= bound the leaf compares, all at n: each family's size
    with 4^degree; the sum of the family sizes with the number of
    even-defect classes; and the number of those classes reached by a member
    at defect -2*defect(subset) with that number again.  The last two agree
    only if every member obeys the defect law, no class is reached twice and
    every class is reached.
    """
    refuse_past_cap(bipartition_count, bound, "p2")
    children = []
    for n in range(bound + 1):
        by_defect = {d: enumerate_classes(n, d) for d in class_counts(n).by_defect}
        classes = set().union(*by_defect.values())
        specials = map(SpecialSymbol, filter(is_special, by_defect[0]))
        children.append(
            recorder.compare(
                f"families.n{n}",
                f"families partition the {len(classes)} classes of rank {n}",
                n,
                _family_triples(n, specials, classes),
            )
        )
    return combine("families", bound, children)


def _family_triples(
    n: int, specials: Iterator[SpecialSymbol], classes: set[SymbolClass]
) -> Iterator[tuple[int, int, int]]:
    """The compared triples of ``families.n{n}``, made one family at a time
    so that a rank's families are never all in memory together."""
    reached: set[SymbolClass] = set()
    size_total = 0
    for special in specials:
        family = special.family()
        size_total += len(family)
        yield n, len(family), 4**special.degree
        reached.update(
            SymbolClass(member.symbol)
            for member in family
            if member.symbol.defect == -2 * member.subset.defect
        )
    yield n, size_total, len(classes)
    yield n, len(reached & classes), len(classes)
