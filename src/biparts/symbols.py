"""Two-row symbol combinatorics: ranks, defects, similarity classes, the
staircase bijection onto bipartitions, special symbols and their families.

A symbol is an ordered pair of strictly decreasing sequences of nonnegative
integers.  Adding 1 to every entry and appending a 0 to both rows preserves
rank and defect; classes under that shift are represented by their unique
reduced member (the one without a 0 in both rows).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, NamedTuple, Sequence

from biparts.partitions import (
    Bipartition,
    Partition,
    _format_row,
    _parse_row,
    bipartition_count,
    enumerate_bipartitions,
    iter_bipartitions,
    refuse_past_cap,
)


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

    def shift(self, steps: int = 1) -> "Symbol":
        """Apply the rank/defect-preserving shift ``steps`` times."""
        if steps < 0:
            raise ValueError("shift steps must be nonnegative")
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

    @staticmethod
    def parse(text: str) -> "SymbolClass":
        """The class of the symbol :meth:`Symbol.parse` reads from ``text``."""
        return SymbolClass(Symbol.parse(text))


def to_bipartition(symbol: Symbol) -> Bipartition:
    """Staircase subtraction: rows minus (m-1, ..., 1, 0), zeros dropped.

    Constant on similarity classes; the image of a rank-n, defect-d class is
    a bipartition of n - floor((d/2)^2).
    """
    top, bottom = symbol.top, symbol.bottom
    # a strictly decreasing row less the staircase is weakly decreasing and
    # nonnegative, so its zeros are a suffix
    top = tuple(map(operator.sub, top, range(len(top) - 1, -1, -1)))
    bottom = tuple(map(operator.sub, bottom, range(len(bottom) - 1, -1, -1)))
    top_partition = object.__new__(Partition)
    top_partition.parts = top[: len(top) - top.count(0)]
    bottom_partition = object.__new__(Partition)
    bottom_partition.parts = bottom[: len(bottom) - bottom.count(0)]
    image = object.__new__(Bipartition)
    image.top, image.bottom = top_partition, bottom_partition
    return image


def from_bipartition(bipartition: Bipartition, defect: int = 0) -> SymbolClass:
    """The unique class of the given defect mapping onto ``bipartition``.

    Chooses the minimal row lengths (m_top, m_bottom) with
    m_top - m_bottom = defect that accommodate both partitions, pads with
    zeros, and adds the staircases back.
    """
    top, bottom = bipartition.top.parts, bipartition.bottom.parts
    m_top, m_bottom = len(top), len(bottom)
    # a weakly decreasing row plus the staircase is strictly decreasing, and
    # it ends in 0 only if it was padded; only the row too short for the
    # defect is padded, so the class is reduced
    if m_top - defect > m_bottom:
        m_bottom = m_top - defect
        bottom += (0,) * (m_bottom - len(bottom))
    else:
        m_top = m_bottom + defect
        top += (0,) * (m_top - len(top))
    cls = object.__new__(SymbolClass)
    cls.top = tuple(map(operator.add, top, range(m_top - 1, -1, -1)))
    cls.bottom = tuple(map(operator.add, bottom, range(m_bottom - 1, -1, -1)))
    return cls


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
    top, bottom = symbol.top, symbol.bottom
    return (
        len(top) == len(bottom)
        and all(map(operator.ge, top, bottom))
        and all(map(operator.ge, bottom, top[1:]))
    )


def _row_halves(row: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (kept, moved) subsequences of ``row`` for each counter value
    u < 2^len(row), whose bit i moves the entry i places from the right end."""
    halves = [((), ())]
    for entry in reversed(row):
        # the new entry is the leftmost so far and takes the next bit
        halves = [((entry, *kept), moved) for kept, moved in halves] + [
            (kept, (entry, *moved)) for kept, moved in halves
        ]
    return halves


class FamilyMember(NamedTuple):
    """One symbol of a family: the moved subset and the resulting symbol."""

    subset: Symbol
    symbol: Symbol


class SpecialSymbol:
    """A special symbol together with its common entries, singles and degree.

    The common entries appear in both rows, the singles in exactly one;
    moving any subset of the singles to the other row generates the family.
    """

    __slots__ = ("symbol", "common", "singles", "degree")

    def __init__(self, symbol: Symbol):
        if not is_special(symbol):
            raise ValueError(f"symbol {symbol} is not special")
        common = set(symbol.top) & set(symbol.bottom)
        self.symbol = symbol
        self.common = tuple(common)
        self.singles = Symbol(
            [a for a in symbol.top if a not in common],
            [b for b in symbol.bottom if b not in common],
        )
        self.degree = len(self.singles.top)

    def iter_family(self) -> Iterator[FamilyMember]:
        """All 4^degree members, one per subset of the singles, made one at a
        time.

        Counter value v moves the singles whose bits are set to the other
        row.  Counter bits run over the 2*degree singles with the top row in
        the high bits (leftmost entry highest) and the bottom row in the low
        bits; members appear for v = 0, 1, 2, ...  A subset of defect k gives
        a member of defect -2k.

        Refuses with :class:`EnumerationCapError` when 4^degree exceeds the
        enumeration cap, i.e. from degree 12 on; the refusal comes before
        this returns.
        """
        refuse_past_cap(lambda k: 4**k, self.degree, "4^")
        common = self.common
        # a member's top row keeps the common entries, the unmoved top
        # singles and the moved bottom singles; its bottom row the rest, so
        # each top half carries the common entries on both sides
        tops = [
            (moved, common + kept, common + moved)
            for kept, moved in _row_halves(self.singles.top)
        ]
        bottoms = _row_halves(self.singles.bottom)

        def member(top_half, bottom_half) -> FamilyMember:
            (moved_top, top_row, bottom_row), (kept_bottom, moved_bottom) = top_half, bottom_half
            # both symbols and the member are made without the Python-level
            # constructors: the rows are strictly decreasing by construction
            subset = object.__new__(Symbol)
            subset.top, subset.bottom = moved_top, moved_bottom
            symbol = object.__new__(Symbol)
            symbol.top = tuple(sorted(top_row + moved_bottom, reverse=True))
            symbol.bottom = tuple(sorted(bottom_row + kept_bottom, reverse=True))
            return tuple.__new__(FamilyMember, (subset, symbol))

        # v = (top half << degree) | bottom half, so the bottom half runs fastest
        return itertools.starmap(member, itertools.product(tops, bottoms))

    def family(self) -> list[FamilyMember]:
        """The members of :meth:`iter_family` as a list."""
        return list(self.iter_family())

    def __repr__(self) -> str:
        return f"SpecialSymbol({self.symbol!r})"


def class_counts(n: int) -> dict[int, int]:
    """Counts of rank-n classes over all even defects, from the p2 table.

    Keyed by the defects in the order 0, 2, -2, 4, -4, ..., reading the
    table once per pair +-d: the classes of defect d = 2m have the
    bipartitions of n - m^2 as images.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    by_defect: dict[int, int] = {}
    for m in range(math.isqrt(n) + 1):
        by_defect[2 * m] = by_defect[-2 * m] = bipartition_count(n - m * m)
    return by_defect


def class_count_columns(p2: Sequence[int]) -> tuple[list[int], list[int]]:
    """The class counts of every rank below ``len(p2)`` summed over the
    defects = 0 (mod 4) and = 2 (mod 4), phi_plus and phi_minus, as two
    columns built from any count prefix p2[0], p2[1], ..., whichever route
    filled it.

    Defect +-2m shifts 2 * p2 (p2 itself at m = 0) up by m^2 into the column
    of m's parity, one slice pass per m.
    """
    columns = ([*p2], [0] * len(p2))
    doubled = [2 * count for count in p2]
    for m in range(1, math.isqrt(len(p2)) + 1):
        column = columns[m & 1]
        column[m * m :] = map(operator.add, column[m * m :], doubled)
    return columns
