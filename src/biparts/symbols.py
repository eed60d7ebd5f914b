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
    ENUMERATION_CAP,
    Bipartition,
    EnumerationCapError,
    Partition,
    _parse_row,
    bipartition_count,
    enumerate_bipartitions,
    partition_count,
)
from biparts.report import CheckReport, Mismatch, Recorder, combine, compare_values


class Symbol:
    """An ordered pair of strictly decreasing rows of nonnegative integers."""

    __slots__ = ("top", "bottom")

    def __init__(self, top=(), bottom=()):
        self.top = self._check_row(tuple(top))
        self.bottom = self._check_row(tuple(bottom))

    @staticmethod
    def _check_row(row: tuple[int, ...]) -> tuple[int, ...]:
        for i, value in enumerate(row):
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
        """Undo the shift while both rows end in 0."""
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
        return f"Symbol({list(self.top)}, {list(self.bottom)})"

    def __str__(self) -> str:
        def row(values: tuple[int, ...]) -> str:
            return ",".join(str(v) for v in values) if values else "-"

        return f"{row(self.top)};{row(self.bottom)}"

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        """Inverse of str(): ``3,1;2,0`` with ``-`` for an empty row."""
        head, sep, tail = text.partition(";")
        if not sep:
            raise ValueError(f"malformed symbol (missing ';'): {text!r}")
        return cls(_parse_row(head), _parse_row(tail))


class SymbolClass:
    """A similarity class, stored as its unique reduced representative."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        self.symbol = symbol.reduced()

    @property
    def rank(self) -> int:
        return self.symbol.rank

    @property
    def defect(self) -> int:
        return self.symbol.defect

    def transpose(self) -> "SymbolClass":
        return SymbolClass(self.symbol.transpose())

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolClass) and self.symbol == other.symbol

    def __hash__(self) -> int:
        return hash(self.symbol)

    def __lt__(self, other: "SymbolClass") -> bool:
        return self.symbol < other.symbol

    def __repr__(self) -> str:
        return f"SymbolClass({self.symbol!r})"

    def __str__(self) -> str:
        return str(self.symbol)


def _staircase_strip(row: tuple[int, ...]) -> Partition:
    m = len(row)
    parts = [row[i] - (m - 1 - i) for i in range(m)]
    return Partition([p for p in parts if p > 0])


def to_bipartition(symbol: Symbol | SymbolClass) -> Bipartition:
    """Staircase subtraction: rows minus (m-1, ..., 1, 0), zeros dropped.

    Constant on similarity classes; the image of a rank-n, defect-d class is
    a bipartition of n - floor((d/2)^2).
    """
    if isinstance(symbol, SymbolClass):
        symbol = symbol.symbol
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


def enumerate_classes(rank: int, defect: int, cap: int | None = None) -> list[SymbolClass]:
    """All similarity classes of the given rank and defect.

    Produced as images of the bipartitions of rank - floor((defect/2)^2)
    under :func:`from_bipartition`, in bipartition enumeration order; empty
    when that weight is negative.
    """
    weight = rank - defect_offset(defect)
    if weight < 0:
        return []
    return [
        from_bipartition(bp, defect) for bp in enumerate_bipartitions(weight, cap=cap)
    ]


def is_special(symbol: Symbol | SymbolClass) -> bool:
    """Defect 0 and the interleaving a1 >= b1 >= a2 >= b2 >= ... holds.

    The property is shift-invariant, so testing any representative of a
    class gives the class-level answer.
    """
    if isinstance(symbol, SymbolClass):
        symbol = symbol.symbol
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

    def __init__(self, symbol: Symbol | SymbolClass):
        if isinstance(symbol, SymbolClass):
            symbol = symbol.symbol
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

    def family(self) -> list[FamilyMember]:
        """All 4^degree flips, one per subset, in subset order."""
        return [FamilyMember(subset, self.flip(subset)) for subset in self.subsets()]

    def parity_difference(self) -> int:
        """(# even-size subsets of the singles) - (# odd-size subsets),
        by direct enumeration."""
        total = 0
        for subset in self.subsets():
            size = len(subset.top) + len(subset.bottom)
            total += 1 if size % 2 == 0 else -1
        return total

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


def class_counts(n: int, method: str = "recurrence") -> ClassCounts:
    """Counts of rank-n classes over all even defects.

    ``plus`` collects defects = 0 (mod 4), ``minus`` defects = 2 (mod 4).
    The recurrence method reads the bipartition table; the enumeration
    method actually lists the classes (small n only).
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    by_defect: dict[int, int] = {}
    d = 0
    while d * d // 4 <= n:
        weight = n - d * d // 4
        if method == "recurrence":
            count = bipartition_count(weight)
        elif method == "enumeration":
            count = len(enumerate_classes(n, d))
            if d and count != len(enumerate_classes(n, -d)):
                raise AssertionError("defect sign symmetry broken")
        else:
            raise ValueError(f"unknown method {method!r}")
        by_defect[d] = count
        if d:
            by_defect[-d] = count
        d += 2
    plus = sum(c for d, c in by_defect.items() if d % 4 == 0)
    minus = sum(c for d, c in by_defect.items() if d % 4 == 2)
    return ClassCounts(plus, minus, by_defect)


def check_class_count_difference(
    bound: int, recorder: Recorder, enum_bound: int = 12
) -> CheckReport:
    """plus-counts minus minus-counts equals the degenerate count p(n/2).

    Verified from the recurrence tables up to ``bound`` and re-verified by
    full class enumeration up to ``enum_bound``.
    """
    children = [
        compare_values(
            "corollary.recurrence",
            "signed class-count difference equals the degenerate count",
            bound,
            (
                (n, counts.plus - counts.minus, partition_count(n // 2) if n % 2 == 0 else 0)
                for n in range(bound + 1)
                for counts in (class_counts(n),)
            ),
            recorder,
        )
    ]
    mismatch = None
    for n in range(min(enum_bound, bound) + 1):
        by_table = class_counts(n).by_defect
        by_enum = class_counts(n, method="enumeration").by_defect
        if by_table != by_enum:
            diff = next(d for d in by_table if by_table[d] != by_enum.get(d, -1))
            mismatch = Mismatch((n,), by_table[diff], by_enum.get(diff, -1), kind="n")
            break
    children.append(
        recorder.leaf(
            "corollary.enumeration",
            min(enum_bound, bound),
            mismatch,
            "recurrence counts agree with explicit class enumeration",
        )
    )
    return combine("corollary", bound, children)


def check_family_partition(bound: int, recorder: Recorder) -> CheckReport:
    """Families of special symbols partition the even-defect classes.

    For each rank n <= bound: families generated from the special defect-0
    classes are pairwise disjoint, exhaust every even-defect class, place
    each flipped subset at defect -2*defect(subset), and have sizes
    4^degree summing to the total class count.
    """
    if bipartition_count(bound) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"p2({bound}) exceeds the enumeration cap; lower the bound"
        )
    children = []
    for n in range(bound + 1):
        mismatch = None
        note = ""
        all_classes: set[SymbolClass] = set()
        by_defect: dict[int, set[SymbolClass]] = {}
        d = 0
        while d * d // 4 <= n:
            for signed in (d, -d) if d else (0,):
                members = set(enumerate_classes(n, signed))
                by_defect[signed] = members
                all_classes |= members
            d += 2
        specials = [
            SpecialSymbol(cls) for cls in by_defect.get(0, set()) if is_special(cls)
        ]
        seen: set[SymbolClass] = set()
        size_total = 0
        for special in specials:
            family = special.family()
            size_total += len(family)
            if len(family) != 4**special.degree:
                mismatch = Mismatch((n,), len(family), 4**special.degree, kind="n")
                note = f"family of {special.symbol} has the wrong size"
                break
            for member in family:
                cls = SymbolClass(member.symbol)
                expected_defect = -2 * member.subset.defect
                if cls.defect != expected_defect:
                    mismatch = Mismatch((n,), cls.defect, expected_defect, kind="n")
                    note = f"flip of {member.subset} in {special.symbol} lands at the wrong defect"
                    break
                if cls in seen:
                    mismatch = Mismatch((n,), 1, 0, kind="n")
                    note = f"class {cls} appears in two families"
                    break
                seen.add(cls)
            if mismatch is not None:
                break
        if mismatch is None and seen != all_classes:
            mismatch = Mismatch((n,), len(seen), len(all_classes), kind="n")
            note = "families do not exhaust the even-defect classes"
        if mismatch is None and size_total != len(all_classes):
            mismatch = Mismatch((n,), size_total, len(all_classes), kind="n")
            note = "family sizes do not sum to the class count"
        children.append(
            recorder.leaf(
                f"families.n{n}",
                n,
                mismatch,
                note or f"families partition the {len(all_classes)} classes of rank {n}",
            )
        )
    return combine("families", bound, children)
