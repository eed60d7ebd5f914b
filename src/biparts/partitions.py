"""Exact counting and enumeration of partitions and bipartitions.

Counting goes through an append-only memo table (:class:`CountCache`) filled
by the kernels in :mod:`biparts.kernels`; enumeration is kept independent so
the two can be played against each other as oracles.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

from biparts import kernels

#: Refusal threshold of the enumeration helpers.  Enumerating is
#: meant for oracle-scale inputs; predicted outputs larger than this raise
#: :class:`EnumerationCapError` instead of exhausting memory.
ENUMERATION_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """Raised when an enumeration would produce more items than the cap."""


def refuse_past_cap(count: Callable[[int], int], n: int, what: str) -> None:
    """Raise :class:`EnumerationCapError` if ``count(n)`` exceeds the cap.

    ``count`` must be nondecreasing.  It is read at 0, 1, ... and the
    refusal comes at the first value past ``ENUMERATION_CAP``, so a huge
    ``n`` is refused without filling a table to it: at most 78 p entries or
    42 p2 entries are read.  ``what`` names the count in the message.
    """
    for k in range(n + 1):
        if count(k) > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"{what}({n}) exceeds the enumeration cap {ENUMERATION_CAP}"
            )


def _format_row(values: tuple[int, ...]) -> str:
    return ",".join(map(str, values)) if values else "-"


def _parse_row(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed integer list: {text!r}") from None


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        previous = None
        for p in parts:
            if type(p) is not int:
                raise ValueError(f"parts must be integers: {parts}")
            if p < 1:
                raise ValueError(f"parts must be positive: {parts}")
            if previous is not None and previous < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
            previous = p
        self.parts = parts

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition of ``parts``, a tuple its caller built positive and
        weakly decreasing; nothing is checked, so only generators use it."""
        self = object.__new__(cls)
        self.parts = parts
        return self

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return _format_row(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Inverse of str(); the empty partition is written ``-``."""
        return cls(_parse_row(text))


class Bipartition:
    """An ordered pair of partitions."""

    __slots__ = ("top", "bottom")

    def __init__(self, top: Partition, bottom: Partition):
        if not (isinstance(top, Partition) and isinstance(bottom, Partition)):
            raise ValueError(f"rows must be partitions: {top!r}, {bottom!r}")
        self.top = top
        self.bottom = bottom

    @classmethod
    def _of(cls, top: Partition, bottom: Partition) -> "Bipartition":
        """The bipartition of two partitions its caller built; nothing is
        checked, so only generators use it."""
        self = object.__new__(cls)
        self.top = top
        self.bottom = bottom
        return self

    @property
    def weight(self) -> int:
        return self.top.weight + self.bottom.weight

    def transpose(self) -> "Bipartition":
        return Bipartition(self.bottom, self.top)

    @property
    def is_degenerate(self) -> bool:
        return self.top == self.bottom

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bipartition)
            and self.top == other.top
            and self.bottom == other.bottom
        )

    def __hash__(self) -> int:
        return hash((self.top.parts, self.bottom.parts))

    def __repr__(self) -> str:
        return f"Bipartition({self.top!r}, {self.bottom!r})"

    def __str__(self) -> str:
        return f"{self.top}|{self.bottom}"

    @classmethod
    def parse(cls, text: str) -> "Bipartition":
        """Inverse of str(); rows are separated by ``|``, empty row is ``-``."""
        head, sep, tail = text.partition("|")
        if not sep:
            raise ValueError(f"malformed bipartition (missing '|'): {text!r}")
        return cls(Partition.parse(head), Partition.parse(tail))


class CountCache:
    """Append-only memo tables for the three counting routes.

    Entries are write-once: the tables only ever grow, and every fill is
    deterministic, so concurrent readers are safe and concurrent fillers
    agree.  Growth is serialized by a lock.  A negative index reads 0 and a
    negative ``upto`` gives an empty prefix.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._p = [1]
        self._p2 = [1]
        self._p2conv = [1]

    def _read(self, table: list, n: int, fill: Callable[[int], None]) -> int:
        """``table[n]``, 0 for negative n, after ``fill(max(n, len + len // 2))``
        if ``table`` does not reach n yet.

        A fill on a fresh table stops at n, and reads that walk n upward cost
        O(log n) fills; one read past a full table fills up to half again of
        it.  A read inside the table takes no lock; past its end the length
        is read again under the lock, where another filler may have grown it.
        """
        if n >= len(table):
            with self._lock:
                length = len(table)
                if n >= length:
                    fill(max(n, length + length // 2))
        return table[n] if n >= 0 else 0

    # the fills look kernels.extend_* up as they run, not once up front, so
    # a wrapper bound to those module attributes later (a tracer) sees them

    def _fill_p(self, upto: int) -> None:
        kernels.extend_partition_table(self._p, upto)

    def _fill_p2(self, upto: int) -> None:
        self.partition_count(upto // 2)
        kernels.extend_bipartition_table(self._p2, self._p, upto)

    def _fill_p2conv(self, upto: int) -> None:
        self.partition_count(upto)
        kernels.extend_self_convolution(self._p2conv, self._p, upto)

    def partition_count(self, n: int) -> int:
        return self._read(self._p, n, self._fill_p)

    def bipartition_count(self, n: int) -> int:
        return self._read(self._p2, n, self._fill_p2)

    def bipartition_count_convolution(self, n: int) -> int:
        return self._read(self._p2conv, n, self._fill_p2conv)

    def partition_prefix(self, upto: int) -> list:
        """Copy of the p table for indices 0..upto."""
        self.partition_count(upto)
        return self._p[: max(upto + 1, 0)]

    def bipartition_prefix(self, upto: int) -> list:
        """Copy of the p2 table for indices 0..upto."""
        self.bipartition_count(upto)
        return self._p2[: max(upto + 1, 0)]

    def convolution_prefix(self, upto: int) -> list:
        """Copy of the convolution table for indices 0..upto."""
        self.bipartition_count_convolution(upto)
        return self._p2conv[: max(upto + 1, 0)]


_CACHE = CountCache()


def partition_count(n: int) -> int:
    """p(n), by the pentagonal-number recurrence; 0 for negative n."""
    return _CACHE.partition_count(n)


def bipartition_count(n: int) -> int:
    """p2(n), by the square recurrence p2(n) = p(n/2) + sum (-1)^(k-1) 2 p2(n-k^2)."""
    return _CACHE.bipartition_count(n)


def bipartition_count_convolution(n: int) -> int:
    """p2(n), by convolving the partition-count table with itself.

    Independent of :func:`bipartition_count`; the two routes are compared by
    the verification harness.
    """
    return _CACHE.bipartition_count_convolution(n)


def degenerate_count(n: int) -> int:
    """Number of degenerate bipartitions of n, i.e. p(n/2); 0 for odd or negative n."""
    return 0 if n & 1 else _CACHE.partition_count(n // 2)


def partition_counts_upto(n: int) -> list:
    """The list [p(0), ..., p(n)]."""
    return _CACHE.partition_prefix(n)


def bipartition_counts_upto(n: int) -> list:
    """The list [p2(0), ..., p2(n)]."""
    return _CACHE.bipartition_prefix(n)


def bipartition_counts_convolution_upto(n: int) -> list:
    """The list [p2(0), ..., p2(n)], by the convolution route."""
    return _CACHE.convolution_prefix(n)


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as tuples, lexicographically decreasing (ZS1).

    Zoghbi and Stojmenovic's iterative algorithm: ``x[:h + 1]`` holds the
    parts larger than 1 and ``x[h + 1:m]`` the trailing 1s.  Each step
    lowers the last part above 1 by one and refills the tail greedily with
    parts no larger than it, so no partition is built by recursion.
    """
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the lowered unit plus the trailing 1s
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def iter_partitions(n: int) -> Iterator[Partition]:
    """Yield the partitions of n in lexicographically decreasing order."""
    return map(Partition._of, _partition_tuples(n))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, lexicographically decreasing.

    Empty for negative n; the single empty partition for n = 0.  Refuses
    with :class:`EnumerationCapError` when p(n) exceeds ``ENUMERATION_CAP``.
    """
    refuse_past_cap(partition_count, n, "p")
    return list(iter_partitions(n))


def iter_bipartitions(n: int) -> Iterator[Bipartition]:
    """Yield bipartitions of n: top weight descending, then row order.

    The bottom rows of each top weight are listed once and reused for every
    top; nothing beyond them is built ahead of the first item.
    """
    for a in range(n, -1, -1):
        bottoms = list(iter_partitions(n - a))
        for top in iter_partitions(a):
            for bottom in bottoms:
                yield Bipartition._of(top, bottom)


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All bipartitions of n, top weight descending then row order.

    Refuses with :class:`EnumerationCapError` when p2(n) exceeds
    ``ENUMERATION_CAP``.
    """
    refuse_past_cap(bipartition_count, n, "p2")
    return list(iter_bipartitions(n))


def count_distinct_parts(n: int) -> int:
    """Number of partitions of n into pairwise distinct parts; 0 for n < 0."""
    if n < 0:
        return 0
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        for w in range(n, part - 1, -1):
            ways[w] += ways[w - part]
    return ways[n]


def count_odd_parts(n: int) -> int:
    """Number of partitions of n into odd parts; 0 for n < 0."""
    if n < 0:
        return 0
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1, 2):
        for w in range(part, n + 1):
            ways[w] += ways[w - part]
    return ways[n]
