"""Pure-Python implementations of the hot counting/series kernels.

Every function here has a compiled twin in ``biparts._speedups``; the two
must produce bit-identical results.  All coefficients are exact Python
integers, so the compiled version only removes interpreter overhead.
"""

from __future__ import annotations

from math import isqrt
from operator import add, sub


#: Block length of the blocked recurrences.  An offset of at least BLOCK
#: reaches only entries of earlier blocks, so its terms for a whole block are
#: added at once as a slice; only offsets below BLOCK run entry by entry.
BLOCK = 1024


def _extend_blocked(
    table: list, upto: int, plus: list, minus: list, half: list | None = None
) -> None:
    """Grow ``table`` in place to index ``upto`` by a signed-offset recurrence.

    table[n] = S(n), or half[n/2] [n even] + 2 S(n) when ``half`` is given,
    where S(n) = sum of table[n - g] over g in ``plus`` minus the same sum
    over ``minus`` (ascending positive offsets, terms with g > n omitted).
    """
    n = len(table)
    # growth shorter than a block (the usual one-entry cache extension) runs
    # entry by entry: slices that short cost more than they save
    reach = BLOCK if upto + 1 - n >= BLOCK else upto + 1
    near_plus = [g for g in plus if g < reach]
    near_minus = [g for g in minus if g < reach]
    far = ((plus[len(near_plus) :], add), (minus[len(near_minus) :], sub))
    while n <= upto:
        end = min(n + BLOCK, upto + 1)
        acc = [0] * (end - n)
        for offsets, op in far:
            for g in offsets:
                if g >= end:
                    break
                lo = max(n, g) - n
                acc[lo:] = map(op, acc[lo:], table[n + lo - g : end - g])
        for m, s in zip(range(n, end), acc):
            for g in near_plus:
                if g > m:
                    break
                s += table[m - g]
            for g in near_minus:
                if g > m:
                    break
                s -= table[m - g]
            if half is not None:
                s = s + s + (0 if m & 1 else half[m >> 1])
            table.append(s)
        n = end


def extend_partition_table(table: list, upto: int) -> None:
    """Grow ``table`` in place so that table[n] counts partitions of n.

    Uses the classical pentagonal-number recurrence
    p(n) = sum_{k>=1} (-1)^(k-1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    ``table`` must already hold a correct prefix starting with table[0] == 1.
    """
    if upto < len(table):
        return
    plus, minus = [], []
    k = 1
    while True:
        g = (k * (3 * k - 1)) >> 1
        if g > upto:
            break
        target = plus if k & 1 else minus
        target.append(g)
        if g + k <= upto:
            target.append(g + k)
        k += 1
    _extend_blocked(table, upto, plus, minus)


def extend_bipartition_table(table: list, ptable: list, upto: int) -> None:
    """Grow the bipartition-count table in place via the square recurrence.

    p2(n) = p(n/2) + sum_{k>=1} (-1)^(k-1) * 2 * p2(n - k^2),
    where the p(n/2) term contributes only for even n.  ``ptable`` must
    cover index upto // 2.
    """
    squares = [k * k for k in range(1, isqrt(max(upto, 0)) + 1)]
    _extend_blocked(table, upto, squares[0::2], squares[1::2], half=ptable)


def extend_self_convolution(out: list, src: list, upto: int) -> None:
    """Grow ``out`` in place with out[m] = sum_j src[j] * src[m - j].

    Exploits symmetry of the Cauchy square; ``src`` must cover index upto.
    """
    m = len(out)
    while m <= upto:
        half = m >> 1
        acc = 0
        if m & 1:
            for j in range(half + 1):
                acc += src[j] * src[m - j]
            acc += acc
        else:
            for j in range(half):
                acc += src[j] * src[m - j]
            acc += acc
            mid = src[half]
            acc += mid * mid
        out.append(acc)
        m += 1


def mul_series(a: list, b: list, order: int) -> list:
    """Cauchy product of coefficient lists, truncated at ``order``."""
    out = [0] * (order + 1)
    for i in range(order + 1):
        ai = a[i]
        if ai:
            for j in range(order + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def invert_series(a: list, order: int) -> list:
    """Multiplicative inverse of a coefficient list with constant term +-1."""
    c0 = a[0]
    if c0 != 1 and c0 != -1:
        raise ValueError("series inversion requires constant term +1 or -1")
    out = [0] * (order + 1)
    out[0] = c0
    for m in range(1, order + 1):
        acc = 0
        for k in range(1, m + 1):
            ak = a[k]
            if ak:
                acc += ak * out[m - k]
        out[m] = -c0 * acc
    return out


def fold_binomial(vec: list, j: int) -> None:
    """Multiply a coefficient list in place by (1 - q^j)."""
    for i in range(len(vec) - 1, j - 1, -1):
        vec[i] -= vec[i - j]
