"""The hot counting and series kernels, in pure Python.

Each kernel moves its work out of the interpreter.  The tables add far
offsets as whole slices, the series product is one big-integer multiply
(Kronecker substitution), the self-convolution is the truncated square
through that product, the inverse is a Newton iteration over it, and a
binomial fold is a single slice assignment.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from math import isqrt
from operator import add, lt, neg, sub

#: Name of the kernel implementation.  There is only this one; the constant
#: stays because ``perfbench/run.py`` reads it for its warm-up and run header.
BACKEND = "python"

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
    near_plus = [g for g in plus if g < BLOCK]
    near_minus = [g for g in minus if g < BLOCK]
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

    One truncated squaring through :func:`mul_series`, of which only the
    entries past ``len(out)`` are kept.  ``src`` must cover index upto:
    :func:`mul_series` would count missing entries as zero.
    """
    if upto < len(out):
        return
    if len(src) <= upto:
        raise ValueError(
            f"self-convolution to {upto} needs {upto + 1} source entries, got {len(src)}"
        )
    out.extend(mul_series(src, src, upto)[len(out) :])


def _pack(coeffs: list, width: int) -> int:
    """sum coeffs[i] * X^i with X = 2^(8 width); needs |coeffs[i]| < X/2."""
    bias = 1 << (8 * width - 1)
    slots = map(int.to_bytes, map(add, coeffs, repeat(bias)), repeat(width), repeat("little"))
    packed = int.from_bytes(b"".join(slots), "little")
    # every slot carries the bias; X^0 + ... + X^(n-1) times it undoes that
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(coeffs), "little")
    return packed - ones * bias


_SIGNED_SLOT = partial(int.from_bytes, byteorder="little", signed=True)


def _unpack(value: int, width: int, count: int) -> list:
    """The first ``count`` balanced base-X digits of ``value``, X = 2^(8 width).

    Read as a signed number, slot k holds digit k less a borrow of 1, taken
    by slot k - 1 exactly when slot k - 1 reads negative; so each digit is
    its slot plus 1 when the slot below reads negative.  Requires every
    digit to lie strictly inside (-X/2, X/2).
    """
    size = width * count
    raw = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    bounds = map(slice, range(0, size, width), range(width, size + width, width))
    slots = list(map(_SIGNED_SLOT, map(raw.__getitem__, bounds)))
    return list(map(add, slots, map(lt, [0] + slots[:-1], repeat(0))))


def mul_series(a: list, b: list, order: int) -> list:
    """Cauchy product of coefficient lists, truncated at ``order``.

    Kronecker substitution: both operands are packed into one integer each
    with slots wide enough that no product coefficient overflows its slot,
    multiplied once, and the product is unpacked.  Missing trailing
    coefficients count as zero.
    """
    square = a is b
    a = a[: order + 1]
    b = a if square else b[: order + 1]
    bits_a = max(map(int.bit_length, a), default=0)
    bits_b = max(map(int.bit_length, b), default=0)
    if not bits_a or not bits_b:
        return [0] * (order + 1)
    width = (bits_a + bits_b + (order + 1).bit_length() + 2 + 7) >> 3
    packed = _pack(a, width)
    # big-int squaring is about a third cheaper than a general product
    product = packed * packed if square else packed * _pack(b, width)
    return _unpack(product, width, order + 1)


def invert_series(a: list, order: int) -> list:
    """Multiplicative inverse of a coefficient list with constant term +-1.

    Newton iteration g <- g (2 - a g) over :func:`mul_series`: each step
    doubles the number of correct coefficients, and since a g = 1 below the
    old precision m only the part of a g from q^m up is multiplied back.
    """
    c0 = a[0]
    if c0 != 1 and c0 != -1:
        raise ValueError("series inversion requires constant term +1 or -1")
    out = [c0]
    while len(out) <= order:
        m = len(out)
        n = min(2 * m, order + 1)
        high = mul_series(a[:n], out, n - 1)[m:]
        out.extend(map(neg, mul_series(out, high, n - 1 - m)))
    return out


def fold_binomial(vec: list, j: int) -> None:
    """Multiply a coefficient list in place by (1 - q^j), j >= 0."""
    if j < 0:
        raise ValueError("fold exponent must be nonnegative")
    # map stops at the shorter operand; the slice assignment reads the whole
    # map before it writes, so every subtrahend is an old entry
    vec[j:] = map(sub, vec[j:], vec)
