"""The hot counting and series kernels, in pure Python.

Each kernel moves its work out of the interpreter.  A table entry is one
gathered sum: the entries its recurrence reads are fetched from the
table's tail by one ``operator.itemgetter``, rebuilt only where an entry
starts to use a new offset, and added by ``sum``.  The series product is
one big-integer multiply (Kronecker substitution), the self-convolution is
the truncated square through that product, the inverse is a Newton
iteration over it, and a binomial fold is a single slice assignment over
the part of the list past the zeros its caller vouches for.

The series product takes a route from the shape of its operands, with no
option to choose it.  A product with an operand of at most :data:`SPARSE`
(64) nonzero coefficients, such as a theta or pentagonal series, is that
many shifted slice-adds of the other operand.  Everything else goes
through Kronecker substitution.  A series in q^g is multiplied like any
other: the callers that know of such structure, the product expansion and
the appendix check, work at order // g themselves and dilate.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count, islice, repeat
from math import isqrt
from operator import add, itemgetter, lt, mul, neg, sub

#: Name of the kernel implementation.  There is only this one; the constant
#: stays because ``perfbench/run.py`` reads it for its warm-up and run header.
BACKEND = "python"


def _gather(offsets: list) -> itemgetter:
    """A getter of the entries ``offsets`` back from the end of a table, as
    one sequence: table[-g] for each g in ``offsets``."""
    if len(offsets) > 1:
        return itemgetter(*map(neg, offsets))
    # itemgetter of one index returns the entry itself, so one offset or
    # none is read as a slice, which returns a list
    if offsets:
        return itemgetter(slice(-offsets[0], 1 - offsets[0] or None))
    return itemgetter(slice(0))


def _extend_recurrence(
    table: list, upto: int, plus: list, minus: list, half: list | None = None
) -> None:
    """Grow ``table`` in place to index ``upto`` by a signed-offset recurrence.

    table[n] = S(n), or half[n/2] [n even] + 2 S(n) when ``half`` is given,
    where S(n) = sum of table[n - g] over g in ``plus`` minus the same sum
    over ``minus`` (positive offsets, terms with g > n omitted).

    Entry n is computed when the table holds n entries, so table[n - g] is
    table[-g].  The offsets an entry uses change only at an entry whose
    index is an offset; between two such entries each one is a single call
    of the same two getters (:func:`_gather`) and two sums, all in C.
    """
    n = len(table)
    ends = sorted({g for g in (*plus, *minus) if n < g <= upto} | {upto + 1})
    for end in ends:
        get_plus = _gather([g for g in plus if g <= n])
        get_minus = _gather([g for g in minus if g <= n])
        if half is None:
            for _ in range(n, end):
                table.append(sum(get_plus(table)) - sum(get_minus(table)))
        else:
            for m in range(n, end):
                s = sum(get_plus(table)) - sum(get_minus(table))
                table.append(s + s + (0 if m & 1 else half[m >> 1]))
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
    _extend_recurrence(table, upto, plus, minus)


def extend_bipartition_table(table: list, ptable: list, upto: int) -> None:
    """Grow the bipartition-count table in place via the square recurrence.

    p2(n) = p(n/2) + sum_{k>=1} (-1)^(k-1) * 2 * p2(n - k^2),
    where the p(n/2) term contributes only for even n.  ``ptable`` must
    cover index upto // 2.
    """
    squares = [k * k for k in range(1, isqrt(max(upto, 0)) + 1)]
    _extend_recurrence(table, upto, squares[0::2], squares[1::2], half=ptable)


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


#: Most nonzero coefficients of an operand that :func:`mul_series`
#: multiplies term by term, by shifted slice-adds.  In a sweep on a 2-CPU
#: host (an operand of k nonzero coefficients, mostly +-1 and +-2, times a
#: dense one at orders 64-1500) the slice-adds lost to the Kronecker route
#: from k = 32-48 against 1-bit dense coefficients, from k = 32-128 against
#: 16- and 64-bit ones (later at higher orders), and only from k = 192 or
#: not at all against 200-bit ones.  The four series-deep checks (lemma22
#: and firstproof at 1500, appendix at 800, jacobi at 150) took the least
#: CPU time at cutoffs 48-96.
SPARSE = 64


def mul_series(a: list, b: list, order: int) -> list:
    """Cauchy product of coefficient lists, truncated at ``order``.

    When one operand has at most :data:`SPARSE` nonzero coefficients, the
    product is the sum of that many shifted copies of the other
    (:func:`_mul_sparse`); else both go through Kronecker substitution
    (:func:`_mul_kronecker`).  Missing trailing coefficients count as zero.
    """
    square = a is b
    a = a[: order + 1]
    b = a if square else b[: order + 1]
    terms_a = list(islice(compress(count(), a), SPARSE + 1))
    terms_b = terms_a if square else list(islice(compress(count(), b), SPARSE + 1))
    if not terms_a or not terms_b:
        return [0] * (order + 1)
    if len(terms_b) < len(terms_a):
        a, b, terms_a = b, a, terms_b
    if len(terms_a) <= SPARSE:
        return _mul_sparse(a, terms_a, b, order)
    return _mul_kronecker(a, b, order)


def _mul_sparse(a: list, terms: list, b: list, order: int) -> list:
    """sum of a[i] q^i b over the indices i in ``terms``, truncated at ``order``.

    The shifts are grouped by |a[i]|: ``b`` is scaled once per group (not at
    all for +-1), and each shift adds or subtracts it as one slice.
    """
    groups: dict = {}
    for i in terms:
        groups.setdefault(abs(a[i]), []).append(i)
    out = [0] * (order + 1)
    for size, shifts in groups.items():
        scaled = b if size == 1 else list(map(mul, b, repeat(size)))
        for i in shifts:
            end = min(order + 1, i + len(scaled))
            out[i:end] = map(add if a[i] > 0 else sub, out[i:end], scaled)
    return out


def _mul_kronecker(a: list, b: list, order: int) -> list:
    """Kronecker substitution: both operands are packed into one integer each
    with slots wide enough that no product coefficient overflows its slot,
    multiplied once, and the product is unpacked.  Neither operand may be
    all zero; ``a is b`` squares."""
    bits_a = max(map(int.bit_length, a))
    bits_b = max(map(int.bit_length, b))
    width = (bits_a + bits_b + (order + 1).bit_length() + 2 + 7) >> 3
    packed = _pack(a, width)
    # big-int squaring is about a third cheaper than a general product
    product = packed * packed if a is b else packed * _pack(b, width)
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


def fold_binomial(vec: list, j: int, gap: int = 1) -> None:
    """Multiply a coefficient list in place by (1 - q^j), j >= 0.

    ``gap`` is the caller's promise that ``vec`` is zero at indices 1 ..
    gap - 1, so only vec[0] lands at q^j and the entries from j + gap on
    need a subtraction; the default promises nothing.
    """
    if j < 0 or gap < 1:
        raise ValueError("fold exponent must be nonnegative and gap positive")
    if j < len(vec):
        # map stops at the shorter operand; the slice assignment reads the
        # whole map before it writes, so every subtrahend is an old entry
        vec[j + gap :] = map(sub, vec[j + gap :], vec[gap:])
        vec[j] -= vec[0]
