"""Truncated formal power series over exact integers: the engine the
identity checks in :mod:`biparts.verify` are built on.

Every series carries an explicit truncation order; mixing orders raises
instead of silently re-truncating.  Coefficients are Python integers
throughout, so every comparison is exact.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import add, mul
from typing import Iterable, Sequence

from biparts import kernels


class OrderMismatchError(ValueError):
    """Arithmetic between series of different truncation orders."""


def _require_same_order(a: int, b: int) -> None:
    """Raise :class:`OrderMismatchError` unless the orders a and b are equal."""
    if a != b:
        raise OrderMismatchError(f"orders differ: {a} != {b}")


class TruncatedSeries:
    """Integer power series known exactly up to q^order.

    Instances are treated as immutable; arithmetic returns new series of the
    same order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[int] = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, [1])

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _require_same_order(self.order, other.order)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(self.order, [other * a for a in self.coeffs])
        _require_same_order(self.order, other.order)
        return TruncatedSeries(
            self.order, kernels.mul_series(self.coeffs, other.coeffs, self.order)
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        return TruncatedSeries(
            self.order, kernels.invert_series(self.coeffs, self.order)
        )

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """Power by repeated squaring; a negative exponent inverts first."""
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return TruncatedSeries.one(self.order) if result is None else result

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k; coefficients pushed past the order are dropped."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        return TruncatedSeries(
            self.order, [0] * min(k, self.order + 1) + self.coeffs[: max(self.order + 1 - k, 0)]
        )

    def dissect(self, modulus: int, residue: int) -> "TruncatedSeries":
        """Keep the coefficients with index == residue (mod modulus), in place.

        The extracted coefficients stay at their original exponents.
        """
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= residue < modulus:
            raise ValueError("residue must satisfy 0 <= residue < modulus")
        return TruncatedSeries(
            self.order,
            [a if i % modulus == residue else 0 for i, a in enumerate(self.coeffs)],
        )

    def dilate(self, factor: int, order: int) -> "TruncatedSeries":
        """Substitute q -> q^factor, returning a series of the given order.

        Requires self.order >= order // factor, otherwise information about
        the requested coefficients is missing.
        """
        if factor < 1:
            raise ValueError("dilation factor must be >= 1")
        need = order // factor
        if self.order < need:
            raise ValueError(
                f"dilation by {factor} to order {order} needs source order {need}"
            )
        coeffs = [0] * (order + 1)
        coeffs[::factor] = self.coeffs[: need + 1]
        return TruncatedSeries(order, coeffs)

    def __repr__(self) -> str:
        terms = [
            f"{a}*q^{i}" for i, a in enumerate(self.coeffs) if a
        ][:6]
        body = " + ".join(terms) if terms else "0"
        return f"TruncatedSeries(order={self.order}, {body}{' + ...' if len(terms) == 6 else ''})"


def product_series(factors: Iterable[tuple[int, int, int]], order: int) -> TruncatedSeries:
    """Expand a product of prod_{k>=0} (1 - q^(s+km))^e families, given as
    (s, m, e) triples, to the given order.

    When g, the gcd of every offset and step of the factors of nonzero
    exponent, exceeds 1, the product is a series in q^g: it is expanded with
    every offset and step divided by g at order // g, and dilated.  Each
    family is folded once, one binomial (1 - q^j) per j up to the order,
    into its own list and raised to |e| by squaring; binomials with
    q-exponent beyond the order contribute nothing and are skipped.  The
    folds run from the largest j down, so each one shifts only the part of
    the list past the zeros left by the binomials already folded.  The
    families of negative exponent are multiplied together and inverted once
    at the end, so all intermediate arithmetic stays in plain integer
    polynomials.
    """
    factors = [tuple(factor) for factor in factors]
    # every factor is checked before the first fold, which may return early
    for factor in factors:
        offset, step, exponent = factor
        if offset < 0 or step < 1:
            raise ValueError(f"invalid product factor {factor}")
        if offset == 0 and exponent < 0:
            raise ValueError(
                "factor with offset 0 and negative exponent has no inverse"
            )
    factors = [factor for factor in factors if factor[2]]
    if any(offset == 0 for offset, _, _ in factors):
        # (1 - q^0) = 0: the whole product collapses
        return TruncatedSeries.zero(order)
    g = gcd(*(n for offset, step, _ in factors for n in (offset, step)))
    if g < 2:
        return _expand(factors, order)
    reduced = [(offset // g, step // g, exponent) for offset, step, exponent in factors]
    return _expand(reduced, order // g).dilate(g, order)


def _expand(factors: list[tuple[int, int, int]], order: int) -> TruncatedSeries:
    """The folds, powers and one inverse of :func:`product_series`, for
    validated factors of nonzero exponent and positive offset."""
    numerator: list[TruncatedSeries] = []
    denominator: list[TruncatedSeries] = []
    for offset, step, exponent in factors:
        family = [1] + [0] * order
        # from the largest binomial down: before the fold of j the family
        # is zero at 1 .. j + step - 1, so the fold shifts only its tail
        for j in reversed(range(offset, order + 1, step)):
            kernels.fold_binomial(family, j, j + step)
        power = TruncatedSeries(order, family) ** abs(exponent)
        (numerator if exponent > 0 else denominator).append(power)
    if denominator:
        numerator.append(reduce(mul, denominator).inverse())
    return reduce(mul, numerator) if numerator else TruncatedSeries.one(order)


def partition_series(order: int) -> TruncatedSeries:
    """prod 1/(1-q^k): the generating function of the partition counts."""
    return product_series([(1, 1, -1)], order)


def theta_alternating(order: int) -> TruncatedSeries:
    """sum_{n in Z} (-1)^n q^(n^2): 1 at 0, 2*(-1)^n at each square n^2."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    n = 1
    while n * n <= order:
        coeffs[n * n] = 2 * (-1 if n & 1 else 1)
        n += 1
    return TruncatedSeries(order, coeffs)


class BivariateSeries:
    """Series in q to a fixed order whose coefficients are integer Laurent
    polynomials in a second variable z.

    ``columns`` maps each power of z, of either sign, to its dense list of
    ``order + 1`` q-coefficients.  Shorter lists are padded, longer ones
    refused, and all-zero columns dropped, so equal series hold equal dicts.
    """

    __slots__ = ("order", "columns")

    def __init__(self, order: int, columns: dict):
        if order < 0:
            raise ValueError("order must be nonnegative")
        size = order + 1
        if any(len(c) > size for c in columns.values()):
            raise ValueError(f"a column has more coefficients than order {order} allows")
        self.order = order
        self.columns = {z: c + [0] * (size - len(c)) for z, c in columns.items() if any(c)}

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls(order, {0: [1]})

    @classmethod
    def from_terms(
        cls, order: int, terms: Iterable[tuple[int, int, int]]
    ) -> "BivariateSeries":
        """Build from (q_exponent, z_exponent, coefficient) triples."""
        columns: dict = {}
        for q_exp, z_exp, coeff in terms:
            if not 0 <= q_exp <= order:
                raise ValueError(f"q exponent {q_exp} outside 0..{order}")
            columns.setdefault(z_exp, [0] * (order + 1))[q_exp] += coeff
        return cls(order, columns)

    @property
    def rows(self) -> list[dict]:
        """The {z: coefficient} dict of each power of q, zeros left out; kept
        because perfbench's ``tracer._bivariate_terms`` counts terms by it."""
        return [
            {z: column[q] for z, column in self.columns.items() if column[q]}
            for q in range(self.order + 1)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BivariateSeries)
            and self.order == other.order
            and self.columns == other.columns
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        """One :func:`kernels.mul_series` call on the packed sides.

        Each side lists its columns, from its lowest power of z to its
        highest, in blocks of 2 * order + 1 coefficients: column z at block
        z - lowest.  A product of two q-powers up to the order stays inside
        its block, so block k of the product is the column of z = k plus
        both lowest powers.  A series times itself packs once and squares.
        """
        _require_same_order(self.order, other.order)
        if not self.columns or not other.columns:
            return BivariateSeries(self.order, {})
        stride = 2 * self.order + 1
        low_a, packed_a = self._packed(stride)
        low_b, packed_b = (low_a, packed_a) if other is self else other._packed(stride)
        # the index of q^order in the product's top block; each side's top
        # block holds order + 1 entries
        top = len(packed_a) + len(packed_b) - self.order - 2
        product = kernels.mul_series(packed_a, packed_b, top)
        size = self.order + 1
        starts = range(0, top + 1, stride)
        return BivariateSeries(
            self.order,
            {low_a + low_b + k: product[start : start + size] for k, start in enumerate(starts)},
        )

    def _packed(self, stride: int) -> tuple[int, list]:
        """(lowest power of z, the columns in blocks of ``stride``), the last
        block cut to ``order + 1`` coefficients."""
        low, high = min(self.columns), max(self.columns)
        packed = [0] * ((high - low) * stride + self.order + 1)
        for z, column in self.columns.items():
            start = (z - low) * stride
            packed[start : start + self.order + 1] = column
        return low, packed

    def __repr__(self) -> str:
        count = sum(c != 0 for column in self.columns.values() for c in column)
        return f"BivariateSeries(order={self.order}, terms={count})"


def _shift_add(columns: dict, lows: dict, step: int, k: int, size: int) -> None:
    """Multiply z-columns in place by (1 + z^step q^k), for step = +1 or -1.

    ``columns`` maps each power of z to its dense list of ``size`` q
    coefficients, and ``lows`` to the index of that column's first nonzero
    one; only the part from there is shifted.  Column z + step gains column
    z shifted up by k, so the columns are visited in the direction of
    ``step`` reversed: each is read as a source before it is updated as a
    target.  A column is created only when the shifted source has a nonzero
    coefficient within the order.  Every coefficient stays nonnegative, so
    no sum cancels a column's first nonzero one.
    """
    for z in sorted(columns, reverse=step > 0):
        start = lows[z] + k
        if start >= size:
            continue
        source = columns[z][lows[z] : size - k]
        target = columns.get(z + step)
        if target is None:
            columns[z + step] = [0] * start + source
            lows[z + step] = start
        else:
            target[start:] = map(add, target[start:], source)
            lows[z + step] = min(lows[z + step], start)


def triple_product_series(order: int) -> BivariateSeries:
    """prod_{k>=1} (1 + z q^k)(1 + z^-1 q^(k-1))(1 - q^k) to the given q-order.

    The two z binomials of each k are applied by shift-add to dense
    q-columns, one per power of z, rather than by a generic bivariate
    product.  The z-free factor (q;q) is expanded once by
    :func:`product_series` and multiplied into each column.  Factors whose
    q-exponent exceeds the order are omitted.
    """
    size = order + 1
    columns, lows = {0: [1] + [0] * order}, {0: 0}
    for k in range(1, order + 2):
        _shift_add(columns, lows, 1, k, size)
        _shift_add(columns, lows, -1, k - 1, size)
    eta = product_series([(1, 1, 1)], order).coeffs
    return BivariateSeries(
        order, {z: kernels.mul_series(column, eta, order) for z, column in columns.items()}
    )


#: Factors of R(q) = (q^2;q^5)(q^3;q^5) / ((q;q^5)(q^4;q^5)).
ROGERS_RAMANUJAN_FACTORS = [(2, 5, 1), (3, 5, 1), (1, 5, -1), (4, 5, -1)]


def rogers_ramanujan_c(order: int) -> TruncatedSeries:
    """The Rogers-Ramanujan quotient with q replaced by q^5: the product of
    its factors with every offset and step scaled by 5, so the result is
    supported on exponents divisible by 5 and has constant term 1."""
    return product_series(
        [(5 * offset, 5 * step, exponent) for offset, step, exponent in ROGERS_RAMANUJAN_FACTORS],
        order,
    )
