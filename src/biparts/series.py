"""Truncated formal power series over exact integers: the engine the
identity checks in :mod:`biparts.verify` are built on.

Every series carries an explicit truncation order; mixing orders raises
instead of silently re-truncating.  Coefficients are Python integers
throughout, so every comparison is exact.
"""

from __future__ import annotations

from functools import reduce
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
        for i in range(need + 1):
            coeffs[factor * i] = self.coeffs[i]
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

    Each family is folded once, one binomial (1 - q^j) per j up to the
    order, into its own list and raised to |e| by squaring; binomials with
    q-exponent beyond the order contribute nothing and are skipped.  The
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
    numerator: list[TruncatedSeries] = []
    denominator: list[TruncatedSeries] = []
    for offset, step, exponent in factors:
        if exponent == 0:
            continue
        if offset == 0:
            # (1 - q^0) = 0: the whole product collapses
            return TruncatedSeries.zero(order)
        family = [1] + [0] * order
        for j in range(offset, order + 1, step):
            kernels.fold_binomial(family, j)
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
        """One :func:`kernels.mul_series` per pair of columns za, zb, summed by za + zb."""
        _require_same_order(self.order, other.order)
        columns: dict = {}
        for za, a in self.columns.items():
            for zb, b in other.columns.items():
                product = kernels.mul_series(a, b, self.order)
                z = za + zb
                columns[z] = list(map(add, columns[z], product)) if z in columns else product
        return BivariateSeries(self.order, columns)

    def __repr__(self) -> str:
        count = sum(c != 0 for column in self.columns.values() for c in column)
        return f"BivariateSeries(order={self.order}, terms={count})"


def _shift_add(columns: dict, step: int, k: int, size: int) -> None:
    """Multiply z-columns in place by (1 + z^step q^k), for step = +1 or -1.

    ``columns`` maps each power of z to its dense list of ``size`` q
    coefficients.  Column z + step gains column z shifted up by k, so the
    columns are visited in the direction of ``step`` reversed: each is read
    as a source before it is updated as a target.  A column is created only
    when the shifted source has a nonzero coefficient within the order.
    """
    if k >= size:
        return
    for z in sorted(columns, reverse=step > 0):
        source = columns[z][: size - k]
        target = columns.get(z + step)
        if target is not None:
            target[k:] = map(add, target[k:], source)
        elif any(source):
            columns[z + step] = [0] * k + source


def triple_product_series(order: int) -> BivariateSeries:
    """prod_{k>=1} (1 + z q^k)(1 + z^-1 q^(k-1))(1 - q^k) to the given q-order.

    Each binomial factor is applied by shift-add to dense q-columns, one per
    power of z, rather than by a generic bivariate product.  Factors whose
    q-exponent exceeds the order are omitted.
    """
    size = order + 1
    columns = {0: [1] + [0] * order}
    for k in range(1, order + 2):
        _shift_add(columns, 1, k, size)
        _shift_add(columns, -1, k - 1, size)
        if k <= order:
            for column in columns.values():
                kernels.fold_binomial(column, k)
    return BivariateSeries(order, columns)


#: Factors of R(q) = (q^2;q^5)(q^3;q^5) / ((q;q^5)(q^4;q^5)).
ROGERS_RAMANUJAN_FACTORS = [(2, 5, 1), (3, 5, 1), (1, 5, -1), (4, 5, -1)]


def rogers_ramanujan_c(order: int) -> TruncatedSeries:
    """The Rogers-Ramanujan quotient with q replaced by q^5.

    Expanded to order//5 and then dilated, so the result is supported on
    exponents divisible by 5 and has constant term 1.
    """
    base = product_series(ROGERS_RAMANUJAN_FACTORS, order // 5)
    return base.dilate(5, order)

