"""Truncated formal power series over exact integers, and the identity checks
built on them.

Every series carries an explicit truncation order; mixing orders raises
instead of silently re-truncating.  Coefficients are Python integers
throughout, so every comparison is exact.
"""

from __future__ import annotations

from functools import reduce
from math import isqrt
from operator import add, mul
from typing import Iterable, Sequence

from biparts import kernels, partitions, rademacher
from biparts.report import CheckReport, Recorder, combine, compare_values


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

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _require_same_order(self.order, other.order)
        return TruncatedSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
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

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [-a for a in self.coeffs])

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
    polynomials in a second variable z (sparse, exponents of either sign)."""

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: Sequence[dict] | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        cleaned: list[dict] = []
        rows = rows or []
        if len(rows) > order + 1:
            raise ValueError("more coefficient rows than the order allows")
        for row in rows:
            cleaned.append({z: c for z, c in row.items() if c})
        while len(cleaned) <= order:
            cleaned.append({})
        self.rows = cleaned

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls.from_terms(order, [(0, 0, 1)])

    @classmethod
    def from_terms(
        cls, order: int, terms: Iterable[tuple[int, int, int]]
    ) -> "BivariateSeries":
        """Build from (q_exponent, z_exponent, coefficient) triples."""
        rows: list[dict] = [dict() for _ in range(order + 1)]
        for q_exp, z_exp, coeff in terms:
            if not 0 <= q_exp <= order:
                raise ValueError(f"q exponent {q_exp} outside 0..{order}")
            rows[q_exp][z_exp] = rows[q_exp].get(z_exp, 0) + coeff
        return cls(order, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BivariateSeries)
            and self.order == other.order
            and self.rows == other.rows
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        _require_same_order(self.order, other.order)
        rows: list[dict] = [dict() for _ in range(self.order + 1)]
        rows_b = [(j, row_b) for j, row_b in enumerate(other.rows) if row_b]
        for i, row_a in enumerate(self.rows):
            if not row_a:
                continue
            for j, row_b in rows_b:
                if i + j > self.order:
                    break
                target = rows[i + j]
                for za, ca in row_a.items():
                    for zb, cb in row_b.items():
                        z = za + zb
                        target[z] = target.get(z, 0) + ca * cb
        return BivariateSeries(self.order, rows)

    def __repr__(self) -> str:
        count = sum(len(row) for row in self.rows)
        return f"BivariateSeries(order={self.order}, terms={count})"


# ---------------------------------------------------------------------------
# Comparison helpers producing reports.  Each streams its coefficients
# through compare_values, which taps the sides as ``<check-id>.lhs`` and
# ``<check-id>.rhs``.


def compare_series(
    check_id: str, title: str, lhs: TruncatedSeries, rhs: TruncatedSeries, recorder: Recorder
) -> CheckReport:
    """Coefficient-wise comparison, located by ``index i``."""
    _require_same_order(lhs.order, rhs.order)
    pairs = zip(range(lhs.order + 1), lhs.coeffs, rhs.coeffs)
    return compare_values(check_id, title, lhs.order, pairs, recorder, kind="index")


def compare_bivariate(
    check_id: str, title: str, lhs: BivariateSeries, rhs: BivariateSeries, recorder: Recorder
) -> CheckReport:
    """Comparison by q, then z, located by ``q^q z^z``.

    Every row is compared over the same z span, from the lowest to the
    highest power of z anywhere on either side, so a coefficient that is 0
    on both sides is tappable as long as its z lies in that span.
    """
    _require_same_order(lhs.order, rhs.order)
    zs = set().union(*lhs.rows, *rhs.rows)
    span = range(min(zs, default=0), max(zs, default=-1) + 1)
    pairs = (
        ((q, z), row_a.get(z, 0), row_b.get(z, 0))
        for q, (row_a, row_b) in enumerate(zip(lhs.rows, rhs.rows))
        for z in span
    )
    return compare_values(check_id, title, lhs.order, pairs, recorder, kind="q,z")


# ---------------------------------------------------------------------------
# Identity checks.


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
    rows: list[dict] = [dict() for _ in range(size)]
    for z, column in columns.items():
        for q_exp, coeff in enumerate(column):
            if coeff:
                rows[q_exp][z] = coeff
    return BivariateSeries(order, rows)


def check_jacobi_triple_product(order: int, recorder: Recorder) -> CheckReport:
    """Two-variable check of the triple product expansion.

    sum_{n in Z} q^(n(n+1)/2) z^n against
    prod_{k>=1} (1 + z q^k)(1 + z^-1 q^(k-1))(1 - q^k), both truncated at the
    given q-order.  Factors whose q-exponent exceeds the order are omitted.
    """
    reach = isqrt(2 * order) + 1
    terms = [
        (n * (n + 1) // 2, n, 1) for n in range(-reach, reach) if n * (n + 1) // 2 <= order
    ]
    lhs = BivariateSeries.from_terms(order, terms)
    rhs = triple_product_series(order)
    return compare_bivariate(
        "jacobi",
        "triple product: theta sum equals the three-factor product",
        lhs,
        rhs,
        recorder,
    )


#: Counting-level cross-check bound used inside check_theta_product_chain.
DISTINCT_ODD_COUNT_BOUND = 40


def check_theta_product_chain(order: int, recorder: Recorder) -> CheckReport:
    """The alternating-square theta series against its product forms.

    Verifies sum (-1)^n q^(n^2) = prod (1-q^k)^2/(1-q^2k) together with the
    two intermediate products the derivation passes through, and the
    distinct-parts = odd-parts identity both as series and as counts.
    """
    theta = theta_alternating(order)
    # prod (1-q^k) gets its own folds rather than being built as odd * even:
    # that split is the identity step1 and step2 test.
    euler = product_series([(1, 1, 1)], order)
    even = product_series([(2, 2, 1)], order)
    odd_factors = product_series([(1, 2, 1)], order)
    children = [
        compare_series(check_id, title, theta, product, recorder)
        for check_id, title, product in (
            ("lemma22.ratio", "theta equals prod (1-q^k)^2/(1-q^2k)",
             euler**2 * even.inverse()),
            ("lemma22.step1", "theta equals prod (1-q^(2k-1))^2 (1-q^2k)",
             odd_factors**2 * even),
            ("lemma22.step2", "theta equals prod (1-q^(2k-1)) (1-q^k)",
             odd_factors * euler),
        )
    ]
    distinct = even * euler.inverse()
    odd = odd_factors.inverse()
    children.append(
        compare_series(
            "lemma22.distinct_odd",
            "prod (1+q^k) equals prod 1/(1-q^(2k-1))",
            distinct,
            odd,
            recorder,
        )
    )
    count_bound = min(order, DISTINCT_ODD_COUNT_BOUND)
    for check_id, title, count, product in (
        ("lemma22.distinct_counts", "distinct-parts counts match the product coefficients",
         partitions.count_distinct_parts, distinct),
        ("lemma22.odd_counts", "odd-parts counts match the product coefficients",
         partitions.count_odd_parts, odd),
    ):
        pairs = ((n, count(n), product.coeffs[n]) for n in range(count_bound + 1))
        children.append(compare_values(check_id, title, count_bound, pairs, recorder))
    return combine("lemma22", order, children)


def check_convolution_identity(order: int, recorder: Recorder) -> CheckReport:
    """(sum p2(n) q^n) * (sum (-1)^k q^(k^2)) = sum p(m) q^(2m).

    The left side comes from the product machinery, the right side from the
    recurrence tables, so the comparison crosses two independent routes.  The
    bipartition series is by definition the square of the partition series,
    so it is built as that square rather than expanded a second time.
    """
    p_product = partition_series(order)
    p2_product = p_product * p_product
    children = [
        compare_series(
            "firstproof.p_table",
            "partition product series matches the recurrence table",
            p_product,
            TruncatedSeries(order, partitions.partition_counts_upto(order)),
            recorder,
        ),
        compare_series(
            "firstproof.p2_table",
            "bipartition product series matches the recurrence table",
            p2_product,
            TruncatedSeries(order, partitions.bipartition_counts_upto(order)),
            recorder,
        ),
    ]
    lhs = p2_product * theta_alternating(order)
    rhs_coeffs = [partitions.degenerate_count(n) for n in range(order + 1)]
    children.append(
        compare_series(
            "firstproof.identity",
            "bipartition series times alternating theta is the even-index partition series",
            lhs,
            TruncatedSeries(order, rhs_coeffs),
            recorder,
        )
    )
    return combine("firstproof", order, children)


# ---------------------------------------------------------------------------
# The mod-5 machinery: Rogers-Ramanujan quotient, the Laurent factor of the
# 5-dissection, and the dissection identities themselves.

#: Factors of R(q) = (q^2;q^5)(q^3;q^5) / ((q;q^5)(q^4;q^5)).
ROGERS_RAMANUJAN_FACTORS = [(2, 5, 1), (3, 5, 1), (1, 5, -1), (4, 5, -1)]

#: The 5-dissection factor as (c_exponent, coefficient, q_exponent) triples:
#: c^4 + c^3 q + 2c^2 q^2 + 3c q^3 + 5q^4 - 3c^-1 q^5 + 2c^-2 q^6 - c^-3 q^7
#: + c^-4 q^8, with c the dilated Rogers-Ramanujan quotient.
DISSECTION_FACTOR_TERMS = [
    (4, 1, 0),
    (3, 1, 1),
    (2, 2, 2),
    (1, 3, 3),
    (0, 5, 4),
    (-1, -3, 5),
    (-2, 2, 6),
    (-3, -1, 7),
    (-4, 1, 8),
]

#: Its square, as independently recorded coefficients (checked against an
#: actual squaring by check_factor_square).
DISSECTION_FACTOR_SQUARE_TERMS = [
    (8, 1, 0),
    (7, 2, 1),
    (6, 5, 2),
    (5, 10, 3),
    (4, 20, 4),
    (3, 16, 5),
    (2, 27, 6),
    (1, 20, 7),
    (0, 15, 8),
    (-1, -20, 9),
    (-2, 27, 10),
    (-3, -16, 11),
    (-4, 20, 12),
    (-5, -10, 13),
    (-6, 5, 14),
    (-7, -2, 15),
    (-8, 1, 16),
]


def rogers_ramanujan_c(order: int) -> TruncatedSeries:
    """The Rogers-Ramanujan quotient with q replaced by q^5.

    Expanded to order//5 and then dilated, so the result is supported on
    exponents divisible by 5 and has constant term 1.
    """
    base = product_series(ROGERS_RAMANUJAN_FACTORS, order // 5)
    return base.dilate(5, order)


def _laurent_powers(base: TruncatedSeries, span: int) -> dict:
    """c^k for |k| <= span, c = ``base``: one inverse, one product per further power."""
    powers = {0: TruncatedSeries.one(base.order), 1: base, -1: base.inverse()}
    for k in range(2, span + 1):
        powers[k] = powers[k - 1] * base
        powers[-k] = powers[1 - k] * powers[-1]
    return powers


def _laurent_combination(
    terms: Iterable[tuple[int, int, int]], powers: dict, order: int
) -> TruncatedSeries:
    """sum coeff * c^c_exp * q^q_exp for (c_exp, coeff, q_exp) triples."""
    acc = TruncatedSeries.zero(order)
    for c_exp, coeff, q_exp in terms:
        if q_exp > order:
            continue
        acc = acc + (powers[c_exp] * coeff).shift(q_exp)
    return acc


def check_factor_square(recorder: Recorder) -> CheckReport:
    """Square the nine-term factor with c as a formal variable and compare
    against the recorded seventeen-term expansion, to its top power q^16."""
    order = 16
    factor = BivariateSeries.from_terms(order, [(q, c, k) for c, k, q in DISSECTION_FACTOR_TERMS])
    expected = BivariateSeries.from_terms(
        order, [(q, c, k) for c, k, q in DISSECTION_FACTOR_SQUARE_TERMS]
    )
    return compare_bivariate(
        "appendix.factor_square",
        "square of the dissection factor matches the recorded table",
        factor * factor,
        expected,
        recorder,
    )


def check_fifth_dissections(order: int, recorder: Recorder) -> CheckReport:
    """The 5-adic structure of both counting series.

    Checks, to the given order: the dissection-factor forms of the partition
    and bipartition series; the three residue extractions of the bipartition
    series with their explicit multiple-of-5 right sides; and the classical
    residue-4 extraction of the partition series.
    """
    p_table = TruncatedSeries(order, partitions.partition_counts_upto(order))
    p2_table = TruncatedSeries(order, partitions.bipartition_counts_upto(order))
    residue_terms = {
        2: [(6, 1, 2), (1, 4, 7), (-4, 4, 12)],
        3: [(5, 2, 3), (0, 3, 8), (-5, -2, 13)],
        4: [(4, 4, 4), (-1, -4, 9), (-6, 1, 14)],
    }
    tables = (DISSECTION_FACTOR_TERMS, *residue_terms.values())
    span = max(abs(c_exp) for terms in tables for c_exp, _, _ in terms)
    powers = _laurent_powers(rogers_ramanujan_c(order), span)
    factor = _laurent_combination(DISSECTION_FACTOR_TERMS, powers, order)
    prefactor5 = product_series([(25, 25, 5), (5, 5, -6)], order)
    # (q^25;q^25)^10/(q^5;q^5)^12, the bipartition prefactor, is its square
    prefactor10 = prefactor5 * prefactor5

    children = [
        compare_series(
            "appendix.partition_form",
            "partition series equals its eta-quotient times the dissection factor",
            p_table,
            prefactor5 * factor,
            recorder,
        ),
        compare_series(
            "appendix.bipartition_form",
            "bipartition series equals its eta-quotient times the squared factor",
            p2_table,
            prefactor10 * (factor * factor),
            recorder,
        ),
    ]
    for residue, terms in residue_terms.items():
        rhs = 5 * (prefactor10 * _laurent_combination(terms, powers, order))
        children.append(
            compare_series(
                f"appendix.dissect{residue}",
                f"residue-{residue} part of the bipartition series is 5 times its stated form",
                p2_table.dissect(5, residue),
                rhs,
                recorder,
            )
        )
    if order >= 4:
        children.append(
            compare_series(
                "appendix.ramanujan",
                "residue-4 part of the partition series is 5 q^4 times the eta-quotient",
                p_table.dissect(5, 4),
                (5 * prefactor5).shift(4),
                recorder,
            )
        )
    return combine("appendix.dissections", order, children)


def check_quintic_identities(order: int, recorder: Recorder) -> CheckReport:
    """Everything mod-5: the factor-square table plus the dissection identities."""
    children = [check_factor_square(recorder), check_fifth_dissections(order, recorder)]
    return combine("appendix", order, children)


def check_mod5_congruences(bound: int, recorder: Recorder) -> CheckReport:
    """Residue check on the tables: p2(m) = 0 mod 5 whenever m = 2,3,4 mod 5,
    and p(5n+4) = 0 mod 5; and p(bound) from the table against the
    Rademacher series."""
    # one exact fill of each table: the reads below walk m upward, and each
    # read past a table's end would grow it by half, past the bound
    p = partitions.partition_counts_upto(bound)
    p2 = partitions.bipartition_counts_upto(bound)
    children = [
        compare_values(
            "congruence.bipartition",
            "bipartition counts vanish mod 5 at residues 2, 3, 4",
            bound,
            ((m, p2[m] % 5, 0) for m in range(bound + 1) if m % 5 in (2, 3, 4)),
            recorder,
        ),
        compare_values(
            "congruence.partition",
            "partition counts vanish mod 5 at residue 4",
            bound,
            ((m, p[m] % 5, 0) for m in range(4, bound + 1, 5)),
            recorder,
        ),
        compare_values(
            "congruence.rademacher",
            "partition table equals the Rademacher series at the bound",
            bound,
            [(bound, p[bound], rademacher.partition_count(bound))],
            recorder,
        ),
    ]
    return combine("congruence", bound, children)
