"""Truncated formal power series over exact integers, and the identity checks
built on them.

Every series carries an explicit truncation order; mixing orders raises
instead of silently re-truncating.  Coefficients are Python integers
throughout, so every comparison is exact.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from biparts import kernels, partitions
from biparts.report import CheckReport, Mismatch, Recorder, combine, compare_values


class OrderMismatchError(ValueError):
    """Arithmetic between series of different truncation orders."""


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

    @classmethod
    def monomial(cls, order: int, exponent: int, coeff: int = 1) -> "TruncatedSeries":
        if not 0 <= exponent <= order:
            raise ValueError(f"exponent {exponent} outside 0..{order}")
        coeffs = [0] * (order + 1)
        coeffs[exponent] = coeff
        return cls(order, coeffs)

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} != {other.order}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, tuple(self.coeffs)))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(self.order, [other * a for a in self.coeffs])
        self._check_order(other)
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
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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

    def to_text(self) -> str:
        """One line per coefficient, ``index<TAB>value``, exact decimals."""
        return "\n".join(f"{i}\t{a}" for i, a in enumerate(self.coeffs)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TruncatedSeries":
        entries = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            index, value = line.split("\t")
            entries[int(index)] = int(value)
        if sorted(entries) != list(range(len(entries))):
            raise ValueError("series text must cover indices 0..N exactly once")
        return cls(len(entries) - 1, [entries[i] for i in range(len(entries))])

    def __repr__(self) -> str:
        terms = [
            f"{a}*q^{i}" for i, a in enumerate(self.coeffs) if a
        ][:6]
        body = " + ".join(terms) if terms else "0"
        return f"TruncatedSeries(order={self.order}, {body}{' + ...' if len(terms) == 6 else ''})"


class PochFactor(NamedTuple):
    """One product family prod_{k>=0} (1 - q^(offset + k*step))^exponent."""

    offset: int
    step: int
    exponent: int


def _validate_factors(factors: Iterable[PochFactor]) -> list[PochFactor]:
    checked = []
    for factor in factors:
        offset, step, exponent = factor
        if offset < 0 or step < 1:
            raise ValueError(f"invalid product factor {factor}")
        if offset == 0 and exponent < 0:
            raise ValueError(
                "factor with offset 0 and negative exponent has no inverse"
            )
        checked.append(PochFactor(offset, step, exponent))
    return checked


def product_series(factors: Iterable, order: int) -> TruncatedSeries:
    """Expand a product of (1 - q^(s+km))^e families to the given order.

    Factors with q-exponent beyond the order contribute nothing and are
    skipped.  Negative exponents go through one series inversion at the end,
    so all intermediate arithmetic stays in plain integer polynomials.
    """
    numerator = [0] * (order + 1)
    numerator[0] = 1
    denominator = None
    for offset, step, exponent in _validate_factors(
        PochFactor(*f) for f in factors
    ):
        if exponent == 0:
            continue
        if exponent > 0:
            target = numerator
        else:
            if denominator is None:
                denominator = [0] * (order + 1)
                denominator[0] = 1
            target = denominator
        for _ in range(abs(exponent)):
            j = offset
            while j <= order:
                if j == 0:
                    # (1 - q^0) = 0: the whole product collapses
                    return TruncatedSeries.zero(order)
                kernels.fold_binomial(target, j)
                j += step
    result = TruncatedSeries(order, numerator)
    if denominator is not None:
        result = result * TruncatedSeries(order, kernels.invert_series(denominator, order))
    return result


def partition_series(order: int) -> TruncatedSeries:
    """prod 1/(1-q^k): the generating function of the partition counts."""
    return product_series([(1, 1, -1)], order)


def bipartition_series(order: int) -> TruncatedSeries:
    """prod 1/(1-q^k)^2: the generating function of the bipartition counts."""
    return product_series([(1, 1, -2)], order)


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
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} != {other.order}"
            )
        rows: list[dict] = [dict() for _ in range(self.order + 1)]
        for i, row_a in enumerate(self.rows):
            if not row_a:
                continue
            for j in range(self.order + 1 - i):
                row_b = other.rows[j]
                if not row_b:
                    continue
                target = rows[i + j]
                for za, ca in row_a.items():
                    for zb, cb in row_b.items():
                        z = za + zb
                        target[z] = target.get(z, 0) + ca * cb
        return BivariateSeries(self.order, rows)

    def first_mismatch(self, other: "BivariateSeries") -> tuple | None:
        """(q_exp, z_exp, self_coeff, other_coeff) of the first difference."""
        for i in range(min(self.order, other.order) + 1):
            row_a, row_b = self.rows[i], other.rows[i]
            if row_a == row_b:
                continue
            for z in sorted(set(row_a) | set(row_b)):
                ca, cb = row_a.get(z, 0), row_b.get(z, 0)
                if ca != cb:
                    return (i, z, ca, cb)
        return None

    def __repr__(self) -> str:
        count = sum(len(row) for row in self.rows)
        return f"BivariateSeries(order={self.order}, terms={count})"


# ---------------------------------------------------------------------------
# Comparison helpers producing reports.  Each taps its sides as
# ``<check-id>.lhs`` and ``<check-id>.rhs``: a recorder holding a fault for
# that side corrupts one coefficient before the comparison.


def _faulted(series, target: str, recorder: Recorder):
    """``series`` with the recorder's fault added, if it targets ``target``."""
    bivariate = isinstance(series, BivariateSeries)
    fault = recorder.tap(target, (series.order, None) if bivariate else (series.order,))
    if fault is None:
        return series
    delta = recorder.fire(fault)
    if bivariate:
        q_exp, z_exp = fault.location
        rows = [dict(row) for row in series.rows]
        rows[q_exp][z_exp] = rows[q_exp].get(z_exp, 0) + delta
        return BivariateSeries(series.order, rows)
    coeffs = list(series.coeffs)
    coeffs[fault.location[0]] += delta
    return TruncatedSeries(series.order, coeffs)


def compare_series(
    check_id: str, title: str, lhs: TruncatedSeries, rhs: TruncatedSeries, recorder: Recorder
) -> CheckReport:
    if lhs.order != rhs.order:
        raise OrderMismatchError(f"orders differ: {lhs.order} != {rhs.order}")
    lhs = _faulted(lhs, f"{check_id}.lhs", recorder)
    rhs = _faulted(rhs, f"{check_id}.rhs", recorder)
    mismatch = None
    for i in range(min(lhs.order, rhs.order) + 1):
        if lhs.coeffs[i] != rhs.coeffs[i]:
            mismatch = Mismatch((i,), lhs.coeffs[i], rhs.coeffs[i])
            break
    return recorder.leaf(check_id, lhs.order, mismatch, title)


def compare_bivariate(
    check_id: str, title: str, lhs: BivariateSeries, rhs: BivariateSeries, recorder: Recorder
) -> CheckReport:
    lhs = _faulted(lhs, f"{check_id}.lhs", recorder)
    rhs = _faulted(rhs, f"{check_id}.rhs", recorder)
    found = lhs.first_mismatch(rhs)
    mismatch = None
    if found is not None:
        q_exp, z_exp, a, b = found
        mismatch = Mismatch((q_exp, z_exp), a, b, kind="q,z")
    return recorder.leaf(check_id, lhs.order, mismatch, title)


# ---------------------------------------------------------------------------
# Identity checks.


def check_jacobi_triple_product(order: int, recorder: Recorder) -> CheckReport:
    """Two-variable check of the triple product expansion.

    sum_{n in Z} q^(n(n+1)/2) z^n against
    prod_{k>=1} (1 + z q^k)(1 + z^-1 q^(k-1))(1 - q^k), both truncated at the
    given q-order.  Factors whose q-exponent exceeds the order are omitted.
    """
    terms = []
    n = 0
    while n * (n + 1) // 2 <= order:
        terms.append((n * (n + 1) // 2, n, 1))
        n += 1
    n = -1
    while n * (n + 1) // 2 <= order:
        terms.append((n * (n + 1) // 2, n, 1))
        n -= 1
    lhs = BivariateSeries.from_terms(order, terms)

    rhs = BivariateSeries.one(order)
    for k in range(1, order + 2):
        if k <= order:
            rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k, 1, 1)])
        if k - 1 <= order:
            rhs = rhs * BivariateSeries.from_terms(
                order, [(0, 0, 1), (k - 1, -1, 1)]
            )
        if k <= order:
            rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k, 0, -1)])
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
    children = [
        compare_series(check_id, title, theta, product_series(factors, order), recorder)
        for check_id, title, factors in (
            ("lemma22.ratio", "theta equals prod (1-q^k)^2/(1-q^2k)", [(1, 1, 2), (2, 2, -1)]),
            ("lemma22.step1", "theta equals prod (1-q^(2k-1))^2 (1-q^2k)", [(1, 2, 2), (2, 2, 1)]),
            ("lemma22.step2", "theta equals prod (1-q^(2k-1)) (1-q^k)", [(1, 2, 1), (1, 1, 1)]),
        )
    ]
    distinct = product_series([(2, 2, 1), (1, 1, -1)], order)
    odd = product_series([(1, 2, -1)], order)
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
    recurrence tables, so the comparison crosses two independent routes.
    """
    p2_product = bipartition_series(order)
    p_product = partition_series(order)
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
    rhs_coeffs = [0] * (order + 1)
    for m in range(order // 2 + 1):
        rhs_coeffs[2 * m] = partitions.partition_count(m)
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


class _LaurentPowers:
    """Cache of integer powers of a fixed unit series."""

    def __init__(self, base: TruncatedSeries):
        self.base = base
        self._powers = {0: TruncatedSeries.one(base.order), 1: base}

    def get(self, exponent: int) -> TruncatedSeries:
        if exponent not in self._powers:
            if exponent > 0:
                self._powers[exponent] = self.get(exponent - 1) * self.base
            else:
                if -1 not in self._powers:
                    self._powers[-1] = self.base.inverse()
                self._powers[exponent] = self.get(exponent + 1) * self._powers[-1]
        return self._powers[exponent]


def _laurent_combination(
    terms: Iterable[tuple[int, int, int]], powers: _LaurentPowers, order: int
) -> TruncatedSeries:
    """sum coeff * c^c_exp * q^q_exp for (c_exp, coeff, q_exp) triples."""
    acc = TruncatedSeries.zero(order)
    for c_exp, coeff, q_exp in terms:
        if q_exp > order:
            continue
        acc = acc + (powers.get(c_exp) * coeff).shift(q_exp)
    return acc


def dissection_factor(order: int, powers: _LaurentPowers | None = None) -> TruncatedSeries:
    """The nine-term Laurent polynomial in the dilated quotient.

    This is the exact correction factor that multiplies
    (q^25;q^25)^5/(q^5;q^5)^6 to give the partition series.
    """
    if powers is None:
        powers = _LaurentPowers(rogers_ramanujan_c(order))
    return _laurent_combination(DISSECTION_FACTOR_TERMS, powers, order)


def check_factor_square(recorder: Recorder, order: int = 16) -> CheckReport:
    """Square the nine-term factor with c as a formal variable and compare
    against the recorded seventeen-term expansion."""
    factor = BivariateSeries.from_terms(
        order, [(q, c, k) for c, k, q in DISSECTION_FACTOR_TERMS if q <= order]
    )
    expected = BivariateSeries.from_terms(
        order,
        [(q, c, k) for c, k, q in DISSECTION_FACTOR_SQUARE_TERMS if q <= order],
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
    powers = _LaurentPowers(rogers_ramanujan_c(order))
    factor = dissection_factor(order, powers)
    prefactor5 = product_series([(25, 25, 5), (5, 5, -6)], order)
    prefactor10 = product_series([(25, 25, 10), (5, 5, -12)], order)

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
    residue_terms = {
        2: [(6, 1, 2), (1, 4, 7), (-4, 4, 12)],
        3: [(5, 2, 3), (0, 3, 8), (-5, -2, 13)],
        4: [(4, 4, 4), (-1, -4, 9), (-6, 1, 14)],
    }
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
    and p(5n+4) = 0 mod 5."""
    p2_pairs = (
        (m, partitions.bipartition_count(m) % 5, 0)
        for m in range(bound + 1)
        if m % 5 in (2, 3, 4)
    )
    p_pairs = (
        (m, partitions.partition_count(m) % 5, 0)
        for m in range(4, bound + 1, 5)
    )
    children = [
        compare_values(
            "congruence.bipartition",
            "bipartition counts vanish mod 5 at residues 2, 3, 4",
            bound,
            p2_pairs,
            recorder,
        ),
        compare_values(
            "congruence.partition",
            "partition counts vanish mod 5 at residue 4",
            bound,
            p_pairs,
            recorder,
        ),
    ]
    return combine("congruence", bound, children)
