"""Truncated-series arithmetic, product expansion, and the identity checks."""

from __future__ import annotations

import math
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import loop_fold_binomial

from biparts import kernels, partitions, series, verify
from biparts.report import Fault, Recorder
from biparts.series import (
    BivariateSeries,
    OrderMismatchError,
    TruncatedSeries,
    partition_series,
    product_series,
    rogers_ramanujan_c,
    theta_alternating,
)
from biparts.verify import (
    check_convolution_identity,
    check_factor_square,
    check_fifth_dissections,
    check_jacobi_triple_product,
    check_mod5_congruences,
    check_quintic_identities,
    check_theta_product_chain,
)

ORDER = 12

series_strategy = st.lists(
    st.integers(-9, 9), min_size=ORDER + 1, max_size=ORDER + 1
).map(lambda cs: TruncatedSeries(ORDER, cs))

unit_series_strategy = st.tuples(
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), min_size=ORDER, max_size=ORDER),
).map(lambda pair: TruncatedSeries(ORDER, [pair[0], *pair[1]]))


class TestTruncatedSeries:
    def test_construction_pads(self):
        s = TruncatedSeries(4, [1, 2])
        assert s.coeffs == [1, 2, 0, 0, 0]

    def test_construction_rejects_overflow(self):
        with pytest.raises(ValueError):
            TruncatedSeries(1, [1, 2, 3])
        with pytest.raises(ValueError):
            TruncatedSeries(-1)

    def test_difference_of_squares(self):
        a = TruncatedSeries(2, [1, 1])
        b = TruncatedSeries(2, [1, -1])
        assert (a * b).coeffs == [1, 0, -1]

    def test_mul_by_one_is_identity(self):
        s = TruncatedSeries(5, [3, -1, 4, 1, -5, 9])
        assert s * TruncatedSeries.one(5) == s

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            TruncatedSeries(3) * TruncatedSeries(4)
        with pytest.raises(OrderMismatchError):
            TruncatedSeries(3) + TruncatedSeries(4)

    def test_geometric_inverse(self):
        s = TruncatedSeries(4, [1, -1])
        assert s.inverse().coeffs == [1, 1, 1, 1, 1]

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, [0, 1]).inverse()

    def test_pow(self):
        s = TruncatedSeries(4, [1, 1])
        assert (s**2).coeffs == [1, 2, 1, 0, 0]
        assert (s**0) == TruncatedSeries.one(4)
        assert (s**-1) == s.inverse()

    def test_shift(self):
        s = TruncatedSeries(4, [1, 2, 3])
        assert s.shift(2).coeffs == [0, 0, 1, 2, 3]
        assert s.shift(0) == s
        assert s.shift(7) == TruncatedSeries.zero(4)
        assert s.shift(99) == TruncatedSeries.zero(4)
        with pytest.raises(ValueError):
            s.shift(-1)

    def test_dissect(self):
        s = TruncatedSeries(6, [1, 2, 3, 4, 5, 6, 7])
        assert s.dissect(3, 1).coeffs == [0, 2, 0, 0, 5, 0, 0]
        assert s.dissect(1, 0) == s
        assert TruncatedSeries.one(6).dissect(5, 2).coeffs == [0] * 7

    def test_dissect_validates(self):
        s = TruncatedSeries(3)
        with pytest.raises(ValueError):
            s.dissect(0, 0)
        with pytest.raises(ValueError):
            s.dissect(3, 3)

    def test_dilate(self):
        s = TruncatedSeries(2, [1, -1, 2])
        assert s.dilate(3, 8).coeffs == [1, 0, 0, -1, 0, 0, 2, 0, 0]
        with pytest.raises(ValueError):
            s.dilate(3, 9)  # would need coefficient 3 of the source
        with pytest.raises(ValueError):
            s.dilate(0, 10)

    @given(a=series_strategy, b=series_strategy, c=series_strategy)
    @settings(max_examples=40)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=unit_series_strategy)
    @settings(max_examples=40)
    def test_inverse_is_two_sided(self, a):
        inv = a.inverse()
        assert a * inv == TruncatedSeries.one(ORDER)
        assert inv * a == TruncatedSeries.one(ORDER)
        assert inv.inverse() == a

    @given(a=series_strategy, m=st.integers(1, 6))
    @settings(max_examples=40)
    def test_dissection_partition_of_unity(self, a, m):
        total = TruncatedSeries.zero(ORDER)
        for r in range(m):
            total = total + a.dissect(m, r)
        assert total == a


def loop_product_series(factors, order: int) -> TruncatedSeries:
    """The product expansion one binomial at a time: a factor of exponent e
    is folded |e| times over, from the smallest binomial up, into one
    numerator or denominator list by the test-local loop fold, and the
    denominator is inverted at the end."""
    numerator = [1] + [0] * order
    denominator = [1] + [0] * order
    for offset, step, exponent in factors:
        target = numerator if exponent > 0 else denominator
        for _ in range(abs(exponent)):
            for j in range(offset, order + 1, step):
                if j == 0:
                    return TruncatedSeries.zero(order)
                loop_fold_binomial(target, j)
    inverse = kernels.invert_series(denominator, order)
    return TruncatedSeries(order, kernels.mul_series(numerator, inverse, order))


#: Every product the identity checks compare: the five sides of lemma22 as
#: factor sets, the two of firstproof, the two appendix prefactors and the
#: Rogers-Ramanujan quotient.  The second of each pair, which the checks
#: build as the square of the first, is expanded here directly.
CHECK_FACTOR_SETS = [
    [(1, 1, 2), (2, 2, -1)],
    [(1, 2, 2), (2, 2, 1)],
    [(1, 2, 1), (1, 1, 1)],
    [(2, 2, 1), (1, 1, -1)],
    [(1, 2, -1)],
    [(1, 1, -1)],
    [(1, 1, -2)],
    [(25, 25, 5), (5, 5, -6)],
    [(25, 25, 10), (5, 5, -12)],
    series.ROGERS_RAMANUJAN_FACTORS,
]


class TestProductSeries:
    def test_partition_counts(self):
        s = product_series([(1, 1, -1)], 4)
        assert s.coeffs == [1, 1, 2, 3, 5]

    def test_pentagonal_expansion(self):
        s = product_series([(1, 1, 1)], 7)
        assert s.coeffs == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_empty_product_is_one(self):
        assert product_series([], 5) == TruncatedSeries.one(5)

    def test_zero_offset_positive_exponent_collapses(self):
        assert product_series([(0, 1, 1)], 3) == TruncatedSeries.zero(3)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            product_series([(0, 1, -1)], 3)
        with pytest.raises(ValueError):
            product_series([(1, 0, 1)], 3)
        with pytest.raises(ValueError):
            product_series([(-1, 1, 1)], 3)
        with pytest.raises(ValueError):  # checked even after a collapsing factor
            product_series([(0, 1, 1), (0, 1, -1)], 3)

    def test_partition_series_matches_table(self):
        assert partition_series(200).coeffs == partitions.partition_counts_upto(200)

    def test_bipartition_series_matches_table(self):
        p2_product = product_series([(1, 1, -2)], 200)
        assert p2_product.coeffs == partitions.bipartition_counts_upto(200)

    def test_exponent_stacking(self):
        for exponent in (2, 3, 4, 5, -2, -3, -4, -5):
            for order in (0, 1, 8, 150):
                factors = [(1, 1, exponent)]
                assert product_series(factors, order) == loop_product_series(factors, order)

    @pytest.mark.parametrize("factors", CHECK_FACTOR_SETS)
    @pytest.mark.parametrize("order", [0, 1, 37, 300, 400])
    def test_check_factor_sets_match_loop(self, factors, order):
        assert product_series(factors, order) == loop_product_series(factors, order)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_factor_sets_match_loop(self, seed):
        # a small pool of families, so that sets repeat families, mix signs
        # and carry exponent 0 and offset-0 factors
        rng = random.Random(seed)
        pool = [(offset, step) for offset in range(4) for step in (1, 2, 3, 5)]
        factors = []
        for _ in range(rng.randint(1, 6)):
            offset, step = rng.choice(pool)
            exponent = rng.randint(0 if offset == 0 else -3, 3)
            factors.append((offset, step, exponent))
        order = rng.randint(0, 120)
        assert product_series(factors, order) == loop_product_series(factors, order)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_families_match_loop(self, seed):
        # offsets and steps 1..7 and exponents +-1..3, so that the downward
        # folds meet every gap j + step at every order up to 60
        rng = random.Random(1000 + seed)
        factors = [
            (rng.randint(1, 7), rng.randint(1, 7), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        for order in range(61):
            assert product_series(factors, order) == loop_product_series(factors, order)

    @pytest.mark.parametrize("g", [2, 5, 25])
    @pytest.mark.parametrize("seed", range(12))
    def test_factor_sets_in_q_to_a_power_match_loop(self, g, seed):
        # every offset and step a multiple of g, so the product is expanded
        # at order // g and dilated; offset-0 factors and exponent 0 included
        rng = random.Random(100 * g + seed)
        pool = [(offset, step) for offset in range(4) for step in (1, 2, 3, 5)]
        factors = []
        for _ in range(rng.randint(1, 5)):
            offset, step = rng.choice(pool)
            exponent = rng.randint(0 if offset == 0 else -3, 3)
            factors.append((g * offset, g * step, exponent))
        order = rng.randint(0, 300)
        assert product_series(factors, order) == loop_product_series(factors, order)

    @pytest.mark.parametrize(
        "factors",
        [
            # offsets with a common factor that a step lacks
            [(2, 3, 1)],
            [(4, 2, 1), (6, 1, -1)],
            [(10, 5, 2), (5, 15, -1)],
            # an exponent-0 factor with a step of 1 does not count
            [(2, 2, -2), (1, 1, 0)],
            [(50, 25, -1), (0, 1, 0), (25, 75, 3)],
        ],
    )
    @pytest.mark.parametrize("order", [0, 1, 9, 10, 11, 240])
    def test_common_factor_of_offsets_and_steps(self, factors, order):
        assert product_series(factors, order) == loop_product_series(factors, order)

    def test_validation_precedes_the_common_factor(self):
        # (1 - q^0) collapses and an offset-0 inverse raises, whatever g is
        assert product_series([(10, 5, 1), (0, 5, 1)], 40) == TruncatedSeries.zero(40)
        with pytest.raises(ValueError):
            product_series([(10, 5, 1), (0, 5, -1)], 40)
        with pytest.raises(ValueError):
            product_series([(0, 10, 1), (10, 0, 1)], 40)

    @pytest.mark.parametrize("exponent", [1, 2, 3, 4, -1, -2, -3, -4])
    def test_each_family_folds_once(self, exponent):
        with mock.patch.object(kernels, "fold_binomial", wraps=kernels.fold_binomial) as fold:
            product_series([(1, 1, exponent)], 300)
        assert fold.call_count == 300

    def test_theta_chain_folds_each_family_once(self):
        with mock.patch.object(
            kernels, "fold_binomial", wraps=kernels.fold_binomial
        ) as fold, mock.patch.object(
            series, "product_series", wraps=series.product_series
        ) as expand:
            assert check_theta_product_chain(1500, Recorder()).passed
        # prod (1-q^k), prod (1-q^2k) and prod (1-q^(2k-1)): 1500 + 750 + 750
        assert fold.call_count == 3000
        # prod (1-q^k) is expanded on its own, not as odd * even: that split
        # is the identity that step1 and step2 test
        expanded = sorted(call.args[0] for call in expand.call_args_list)
        assert expanded == [[(1, 1, 1)], [(1, 2, 1)], [(2, 2, 1)]]

    @pytest.mark.parametrize(
        "check, order, folds, inverses",
        [
            # the bipartition series is the square of the partition series
            (check_convolution_identity, 150, 150, 1),
            (check_convolution_identity, 1500, 1500, 1),
            # folds: the Rogers-Ramanujan quotient to 160 (four families of
            # 32) and the ^5/^6 prefactor (32 + 160), whose square is the
            # bipartition prefactor; inverses: the quotient's denominator, c
            # and the prefactor's
            (check_quintic_identities, 800, 320, 3),
        ],
        ids=["firstproof-150", "firstproof-1500", "appendix-800"],
    )
    def test_checks_square_what_they_hold(self, check, order, folds, inverses):
        with mock.patch.object(
            kernels, "fold_binomial", wraps=kernels.fold_binomial
        ) as fold, mock.patch.object(
            kernels, "invert_series", wraps=kernels.invert_series
        ) as invert:
            assert check(order, Recorder()).passed
        assert (fold.call_count, invert.call_count) == (folds, inverses)


class TestTheta:
    def test_small_coefficients(self):
        th = theta_alternating(10)
        assert th.coeffs[0] == 1
        assert th.coeffs[1] == -2
        assert th.coeffs[3] == 0
        assert th.coeffs[4] == 2
        assert th.coeffs[9] == -2

    @pytest.mark.parametrize("order", [0, 1, 7, 50, 121])
    def test_support_and_mass(self, order):
        th = theta_alternating(order)
        for i, coeff in enumerate(th.coeffs):
            root = math.isqrt(i)
            assert (coeff != 0) == (root * root == i)
        assert sum(abs(c) for c in th.coeffs) == 1 + 2 * math.isqrt(order)


def sparse_product(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    """The sparse row product that ``BivariateSeries.__mul__`` replaced:
    every pair of nonzero terms, rows i + j up to the order, z powers added."""
    rows: list[dict] = [dict() for _ in range(a.order + 1)]
    rows_b = [(j, row_b) for j, row_b in enumerate(b.rows) if row_b]
    for i, row_a in enumerate(a.rows):
        if not row_a:
            continue
        for j, row_b in rows_b:
            if i + j > a.order:
                break
            target = rows[i + j]
            for za, ca in row_a.items():
                for zb, cb in row_b.items():
                    z = za + zb
                    target[z] = target.get(z, 0) + ca * cb
    return BivariateSeries.from_terms(
        a.order, ((q, z, c) for q, row in enumerate(rows) for z, c in row.items())
    )


def random_bivariate(rng: random.Random, order: int) -> BivariateSeries:
    """Up to 2 order + 3 signed terms at powers of z from -4 to 4."""
    count = rng.randint(0, 2 * order + 3)
    return BivariateSeries.from_terms(
        order,
        [(rng.randint(0, order), rng.randint(-4, 4), rng.randint(-9, 9)) for _ in range(count)],
    )


class TestBivariate:
    def test_rows_drop_zeros(self):
        # zero columns are dropped and short ones padded, so equal series
        # hold equal dicts
        column = [0, 0, 2]
        s = BivariateSeries(2, {0: [1], 3: [0, 0], -1: column})
        assert s.columns == {0: [1, 0, 0], -1: [0, 0, 2]}
        assert s.rows == [{0: 1}, {}, {-1: 2}]
        assert s == BivariateSeries.from_terms(2, [(0, 0, 1), (2, -1, 2), (1, 5, 0)])
        column[2] = 7
        assert s.columns[-1] == [0, 0, 2]
        assert BivariateSeries(3, {0: [1]}).rows == [{0: 1}, {}, {}, {}]
        assert repr(s) == "BivariateSeries(order=2, terms=2)"

    def test_construction_validates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BivariateSeries(-1, {})
        with pytest.raises(ValueError, match="order 1"):
            BivariateSeries(1, {0: [1], -2: [0, 0, 0]})
        with pytest.raises(ValueError):
            BivariateSeries.from_terms(2, [(3, 0, 1)])
        with pytest.raises(ValueError):
            BivariateSeries.from_terms(2, [(-1, 0, 1)])

    @pytest.mark.parametrize("order", range(21))
    def test_mul_matches_sparse_product(self, order):
        rng = random.Random(order)
        for _ in range(6):
            a, b = random_bivariate(rng, order), random_bivariate(rng, order)
            assert a * b == sparse_product(a, b)
            assert b * a == sparse_product(a, b)

    @pytest.mark.parametrize("order", range(21))
    def test_square_takes_the_squaring_path(self, monkeypatch, order):
        squares = []
        mul = kernels.mul_series

        def spy(a, b, order):
            squares.append(a is b)
            return mul(a, b, order)

        monkeypatch.setattr(kernels, "mul_series", spy)
        a = random_bivariate(random.Random(100 + order), order)
        assert a * a == sparse_product(a, a)
        # the packed series is squared in one call, and an empty one not at all
        assert squares == ([True] if a.columns else [])

    def test_mul(self):
        # (1 + z q) * (1 + z^-1) = 1 + z^-1 + z q + q
        a = BivariateSeries.from_terms(2, [(0, 0, 1), (1, 1, 1)])
        b = BivariateSeries.from_terms(2, [(0, 0, 1), (0, -1, 1)])
        product = a * b
        assert product.rows == [{0: 1, -1: 1}, {1: 1, 0: 1}, {}]

    def test_first_mismatch(self):
        a = BivariateSeries.from_terms(2, [(0, 0, 1), (1, 2, 5)])
        b = BivariateSeries.from_terms(2, [(0, 0, 1), (1, 2, 7)])
        report = verify.compare_bivariate("ab", "a equals b", a, b, Recorder())
        assert not report.passed
        assert report.mismatch.location == (1, 2)
        assert (report.mismatch.lhs, report.mismatch.rhs) == (5, 7)
        assert verify.compare_bivariate("aa", "a equals a", a, a, Recorder()).passed

    def test_compare_order_mismatch_raises(self):
        # zip would silently cut the longer side, so a mismatch must raise
        with pytest.raises(OrderMismatchError, match="orders differ: 3 != 4"):
            verify.compare_bivariate(
                "ab", "a equals b", BivariateSeries.one(3), BivariateSeries.one(4), Recorder()
            )


class TestRogersRamanujan:
    def test_base_quotient_expansion(self):
        # frozen from a by-hand Pochhammer expansion to order 10
        base = product_series(series.ROGERS_RAMANUJAN_FACTORS, 10)
        assert base.coeffs == [1, 1, 0, -1, 0, 1, 1, -1, -2, 0, 2]

    def test_dilated_constant_term(self):
        assert rogers_ramanujan_c(40).coeffs[0] == 1

    def test_supported_on_multiples_of_five(self):
        c = rogers_ramanujan_c(137)
        for i, coeff in enumerate(c.coeffs):
            if i % 5:
                assert coeff == 0

    @pytest.mark.parametrize("order", [0, 4, 5, 9, 137, 800])
    def test_is_the_dilated_base_quotient(self, order):
        base = product_series(series.ROGERS_RAMANUJAN_FACTORS, order // 5)
        assert rogers_ramanujan_c(order) == base.dilate(5, order)

    def test_leading_terms(self):
        c = rogers_ramanujan_c(30)
        nonzero = {i: coeff for i, coeff in enumerate(c.coeffs) if coeff}
        assert nonzero == {0: 1, 5: 1, 15: -1, 25: 1, 30: 1}


class TestDissectionFactor:
    def test_factor_square_table(self):
        assert check_factor_square(Recorder()).passed


def generic_triple_product(order: int, eta: bool = True) -> BivariateSeries:
    """prod (1 + z q^k)(1 + z^-1 q^(k-1))(1 - q^k) by generic bivariate
    products, one binomial factor at a time; ``eta=False`` drops (1 - q^k)."""
    rhs = BivariateSeries.one(order)
    for k in range(1, order + 2):
        if k <= order:
            rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k, 1, 1)])
        if k - 1 <= order:
            rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k - 1, -1, 1)])
        if eta and k <= order:
            rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k, 0, -1)])
    return rhs


class TestChecks:
    def test_jacobi_order_zero_rows(self):
        report = check_jacobi_triple_product(0, Recorder())
        assert report.passed
        # both sides equal {z^0: 1, z^-1: 1} at q^0: the n = 0 and n = -1 terms
        lhs = BivariateSeries.from_terms(0, [(0, 0, 1), (0, -1, 1)])
        rhs = BivariateSeries.one(0) * BivariateSeries.from_terms(0, [(0, 0, 1), (0, -1, 1)])
        assert lhs == rhs

    def test_jacobi_passes(self):
        assert check_jacobi_triple_product(30, Recorder()).passed

    @pytest.mark.parametrize("order", [*range(26), 40, 60])
    def test_shift_add_triple_product_matches_generic_product(self, order):
        assert series.triple_product_series(order) == generic_triple_product(order)

    @pytest.mark.parametrize("seed", range(20))
    def test_shift_adds_in_any_order_match_generic_products(self, seed):
        # binomials (1 + z^step q^k) in random order, so that a column can
        # gain a nonzero coefficient below its first one and later be shifted
        rng = random.Random(seed)
        order = rng.randint(0, 30)
        size = order + 1
        columns, lows = {0: [1] + [0] * order}, {0: 0}
        expected = BivariateSeries.one(order)
        for _ in range(rng.randint(1, 12)):
            step, k = rng.choice((1, -1)), rng.randint(0, order + 1)
            series._shift_add(columns, lows, step, k, size)
            if k <= order:
                expected = expected * BivariateSeries.from_terms(order, [(0, 0, 1), (k, step, 1)])
            assert BivariateSeries(order, columns) == expected
            first = {z: next(i for i, c in enumerate(column) if c) for z, column in columns.items()}
            assert lows == first

    def test_jacobi_catches_missing_factor(self):
        # rebuild the product without the (1 - q^k) factors: must mismatch
        order = 3
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
        rhs = generic_triple_product(order, eta=False)
        report = verify.compare_bivariate("broken", "no eta factors", lhs, rhs, Recorder())
        assert not report.passed
        assert report.mismatch is not None

    def test_theta_chain_passes(self):
        report = check_theta_product_chain(120, Recorder())
        assert report.passed
        assert len(report.children) == 6

    def test_convolution_identity_passes(self):
        assert check_convolution_identity(150, Recorder()).passed

    def test_convolution_identity_odd_indices_vanish(self):
        lhs = product_series([(1, 1, -2)], 31) * theta_alternating(31)
        assert all(lhs.coeffs[i] == 0 for i in range(1, 32, 2))

    def test_convolution_identity_even_coefficient(self):
        lhs = product_series([(1, 1, -2)], 8) * theta_alternating(8)
        assert lhs.coeffs[4] == partitions.partition_count(2)

    def test_fifth_dissections_pass(self):
        report = check_fifth_dissections(120, Recorder())
        assert report.passed

    @pytest.mark.parametrize("order", range(20))
    def test_appendix_below_the_highest_term(self, order):
        # below order 14 the dissection terms past the order shift to zero
        assert check_fifth_dissections(order, Recorder()).passed
        assert check_quintic_identities(order, Recorder()).passed

    def test_dissection_residue2_leading_coefficient(self):
        # the residue-2 identity forces p2(2) = 5 at q^2
        p2 = TruncatedSeries(10, partitions.bipartition_counts_upto(10))
        assert p2.dissect(5, 2).coeffs[2] == 5

    def test_congruences_pass(self):
        assert check_mod5_congruences(600, Recorder()).passed

    def test_quintic_aggregate(self):
        report = check_quintic_identities(60, Recorder())
        assert report.passed
        assert {child.name for child in report.children} == {
            "appendix.factor_square",
            "appendix.dissections",
        }


class TestFaultInjection:
    def test_fault_breaks_named_check_at_location(self):
        recorder = Recorder(Fault("firstproof.identity.lhs", (7,), 3))
        report = check_convolution_identity(40, recorder)
        assert not report.passed
        assert report.mismatch is not None
        assert report.mismatch.location == (7,)
        assert recorder.fired == 1
        assert check_convolution_identity(40, Recorder()).passed

    def test_fault_on_other_target_is_inert(self):
        recorder = Recorder(Fault("lemma22.ratio.lhs", (3,), 1))
        assert check_convolution_identity(40, recorder).passed
        assert recorder.fired == 0

    def test_bivariate_fault(self):
        for location, delta in (((2, 1), -2), ((3, -1), 5)):
            recorder = Recorder(Fault("jacobi.rhs", location, delta))
            report = check_jacobi_triple_product(10, recorder)
            assert not report.passed
            assert report.mismatch.location == location
            assert report.mismatch.kind == "q,z"
            assert recorder.fired == 1

    def test_value_fault_in_congruence_fires(self):
        recorder = Recorder(Fault("congruence.bipartition.lhs", (2,), 1))
        report = check_mod5_congruences(100, recorder)
        assert not report.passed
        assert report.mismatch.location == (2,)
        assert recorder.fired == 1

    def test_concurrent_recorders_are_independent(self):
        # a fault belongs to its recorder: a clean run alongside a faulted one
        # must still pass
        results = {}
        recorders = {
            "faulted": Recorder(Fault("firstproof.identity.lhs", (7,), 3)),
            "clean": Recorder(),
        }

        def run(name):
            results[name] = check_convolution_identity(40, recorders[name])

        threads = [threading.Thread(target=run, args=(name,)) for name in recorders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results["clean"].passed
        assert results["faulted"].mismatch.location == (7,)
        assert (recorders["faulted"].fired, recorders["clean"].fired) == (1, 0)
