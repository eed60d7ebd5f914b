"""Truncated-series arithmetic, product expansion, and the identity checks."""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biparts import partitions, series
from biparts.report import Fault, Recorder
from biparts.series import (
    BivariateSeries,
    OrderMismatchError,
    TruncatedSeries,
    bipartition_series,
    check_convolution_identity,
    check_factor_square,
    check_fifth_dissections,
    check_jacobi_triple_product,
    check_mod5_congruences,
    check_quintic_identities,
    check_theta_product_chain,
    dissection_factor,
    partition_series,
    product_series,
    rogers_ramanujan_c,
    theta_alternating,
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

    def test_text_round_trip(self):
        s = TruncatedSeries(3, [1, 0, -12345678901234567890, 4])
        assert TruncatedSeries.from_text(s.to_text()) == s

    def test_from_text_rejects_gaps(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_text("0\t1\n2\t5\n")

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

    def test_partition_series_matches_table(self):
        assert partition_series(200).coeffs == partitions.partition_counts_upto(200)

    def test_bipartition_series_matches_table(self):
        assert (
            bipartition_series(200).coeffs == partitions.bipartition_counts_upto(200)
        )

    def test_exponent_stacking(self):
        squared = product_series([(1, 1, 2)], 8)
        by_parts = product_series([(1, 1, 1)], 8) * product_series([(1, 1, 1)], 8)
        assert squared == by_parts


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


class TestBivariate:
    def test_rows_drop_zeros(self):
        s = BivariateSeries(2, [{0: 1, 3: 0}, {}, {-1: 2}])
        assert s.rows == [{0: 1}, {}, {-1: 2}]

    def test_mul(self):
        # (1 + z q) * (1 + z^-1) = 1 + z^-1 + z q + q
        a = BivariateSeries.from_terms(2, [(0, 0, 1), (1, 1, 1)])
        b = BivariateSeries.from_terms(2, [(0, 0, 1), (0, -1, 1)])
        product = a * b
        assert product.rows == [{0: 1, -1: 1}, {1: 1, 0: 1}, {}]

    def test_first_mismatch(self):
        a = BivariateSeries.from_terms(2, [(0, 0, 1), (1, 2, 5)])
        b = BivariateSeries.from_terms(2, [(0, 0, 1), (1, 2, 7)])
        assert a.first_mismatch(b) == (1, 2, 5, 7)
        assert a.first_mismatch(a) is None


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

    def test_leading_terms(self):
        c = rogers_ramanujan_c(30)
        nonzero = {i: coeff for i, coeff in enumerate(c.coeffs) if coeff}
        assert nonzero == {0: 1, 5: 1, 15: -1, 25: 1, 30: 1}


class TestDissectionFactor:
    def test_low_coefficients(self):
        f = dissection_factor(8)
        assert f.coeffs[0] == 1  # constant term of c^4
        assert f.coeffs[3] == 3  # the 3 c q^3 term, c contributing only 1
        assert f.coeffs[4] == 5  # the bare 5 q^4 term

    def test_factor_square_table(self):
        assert check_factor_square(Recorder()).passed


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
        rhs = BivariateSeries.one(order)
        for k in range(1, order + 2):
            if k <= order:
                rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k, 1, 1)])
            if k - 1 <= order:
                rhs = rhs * BivariateSeries.from_terms(order, [(0, 0, 1), (k - 1, -1, 1)])
        report = series.compare_bivariate("broken", "no eta factors", lhs, rhs, Recorder())
        assert not report.passed
        assert report.mismatch is not None

    def test_theta_chain_passes(self):
        report = check_theta_product_chain(120, Recorder())
        assert report.passed
        assert len(report.children) == 6

    def test_convolution_identity_passes(self):
        assert check_convolution_identity(150, Recorder()).passed

    def test_convolution_identity_odd_indices_vanish(self):
        lhs = bipartition_series(31) * theta_alternating(31)
        assert all(lhs.coeffs[i] == 0 for i in range(1, 32, 2))

    def test_convolution_identity_even_coefficient(self):
        lhs = bipartition_series(8) * theta_alternating(8)
        assert lhs.coeffs[4] == partitions.partition_count(2)

    def test_fifth_dissections_pass(self):
        report = check_fifth_dissections(120, Recorder())
        assert report.passed

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
        recorder = Recorder(Fault("jacobi.rhs", (2, 1), -2))
        report = check_jacobi_triple_product(10, recorder)
        assert not report.passed
        assert report.mismatch.location == (2, 1)
        assert report.mismatch.kind == "q,z"

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
