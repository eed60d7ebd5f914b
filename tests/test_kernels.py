"""Backend equivalence and kernel correctness against naive oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biparts import _fallback

BACKENDS = [pytest.param(_fallback, id="python")]
try:
    from biparts import _speedups

    BACKENDS.append(pytest.param(_speedups, id="c"))
except ImportError:
    _speedups = None


def naive_partition_counts(upto: int) -> list[int]:
    """Coin-change style DP, independent of the pentagonal recurrence."""
    table = [0] * (upto + 1)
    table[0] = 1
    for part in range(1, upto + 1):
        for w in range(part, upto + 1):
            table[w] += table[w - part]
    return table


def naive_convolution(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def sequential_partition_table(table: list, upto: int) -> None:
    """The entry-by-entry pentagonal recurrence the blocked kernel replaced."""
    n = len(table)
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
    plus.sort()
    minus.sort()
    while n <= upto:
        acc = 0
        for g in plus:
            if g > n:
                break
            acc += table[n - g]
        for g in minus:
            if g > n:
                break
            acc -= table[n - g]
        table.append(acc)
        n += 1


def sequential_bipartition_table(table: list, ptable: list, upto: int) -> None:
    """The entry-by-entry square recurrence the blocked kernel replaced."""
    n = len(table)
    while n <= upto:
        acc = ptable[n >> 1] if not (n & 1) else 0
        k = 1
        while k * k <= n:
            t = table[n - k * k]
            acc += t + t if k & 1 else -(t + t)
            k += 1
        table.append(acc)
        n += 1


B = _fallback.BLOCK
ONE_SHOT_SIZES = (0, 1, B - 1, B, B + 1, 3 * B + 7)
GROWTH_STEPS = (1, 7, B - 1, B + 1, 5000)


@pytest.fixture(scope="module")
def sequential_tables():
    upto = max(3 * B + 7, sum(GROWTH_STEPS))
    p, p2 = [1], [1]
    sequential_partition_table(p, upto)
    sequential_bipartition_table(p2, p, upto)
    return p, p2


@pytest.mark.parametrize("impl", BACKENDS)
@pytest.mark.parametrize("upto", ONE_SHOT_SIZES)
def test_blocked_one_shot_fill_matches_sequential(impl, upto, sequential_tables):
    p_ref, p2_ref = sequential_tables
    p = [1]
    impl.extend_partition_table(p, upto)
    assert p == p_ref[: upto + 1]
    p2 = [1]
    impl.extend_bipartition_table(p2, p, upto)
    assert p2 == p2_ref[: upto + 1]


@pytest.mark.parametrize("impl", BACKENDS)
def test_blocked_uneven_growth_matches_sequential(impl, sequential_tables):
    p_ref, p2_ref = sequential_tables
    p, p2 = [1], [1]
    upto = 0
    for step in GROWTH_STEPS:
        upto += step
        impl.extend_partition_table(p, upto)
        impl.extend_bipartition_table(p2, p, upto)
        assert p == p_ref[: upto + 1]
        assert p2 == p2_ref[: upto + 1]
    # p2 by the convolution route over the same grown table
    conv = []
    impl.extend_self_convolution(conv, p, 3 * B + 7)
    assert conv == p2_ref[: 3 * B + 8]


@pytest.mark.parametrize("impl", BACKENDS)
def test_partition_table_matches_dp_oracle(impl):
    table = [1]
    impl.extend_partition_table(table, 60)
    assert table == naive_partition_counts(60)


@pytest.mark.parametrize("impl", BACKENDS)
def test_bipartition_table_matches_convolution(impl):
    ptable = [1]
    impl.extend_partition_table(ptable, 120)
    p2 = [1]
    impl.extend_bipartition_table(p2, ptable, 120)
    assert p2 == naive_convolution(ptable, ptable, 120)


@pytest.mark.parametrize("impl", BACKENDS)
def test_self_convolution_matches_naive(impl):
    src = [1]
    impl.extend_partition_table(src, 50)
    out = []
    impl.extend_self_convolution(out, src, 50)
    assert out == naive_convolution(src, src, 50)


@pytest.mark.parametrize("impl", BACKENDS)
@given(
    a=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
    b=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
)
@settings(max_examples=60)
def test_mul_series_matches_naive(impl, a, b):
    assert impl.mul_series(a, b, 12) == naive_convolution(a, b, 12)


@pytest.mark.parametrize("impl", BACKENDS)
@given(
    a=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
    unit=st.sampled_from([1, -1]),
)
@settings(max_examples=60)
def test_invert_series_is_inverse(impl, a, unit):
    a[0] = unit
    inv = impl.invert_series(a, 12)
    product = impl.mul_series(a, inv, 12)
    assert product == [1] + [0] * 12


@pytest.mark.parametrize("impl", BACKENDS)
def test_invert_series_rejects_nonunit(impl):
    with pytest.raises(ValueError):
        impl.invert_series([2, 1, 1], 2)
    with pytest.raises(ValueError):
        impl.invert_series([0, 1, 1], 2)


@pytest.mark.parametrize("impl", BACKENDS)
def test_fold_binomial(impl):
    vec = [1, 1, 1, 1, 1]
    impl.fold_binomial(vec, 2)
    # (1+q+q^2+q^3+q^4)(1-q^2) truncated
    assert vec == [1, 1, 0, 0, 0]


@pytest.mark.skipif(_speedups is None, reason="compiled kernels not built")
def test_backends_agree_on_tables():
    for upto in (0, 1, 17, 64):
        a, b = [1], [1]
        _fallback.extend_partition_table(a, upto)
        _speedups.extend_partition_table(b, upto)
        assert a == b
        a2, b2 = [1], [1]
        _fallback.extend_bipartition_table(a2, a, upto)
        _speedups.extend_bipartition_table(b2, b, upto)
        assert a2 == b2
