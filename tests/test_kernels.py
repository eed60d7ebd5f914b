"""Kernel correctness against naive oracles and the loops the kernels replaced."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biparts import kernels

# a single parameter, so the test ids keep their ``[python]`` suffix
KERNELS = [pytest.param(kernels, id="python")]


def naive_partition_counts(upto: int) -> list[int]:
    """Coin-change style DP, independent of the pentagonal recurrence."""
    table = [0] * (upto + 1)
    table[0] = 1
    for part in range(1, upto + 1):
        for w in range(part, upto + 1):
            table[w] += table[w - part]
    return table


def naive_convolution(a: list[int], b: list[int], order: int) -> list[int]:
    """The double loop the Kronecker product and the self-convolution replaced."""
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


def schoolbook_invert_series(a: list, order: int) -> list:
    """The coefficient recurrence the Newton inversion replaced."""
    c0 = a[0]
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


def loop_fold_binomial(vec: list, j: int) -> None:
    """The backwards loop the slice-assignment fold replaced."""
    for i in range(len(vec) - 1, j - 1, -1):
        vec[i] -= vec[i - j]


B = kernels.BLOCK
ONE_SHOT_SIZES = (0, 1, B - 1, B, B + 1, 3 * B + 7)
GROWTH_STEPS = (1, 7, B - 1, B + 1, 5000)


@pytest.fixture(scope="module")
def sequential_tables():
    upto = max(3 * B + 7, sum(GROWTH_STEPS))
    p, p2 = [1], [1]
    sequential_partition_table(p, upto)
    sequential_bipartition_table(p2, p, upto)
    return p, p2


@pytest.mark.parametrize("impl", KERNELS)
@pytest.mark.parametrize("upto", ONE_SHOT_SIZES)
def test_blocked_one_shot_fill_matches_sequential(impl, upto, sequential_tables):
    p_ref, p2_ref = sequential_tables
    p = [1]
    impl.extend_partition_table(p, upto)
    assert p == p_ref[: upto + 1]
    p2 = [1]
    impl.extend_bipartition_table(p2, p, upto)
    assert p2 == p2_ref[: upto + 1]


@pytest.mark.parametrize("impl", KERNELS)
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


@pytest.mark.parametrize("impl", KERNELS)
def test_partition_table_matches_dp_oracle(impl):
    table = [1]
    impl.extend_partition_table(table, 60)
    assert table == naive_partition_counts(60)


@pytest.mark.parametrize("impl", KERNELS)
def test_bipartition_table_matches_convolution(impl):
    ptable = [1]
    impl.extend_partition_table(ptable, 120)
    p2 = [1]
    impl.extend_bipartition_table(p2, ptable, 120)
    assert p2 == naive_convolution(ptable, ptable, 120)


@pytest.mark.parametrize("impl", KERNELS)
def test_self_convolution_matches_naive(impl):
    src = [1]
    impl.extend_partition_table(src, 50)
    reference = naive_convolution(src, src, 50)
    out = []
    impl.extend_self_convolution(out, src, 50)
    assert out == reference
    # a non-empty table grown in uneven steps keeps its prefix and extends it
    out = [1]
    for upto in (1, 2, 9, 10, 33, 50):
        impl.extend_self_convolution(out, src, upto)
        assert out == reference[: upto + 1]
    # a bound already covered leaves the table as it is
    impl.extend_self_convolution(out, src, 20)
    assert out == reference


@pytest.mark.parametrize("impl", KERNELS)
def test_self_convolution_refuses_short_source(impl):
    out = [1, 2]
    with pytest.raises(ValueError, match="needs 6 source entries, got 3"):
        impl.extend_self_convolution(out, [1, 1, 2], 5)
    assert out == [1, 2]


@pytest.mark.parametrize("impl", KERNELS)
@given(
    a=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
    b=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
)
@settings(max_examples=60)
def test_mul_series_matches_naive(impl, a, b):
    assert impl.mul_series(a, b, 12) == naive_convolution(a, b, 12)


@pytest.mark.parametrize("impl", KERNELS)
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


@pytest.mark.parametrize("impl", KERNELS)
def test_invert_series_rejects_nonunit(impl):
    with pytest.raises(ValueError):
        impl.invert_series([2, 1, 1], 2)
    with pytest.raises(ValueError):
        impl.invert_series([0, 1, 1], 2)


@pytest.mark.parametrize("impl", KERNELS)
def test_fold_binomial(impl):
    vec = [1, 1, 1, 1, 1]
    impl.fold_binomial(vec, 2)
    # (1+q+q^2+q^3+q^4)(1-q^2) truncated
    assert vec == [1, 1, 0, 0, 0]


def mixed_coefficients(seed: int, length: int, bits: int) -> list:
    """Coefficients of both signs up to ``bits`` bits, about half of them zero."""
    rng = random.Random(seed)
    top = 1 << bits
    return [rng.choice((0, rng.randrange(-top, top))) for _ in range(length)]


P_TABLE = naive_partition_counts(300)
MUL_CASES = {
    "negative": (mixed_coefficients(1, 41, 6), mixed_coefficients(2, 41, 6), 40),
    "200-bit": (mixed_coefficients(3, 31, 200), mixed_coefficients(4, 31, 200), 30),
    "mixed widths": (mixed_coefficients(5, 26, 200), mixed_coefficients(6, 26, 1), 25),
    "zero left": ([0] * 21, mixed_coefficients(7, 21, 9), 20),
    "zero right": (mixed_coefficients(8, 21, 9), [0] * 21, 20),
    "order 0": ([-3, 5], [7, 1], 0),
    "longer operands": (mixed_coefficients(9, 50, 30), mixed_coefficients(10, 35, 30), 20),
    "all -1": ([-1] * 64, [-1] * 64, 63),
    "p table squared": (P_TABLE, P_TABLE, 300),
}


@pytest.mark.parametrize("impl", KERNELS)
@pytest.mark.parametrize("case", MUL_CASES.values(), ids=list(MUL_CASES))
def test_mul_series_matches_schoolbook(impl, case):
    a, b, order = case
    assert impl.mul_series(a, b, order) == naive_convolution(a, b, order)
    assert impl.mul_series(b, a, order) == naive_convolution(b, a, order)


@pytest.mark.parametrize("impl", KERNELS)
@pytest.mark.parametrize("unit", [1, -1])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 8, 63, 64, 65, 200])
def test_invert_series_matches_schoolbook(impl, unit, order):
    for bits in (3, 200):
        a = mixed_coefficients(order + bits, order + 4, bits)
        a[0] = unit
        assert impl.invert_series(a, order) == schoolbook_invert_series(a, order)


@pytest.mark.parametrize("impl", KERNELS)
def test_invert_series_of_products(impl):
    # 1/prod(1-q^k) is the partition series, 1/(1-q)^2 has coefficients n+1
    euler = [1] + [0] * 150
    for k in range(1, 151):
        loop_fold_binomial(euler, k)
    assert impl.invert_series(euler, 150) == naive_partition_counts(150)
    assert impl.invert_series([1, -2, 1], 40) == list(range(1, 42))


@pytest.mark.parametrize("impl", KERNELS)
@pytest.mark.parametrize("length", [0, 1, 2, 9])
def test_fold_binomial_matches_loop(impl, length):
    base = mixed_coefficients(length, length, 70)
    for j in sorted({0, 1, max(length - 1, 0), length, length + 3}):
        vec, expected = list(base), list(base)
        impl.fold_binomial(vec, j)
        loop_fold_binomial(expected, j)
        assert vec == expected, j


def test_fold_binomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        kernels.fold_binomial([1, 2, 3], -1)

