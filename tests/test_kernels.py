"""Kernel correctness against naive oracles and the loops the kernels replaced."""

from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biparts import kernels


def naive_partition_counts(upto: int) -> list[int]:
    """Coin-change style DP, independent of the pentagonal recurrence."""
    table = [0] * (upto + 1)
    table[0] = 1
    for part in range(1, upto + 1):
        for w in range(part, upto + 1):
            table[w] += table[w - part]
    return table


def padded(coeffs: list, order: int) -> list:
    """``coeffs`` cut or padded with zeros to ``order + 1`` entries."""
    return (coeffs + [0] * (order + 1))[: order + 1]


def naive_convolution(a: list[int], b: list[int], order: int) -> list[int]:
    """The double loop the Kronecker product and the self-convolution
    replaced; missing coefficients count as zero."""
    a, b = padded(a, order), padded(b, order)
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def sequential_partition_table(table: list, upto: int) -> None:
    """The pentagonal recurrence, term by term in the interpreter."""
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
    """The square recurrence, term by term in the interpreter."""
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


def pentagonal_offsets(upto: int) -> list[int]:
    """The offsets k(3k - 1)/2 and k(3k + 1)/2, k >= 1, of the p recurrence
    up to ``upto``, ascending."""
    offsets = []
    k = 1
    while (k * (3 * k - 1)) >> 1 <= upto:
        offsets += [(k * (3 * k - 1)) >> 1, (k * (3 * k + 1)) >> 1]
        k += 1
    return [g for g in offsets if g <= upto]


def square_offsets(upto: int) -> list[int]:
    """The offsets k^2, k >= 1, of the p2 recurrence up to ``upto``."""
    return [k * k for k in range(1, isqrt(upto) + 1)]


#: Offsets of both recurrences near 1000, where an entry starts to use a new
#: term: 31^2, the pentagonal 1001 and 1027 (k = 26), 32^2, 1080 (k = 27)
#: and 33^2.
CHANGE_POINTS = (961, 1001, 1024, 1027, 1080, 1089)
ONE_SHOT_SIZES = sorted(
    {0, 1, 1023, 1024, 1025, 3079, *(g + d for g in CHANGE_POINTS for d in (-1, 0, 1))}
)
GROWTH_STEPS = (1, 7, 1023, 1025, 5000)
#: Bound of the fill-history tests, which grow a table one offset at a time.
HISTORY_BOUND = 2000


@pytest.fixture(scope="module")
def sequential_tables():
    upto = max(*ONE_SHOT_SIZES, sum(GROWTH_STEPS))
    p, p2 = [1], [1]
    sequential_partition_table(p, upto)
    sequential_bipartition_table(p2, p, upto)
    return p, p2


@pytest.mark.parametrize("upto", ONE_SHOT_SIZES)
def test_one_shot_fill_matches_sequential(upto, sequential_tables):
    p_ref, p2_ref = sequential_tables
    p = [1]
    kernels.extend_partition_table(p, upto)
    assert p == p_ref[: upto + 1]
    p2 = [1]
    kernels.extend_bipartition_table(p2, p, upto)
    assert p2 == p2_ref[: upto + 1]


def test_uneven_growth_matches_sequential(sequential_tables):
    p_ref, p2_ref = sequential_tables
    p, p2 = [1], [1]
    upto = 0
    for step in GROWTH_STEPS:
        upto += step
        kernels.extend_partition_table(p, upto)
        kernels.extend_bipartition_table(p2, p, upto)
        assert p == p_ref[: upto + 1]
        assert p2 == p2_ref[: upto + 1]
    # p2 by the convolution route over the same grown table
    conv = []
    kernels.extend_self_convolution(conv, p, 3079)
    assert conv == p2_ref[:3080]


def test_growth_that_starts_each_fill_on_an_offset(sequential_tables):
    # each fill ends one entry before an offset, so the next one starts
    # with the table's length equal to that offset
    p_ref, p2_ref = sequential_tables
    p = [1]
    for g in pentagonal_offsets(HISTORY_BOUND)[1:]:
        kernels.extend_partition_table(p, g - 1)
        assert len(p) == g
        assert p == p_ref[:g]
    p2 = [1]
    for g in square_offsets(HISTORY_BOUND)[1:]:
        kernels.extend_bipartition_table(p2, p_ref, g - 1)
        assert len(p2) == g
        assert p2 == p2_ref[:g]


@pytest.mark.parametrize("before", [(-1, 0), (0,)], ids=["offset-and-one-before", "offset"])
def test_fill_history_does_not_change_the_table(before, sequential_tables):
    # fills that end on every offset, and in one history also one entry
    # before it, against one fill: the first history starts every fill on an
    # offset, the second crosses every offset inside a fill
    p_ref, p2_ref = sequential_tables
    p, p2 = [1], [1]
    for upto in sorted({g + d for g in pentagonal_offsets(HISTORY_BOUND) for d in before}):
        kernels.extend_partition_table(p, upto)
    kernels.extend_partition_table(p, HISTORY_BOUND)
    for upto in sorted({g + d for g in square_offsets(HISTORY_BOUND) for d in before}):
        kernels.extend_bipartition_table(p2, p, upto)
    kernels.extend_bipartition_table(p2, p, HISTORY_BOUND)
    one_shot = [1]
    kernels.extend_partition_table(one_shot, HISTORY_BOUND)
    assert p == one_shot == p_ref[: HISTORY_BOUND + 1]
    one_shot = [1]
    kernels.extend_bipartition_table(one_shot, p, HISTORY_BOUND)
    assert p2 == one_shot == p2_ref[: HISTORY_BOUND + 1]


def test_partition_table_matches_dp_oracle():
    table = [1]
    kernels.extend_partition_table(table, 60)
    assert table == naive_partition_counts(60)


def test_bipartition_table_matches_convolution():
    ptable = [1]
    kernels.extend_partition_table(ptable, 120)
    p2 = [1]
    kernels.extend_bipartition_table(p2, ptable, 120)
    assert p2 == naive_convolution(ptable, ptable, 120)


def test_self_convolution_matches_naive():
    src = [1]
    kernels.extend_partition_table(src, 50)
    reference = naive_convolution(src, src, 50)
    out = []
    kernels.extend_self_convolution(out, src, 50)
    assert out == reference
    # a non-empty table grown in uneven steps keeps its prefix and extends it
    out = [1]
    for upto in (1, 2, 9, 10, 33, 50):
        kernels.extend_self_convolution(out, src, upto)
        assert out == reference[: upto + 1]
    # a bound already covered leaves the table as it is
    kernels.extend_self_convolution(out, src, 20)
    assert out == reference


def test_self_convolution_refuses_short_source():
    out = [1, 2]
    with pytest.raises(ValueError, match="needs 6 source entries, got 3"):
        kernels.extend_self_convolution(out, [1, 1, 2], 5)
    assert out == [1, 2]


@given(
    a=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
    b=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
)
@settings(max_examples=60)
def test_mul_series_matches_naive(a, b):
    assert kernels.mul_series(a, b, 12) == naive_convolution(a, b, 12)


@given(
    a=st.lists(st.integers(-9, 9), min_size=13, max_size=13),
    unit=st.sampled_from([1, -1]),
)
@settings(max_examples=60)
def test_invert_series_is_inverse(a, unit):
    a[0] = unit
    inv = kernels.invert_series(a, 12)
    product = kernels.mul_series(a, inv, 12)
    assert product == [1] + [0] * 12


def test_invert_series_rejects_nonunit():
    with pytest.raises(ValueError):
        kernels.invert_series([2, 1, 1], 2)
    with pytest.raises(ValueError):
        kernels.invert_series([0, 1, 1], 2)


def test_fold_binomial():
    vec = [1, 1, 1, 1, 1]
    kernels.fold_binomial(vec, 2)
    # (1+q+q^2+q^3+q^4)(1-q^2) truncated
    assert vec == [1, 1, 0, 0, 0]


def mixed_coefficients(seed: int, length: int, bits: int) -> list:
    """Coefficients of both signs up to ``bits`` bits, about half of them zero."""
    rng = random.Random(seed)
    top = 1 << bits
    return [rng.choice((0, rng.randrange(-top, top))) for _ in range(length)]


def sparse_coefficients(seed: int, length: int, count: int) -> list:
    """``count`` nonzero coefficients at random indices: mostly +-1 and +-2,
    as in theta and pentagonal series, with a few larger values of both signs."""
    rng = random.Random(seed)
    out = [0] * length
    for i in rng.sample(range(length), count):
        out[i] = rng.choice((1, -1, 2, -2, 1, -1, 2, -2, 3, -7, 1 << 70, -(1 << 65)))
    return out


def dilated(coeffs: list, factor: int) -> list:
    """``coeffs`` with q replaced by q^factor."""
    out = [0] * (factor * (len(coeffs) - 1) + 1)
    for i, c in enumerate(coeffs):
        out[factor * i] = c
    return out


P_TABLE = naive_partition_counts(300)
SPARSE_61 = sparse_coefficients(11, 61, 12)
STRIDE_5 = dilated(mixed_coefficients(14, 41, 20), 5)
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
    "sparse left": (SPARSE_61, mixed_coefficients(12, 61, 40), 60),
    "sparse right": (mixed_coefficients(13, 61, 40), sparse_coefficients(13, 61, 5), 60),
    "sparse squared": (SPARSE_61, SPARSE_61, 60),
    "sparse at the cutoff": (
        sparse_coefficients(15, 301, kernels.SPARSE), mixed_coefficients(16, 301, 9), 300
    ),
    "past the cutoff": (
        sparse_coefficients(17, 301, kernels.SPARSE + 1), mixed_coefficients(18, 301, 9), 300
    ),
    "sparse and short": ([0, 0, 3, 0, -2], mixed_coefficients(19, 7, 8), 20),
    "both stride 5": (STRIDE_5, dilated(sparse_coefficients(20, 41, 9), 5), 200),
    "stride 5 squared": (STRIDE_5, STRIDE_5, 203),
    "stride 2 against 3": (
        dilated(mixed_coefficients(21, 61, 8), 2), dilated(mixed_coefficients(22, 41, 8), 3), 120
    ),
    "dense stride 2 against 4": (dilated(P_TABLE, 2), dilated(P_TABLE[::-1], 4), 299),
    "stride 25 and short": (dilated([1, -1, 5], 25), dilated([2, 0, 1, -1], 25), 149),
    "constants only": ([4], [-3, 0, 0], 10),
    "constant times series": ([-1], mixed_coefficients(23, 31, 30), 30),
    "shorter operands": ([5, 0, -3, 0, 9], mixed_coefficients(25, 9, 8), 20),
}

#: The routes each case of MUL_CASES calls, in the order they return:
#: "sparse" or "kronecker", and for series in q^g the route of the compressed
#: operands, then "strided" for the spread; none for a zero operand.
MUL_ROUTES = {
    "negative": ["sparse"],
    "200-bit": ["sparse"],
    "mixed widths": ["sparse"],
    "zero left": [],
    "zero right": [],
    "order 0": ["sparse"],
    "longer operands": ["sparse"],
    "all -1": ["sparse"],
    "p table squared": ["kronecker"],
    "sparse left": ["sparse"],
    "sparse right": ["sparse"],
    "sparse squared": ["sparse"],
    "sparse at the cutoff": ["sparse"],
    "past the cutoff": ["kronecker"],
    "sparse and short": ["sparse"],
    "both stride 5": ["sparse", "strided"],
    "stride 5 squared": ["sparse", "strided"],
    "stride 2 against 3": ["sparse"],
    "dense stride 2 against 4": ["kronecker", "strided"],
    "stride 25 and short": ["sparse", "strided"],
    "constants only": ["sparse"],
    "constant times series": ["sparse"],
    "shorter operands": ["sparse"],
}


@pytest.mark.parametrize("case", MUL_CASES.values(), ids=list(MUL_CASES))
def test_mul_series_matches_schoolbook(case):
    a, b, order = case
    assert kernels.mul_series(a, b, order) == naive_convolution(a, b, order)
    assert kernels.mul_series(b, a, order) == naive_convolution(b, a, order)


@pytest.mark.parametrize("name", MUL_CASES)
def test_mul_series_takes_the_route_of_its_operands(name, monkeypatch):
    routes = []
    spies = (("strided", "spread"), ("sparse", "_mul_sparse"), ("kronecker", "_mul_kronecker"))
    for route, attribute in spies:
        original = getattr(kernels, attribute)
        monkeypatch.setattr(
            kernels, attribute, lambda *args, _f=original, _r=route: routes.append(_r) or _f(*args)
        )
    a, b, order = MUL_CASES[name]
    kernels.mul_series(a, b, order)
    assert routes == MUL_ROUTES[name]


def sparse_list(terms: list, order: int) -> list:
    """A coefficient list of ``order + 1`` entries with the given (index, value) terms."""
    out = [0] * (order + 1)
    for i, c in terms:
        out[i % (order + 1)] = c
    return out


terms_strategy = st.lists(
    st.tuples(st.integers(0, 80), st.integers(-(1 << 70), 1 << 70)), max_size=kernels.SPARSE + 3
)


@given(a=terms_strategy, b=st.lists(st.integers(-99, 99), max_size=60), order=st.integers(0, 70))
@settings(max_examples=80)
def test_sparse_mul_series_matches_naive(a, b, order):
    a = sparse_list(a, order)
    expected = naive_convolution(a, b, order)
    assert kernels.mul_series(a, b, order) == expected
    assert kernels.mul_series(b, a, order) == expected
    assert kernels.mul_series(a, a, order) == naive_convolution(a, a, order)


@given(
    a=st.lists(st.integers(-9, 9), max_size=30),
    b=st.lists(st.integers(-(1 << 40), 1 << 40), max_size=30),
    g=st.integers(2, 6),
    h=st.integers(1, 3),
    order=st.integers(0, 150),
)
@settings(max_examples=80)
def test_strided_mul_series_matches_naive(a, b, g, h, order):
    # strides g and g * h share g; a constant-only or empty operand leaves
    # the other's stride
    a, b = dilated(a or [0], g), dilated(b or [0], g * h)
    expected = naive_convolution(a, b, order)
    assert kernels.mul_series(a, b, order) == expected
    assert kernels.mul_series(b, a, order) == expected
    assert kernels.mul_series(a, a, order) == naive_convolution(a, a, order)


@pytest.mark.parametrize("stride", [2, 3, 5, 25])
@pytest.mark.parametrize("order", [0, 1, 4, 5, 24, 25, 26, 199, 200])
def test_invert_series_of_a_series_in_q_to_a_power(stride, order):
    for unit, bits in ((1, 3), (-1, 90)):
        base = mixed_coefficients(order + stride + bits, order // stride + 2, bits)
        base[0] = unit
        a = dilated(base, stride)
        assert kernels.invert_series(a, order) == schoolbook_invert_series(padded(a, order), order)


@pytest.mark.parametrize("unit", [1, -1])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 8, 63, 64, 65, 200])
def test_invert_series_matches_schoolbook(unit, order):
    for bits in (3, 200):
        a = mixed_coefficients(order + bits, order + 4, bits)
        a[0] = unit
        assert kernels.invert_series(a, order) == schoolbook_invert_series(a, order)


def test_invert_series_of_products():
    # 1/prod(1-q^k) is the partition series, 1/(1-q)^2 has coefficients n+1
    euler = [1] + [0] * 150
    for k in range(1, 151):
        loop_fold_binomial(euler, k)
    assert kernels.invert_series(euler, 150) == naive_partition_counts(150)
    assert kernels.invert_series([1, -2, 1], 40) == list(range(1, 42))


@pytest.mark.parametrize("length", [0, 1, 2, 9])
def test_fold_binomial_matches_loop(length):
    base = mixed_coefficients(length, length, 70)
    for j in sorted({0, 1, max(length - 1, 0), length, length + 3}):
        vec, expected = list(base), list(base)
        kernels.fold_binomial(vec, j)
        loop_fold_binomial(expected, j)
        assert vec == expected, j


@given(
    coeffs=st.lists(st.integers(-(10**30), 10**30), max_size=40),
    j=st.integers(0, 45),
    gap=st.integers(1, 45),
)
@example(coeffs=[3, 1, 4, 1, 5], j=0, gap=2)
@example(coeffs=[3, 1, 4, 1, 5], j=5, gap=2)
@example(coeffs=[3, 1, 4, 1, 5], j=2, gap=5)
@example(coeffs=[3, 1, 4, 1, 5], j=0, gap=9)
@example(coeffs=[], j=0, gap=1)
@settings(max_examples=200)
def test_fold_binomial_with_gap_matches_loop(coeffs, j, gap):
    # the fold's precondition: zero at indices 1 .. gap - 1
    vec = coeffs[:1] + [0] * (min(gap, len(coeffs)) - 1) + coeffs[gap:]
    expected = list(vec)
    kernels.fold_binomial(vec, j, gap)
    loop_fold_binomial(expected, j)
    assert vec == expected


def test_fold_binomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        kernels.fold_binomial([1, 2, 3], -1)


def test_fold_binomial_rejects_a_gap_below_one():
    with pytest.raises(ValueError):
        kernels.fold_binomial([1, 2, 3], 1, 0)

