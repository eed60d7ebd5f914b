"""Exact p(n) for a single n by the Hardy-Ramanujan-Rademacher series.

With d = 24n - 1 and mu = pi sqrt(d) / 6, the series reads

    p(n) = 4/d * sum_{k >= 1} S_k(n) (cosh(mu/k) - (k/mu) sinh(mu/k)),

where S_k(n) = A_k(n) sqrt(3/k) and, by Selberg's formula for the
Kloosterman-type sum A_k,

    S_k(n) = sum (-1)^l cos((6l + 1) pi / (6k))

over 0 <= l < 2k with (3l^2 + l)/2 = -n (mod k).  The test is on integers,
and few l pass it.

Everything is integer fixed point: pi from Machin's arctangent formula,
ln 2 from three arctanh series, e^x and cos by Taylor series after argument
reduction.  No float, ``decimal`` or third-party number enters a term.  The
implementation follows Johansson, "Efficient implementation of the
Hardy-Ramanujan-Rademacher formula" (arXiv:1205.5991), with Selberg's
formula in place of his factored A_k.

Error budget.  The sum stops after N terms, the first N for which
Rademacher's remainder bound (Johansson eq. 1.8)

    44 pi^2 / (225 sqrt 3) N^(-1/2) + pi sqrt 2 / 75 (N/(n-1))^(1/2) sinh(pi/N sqrt(2n/3))

is below 1/4.  That bound only picks N, so it is evaluated in floats: a
relative error of 1e-12 in it moves nothing.  Term k is computed with q_k
fractional bits: the bits of e^(mu/k), plus bits(L (k + 2)) + 6 for the L
cosines of S_k and the 1/x amplification, plus G = bits(N) + 4.  Tracing
the floors through pi, sqrt d, mu/k, e^x, 1/e^x, sinh/x and the cosines
bounds each term's rounding error by 2^-G before it is cut to G bits, and
by 2^(1-G) after; N terms then err by less than 2N / 2^(bits(N) + 4)
<= 1/8.  Truncation (< 1/4) plus rounding (< 1/8) is below 1/2, so the
nearest integer to the computed sum is p(n).
"""

from __future__ import annotations

import math


def _arctan_inverse(x: int, bits: int, hyperbolic: bool) -> int:
    """atan(1/x) (or atanh(1/x)) times 2^bits, within bits units."""
    power = (1 << bits) // x
    square = x * x
    total, j, sign = power, 1, 1
    while power:
        power //= square
        j += 2
        if not hyperbolic:
            sign = -sign
        total += sign * (power // j)
    return total


def _constants(bits: int) -> tuple[int, int]:
    """(pi, ln 2) times 2^bits, each within 2 units."""
    work = bits + (bits + 2).bit_length() + 4
    pi = 16 * _arctan_inverse(5, work, False) - 4 * _arctan_inverse(239, work, False)
    ln2 = (
        18 * _arctan_inverse(26, work, True)
        - 2 * _arctan_inverse(4801, work, True)
        + 8 * _arctan_inverse(8749, work, True)
    )
    shift = work - bits
    return pi >> shift, ln2 >> shift


def _exp(x: int, ln2: int, q: int) -> int:
    """e^x times 2^q for x >= 0 given at q bits.

    x = m ln 2 + r; e^(r / 2^h) by Taylor at q + h bits, squared h times.
    Each squaring doubles the relative error, which the h extra bits absorb.
    """
    m = x // ln2
    h = math.isqrt(q) // 2
    w = q + h
    r = x - m * ln2  # r / 2^h at w bits is r itself
    total = term = 1 << w
    j = 0
    while term:
        j += 1
        term = (term * r >> w) // j
        total += term
    for _ in range(h):
        total = total * total >> w
    return total << m >> h


def _cos(theta: int, q: int) -> int:
    """cos(theta) times 2^q for 0 <= theta <= pi/2 given at q bits.

    cos(theta / 2^h) by Taylor at q + 2h bits, then h doublings
    c -> 2c^2 - 1, each of which at most quadruples the error.
    """
    h = math.isqrt(q) // 2
    w = q + 2 * h
    square = theta * theta >> q  # (theta / 2^h)^2 at w bits
    total = term = 1 << w
    j = 0
    while term:
        j += 2
        term = (term * square >> w) // ((j - 1) * j)
        total += -term if j % 4 == 2 else term
    for _ in range(h):
        total = (total * total >> w - 1) - (1 << w)
    return total >> 2 * h


def _cos_pi_fraction(a: int, k: int, pi: int, q: int) -> int:
    """cos(a pi / (6k)) times 2^q, reduced to an angle in [0, pi/2]."""
    a %= 12 * k
    if a > 6 * k:
        a = 12 * k - a  # cos(2 pi - t) = cos t
    if a > 3 * k:
        return -_cos(pi * (6 * k - a) // (6 * k), q)  # cos(pi - t) = -cos t
    return _cos(pi * a // (6 * k), q)


def _term_count(n: int) -> int:
    """The least N for which Rademacher's remainder bound is below 1/4."""
    c = math.pi * math.sqrt(2 * n / 3)
    first = 44 * math.pi**2 / (225 * math.sqrt(3))
    log_second = math.log(math.pi * math.sqrt(2) / 75) - 0.5 * math.log(n - 1)

    def bound_below(terms: int) -> bool:
        y = c / terms
        log_sinh = y - math.log(2) + math.log(-math.expm1(-2 * y))
        rest = 0.25 - first / math.sqrt(terms)
        return rest > 0 and log_second + 0.5 * math.log(terms) + log_sinh < math.log(rest)

    terms = 1  # the bound falls as N grows
    while not bound_below(terms):
        terms += 1
    return terms


def partition_count(n: int) -> int:
    """p(n) by the Rademacher series; 0 for negative n.

    Independent of the pentagonal-recurrence table in :mod:`biparts.partitions`;
    the ``congruence.rademacher`` check compares the two.
    """
    if n < 2:
        return 1 if n >= 0 else 0
    d = 24 * n - 1
    terms = _term_count(n)
    guard = terms.bit_length() + 4
    # bits of e^(mu/k) <= (pi / (6 ln 2)) sqrt(d) / k + 1, pi / (6 ln 2) < 0.756
    root_bound = math.isqrt(d) + 1
    plan = []
    for k in range(1, terms + 1):
        # (3l^2 + l)/2 = -n (mod k), doubled: no halving in the loop
        target = -2 * n % (2 * k)
        ls = [l for l in range(2 * k) if l * (3 * l + 1) % (2 * k) == target]
        if ls:
            e_bits = root_bound * 756 // (1000 * k) + 1
            q = e_bits + (len(ls) * (k + 2)).bit_length() + 6 + guard
            plan.append((k, ls, q))
    top = max(q for _, _, q in plan) + 8
    pi_top, ln2_top = _constants(top)
    mu_top = pi_top * math.isqrt(d << 2 * top) // (6 << top)
    total = 0
    for k, ls, q in plan:
        shift = top - q
        pi, ln2, mu = pi_top >> shift, ln2_top >> shift, mu_top >> shift
        s = 0
        for l in ls:
            c = _cos_pi_fraction(6 * l + 1, k, pi, q)
            s += -c if l & 1 else c
        e = _exp(mu_top // (k << shift), ln2, q)
        inverse = (1 << 2 * q) // e
        cosh, sinh = (e + inverse) >> 1, (e - inverse) >> 1
        f = cosh - (sinh * k << q) // mu
        total += (4 * (s * f >> q) // d) >> (q - guard)
    return (total + (1 << (guard - 1))) >> guard
