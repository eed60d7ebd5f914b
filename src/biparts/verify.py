"""The verification checks exposed by the CLI, and their registry.

Each check takes one primary bound and returns a CheckReport.  It calls the
engines through their modules, so a name rebound there is the one called.
Defaults are chosen to run the full battery in well under a minute.
``symbols`` and ``rademacher`` are imported by the checks that use them, so
the other checks start without loading them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from biparts import partitions, series
from biparts.report import CheckReport, Recorder, combine

if TYPE_CHECKING:
    from biparts import symbols


def check_partition_recursion(bound: int, recorder: Recorder) -> CheckReport:
    """Pentagonal-recurrence counts against the enumeration oracle."""
    # refuse up front: the per-call cap would otherwise fire only after the
    # smaller ranks were enumerated in full
    partitions.refuse_past_cap(partitions.partition_count, bound, "p")
    return recorder.compare(
        "euler",
        "recurrence equals exhaustive partition enumeration",
        bound,
        (
            (n, partitions.partition_count(n), len(partitions.enumerate_partitions(n)))
            for n in range(bound + 1)
        ),
    )


#: Enumeration cross-check bound inside check_bipartition_recursion.
BIPARTITION_ENUM_BOUND = 25


def _bipartition_tallies(bound: int) -> list[tuple[int, int]]:
    """(all, degenerate) bipartitions of each n <= bound, indexed by n.

    The partition tuples of each weight up to the bound are listed once.
    For each n and each top row of weight a, the bottom rows of weight
    n - a add their number to the total, and ``list.count``, which compares
    every (top, bottom) pair in C, adds those equal to the top, the
    degenerate pairs.
    """
    rows = [list(partitions._partition_tuples(w)) for w in range(bound + 1)]
    tallies = []
    for n in range(bound + 1):
        total = fixed = 0
        for a in range(n + 1):
            bottoms = rows[n - a]
            for top in rows[a]:
                total += len(bottoms)
                fixed += bottoms.count(top)
        tallies.append((total, fixed))
    return tallies


def check_bipartition_recursion(bound: int, recorder: Recorder) -> CheckReport:
    """Square-recurrence counts against convolution and enumeration."""
    enum_bound = min(bound, BIPARTITION_ENUM_BOUND)
    partitions.refuse_past_cap(partitions.bipartition_count, enum_bound, "p2")
    conv = partitions.bipartition_counts_convolution_upto(bound)
    p2 = partitions.bipartition_counts_upto(bound)
    convolution = recorder.compare(
        "thm1.convolution",
        "square recurrence equals the convolution of the partition table",
        bound,
        zip(range(bound + 1), p2, conv),
    )
    # the enumeration pass runs before the next leaf, so its time is
    # thm1.enumeration's
    tallies = _bipartition_tallies(enum_bound)
    children = [
        convolution,
        recorder.compare(
            "thm1.enumeration",
            "square recurrence equals exhaustive bipartition enumeration",
            enum_bound,
            ((n, partitions.bipartition_count(n), tallies[n][0]) for n in range(enum_bound + 1)),
        ),
        recorder.compare(
            "thm1.degenerate",
            "degenerate count matches the transpose-fixed bipartitions",
            enum_bound,
            ((n, partitions.degenerate_count(n), tallies[n][1]) for n in range(enum_bound + 1)),
        ),
    ]
    return combine("thm1", bound, children)


# ---------------------------------------------------------------------------
# The q-series identities.


def compare_series(
    check_id: str, title: str, lhs: series.TruncatedSeries, rhs: series.TruncatedSeries,
    recorder: Recorder,
) -> CheckReport:
    """Coefficient-wise comparison, located by ``index i``."""
    series._require_same_order(lhs.order, rhs.order)
    pairs = zip(range(lhs.order + 1), lhs.coeffs, rhs.coeffs)
    return recorder.compare(check_id, title, lhs.order, pairs, kind="index")


def compare_bivariate(
    check_id: str, title: str, lhs: series.BivariateSeries, rhs: series.BivariateSeries,
    recorder: Recorder,
) -> CheckReport:
    """Comparison by q, then z, located by ``q^q z^z``.

    Every power of q is compared over the same z span, from the lowest to the
    highest power of z anywhere on either side, so a coefficient that is 0
    on both sides is tappable as long as its z lies in that span.
    """
    series._require_same_order(lhs.order, rhs.order)
    zs = lhs.columns.keys() | rhs.columns.keys()
    span = range(min(zs, default=0), max(zs, default=-1) + 1)
    zero = [0] * (lhs.order + 1)
    columns = [(z, lhs.columns.get(z, zero), rhs.columns.get(z, zero)) for z in span]
    pairs = (
        ((q, z), column_a[q], column_b[q])
        for q in range(lhs.order + 1)
        for z, column_a, column_b in columns
    )
    return recorder.compare(check_id, title, lhs.order, pairs, kind="q,z")


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
    lhs = series.BivariateSeries.from_terms(order, terms)
    rhs = series.triple_product_series(order)
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
    theta = series.theta_alternating(order)
    # prod (1-q^k) gets its own folds rather than being built as odd * even:
    # that split is the identity step1 and step2 test.
    euler = series.product_series([(1, 1, 1)], order)
    even = series.product_series([(2, 2, 1)], order)
    odd_factors = series.product_series([(1, 2, 1)], order)
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
        children.append(recorder.compare(check_id, title, count_bound, pairs))
    return combine("lemma22", order, children)


def check_convolution_identity(order: int, recorder: Recorder) -> CheckReport:
    """(sum p2(n) q^n) * (sum (-1)^k q^(k^2)) = sum p(m) q^(2m).

    The left side comes from the product machinery, the right side from the
    recurrence tables, so the comparison crosses two independent routes.  The
    bipartition series is by definition the square of the partition series,
    so it is built as that square rather than expanded a second time.
    """
    p_product = series.partition_series(order)
    p2_product = p_product * p_product
    children = [
        compare_series(
            "firstproof.p_table",
            "partition product series matches the recurrence table",
            p_product,
            series.TruncatedSeries(order, partitions.partition_counts_upto(order)),
            recorder,
        ),
        compare_series(
            "firstproof.p2_table",
            "bipartition product series matches the recurrence table",
            p2_product,
            series.TruncatedSeries(order, partitions.bipartition_counts_upto(order)),
            recorder,
        ),
    ]
    lhs = p2_product * series.theta_alternating(order)
    rhs_coeffs = [partitions.degenerate_count(n) for n in range(order + 1)]
    children.append(
        compare_series(
            "firstproof.identity",
            "bipartition series times alternating theta is the even-index partition series",
            lhs,
            series.TruncatedSeries(order, rhs_coeffs),
            recorder,
        )
    )
    return combine("firstproof", order, children)


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


def _laurent_powers(base: series.TruncatedSeries, span: int) -> dict:
    """c^k for |k| <= span, c = ``base``: one inverse, one product per further power."""
    powers = {0: series.TruncatedSeries.one(base.order), 1: base, -1: base.inverse()}
    for k in range(2, span + 1):
        powers[k] = powers[k - 1] * base
        powers[-k] = powers[1 - k] * powers[-1]
    return powers


def _laurent_combination(
    terms: Iterable[tuple[int, int, int]], powers: dict, order: int
) -> series.TruncatedSeries:
    """sum coeff * c^c_exp * q^q_exp for (c_exp, coeff, q_exp) triples."""
    acc = series.TruncatedSeries.zero(order)
    for c_exp, coeff, q_exp in terms:
        acc = acc + (powers[c_exp] * coeff).shift(q_exp)
    return acc


def check_factor_square(recorder: Recorder) -> CheckReport:
    """Square the nine-term factor with c as a formal variable and compare
    against the recorded seventeen-term expansion, to its top power q^16."""
    order = 16
    factor = series.BivariateSeries.from_terms(
        order, [(q, c, k) for c, k, q in DISSECTION_FACTOR_TERMS]
    )
    expected = series.BivariateSeries.from_terms(
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
    p_table = series.TruncatedSeries(order, partitions.partition_counts_upto(order))
    p2_table = series.TruncatedSeries(order, partitions.bipartition_counts_upto(order))
    residue_terms = {
        2: [(6, 1, 2), (1, 4, 7), (-4, 4, 12)],
        3: [(5, 2, 3), (0, 3, 8), (-5, -2, 13)],
        4: [(4, 4, 4), (-1, -4, 9), (-6, 1, 14)],
    }
    tables = (DISSECTION_FACTOR_TERMS, *residue_terms.values())
    span = max(abs(c_exp) for terms in tables for c_exp, _, _ in terms)
    # c = R(q^5) and both prefactors are series in q^5: R's powers and
    # (q^5;q^5)^5/(q;q)^6 with its square are taken at order // 5 and dilated
    low = order // 5
    r_powers = _laurent_powers(series.product_series(series.ROGERS_RAMANUJAN_FACTORS, low), span)
    powers = {k: power.dilate(5, order) for k, power in r_powers.items()}
    factor = _laurent_combination(DISSECTION_FACTOR_TERMS, powers, order)
    prefactor = series.product_series([(5, 5, 5), (1, 1, -6)], low)
    prefactor5 = prefactor.dilate(5, order)
    prefactor10 = (prefactor * prefactor).dilate(5, order)

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
    from biparts import rademacher

    p = partitions.partition_counts_upto(bound)
    p2 = partitions.bipartition_counts_upto(bound)
    children = [
        recorder.compare(
            "congruence.bipartition",
            "bipartition counts vanish mod 5 at residues 2, 3, 4",
            bound,
            ((m, p2[m] % 5, 0) for m in range(bound + 1) if m % 5 in (2, 3, 4)),
        ),
        recorder.compare(
            "congruence.partition",
            "partition counts vanish mod 5 at residue 4",
            bound,
            ((m, p[m] % 5, 0) for m in range(4, bound + 1, 5)),
        ),
        recorder.compare(
            "congruence.rademacher",
            "partition table equals the Rademacher series at the bound",
            bound,
            [(bound, p[bound], rademacher.partition_count(bound))],
        ),
    ]
    return combine("congruence", bound, children)


# ---------------------------------------------------------------------------
# The symbol calculus.

#: Rank up to which check_class_count_difference re-enumerates the classes.
CLASS_ENUM_BOUND = 12


def check_class_count_difference(bound: int, recorder: Recorder) -> CheckReport:
    """plus-counts minus minus-counts equals the degenerate count p(n/2).

    The classes of defect +-2m of rank n are counted by p2(n - m^2), so the
    signed difference is sum_m (-1)^m c_m p2(n - m^2), with c_0 = 1 and
    c_m = 2.  Up to ``bound`` it is taken from the class-count columns of the
    convolution prefix, not from the p2 table that the square recurrence
    builds from the same sum, and compared with the p table; up to
    ``CLASS_ENUM_BOUND`` each defect's count is re-verified by full class
    enumeration.
    """
    from biparts import symbols

    enum_bound = min(CLASS_ENUM_BOUND, bound)
    conv = partitions.bipartition_counts_convolution_upto(bound)
    plus, minus = symbols.class_count_columns(conv)
    partitions.bipartition_count(enum_bound)
    children = [
        recorder.compare(
            "corollary.recurrence",
            "signed class-count difference equals the degenerate count",
            bound,
            (
                (n, plus[n] - minus[n], partitions.degenerate_count(n))
                for n in range(bound + 1)
            ),
        ),
        recorder.compare(
            "corollary.enumeration",
            "recurrence counts agree with explicit class enumeration",
            enum_bound,
            (
                (n, count, len(symbols.enumerate_classes(n, d)))
                for n in range(enum_bound + 1)
                for d, count in symbols.class_counts(n).items()
            ),
        ),
    ]
    return combine("corollary", bound, children)


def check_family_partition(bound: int, recorder: Recorder) -> CheckReport:
    """Families of special symbols partition the even-defect classes.

    For each rank n <= bound the leaf compares, all at n: the number of
    distinct member symbols of each family with 4^degree, which holds only
    if the counter-to-member map is one-to-one; the sum of the family sizes
    with the number of even-defect classes; and the number of those classes
    reached by a member at defect -2*defect(subset) with that number again.
    The last two agree only if every member obeys the defect law, no class
    is reached twice and every class is reached.

    A rank's classes are held once, in one set keyed by their (top, bottom)
    rows: each class a law-obeying member reaches is discarded from it, and
    the number reached is the number of classes less what is left.
    """
    from biparts import symbols

    partitions.refuse_past_cap(partitions.bipartition_count, bound, "p2")
    children = []
    for n in range(bound + 1):
        zero = symbols.enumerate_classes(n, 0)
        classes = {(cls.top, cls.bottom) for cls in zero}
        classes.update(
            (cls.top, cls.bottom)
            for d in symbols.class_counts(n)
            if d
            for cls in symbols.enumerate_classes(n, d)
        )
        specials = map(symbols.SpecialSymbol, filter(symbols.is_special, zero))
        children.append(
            recorder.compare(
                f"families.n{n}",
                f"families partition the {len(classes)} classes of rank {n}",
                n,
                _family_triples(n, specials, classes),
            )
        )
    return combine("families", bound, children)


def _family_triples(
    n: int, specials: Iterator[symbols.SpecialSymbol], classes: set[tuple[tuple, tuple]]
) -> Iterator[tuple[int, int, int]]:
    """The compared triples of ``families.n{n}``, made one family at a time
    so that a rank's families are never all in memory together.

    ``classes`` holds the (top, bottom) rows of the rank's classes and is
    emptied of every class reached."""
    total = len(classes)
    size_total = 0
    for special in specials:
        family = special.family()
        size_total += len(family)
        # every member is reduced, so its rows are its class's; the defect
        # law, defect(symbol) = -2 * defect(moved subset), in row lengths
        lawful, lawless = set(), set()
        for moved, symbol in family:
            law = len(symbol.top) - len(symbol.bottom) == 2 * (len(moved.bottom) - len(moved.top))
            (lawful if law else lawless).add((symbol.top, symbol.bottom))
        yield n, len(lawful | lawless), 4**special.degree
        classes.difference_update(lawful)
    yield n, size_total, total
    yield n, total - len(classes), total


# a dataclass so that dataclasses.replace can swap ``run`` (perfbench's tracer does)
@dataclass(frozen=True)
class Check:
    run: Callable[[int, Recorder], CheckReport]
    default_bound: int


CHECKS: dict[str, Check] = {
    "euler": Check(check_partition_recursion, 40),
    "thm1": Check(check_bipartition_recursion, 5000),
    "lemma22": Check(check_theta_product_chain, 1000),
    "jacobi": Check(check_jacobi_triple_product, 200),
    "firstproof": Check(check_convolution_identity, 1000),
    "families": Check(check_family_partition, 12),
    "corollary": Check(check_class_count_difference, 2000),
    "appendix": Check(check_quintic_identities, 500),
    "congruence": Check(check_mod5_congruences, 10_000),
}


def run_check(name: str, bound: int | None, recorder: Recorder) -> CheckReport:
    """Run one named check at the given (or, for None, default) bound."""
    check = CHECKS[name]
    return recorder.run(check.run, check.default_bound if bound is None else bound)


def run_all(bound: int | None, recorder: Recorder) -> list[CheckReport]:
    """Run every check through ``recorder``.

    With an explicit bound, each check runs at min(bound, its default) so a
    small bound gives a quick smoke pass and a huge one cannot push the
    enumeration-backed checks past feasibility.
    """
    return [
        run_check(
            name,
            check.default_bound if bound is None else min(bound, check.default_bound),
            recorder,
        )
        for name, check in CHECKS.items()
    ]
