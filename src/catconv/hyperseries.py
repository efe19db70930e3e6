"""Truncated formal power series over exact rationals.

Builds hypergeometric series coefficient lists, multiplies them by exact
Cauchy product, and certifies the catalogued product formulae
coefficient-by-coefficient.  Also evaluates terminating series at unit
argument exactly, which backs the closed-form and contiguous-relation
checks.

The kernels work on integers, not on ``Fraction`` terms.  All parameters
of one series are scaled to a single common denominator (one lcm), so the
ratio of term k+1 to term k becomes an integer row ``(num, den)``.  A
series is a list of integer numerators over one denominator, built from
the prefix products of its rows and divided by their one common gcd.  A
Cauchy product convolves the numerators and multiplies the two
denominators; a difference cross-scales.  A terminating sum folds its
rows by backward Horner into an unreduced pair ``p/q``.  Two values are
compared by cross-multiplying their pairs, so the product formulae and
the 4F3 block compare integers.

A product formula builds each series and list of term-ratio rows of one
(a, c) point once, as locals, and then takes the point's lams; nothing is
kept from one point to the next.  A 4F3 block builds the rows of its
plain 3F2 once.  Where a series carries the extra (1+lam; lam) column, as
the 4F3 and the linear-factor lemma's second factor and even part do,
each lam takes the lam-free rows, times that column's ratio
(1+lam+k)/(lam+k), and sums or expands them term by term.  None
telescopes (1+lam)_k/(lam)_k into (lam+k)/lam, which would split a series
into a lam-free one plus a 1/lam moment series.  For the 4F3 that split
is the contiguous relation under test, and the lemma follows from
Kummer's product by it, so the side built term by term must not lean on
it.

A ``Fraction`` is made only at the edges: from the parameters a public
function receives, from a value a public function returns
(``pfq_truncate``, ``series_mul``, ``pfq_unity_sum_exact`` and
``terminating_4f3_closed_form``, which are views over the same
kernels), and for the two sides of a failure record.  A 4F3 block takes
its closed form's Pochhammer factor as an unreduced pair from
``exactnum.poch_quotient_pair``, whose ``Fraction`` view is
``poch_quotient``.  A ``Fraction`` per term would pay a gcd on every
product and sum; those gcds, not the big-integer products themselves,
were most of the cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from .exactnum import (
    RationalLike,
    ZeroLowerPochhammer,
    poch_quotient,
    poch_quotient_pair,
    zero_offset,
)
from .report import CaseRecord, VerificationReport

__all__ = [
    "ARG_PLUS",
    "ARG_MINUS",
    "ARG_SQUARED",
    "BAILEY_DIXON",
    "BAILEY_WATSON",
    "CLAUSEN",
    "LEMMA_LINEAR",
    "VARIANT_LINEAR",
    "PRODUCT_FORMULAE",
    "DEFAULT_ORDER",
    "DEFAULT_RATIONAL_GRID",
    "DegenerateLambda",
    "SeriesSpec",
    "TruncatedSeries",
    "pfq_truncate",
    "series_mul",
    "check_product_formula",
    "check_product_grid",
    "pfq_unity_sum_exact",
    "terminating_4f3_closed_form",
    "terminating_4f3_check",
    "contiguous_relation_check",
    "terminating_4f3_block",
]

# Argument tags: the only forms the product formulae use.  The squared tag
# places raw term k at x^(2k) scaled by 4^(-k).
ARG_PLUS = "+x"
ARG_MINUS = "-x"
ARG_SQUARED = "x^2/4"
_ARGUMENTS = (ARG_PLUS, ARG_MINUS, ARG_SQUARED)

BAILEY_DIXON = "bailey-dixon"
BAILEY_WATSON = "bailey-watson"
CLAUSEN = "clausen"
LEMMA_LINEAR = "lemma-linear"
VARIANT_LINEAR = "variant-linear"
PRODUCT_FORMULAE = (
    BAILEY_DIXON,
    BAILEY_WATSON,
    CLAUSEN,
    LEMMA_LINEAR,
    VARIANT_LINEAR,
)

DEFAULT_ORDER = 48
DEFAULT_RATIONAL_GRID: tuple[Fraction, ...] = tuple(
    Fraction(v)
    for v in (
        Fraction(1, 2),
        1,
        Fraction(3, 2),
        2,
        Fraction(5, 2),
        3,
        Fraction(1, 3),
        Fraction(2, 3),
    )
)


def _fraction(x: RationalLike) -> Fraction:
    # a Fraction passes through unconverted; Fraction(x) would copy it
    return x if isinstance(x, Fraction) else Fraction(x)


class DegenerateLambda(ValueError):
    """The extra linear factor's parameter leaves its series undefined.

    It is zero, or, in a series truncated at an order, a negative integer
    that hits zero at a step the series reaches: before the order, and
    before any other upper parameter ends the series.
    """


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter lists, argument tag and optional monomial prefactor.

    ``prefactor=(q, p)`` multiplies the whole series by ``q * x**p``.  It is
    the input of :func:`pfq_truncate`; the product formulae pass their
    parameters as plain tuples instead.
    """

    uppers: tuple[Fraction, ...]
    lowers: tuple[Fraction, ...]
    argument: str = ARG_PLUS
    prefactor: tuple[Fraction, int] = (Fraction(1), 0)

    def __post_init__(self):
        object.__setattr__(self, "uppers", tuple(map(_fraction, self.uppers)))
        object.__setattr__(self, "lowers", tuple(map(_fraction, self.lowers)))
        if self.argument not in _ARGUMENTS:
            raise ValueError(f"unknown argument tag {self.argument!r}")
        coeff, power = self.prefactor
        if power < 0:
            raise ValueError("prefactor power must be nonnegative")
        object.__setattr__(self, "prefactor", (_fraction(coeff), int(power)))


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact coefficients of x^0 .. x^order."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list length must equal order + 1")

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]


def _pairs(values: Iterable[Fraction]) -> list[tuple[int, int]]:
    return [(v.numerator, v.denominator) for v in values]


def _ratio_rows(
    uppers: Sequence[tuple[int, int]],
    lowers: Sequence[tuple[int, int]],
    steps: int,
) -> list[tuple[int, int]]:
    """Integer term-ratio rows of a hypergeometric series.

    Parameters are reduced ``(numerator, denominator)`` pairs.  Row k is
    ``(num, den)`` with ``term(k+1) = term(k) * num / den``, for
    k = 0 .. steps-1.  A lower parameter ``l`` with ``l + k == 0`` for some
    k < steps raises ``ZeroLowerPochhammer(l, k)``, least k first, then
    list order, whichever upper ends the series: a truncated sum there is
    a pole or 0/0 and says nothing about the series as a function of its
    parameters.  An upper parameter ``u`` with ``u + k == 0`` only ends
    the rows before that k, as that term and every later one vanish.
    """
    hits = [
        (k, i)
        for i, (num, den) in enumerate(lowers)
        if (k := zero_offset(num, den, steps)) is not None
    ]
    if hits:
        k, i = min(hits)
        raise ZeroLowerPochhammer(Fraction(*lowers[i]), k)
    stop = steps
    for num, den in uppers:
        k = zero_offset(num, den, stop)
        if k is not None:
            stop = k
    scale = math.lcm(*(den for _, den in uppers), *(den for _, den in lowers))
    ups = [num * (scale // den) for num, den in uppers]
    lows = [num * (scale // den) for num, den in lowers]
    # u + k = (U + k*scale) / scale: every upper leaves a 1/scale in the
    # row and every lower a scale, so only their surplus remains
    surplus = len(lows) - len(ups)
    num_unit = scale ** max(surplus, 0)
    den_unit = scale ** max(-surplus, 0)
    rows = []
    for k in range(stop):
        shift = k * scale
        num = num_unit
        for u in ups:
            num *= u + shift
        den = den_unit * (k + 1)
        for l in lows:
            den *= l + shift
        rows.append((num, den))
    return rows


# a series: integer numerators over one common denominator
_Series = tuple[list[int], int]


def _rows(
    uppers: Iterable[Fraction],
    lowers: Iterable[Fraction],
    order: int,
    stride: int = 1,
    power: int = 0,
) -> list[tuple[int, int]]:
    # the term-ratio rows of the terms that land at x^0 .. x^order, with
    # the lowers checked one step further, past the last stored term
    if order < 0:
        raise ValueError("order must be nonnegative")
    last = (order - power) // stride
    if last < 0:
        return []
    return _ratio_rows(_pairs(uppers), _pairs(lowers), last + 1)[:last]


def _series(
    rows: Sequence[tuple[int, int]],
    order: int,
    argument: str = ARG_PLUS,
    prefactor: tuple[Fraction, int] = (Fraction(1), 0),
) -> _Series:
    pref_coeff, pref_power = prefactor
    nums = [0] * (order + 1)
    if pref_power > order:
        return nums, 1
    stride = 2 if argument == ARG_SQUARED else 1
    sign = -1 if argument == ARG_MINUS else 1
    quarter = 4 if argument == ARG_SQUARED else 1
    # over the product of every row's den, term k is heads[k] * tails[k]
    first = pref_coeff.numerator
    heads = accumulate((sign * num for num, _ in rows), mul, initial=first)
    dens = (quarter * den for _, den in reversed(rows))
    tails = list(accumulate(dens, mul, initial=1))[::-1]
    for k, (head, tail) in enumerate(zip(heads, tails)):
        nums[pref_power + stride * k] = head * tail
    den = pref_coeff.denominator * tails[0]
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


def _column(
    rows: Sequence[tuple[int, int]], lam: Fraction
) -> list[tuple[int, int]]:
    # row k times the ratio (1+lam+k)/(lam+k) of the (1+lam; lam) column
    ln, ld = lam.numerator, lam.denominator
    return [
        (num * (ln + ld + k * ld), den * (ln + k * ld))
        for k, (num, den) in enumerate(rows)
    ]


def _mul(a: _Series, b: _Series) -> _Series:
    (x, x_den), (y, y_den) = a, b
    size = min(len(x), len(y))
    nums = [sum(map(mul, x[: n + 1], y[n::-1])) for n in range(size)]
    return nums, x_den * y_den


def _sub(a: _Series, b: _Series) -> _Series:
    (x, x_den), (y, y_den) = a, b
    return [u * y_den - v * x_den for u, v in zip(x, y)], x_den * y_den


def _over_lcm(series: TruncatedSeries) -> _Series:
    scale = math.lcm(*(v.denominator for v in series.coeffs))
    return [v.numerator * (scale // v.denominator) for v in series.coeffs], scale


def _view(series: _Series) -> TruncatedSeries:
    nums, den = series
    return TruncatedSeries(len(nums) - 1, tuple(Fraction(x, den) for x in nums))


def pfq_truncate(spec: SeriesSpec, order: int) -> TruncatedSeries:
    """Expand a hypergeometric series spec to exact coefficients.

    Raw term k carries the Pochhammer quotient over k!.  The argument tag
    maps it onto a power of x (with sign or quarter-square scaling), then
    the prefactor shifts and scales the whole series.  An upper parameter
    hitting zero terminates the expansion.  A lower parameter hitting zero
    at a step up to the one past the last stored term raises
    :class:`ZeroLowerPochhammer`, whether or not an upper ends the series
    sooner.
    """
    stride = 2 if spec.argument == ARG_SQUARED else 1
    rows = _rows(spec.uppers, spec.lowers, order, stride, spec.prefactor[1])
    return _view(_series(rows, order, spec.argument, spec.prefactor))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller order."""
    return _view(_mul(_over_lcm(a), _over_lcm(b)))


def _undefined_lam(lam: Fraction, steps: int) -> bool:
    # lam = 0 is a zero lower at once.  At an integer lam in [1-steps, -1]
    # the (1+lam; lam) column has a zero denominator on one of the series'
    # first `steps` term-ratio rows: its upper 1 + lam ends the series a
    # step before, so every later term is 0/0 and the truncated series
    # says nothing.  Where another upper ends the series first, the rows
    # stop sooner and a lam past them is defined.
    ln = lam.numerator
    return ln == 0 or zero_offset(ln, lam.denominator, steps) is not None


def _product_sides(
    formula: str,
    a: Fraction,
    c: Fraction,
    lams: Sequence[Fraction | None],
    order: int,
) -> list[tuple[_Series, _Series] | None]:
    # One point's two sides at each lam, None at a lam that leaves the
    # lemma's series undefined.  Each series and row list of the point is
    # built once, in the order below: the order decides which zero lower
    # Pochhammer symbol a point raises.
    def series(uppers, lowers, argument=ARG_PLUS, prefactor=(Fraction(1), 0)):
        stride = 2 if argument == ARG_SQUARED else 1
        rows = _rows(uppers, lowers, order, stride, prefactor[1])
        return _series(rows, order, argument, prefactor)

    half = Fraction(1, 2)
    if formula == BAILEY_DIXON:
        # the +x and -x factors share their rows
        rows = _rows((a,), (c,), order)
        lhs = _mul(_series(rows, order), _series(rows, order, ARG_MINUS))
        rhs = series((a, c - a), (c, c / 2, (1 + c) / 2), ARG_SQUARED)
        return [(lhs, rhs)] * len(lams)
    if formula == BAILEY_WATSON:
        lhs = _mul(series((a,), (2 * a,)), series((c,), (2 * c,), ARG_MINUS))
        uppers = (a + c) / 2, (a + c + 1) / 2
        rhs = series(uppers, (a + c, a + half, c + half), ARG_SQUARED)
        return [(lhs, rhs)] * len(lams)
    if formula == CLAUSEN:
        f = series((a, c), (a + c + half,))
        rhs = series((a + c, 2 * a, 2 * c), (a + c + half, 2 * a + 2 * c))
        return [(_mul(f, f), rhs)] * len(lams)
    if formula == VARIANT_LINEAR:
        # The lemma specialized at lam = c - 1; the factor with lowered
        # parameter takes the negated argument so odd coefficients agree.
        lam = c - 1
        if lam == 0:
            raise DegenerateLambda("variant requires c != 1")
    elif formula != LEMMA_LINEAR:
        raise ValueError(f"unknown product formula {formula!r}")
    # The first factor (a; c; x) comes first, so an inadmissible c (c = 0
    # at every a and order) is named before the odd part divides by it.
    first_rows = _rows((a,), (c,), order)
    first = _series(first_rows, order)
    c_a, c_1 = c - a, (1 + c) / 2
    odd_params = (1 + a, c_a), (c, c_1, (2 + c) / 2)
    if formula == VARIANT_LINEAR:
        lhs = _mul(first, series((a,), (lam,), ARG_MINUS))
        even = series((a, c_a), (lam, c / 2, c_1), ARG_SQUARED)
        odd = series(*odd_params, ARG_SQUARED, (a / (c * lam), 1))
        return [(lhs, _sub(even, odd))] * len(lams)
    # The lemma's second factor (1+lam, a; lam, c; -x) and even part are
    # the first factor's rows and those of the even part's lam-free base
    # (bailey-dixon's right side), each row times its own column ratio;
    # the odd part is the lam-free one with prefactor a/c, times 1/lam.
    # The base decides for the even part: a 1 + lam that would end it
    # sooner does so only at a negative integer lam, by 0/0.
    even_rows = _rows((a, c_a), (c, c / 2, c_1), order, 2)
    odd, odd_den = series(*odd_params, ARG_SQUARED, (a / c, 1))
    sides = []
    for lam in lams:
        # the first factor's rows stop where a nonpositive integer a ends
        # the series, and the even part's, at half the order, are never
        # longer
        if _undefined_lam(lam, len(first_rows)):
            sides.append(None)
            continue
        second = _series(_column(first_rows, lam), order, ARG_MINUS)
        even = _series(_column(even_rows, lam), order, ARG_SQUARED)
        odd_lam = [x * lam.denominator for x in odd], odd_den * lam.numerator
        sides.append((_mul(first, second), _sub(even, odd_lam)))
    return sides


def _record(
    report: VerificationReport,
    sides: tuple[_Series, _Series],
    formula: str,
    a: Fraction,
    c: Fraction,
    lam: Fraction | None,
    order: int,
) -> None:
    # a pass, or a failure at the first mismatching coefficient index
    (lhs, lhs_den), (rhs, rhs_den) = sides
    for i, (x, y) in enumerate(zip(lhs, rhs)):
        if x * rhs_den != y * lhs_den:
            params = [("formula", formula), ("a", a), ("c", c)]
            if formula == LEMMA_LINEAR:
                params.append(("lam", lam))
            params += [("order", order), ("coeff_index", i)]
            report.record_failure(
                CaseRecord(
                    params=tuple(params),
                    lhs=Fraction(x, lhs_den),
                    rhs=Fraction(y, rhs_den),
                )
            )
            return
    report.record_pass()


def check_product_formula(
    formula: str,
    a: RationalLike,
    c: RationalLike,
    lam: RationalLike | None = None,
    order: int = DEFAULT_ORDER,
) -> VerificationReport:
    """Certify one product formula coefficient-by-coefficient.

    Both sides are built independently (left by Cauchy product of the two
    factors, right from its own series) and compared exactly through
    ``order``.  The report's failure record, if any, names the first
    mismatching coefficient index.  ``lemma-linear`` raises
    :class:`DegenerateLambda` at once where lam is missing or zero, and
    where a negative integer lam hits zero on one of the first factor's
    term-ratio rows once the lam-free series are built, so an inadmissible
    c is named first.
    """
    start = time.perf_counter()
    a = _fraction(a)
    c = _fraction(c)
    lam_f = None if lam is None else _fraction(lam)
    if formula == LEMMA_LINEAR and not lam_f:
        raise DegenerateLambda("linear-factor parameter must be nonzero")
    [sides] = _product_sides(formula, a, c, (lam_f,), order)
    if sides is None:
        raise DegenerateLambda(
            f"linear-factor parameter {lam_f} hits zero within the series: "
            "1 + lam ends it a step before, so its later terms are 0/0"
        )
    report = VerificationReport(name=formula)
    _record(report, sides, formula, a, c, lam_f, order)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def check_product_grid(
    formula: str,
    order: int = DEFAULT_ORDER,
    lam_grid: Sequence[RationalLike] | None = None,
) -> VerificationReport:
    """Sweep a product formula over the default rational grid.

    ``lemma-linear`` runs each (a, c) at every lam of ``lam_grid`` (the
    default grid if none); the other formulas have no lam.  Each (a, c)
    builds its series and term-ratio rows once, as locals, and then takes
    its lams: bailey-dixon's ±x factors share their rows, and the lemma
    builds its three lam-free row lists once, each lam's column then
    expanded term by term.  Nothing is kept from one (a, c) to the next.

    Inadmissible points are counted as skipped, never silently dropped: a
    lower parameter that hits zero at a step up to the order, whichever
    upper ends its series, or the variant's c = 1 skips every lam of its
    (a, c), and the lemma's lam = 0 or a negative integer lam that hits
    zero on one of the first factor's rows, which stop at the order or
    where a nonpositive integer a ends the series, skips that lam.
    """
    start = time.perf_counter()
    grid = DEFAULT_RATIONAL_GRID
    lams = (None,)
    if formula == LEMMA_LINEAR:
        lams = tuple(map(_fraction, lam_grid or DEFAULT_RATIONAL_GRID))
    report = VerificationReport(name=formula)
    for a in grid:
        for c in grid:
            try:
                points = _product_sides(formula, a, c, lams, order)
            except (ZeroLowerPochhammer, DegenerateLambda):
                points = [None] * len(lams)
            for lam, sides in zip(lams, points):
                if sides is None:
                    report.record_skip()
                else:
                    _record(report, sides, formula, a, c, lam, order)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _horner(rows: Sequence[tuple[int, int]]) -> tuple[int, int]:
    # backward Horner: 1 + r0 (1 + r1 (... (1 + r_{m-1}))), kept as an
    # unreduced pair p/q
    p = q = 1
    for num, den in reversed(rows):
        q *= den
        p = p * num + q
    return p, q


def _unity_sum(
    uppers: Sequence[tuple[int, int]],
    lowers: Sequence[tuple[int, int]],
    last_index: int,
) -> tuple[int, int]:
    if last_index < 0:
        return 0, 1
    return _horner(_ratio_rows(uppers, lowers, last_index))


def pfq_unity_sum_exact(
    uppers: Sequence[RationalLike],
    lowers: Sequence[RationalLike],
    last_index: int,
) -> Fraction:
    """Exact partial sum of a hypergeometric series at unit argument.

    Sums terms k = 0 .. last_index.  Intended for terminating series where
    ``last_index`` reaches the cutoff, making the partial sum the full
    value.  Termination by a zero numerator factor short-circuits.
    """
    ups, lows = (_pairs(map(Fraction, xs)) for xs in (uppers, lowers))
    return Fraction(*_unity_sum(ups, lows, last_index))


def _f43_params(
    n: int, c: Fraction, e: Fraction
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    # the 3F2's uppers -n, c, e and lowers 1-c-n, 1-e-n as integer pairs;
    # (1-n)*q - p over q stays reduced, as gcd((1-n)*q - p, q) = gcd(p, q)
    uppers = [(-n, 1)] + _pairs([c, e])
    lowers = [((1 - n) * q - p, q) for p, q in uppers[1:]]
    return uppers, lowers


def _f43_factor(
    n: int, uppers: Sequence[tuple[int, int]], lowers: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int]], Sequence[tuple[int, int]], int]:
    # the poch_quotient arguments of the closed form's lam-free half-order
    # factor, from _f43_params' pairs: 1 - c - e - n is (1 - c - n) - e
    (cl, cd), (en, ed) = lowers[0], uppers[2]
    return [(-n, 1), (cl * ed - en * cd, cd * ed)], lowers, n // 2


def _f43_tail(n: int, lam: Fraction) -> tuple[int, int]:
    # the parity-dependent linear factor in lam, as an integer pair
    if n % 2 == 0:
        return 2 * lam.numerator + n * lam.denominator, 2 * lam.numerator
    return -(1 + n) * lam.denominator, 2 * lam.numerator


def terminating_4f3_closed_form(
    n: int,
    c: RationalLike,
    e: RationalLike,
    lam: RationalLike,
) -> Fraction:
    """Closed-form value of the terminating 4F3 with the (1+lam, lam) column.

    A half-order Pochhammer quotient times a parity-dependent linear factor
    in lam.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _fraction(c)
    e = _fraction(e)
    lam = _fraction(lam)
    if lam == 0:
        raise DegenerateLambda("linear-factor parameter must be nonzero")
    ups, lows, half = _f43_factor(n, *_f43_params(n, c, e))
    factor = poch_quotient(
        [Fraction(*u) for u in ups], [Fraction(*l) for l in lows], half
    )
    return factor * Fraction(*_f43_tail(n, lam))


def _single_point(
    which: int,
    n: int,
    c: RationalLike,
    e: RationalLike,
    lam: RationalLike,
) -> VerificationReport:
    # one report of terminating_4f3_block at a one-lam block
    start = time.perf_counter()
    if lam == 0:
        raise DegenerateLambda("linear-factor parameter must be nonzero")
    report = terminating_4f3_block(n, c, e, [lam])[which]
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def terminating_4f3_check(
    n: int,
    c: RationalLike,
    e: RationalLike,
    lam: RationalLike,
) -> VerificationReport:
    """Exact check of the terminating 4F3(..., 1+lam; ..., lam; 1) evaluation.

    The left side is the finite sum over k = 0..n; the right side is the
    closed form from ``terminating_4f3_closed_form``.  Both sides are exact
    rationals.  This is the ``terminating-4f3`` report of
    :func:`terminating_4f3_block` at one lam, so a point where the series
    is undefined is skipped; lam = 0 raises :class:`DegenerateLambda`.
    """
    return _single_point(0, n, c, e, lam)


def contiguous_relation_check(
    n: int,
    c: RationalLike,
    e: RationalLike,
    lam: RationalLike,
) -> VerificationReport:
    """Exact check of the extra-column contiguous relation at a = -n.

    The 4F3 with the appended (1+lam)/(lam) column must equal
    ``(lam - a)/lam`` times the plain 3F2 plus ``a/lam`` times the 3F2 with
    raised first parameter.  All three series terminate and are summed
    exactly.  The split comes from (lam+k)/lam = (lam-a)/lam + (a+k)/lam.
    This is the ``contiguous-relation`` report of
    :func:`terminating_4f3_block` at one lam, with the same skips and the
    same :class:`DegenerateLambda` at lam = 0.
    """
    return _single_point(1, n, c, e, lam)


def terminating_4f3_block(
    n: int,
    c: RationalLike,
    e: RationalLike,
    lams: Iterable[RationalLike],
) -> tuple[VerificationReport, VerificationReport]:
    """Both 4F3 checks at every lam of one (n, c, e) block.

    Returns the ``terminating-4f3`` and ``contiguous-relation`` reports.
    The plain and raised 3F2 and the closed form's Pochhammer factor do
    not depend on lam, so each is computed once per block.  Each lam's 4F3
    is summed once, and that brute-force sum is the left side of both
    checks.

    The 4F3's term ratio is the plain 3F2's times (1+lam+k)/(lam+k), so
    each lam's rows are the 3F2's rows, built once per block, each times
    that column ratio.  Reusing rows changes no term: the 4F3 is still
    summed term by term from its own ratio, never telescoped into the
    plain 3F2 plus a moment sum (the module docstring says why).

    A point is skipped in both reports when lam is zero, or when a lower
    parameter of the 4F3 hits zero within its n + 1 terms: c or e an
    integer in [1-n, 0], where the 3F2's rows raise on the lowers they
    share, or lam an integer in [1-n, -1].  The series is then 0/0 or
    infinite, whatever its truncated sum happens to give.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _fraction(c)
    e = _fraction(e)
    lams = [_fraction(lam) for lam in lams]
    evaluation = VerificationReport(name="terminating-4f3")
    contiguous = VerificationReport(name="contiguous-relation")
    uppers, lowers = _f43_params(n, c, e)
    try:
        rows = _ratio_rows(uppers, lowers, n)
    except ZeroLowerPochhammer:
        rows = None
    else:
        p, q = _horner(rows)
        # at n = 0 the raised 3F2 does not terminate, but its weight n/lam
        # in the contiguous side vanishes
        raised = [(1 - n, 1)] + uppers[1:]
        r, s = _unity_sum(raised, lowers, n - 1) if n else (0, 1)
        ps, rq, qs = p * s, r * q, q * s
        factor, factor_den = poch_quotient_pair(
            *_f43_factor(n, uppers, lowers)
        )
    for lam in lams:
        if rows is None or _undefined_lam(lam, n):
            evaluation.record_skip()
            contiguous.record_skip()
            continue
        # row k of the 4F3 is row k of the 3F2 times its own column ratio
        # (1+lam+k)/(lam+k); at lam = -n the last one is zero and ends it
        four, four_den = _horner(_column(rows, lam))
        tail, tail_den = _f43_tail(n, lam)
        ln, ld = lam.numerator, lam.denominator
        # factor * tail, and (lam - a)/lam P/Q + a/lam R/S at a = -n as
        # ((lam+n) P S - n R Q) / (lam Q S), each against the 4F3 sum
        for report, num, den in (
            (evaluation, factor * tail, factor_den * tail_den),
            (contiguous, (ln + n * ld) * ps - n * ld * rq, ln * qs),
        ):
            if four * den == num * four_den:
                report.record_pass()
            else:
                params = (("n", n), ("c", c), ("e", e), ("lam", lam))
                lhs, rhs = Fraction(four, four_den), Fraction(num, den)
                report.record_failure(CaseRecord(params=params, lhs=lhs, rhs=rhs))
    return evaluation, contiguous
