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

A ``Fraction`` is made only at the edges: from the parameters a public
function receives, from a value a public function returns
(``pfq_truncate``, ``series_mul`` and ``pfq_unity_sum_exact``, which are
views over the same kernels), for the closed form's Pochhammer factor
once per 4F3 block, and for the two sides of a failure record.  A ``Fraction`` per term would pay a gcd on every
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
    """The extra linear factor's parameter is zero, so its series is undefined."""


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter lists, argument tag and optional monomial prefactor.

    ``prefactor=(q, p)`` multiplies the whole series by ``q * x**p``.
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
    k = 0 .. steps-1.  The rows stop before the first k at which an upper
    parameter plus k is zero: that term and every later one vanish.  Uppers
    are checked before lowers, so termination wins; a lower parameter
    ``l`` with ``l + k == 0`` at a step reached first raises
    ``ZeroLowerPochhammer(l, k)``.
    """
    stop = steps
    for num, den in uppers:
        k = zero_offset(num, den, stop)
        if k is not None:
            stop = k
    hits = [
        (k, i)
        for i, (num, den) in enumerate(lowers)
        if (k := zero_offset(num, den, stop)) is not None
    ]
    if hits:
        k, i = min(hits)
        raise ZeroLowerPochhammer(Fraction(*lowers[i]), k)
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


def _expand(spec: SeriesSpec, order: int) -> _Series:
    if order < 0:
        raise ValueError("order must be nonnegative")
    pref_coeff, pref_power = spec.prefactor
    stride = 2 if spec.argument == ARG_SQUARED else 1
    nums = [0] * (order + 1)
    last = (order - pref_power) // stride
    if last < 0:
        return nums, 1
    rows = _ratio_rows(_pairs(spec.uppers), _pairs(spec.lowers), last + 1)
    rows = rows[:last]
    sign = -1 if spec.argument == ARG_MINUS else 1
    quarter = 4 if spec.argument == ARG_SQUARED else 1
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
    hitting zero terminates the expansion; a lower parameter hitting zero
    first raises :class:`ZeroLowerPochhammer`, also at the step past the
    last stored term.
    """
    return _view(_expand(spec, order))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller order."""
    return _view(_mul(_over_lcm(a), _over_lcm(b)))


def _product_sides(
    formula: str,
    a: Fraction,
    c: Fraction,
    lam: Fraction | None,
    order: int,
) -> tuple[_Series, _Series]:
    # Each series is built at its call, in the order below: the order
    # decides which zero lower Pochhammer symbol a point raises.
    def series(uppers, lowers, argument, prefactor=(Fraction(1), 0)):
        return _expand(SeriesSpec(uppers, lowers, argument, prefactor), order)

    half = Fraction(1, 2)
    if formula == BAILEY_DIXON:
        lhs = _mul(series((a,), (c,), ARG_PLUS), series((a,), (c,), ARG_MINUS))
        return lhs, series((a, c - a), (c, c / 2, (1 + c) / 2), ARG_SQUARED)
    if formula == BAILEY_WATSON:
        lhs = _mul(
            series((a,), (2 * a,), ARG_PLUS), series((c,), (2 * c,), ARG_MINUS)
        )
        return lhs, series(
            ((a + c) / 2, (a + c + 1) / 2),
            (a + c, a + half, c + half),
            ARG_SQUARED,
        )
    if formula == CLAUSEN:
        f = series((a, c), (a + c + half,), ARG_PLUS)
        return _mul(f, f), series(
            (a + c, 2 * a, 2 * c), (a + c + half, 2 * a + 2 * c), ARG_PLUS
        )
    # the second factor's and the even part's (uppers, lowers)
    if formula == LEMMA_LINEAR:
        if lam is None or lam == 0:
            raise DegenerateLambda("linear-factor parameter must be nonzero")
        second = (1 + lam, a), (lam, c)
        even = (1 + lam, a, c - a), (lam, c, c / 2, (1 + c) / 2)
    elif formula == VARIANT_LINEAR:
        # The lemma specialized at lam = c - 1; the factor with lowered
        # parameter takes the negated argument so odd coefficients agree.
        lam = c - 1
        if lam == 0:
            raise DegenerateLambda("variant requires c != 1")
        second = (a,), (lam,)
        even = (a, c - a), (lam, c / 2, (1 + c) / 2)
    else:
        raise ValueError(f"unknown product formula {formula!r}")
    lhs = _mul(series((a,), (c,), ARG_PLUS), series(*second, ARG_MINUS))
    even_part = series(*even, ARG_SQUARED)
    odd_part = series(
        (1 + a, c - a),
        (c, (1 + c) / 2, (2 + c) / 2),
        ARG_SQUARED,
        (a / (c * lam), 1),
    )
    return lhs, _sub(even_part, odd_part)


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
    mismatching coefficient index.
    """
    start = time.perf_counter()
    a = _fraction(a)
    c = _fraction(c)
    lam_f = None if lam is None else _fraction(lam)
    (lhs, lhs_den), (rhs, rhs_den) = _product_sides(formula, a, c, lam_f, order)
    params: list[tuple[str, object]] = [("formula", formula), ("a", a), ("c", c)]
    if formula == LEMMA_LINEAR:
        params.append(("lam", lam_f))
    params.append(("order", order))
    report = VerificationReport(name=formula)
    mismatch = None
    for i, (x, y) in enumerate(zip(lhs, rhs)):
        if x * rhs_den != y * lhs_den:
            mismatch = i
            break
    if mismatch is None:
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(
                params=tuple(params) + (("coeff_index", mismatch),),
                lhs=Fraction(lhs[mismatch], lhs_den),
                rhs=Fraction(rhs[mismatch], rhs_den),
            )
        )
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def check_product_grid(
    formula: str,
    order: int = DEFAULT_ORDER,
    lam_grid: Sequence[RationalLike] | None = None,
) -> VerificationReport:
    """Sweep a product formula over the default rational grid.

    Inadmissible parameter combinations (zero lower Pochhammer, degenerate
    linear factor) are counted as skipped, never silently dropped.
    """
    start = time.perf_counter()
    grid = DEFAULT_RATIONAL_GRID
    report = VerificationReport(name=formula)
    if formula == LEMMA_LINEAR:
        lams = tuple(map(_fraction, lam_grid or DEFAULT_RATIONAL_GRID))
        combos: Iterable[tuple] = (
            (a, c, l) for a in grid for c in grid for l in lams
        )
    else:
        combos = ((a, c, None) for a in grid for c in grid)
    for a, c, lam in combos:
        try:
            sub = check_product_formula(formula, a, c, lam, order)
        except (ZeroLowerPochhammer, DegenerateLambda):
            report.record_skip()
            continue
        sub.elapsed_ms = None
        report.merge(sub)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _unity_sum(
    uppers: Sequence[tuple[int, int]],
    lowers: Sequence[tuple[int, int]],
    last_index: int,
) -> tuple[int, int]:
    # backward Horner: 1 + r0 (1 + r1 (... (1 + r_{m-1}))), kept as an
    # unreduced pair p/q
    if last_index < 0:
        return 0, 1
    p = q = 1
    for num, den in reversed(_ratio_rows(uppers, lowers, last_index)):
        q *= den
        p = p * num + q
    return p, q


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


def _f43_factor(n: int, c: Fraction, e: Fraction) -> Fraction:
    # the lam-free half-order Pochhammer quotient of the closed form
    return poch_quotient(
        [Fraction(-n), 1 - c - e - n], [1 - c - n, 1 - e - n], n // 2
    )


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
    return _f43_factor(n, c, e) * Fraction(*_f43_tail(n, lam))


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

    A point is skipped in both reports when lam is zero, or when a lower
    parameter of the 4F3 hits zero within its n + 1 terms: c or e an
    integer in [1-n, 0], or lam an integer in [1-n, -1].  The series is
    then 0/0 or infinite, whatever its truncated sum happens to give.  The
    3F2 share those lowers, so no :class:`ZeroLowerPochhammer` arises.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _fraction(c)
    e = _fraction(e)
    lams = [_fraction(lam) for lam in lams]
    evaluation = VerificationReport(name="terminating-4f3")
    contiguous = VerificationReport(name="contiguous-relation")
    # c or e an integer in [1-n, 0] (lam in [1-n, -1]) puts a zero in a
    # lower parameter of the 4F3 within its n + 1 terms
    block_skipped = any(
        zero_offset(x.numerator, x.denominator, n) is not None for x in (c, e)
    )
    if not block_skipped:
        uppers = [(-n, 1)] + _pairs([c, e])
        lowers = _pairs([1 - c - n, 1 - e - n])
        p, q = _unity_sum(uppers, lowers, n)
        # at n = 0 the raised 3F2 does not terminate, but its weight n/lam
        # in the contiguous side vanishes
        raised = [(1 - n, 1)] + uppers[1:]
        r, s = _unity_sum(raised, lowers, n - 1) if n else (0, 1)
        ps, rq, qs = p * s, r * q, q * s
        factor = _f43_factor(n, c, e)
    for lam in lams:
        ln, ld = lam.numerator, lam.denominator
        if block_skipped or lam == 0 or zero_offset(ln, ld, n) is not None:
            evaluation.record_skip()
            contiguous.record_skip()
            continue
        four, four_den = _unity_sum(
            uppers + [(ln + ld, ld)], lowers + [(ln, ld)], n
        )
        tail, tail_den = _f43_tail(n, lam)
        params = (("n", n), ("c", c), ("e", e), ("lam", lam))
        # factor * tail, and (lam - a)/lam P/Q + a/lam R/S at a = -n as
        # ((lam+n) P S - n R Q) / (lam Q S), each against the 4F3 sum
        for report, num, den in (
            (evaluation, factor.numerator * tail, factor.denominator * tail_den),
            (contiguous, (ln + n * ld) * ps - n * ld * rq, ln * qs),
        ):
            if four * den == num * four_den:
                report.record_pass()
            else:
                lhs, rhs = Fraction(four, four_den), Fraction(num, den)
                report.record_failure(CaseRecord(params=params, lhs=lhs, rhs=rhs))
    return evaluation, contiguous
