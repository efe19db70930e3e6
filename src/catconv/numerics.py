"""High-precision floating-point verification.

Everything exact arithmetic cannot reach lands here: Gamma-quotient
closed forms for nonterminating series at unit argument, and reflection
and duplication self-tests for them.  The double-integral
representations are checked exactly instead: each integral over pi^2 is
a finite rational sum of Euler Beta moments.  A tensor Gauss-Jacobi
quadrature (``integral_value``) stays as the floating reference that
sum is tested against.  mpmath supplies the Gamma products and the
Gauss-Jacobi rules (``gammaprod``, ``gauss_quadrature``).

Precision is always an explicit argument (decimal digits, at least 20)
and computations run in a local mpmath context with guard digits; no
function mutates ambient precision.

Nonterminating series at unit argument decay only algebraically, so the
plain partial-sum tail bound would need astronomically many terms at 40
digits.  They are summed with Levin's u transform instead, computed
exactly in integers: the sum is the first estimate L_n, n >= 17, that
moves by less than 10^-(precision+5) from L_{n-1}, and ``max_terms`` is
a hard cap.

Every series check runs one path (``_series_check``).  The exact term
ratio built from the series' upper and lower parameters drives one
exact term stream (``_partial_sums``).  Levin consumes it for
nonterminating instances.  A terminating instance sums the same stream
to its first zero term and asks it to equal a rational value computed
independently, so that cross-check tests the term ratio, the only input
Levin reads.  Only Levin's rational is converted to floating point; a
terminating mismatch records both exact rationals.  The three public
checks supply only their parameters, convergence margin and Gamma
closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from mpmath import mp

from .exactnum import RationalLike, zero_offset
from .hyperseries import (
    DegenerateLambda,
    pfq_unity_sum_exact,
    terminating_4f3_closed_form,
)
from .identities import IdentityId, IdentityParams, rhs_value
from .report import CaseRecord, VerificationReport

__all__ = [
    "MIN_PRECISION",
    "MAX_TERMS",
    "PoleError",
    "NonConvergent",
    "TailBoundExceeded",
    "RuleConstructionFailure",
    "gamma_quotient",
    "gamma_selftest",
    "dixon_check",
    "dminus_check",
    "linear4f3_check",
    "NUMERIC_FAMILIES",
    "QuadratureRule",
    "jacobi_rule",
    "INTEGRAL_FAMILIES",
    "INTEGRAL_N_CAP",
    "INTEGRAL_LAM_CAP",
    "integral_value",
    "integral_check",
]

MIN_PRECISION = 20
_GUARD = 15
# the default cap on the terms a Levin sum may take
MAX_TERMS = 1000

NUMERIC_FAMILIES = ("dixon", "dminus", "linear4f3")
INTEGRAL_FAMILIES = ("thm-a", "thm-b")
INTEGRAL_N_CAP = 60
INTEGRAL_LAM_CAP = 12


class PoleError(ValueError):
    """A Gamma argument or series parameter sits on (or hugs) a pole."""


class NonConvergent(ValueError):
    """Series parameters violate the convergence margin at unit argument."""


class TailBoundExceeded(RuntimeError):
    """The summation did not reach the target accuracy within max_terms."""


class RuleConstructionFailure(RuntimeError):
    """Quadrature nodes or weights came out invalid at the precision."""


def _require_precision(precision: int) -> None:
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} digits")


def _to_mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _near_nonpositive_integer(x: Fraction, precision: int) -> bool:
    nearest = round(x)
    if nearest > 0:
        return False
    return abs(x - nearest) < Fraction(1, 10 ** (precision // 2))


def gamma_quotient(
    numerators: Sequence[RationalLike],
    denominators: Sequence[RationalLike],
    precision: int = 40,
):
    """Evaluate prod Gamma(num) / prod Gamma(den) by mpmath's ``gammaprod``.

    Arguments within 10^-(precision/2) of a nonpositive integer are
    rejected; all others, negative ones too, are evaluated directly.
    """
    _require_precision(precision)
    numerators = [Fraction(x) for x in numerators]
    denominators = [Fraction(x) for x in denominators]
    for x in numerators + denominators:
        if _near_nonpositive_integer(x, precision):
            raise PoleError(f"Gamma argument {x} is at or near a pole")
    with mp.workdps(precision + _GUARD):
        return mp.gammaprod(
            [_to_mpf(x) for x in numerators],
            [_to_mpf(x) for x in denominators],
        )


_REFLECTION_POINTS = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(7, 10),
)
_DUPLICATION_POINTS = (
    Fraction(1, 2),
    Fraction(1),
    Fraction(3),
    Fraction(7, 2),
)


def gamma_selftest(precision: int = 40) -> VerificationReport:
    """Reflection and duplication identities as implementation checks.

    Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x).  Duplication:
    Gamma(x) Gamma(x+1/2) = 2^(1-2x) sqrt(pi) Gamma(2x).  Every residual
    must stay below 10^-(precision-5); the duplication point x=3 also
    pins Gamma(6) against the integer factorial 120.
    """
    _require_precision(precision)
    report = VerificationReport(name="gamma-selftest")
    threshold = mp.mpf(10) ** -(precision - 5)
    half = Fraction(1, 2)
    with mp.workdps(precision + _GUARD):
        cases = [
            (
                "reflection", x,
                gamma_quotient((x, 1 - x), (), precision),
                mp.pi / mp.sin(mp.pi * _to_mpf(x)),
            )
            for x in _REFLECTION_POINTS
        ]
        cases += [
            (
                "duplication", x,
                gamma_quotient((x, x + half), (), precision),
                mp.power(2, _to_mpf(1 - 2 * x))
                * mp.sqrt(mp.pi)
                * gamma_quotient((2 * x,), (), precision),
            )
            for x in _DUPLICATION_POINTS
        ]
        cases.append((
            "duplication-factorial", Fraction(3),
            gamma_quotient((6,), (), precision), mp.mpf(120),
        ))
        for check, x, lhs, rhs in cases:
            _record_residual(
                report, (("check", check), ("x", x)), lhs, rhs,
                abs(lhs / rhs - 1), threshold, precision,
            )
    return report


def _record_residual(
    report, params, lhs, rhs, residual, threshold, precision, what="residual"
) -> None:
    if residual <= threshold:
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(
                params=params,
                lhs=mp.nstr(lhs, precision),
                rhs=mp.nstr(rhs, precision),
                note=f"{what} {mp.nstr(residual, 5)} exceeds {mp.nstr(threshold, 3)}",
            )
        )


def _term_ratio(
    uppers: Sequence[Fraction], lowers: Sequence[Fraction]
) -> Callable[[int], Fraction]:
    """The exact term quotient t_{k+1}/t_k of the pFq at unit argument."""

    def ratio(k: int) -> Fraction:
        num = math.prod(u + k for u in uppers)
        if num == 0:
            return Fraction(0)
        den = (k + 1) * math.prod(l + k for l in lowers)
        if den == 0:
            raise PoleError(f"lower parameter pole at term {k}")
        return num / den

    return ratio


def _partial_sums(ratio: Callable[[int], Fraction]):
    """The exact partial sums of t_0 = 1, t_{k+1} = ratio(k) t_k.

    Yields ``(step, total, scale)`` for k = 0, 1, ...: s_k = total/scale,
    where scale is the product of the denominators of ratio(0 .. k-1) and
    ``step`` is the numerator of ratio(k-1), 1 for k = 0, so t_k is the
    product of the steps over scale.  A zero term is summed and then ends
    the series, before any later ratio.
    """
    step = term = total = scale = 1
    for k in itertools.count():
        yield step, total, scale
        if term == 0:
            return
        quotient = ratio(k)
        step = quotient.numerator
        term *= step
        total = total * quotient.denominator + term
        scale *= quotient.denominator


def _levin_unity_sum(
    ratio: Callable[[int], Fraction],
    precision: int,
    max_terms: int,
) -> Fraction:
    """Sum a nonterminating series at unit argument by Levin u-acceleration.

    ``ratio(k)`` is the exact term quotient t_{k+1}/t_k, called once per
    term in order.  The estimate from s_0 .. s_n is Levin's u transform
    with beta = 1,

        L_n = sum_j w_j s_j/t_j / sum_j w_j/t_j,
        w_j = (-1)^j C(n, j) (j + 1)^(n - 2),  j = 0 .. n,

    computed exactly: both sums are put over the product of the steps
    through t_n, which turns them into Horner sums over the integers of
    :func:`_partial_sums`.  The sum is the first L_n, n >= 17, with
    |L_n - L_{n-1}| < 10^-(precision+5), compared by cross-multiplication;
    a zero denominator sum is never accepted.  Before n = 17 the estimate
    is unreliable, so none is formed before n = 16.
    """
    bound = 10 ** (precision + 5)
    steps, totals, scales = [], [], []
    previous = None
    # range first, so the stream takes no ratio past the budget
    stream = zip(range(max_terms), _partial_sums(ratio))
    for n, (step, total, scale) in stream:
        steps.append(step)
        totals.append(total)
        scales.append(scale)
        if n < 16:
            continue
        num = den = 0
        for j in range(n + 1):
            weight = math.comb(n, j) * (j + 1) ** (n - 2)
            if j % 2:
                weight = -weight
            num = num * steps[j] + weight * totals[j]
            den = den * steps[j] + weight * scales[j]
        if previous is not None:
            prev_num, prev_den = previous
            change = abs(num * prev_den - prev_num * den)
            if change * bound < abs(den * prev_den):
                return Fraction(num, den)
        previous = num, den
    raise TailBoundExceeded(
        f"no convergence to 1e-{precision + 5} within {max_terms} terms"
    )


def _series_check(
    name: str,
    params: tuple,
    uppers: list[Fraction],
    lowers: list[Fraction],
    margin: tuple[str, Fraction],
    closed_form: Callable[[], object],
    precision: int,
    max_terms: int,
    exact: Callable[[int], Fraction | None] | None = None,
    enders: int | None = None,
) -> VerificationReport:
    """One series at unit argument against its closed form.

    The series terminates when one of the first ``enders`` upper
    parameters (all of them by default) is a nonpositive integer; its last
    term is n, the smallest of their negatives.  Its sum over
    :func:`_partial_sums`, run to the first zero term, must then equal the
    independently computed rational sum over terms 0 .. n exactly, or
    the failure records both rationals.  Where ``exact`` is given and the
    first upper parameter is -m, m >= 0, ``exact(m)`` replaces that sum,
    and the point is skipped where it returns None.  Where a later upper
    ends the series, a lower parameter in [1-n, 0] is a pole.  Otherwise
    the lower parameters must avoid the poles, ``margin`` must be at least
    1/2, and the Levin sum must match ``closed_form()`` to
    10^-(precision/2).
    """
    params += (("precision", precision),)
    report = VerificationReport(name=name)
    ratio = _term_ratio(uppers, lowers)
    offsets = [
        zero_offset(u.numerator, u.denominator) for u in uppers[:enders]
    ]
    n = min((j for j in offsets if j is not None), default=None)
    if offsets[0] is None:
        # poles: a lower parameter hits zero before the series ends
        for l in lowers:
            if zero_offset(l.numerator, l.denominator, n) is not None:
                raise PoleError(
                    f"lower parameter {l} makes the series undefined"
                )
    if n is not None:
        if offsets[0] is not None and exact is not None:
            reference = exact(offsets[0])
        else:
            reference = pfq_unity_sum_exact(uppers, lowers, n)
        if reference is None:
            report.record_skip()
            return report
        params += (("terminating", True),)
        *_, (_, total, scale) = _partial_sums(ratio)
        value = Fraction(total, scale)
        if value == reference:
            report.record_pass()
        else:
            report.record_failure(CaseRecord(
                params=params, lhs=value, rhs=reference,
                note="terminating sum and its exact reference differ",
            ))
        return report
    text, bound = margin
    if bound < Fraction(1, 2):
        raise NonConvergent(f"margin {text} = {bound} is below 1/2")
    value = _levin_unity_sum(ratio, precision, max_terms)
    with mp.workdps(precision + _GUARD):
        value = _to_mpf(value)
        closed = closed_form()
        _record_residual(
            report, params, value, closed,
            abs(value - closed) / (abs(closed) or mp.mpf(1)),
            mp.mpf(10) ** -(precision // 2), precision, "relative error",
        )
    return report


def dixon_check(
    a: RationalLike,
    c: RationalLike,
    e: RationalLike,
    precision: int = 40,
    max_terms: int = MAX_TERMS,
) -> VerificationReport:
    """Well-poised 3F2 at unit argument against its Gamma closed form.

    Terminating instances (a a nonpositive integer) must equal the exact
    rational sum; convergent nonterminating instances need margin
    1 + a/2 - c - e >= 1/2 and match the four-over-four Gamma quotient to
    10^-(precision/2).
    """
    _require_precision(precision)
    a, c, e = map(Fraction, (a, c, e))

    def closed_form():
        return gamma_quotient(
            (1 + a / 2, 1 + a - c, 1 + a - e, 1 + a / 2 - c - e),
            (1 + a, 1 + a / 2 - c, 1 + a / 2 - e, 1 + a - c - e),
            precision,
        )

    return _series_check(
        "dixon", (("a", a), ("c", c), ("e", e)),
        [a, c, e], [1 + a - c, 1 + a - e],
        ("1 + a/2 - c - e", 1 + a / 2 - c - e),
        closed_form, precision, max_terms,
    )


def dminus_check(
    a: RationalLike,
    c: RationalLike,
    e: RationalLike,
    precision: int = 40,
    max_terms: int = MAX_TERMS,
) -> VerificationReport:
    """Contiguous 3F2 (first parameter raised) against its closed form.

    The closed form is a power of two over pi times a Gamma quotient
    times a two-term Gamma bracket.  Terminating instances (1 + a a
    nonpositive integer) are cross-checked against the exact rational
    sum; nonterminating ones need margin a/2 - c - e >= 1/2.
    """
    _require_precision(precision)
    a, c, e = map(Fraction, (a, c, e))
    half = Fraction(1, 2)

    def closed_form():
        prefactor = mp.power(2, _to_mpf(2 * a - 2 * c - 2 * e - 1)) / mp.pi
        front = gamma_quotient(
            (1 + a - c, 1 + a - e), (1 + a - 2 * c, 1 + a - 2 * e), precision
        )

        def bracket(lo, hi):
            return gamma_quotient(
                (lo, hi - c, hi - e, lo - c - e), (1 + a, 1 + a - c - e),
                precision,
            )

        first, second = (1 + a) * half, (2 + a) * half
        return prefactor * front * (
            bracket(first, second) + bracket(second, first)
        )

    return _series_check(
        "dminus", (("a", a), ("c", c), ("e", e)),
        [1 + a, c, e], [1 + a - c, 1 + a - e],
        ("a/2 - c - e", a / 2 - c - e),
        closed_form, precision, max_terms,
    )


def linear4f3_check(
    a: RationalLike,
    c: RationalLike,
    e: RationalLike,
    lam: RationalLike,
    precision: int = 40,
    max_terms: int = MAX_TERMS,
) -> VerificationReport:
    """4F3 with the (1+lam, lam) linear column against its closed form.

    The closed form is a Gamma quotient times a lam-weighted two-term
    Gamma bracket.  Terminating instances (a = -n, n >= 0) are
    cross-checked against the exact half-order evaluation, and skipped
    where the 4F3 is undefined (c or e an integer in [1-n, 0], lam one
    in [1-n, -1]); nonterminating ones need margin a/2 - c - e >= 1/2
    and lam off the nonpositive integers.
    """
    _require_precision(precision)
    a, c, e, lam = map(Fraction, (a, c, e, lam))
    if lam == 0:
        raise DegenerateLambda("linear-factor parameter must be nonzero")
    half = Fraction(1, 2)

    def exact(n: int) -> Fraction | None:
        if any(
            zero_offset(x.numerator, x.denominator, n) is not None
            for x in (c, e, lam)
        ):
            return None
        return terminating_4f3_closed_form(n, c, e, lam)

    def closed_form():
        front = gamma_quotient(
            (1 + a - c, 1 + a - e), (a, 1 + a - c - e), precision
        )
        bracket_first = gamma_quotient(
            ((1 + a) * half, (1 + a) * half - c - e),
            ((1 + a) * half - c, (1 + a) * half - e),
            precision,
        )
        bracket_second = gamma_quotient(
            (a * half, (2 + a) * half - c - e),
            ((2 + a) * half - c, (2 + a) * half - e),
            precision,
        )
        return front * (
            bracket_first / (2 * _to_mpf(lam))
            + _to_mpf((2 * lam - a) / (4 * lam)) * bracket_second
        )

    return _series_check(
        "linear4f3", (("a", a), ("c", c), ("e", e), ("lam", lam)),
        [a, c, e, 1 + lam], [1 + a - c, 1 + a - e, lam],
        ("a/2 - c - e", a / 2 - c - e),
        closed_form, precision, max_terms, exact, enders=3,
    )


# --- Gauss-Jacobi quadrature on (0, 1) ---------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for weight x^beta (1-x)^alpha on (0, 1)."""

    alpha: Fraction
    beta: Fraction
    node_count: int
    precision: int
    nodes: tuple = field(repr=False)
    weights: tuple = field(repr=False)

    def mass(self):
        """Sum of the weights: the Beta-function moment of the weight."""
        return mp.fsum(self.weights)


def jacobi_rule(
    alpha: RationalLike,
    beta: RationalLike,
    m: int,
    precision: int = 40,
) -> QuadratureRule:
    """Gauss rule for weight x^beta (1-x)^alpha on (0, 1).

    mpmath's ``gauss_quadrature`` builds the Gauss-Jacobi rule for
    (1-t)^alpha (1+t)^beta on (-1, 1) from the three-term recurrence by
    a tridiagonal QL step; x = (1 + t)/2 maps it to (0, 1), and the
    weights are scaled by 2^-(alpha+beta+1).  The rule is exact for
    polynomials of degree <= 2m - 1 against the weight, and the weights
    sum to Beta(beta+1, alpha+1).
    """
    _require_precision(precision)
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ValueError("weight exponents must exceed -1")
    if m < 1:
        raise ValueError("node count must be positive")
    with mp.workdps(precision + 25):
        try:
            points, raw_weights = mp.gauss_quadrature(
                m, "jacobi", _to_mpf(alpha), _to_mpf(beta)
            )
        except Exception as exc:
            raise RuleConstructionFailure(str(exc)) from exc
        scale = mp.power(2, -_to_mpf(alpha + beta + 1))
        nodes = []
        weights = []
        for point, raw_weight in zip(points, raw_weights):
            node = (1 + point) / 2
            weight = raw_weight * scale
            if not 0 < node < 1:
                raise RuleConstructionFailure(
                    f"node {mp.nstr(node, 10)} escaped (0, 1)"
                )
            if weight <= 0:
                raise RuleConstructionFailure(
                    f"weight {mp.nstr(weight, 10)} is not positive"
                )
            nodes.append(node)
            weights.append(weight)
    return QuadratureRule(
        alpha=alpha,
        beta=beta,
        node_count=m,
        precision=precision,
        nodes=tuple(nodes),
        weights=tuple(weights),
    )


def _integral_closed_form(which: str, n: int, lam: int) -> Fraction:
    # the closed form over pi^2: the theorem's right side over the
    # weight's power of two
    closed = rhs_value(IdentityId(which), IdentityParams(n=n, lam=lam))
    if which == "thm-a":
        return closed / 4 ** (1 + n + 2 * lam)
    return closed / 2 ** (1 + 2 * n + 4 * lam)


def integral_value(
    which: str,
    n: int,
    lam: int,
    precision: int = 40,
    m: int | None = None,
):
    """Quadrature value, closed-form value, and rule mass for one case.

    The integrand is (xy)^(lam - 1/2) (x - y)^n times a square-root
    factor; the non-polynomial parts are absorbed exactly into per-axis
    Jacobi weights, so node count m >= n/2 + 2 integrates the remaining
    polynomial exactly up to rounding.  ``which`` selects the symmetric
    weight sqrt((1-x)(1-y)) ("thm-a") or the skew weight
    sqrt((1-y)/(1-x)) ("thm-b").
    """
    if which not in INTEGRAL_FAMILIES:
        raise ValueError(f"unknown integral family {which!r}")
    if n < 0 or lam < 0:
        raise ValueError("n and lam must be nonnegative")
    _require_precision(precision)
    if m is None:
        m = n // 2 + 2
    half = Fraction(1, 2)
    beta_exp = lam - half
    if which == "thm-a":
        rule_x = jacobi_rule(half, beta_exp, m, precision)
        rule_y = rule_x
    else:
        rule_x = jacobi_rule(-half, beta_exp, m, precision)
        rule_y = jacobi_rule(half, beta_exp, m, precision)
    with mp.workdps(precision + 25):
        terms = []
        for x, wx in zip(rule_x.nodes, rule_x.weights):
            for y, wy in zip(rule_y.nodes, rule_y.weights):
                terms.append(wx * wy * (x - y) ** n)
        quadrature = mp.fsum(terms)
        closed = mp.pi ** 2 * _to_mpf(_integral_closed_form(which, n, lam))
        mass = rule_x.mass() * rule_y.mass()
    return quadrature, closed, mass


# B(1/2, b)/pi, the first Beta moment over pi, for the two (1 - x)
# exponents b - 1 the integral weights use
_FIRST_MOMENT = {Fraction(1, 2): Fraction(1), Fraction(3, 2): Fraction(1, 2)}


def _beta_moments(b: Fraction, count: int) -> list[Fraction]:
    """B(p + 1/2, b)/pi for p = 0 .. count - 1, with b = 1/2 or 3/2.

    Euler's Beta integral gives the first moment and the ratio
    B(p + 3/2, b)/B(p + 1/2, b) = (p + 1/2)/(p + 1/2 + b), so every moment
    is pi times a rational.
    """
    moments = [_FIRST_MOMENT[b]]
    for p in range(count - 1):
        shifted = p + Fraction(1, 2)
        moments.append(moments[-1] * shifted / (shifted + b))
    return moments


def _moment_sum(which: str, n: int, lam: int) -> Fraction:
    # the double integral over pi^2: (x - y)^n expanded binomially against
    # the per-axis weights x^(lam - 1/2) (1 - x)^(b - 1), one Beta moment
    # per axis and power
    half = Fraction(1, 2)
    moments_y = _beta_moments(3 * half, n + lam + 1)
    if which == "thm-a":
        moments_x = moments_y
    else:
        moments_x = _beta_moments(half, n + lam + 1)
    return sum(
        (-1) ** (n - k) * math.comb(n, k)
        * moments_x[k + lam] * moments_y[n - k + lam]
        for k in range(n + 1)
    )


def integral_check(which: str, n: int, lam: int) -> VerificationReport:
    """Compare the double integral against its closed form, exactly.

    Both sides are pi^2 times a rational: the integral as a sum of Beta
    moments, the closed form as the theorem's right side over the
    weight's power of two.  The rationals must be equal; at odd n under
    the symmetric weight both are 0.  Cases beyond the theorems' grid,
    n = 60 or lam = 12, are rejected before any work starts.
    """
    if which not in INTEGRAL_FAMILIES:
        raise ValueError(f"unknown integral family {which!r}")
    if n < 0 or lam < 0:
        raise ValueError("n and lam must be nonnegative")
    if n > INTEGRAL_N_CAP or lam > INTEGRAL_LAM_CAP:
        raise ValueError(
            f"configured caps are n <= {INTEGRAL_N_CAP}, "
            f"lam <= {INTEGRAL_LAM_CAP}"
        )
    integral = _moment_sum(which, n, lam)
    closed = _integral_closed_form(which, n, lam)
    report = VerificationReport(name=f"integral-{which}")
    if integral == closed:
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(
                params=(("which", which), ("n", n), ("lam", lam)),
                lhs=integral,
                rhs=closed,
                note="integral and closed form over pi^2 differ",
            )
        )
    return report
