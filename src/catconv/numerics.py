"""High-precision floating-point verification.

Everything exact arithmetic cannot reach lands here: Gamma-quotient
closed forms for nonterminating series at unit argument, reflection and
duplication self-tests for the Gamma implementation, and double-integral
representations evaluated by tensor Gauss-Jacobi quadrature.

Precision is always an explicit argument (decimal digits, at least 20)
and computations run in a local mpmath context with guard digits; no
function mutates ambient precision.

Nonterminating series at unit argument decay only algebraically, so the
plain partial-sum tail bound would need astronomically many terms at 40
digits.  They are summed with Levin u-acceleration instead, with the
transform's own error estimate (cross-checked between consecutive
iterations) as the stopping rule and ``max_terms`` as a hard cap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from mpmath import mp

from .exactnum import RationalLike
from .hyperseries import (
    DegenerateLambda,
    pfq_unity_sum_exact,
    terminating_4f3_closed_form,
)
from .identities import IdentityId, IdentityParams, rhs_value
from .report import CaseRecord, VerificationReport

__all__ = [
    "MIN_PRECISION",
    "PoleError",
    "NonConvergent",
    "TailBoundExceeded",
    "RuleConstructionFailure",
    "GammaQuotientSpec",
    "log_gamma",
    "gamma_quotient",
    "gamma_selftest",
    "dixon_check",
    "dminus_check",
    "linear4f3_check",
    "NUMERIC_FAMILIES",
    "QuadratureRule",
    "jacobi_rule",
    "INTEGRAL_FAMILIES",
    "integral_value",
    "integral_check",
]

MIN_PRECISION = 20
_GUARD = 15

NUMERIC_FAMILIES = ("dixon", "dminus", "linear4f3")
INTEGRAL_FAMILIES = ("thm-a", "thm-b")


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


def _as_fraction(x: RationalLike) -> Fraction:
    return Fraction(x)


def _to_mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _near_nonpositive_integer(x: Fraction, precision: int) -> bool:
    nearest = round(x)
    if nearest > 0:
        return False
    return abs(x - nearest) < Fraction(1, 10 ** (precision // 2))


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _signed_log_gamma(x: Fraction):
    # log|Gamma(x)| and the sign of Gamma(x), in the ambient context;
    # negative non-integer arguments go through the reflection identity
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at {x}")
    if x > 0:
        return mp.loggamma(_to_mpf(x)), 1
    floor = x.numerator // x.denominator
    frac = x - floor
    sin_frac = mp.sin(mp.pi * _to_mpf(frac))
    log_abs = mp.log(mp.pi) - mp.log(sin_frac) - mp.loggamma(_to_mpf(1 - x))
    sign = 1 if floor % 2 == 0 else -1
    return log_abs, sign


def log_gamma(x: RationalLike, precision: int = 40):
    """log Gamma(x) for x > 0 at the stated precision."""
    _require_precision(precision)
    x = _as_fraction(x)
    if x <= 0:
        raise ValueError("log_gamma requires a positive argument")
    with mp.workdps(precision + _GUARD):
        return mp.loggamma(_to_mpf(x))


@dataclass(frozen=True)
class GammaQuotientSpec:
    """Product of Gamma values over another, by argument lists."""

    numerators: tuple[Fraction, ...]
    denominators: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "numerators", tuple(Fraction(x) for x in self.numerators)
        )
        object.__setattr__(
            self, "denominators", tuple(Fraction(x) for x in self.denominators)
        )


def gamma_quotient(spec: GammaQuotientSpec, precision: int = 40):
    """Evaluate prod Gamma(num) / prod Gamma(den) in log space.

    Arguments within 10^-(precision/2) of a nonpositive integer are
    rejected; sign bookkeeping makes negative non-integer arguments safe.
    """
    _require_precision(precision)
    for x in spec.numerators + spec.denominators:
        if _near_nonpositive_integer(x, precision):
            raise PoleError(f"Gamma argument {x} is at or near a pole")
    with mp.workdps(precision + _GUARD):
        total = mp.mpf(0)
        sign = 1
        for x in spec.numerators:
            log_abs, s = _signed_log_gamma(x)
            total += log_abs
            sign *= s
        for x in spec.denominators:
            log_abs, s = _signed_log_gamma(x)
            total -= log_abs
            sign *= s
        return sign * mp.exp(total)


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
    with mp.workdps(precision + _GUARD):
        for x in _REFLECTION_POINTS:
            lhs = gamma_quotient(
                GammaQuotientSpec((x, 1 - x), ()), precision
            )
            rhs = mp.pi / mp.sin(mp.pi * _to_mpf(x))
            residual = abs(lhs / rhs - 1)
            _record_residual(
                report,
                (("check", "reflection"), ("x", x)),
                lhs,
                rhs,
                residual,
                threshold,
                precision,
            )
        for x in _DUPLICATION_POINTS:
            lhs = gamma_quotient(
                GammaQuotientSpec((x, x + Fraction(1, 2)), ()), precision
            )
            rhs = (
                mp.power(2, _to_mpf(1 - 2 * x))
                * mp.sqrt(mp.pi)
                * gamma_quotient(GammaQuotientSpec((2 * x,), ()), precision)
            )
            residual = abs(lhs / rhs - 1)
            _record_residual(
                report,
                (("check", "duplication"), ("x", x)),
                lhs,
                rhs,
                residual,
                threshold,
                precision,
            )
        gamma_six = gamma_quotient(GammaQuotientSpec((Fraction(6),), ()), precision)
        residual = abs(gamma_six / 120 - 1)
        _record_residual(
            report,
            (("check", "duplication-factorial"), ("x", Fraction(3))),
            gamma_six,
            mp.mpf(120),
            residual,
            threshold,
            precision,
        )
    return report


def _record_residual(
    report, params, lhs, rhs, residual, threshold, precision
) -> None:
    if residual <= threshold:
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(
                params=params,
                lhs=mp.nstr(lhs, precision),
                rhs=mp.nstr(rhs, precision),
                note=f"residual {mp.nstr(residual, 5)} exceeds {mp.nstr(threshold, 3)}",
            )
        )


def _levin_unity_sum(
    ratio: Callable[[int], Fraction],
    precision: int,
    max_terms: int,
):
    """Sum a series at unit argument by Levin u-acceleration.

    ``ratio(k)`` is the exact term quotient t_{k+1}/t_k.  Works at double
    the target precision; stops once the transform's error estimate and
    the change between consecutive extrapolations both fall below
    10^-(precision+5), never before 17 terms (the estimate is unreliable
    early on).
    """
    target = mp.mpf(10) ** -(precision + 5)
    with mp.workdps(2 * precision + _GUARD):
        transform = mp.levin(method="levin", variant="u")
        partial_sums = []
        term = mp.mpf(1)
        total = mp.mpf(0)
        previous = None
        for k in range(max_terms):
            total += term
            partial_sums.append(total)
            value, err = transform.update_psum(partial_sums)
            if (
                k > 16
                and err < target
                and previous is not None
                and abs(value - previous) <= target * (1 + abs(value))
            ):
                return +value
            previous = value
            step = ratio(k)
            term = term * _to_mpf(step)
        raise TailBoundExceeded(
            f"no convergence to {mp.nstr(target, 3)} within {max_terms} terms"
        )


def _finite_sum_mpf(
    uppers: Sequence[Fraction],
    lowers: Sequence[Fraction],
    last_index: int,
):
    # floating replica of pfq_unity_sum_exact, in the ambient context
    term = mp.mpf(1)
    total = mp.mpf(0)
    for k in range(last_index + 1):
        total += term
        if k == last_index:
            break
        num = Fraction(1)
        for u in uppers:
            num *= u + k
        if num == 0:
            break
        den = Fraction(k + 1)
        for l in lowers:
            den *= l + k
        if den == 0:
            raise PoleError(f"lower parameter pole at term {k}")
        term = term * _to_mpf(num / den)
    return total


def _check_lower_parameters(lowers: Sequence[Fraction]) -> None:
    for l in lowers:
        if _is_nonpositive_integer(l):
            raise PoleError(
                f"lower parameter {l} makes the series undefined"
            )


def _series_report(
    name: str,
    params: tuple,
    value,
    closed,
    tolerance,
    precision: int,
) -> VerificationReport:
    report = VerificationReport(name=name)
    scale = abs(closed) if closed != 0 else mp.mpf(1)
    residual = abs(value - closed) / scale
    if residual <= tolerance:
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(
                params=params,
                lhs=mp.nstr(value, precision),
                rhs=mp.nstr(closed, precision),
                note=f"relative error {mp.nstr(residual, 5)} exceeds {mp.nstr(tolerance, 3)}",
            )
        )
    return report


def dixon_check(
    a: RationalLike,
    c: RationalLike,
    e: RationalLike,
    precision: int = 40,
    max_terms: int = 100000,
) -> VerificationReport:
    """Well-poised 3F2 at unit argument against its Gamma closed form.

    Terminating instances (a a nonpositive integer) are cross-checked
    against the exact rational sum at 10^-(precision-5); convergent
    nonterminating instances need margin 1 + a/2 - c - e >= 1/2 and match
    the four-over-four Gamma quotient to 10^-(precision/2).
    """
    _require_precision(precision)
    a, c, e = map(_as_fraction, (a, c, e))
    params = (("a", a), ("c", c), ("e", e), ("precision", precision))
    lowers = [1 + a - c, 1 + a - e]
    if _is_nonpositive_integer(a):
        n = -int(a)
        exact = pfq_unity_sum_exact([a, c, e], lowers, n)
        with mp.workdps(precision + _GUARD):
            value = _finite_sum_mpf([a, c, e], lowers, n)
            closed = _to_mpf(exact)
            tol = mp.mpf(10) ** -(precision - 5)
            return _series_report(
                "dixon", params + (("terminating", True),),
                value, closed, tol, precision,
            )
    _check_lower_parameters(lowers)
    margin = 1 + a / 2 - c - e
    if margin < Fraction(1, 2):
        raise NonConvergent(
            f"margin 1 + a/2 - c - e = {margin} is below 1/2"
        )

    def ratio(k: int) -> Fraction:
        return ((a + k) * (c + k) * (e + k)) / (
            (lowers[0] + k) * (lowers[1] + k) * (1 + k)
        )

    value = _levin_unity_sum(ratio, precision, max_terms)
    closed = gamma_quotient(
        GammaQuotientSpec(
            (1 + a / 2, 1 + a - c, 1 + a - e, 1 + a / 2 - c - e),
            (1 + a, 1 + a / 2 - c, 1 + a / 2 - e, 1 + a - c - e),
        ),
        precision,
    )
    with mp.workdps(precision + _GUARD):
        tol = mp.mpf(10) ** -(precision // 2)
        return _series_report("dixon", params, value, closed, tol, precision)


def dminus_check(
    a: RationalLike,
    c: RationalLike,
    e: RationalLike,
    precision: int = 40,
    max_terms: int = 100000,
) -> VerificationReport:
    """Contiguous 3F2 (first parameter raised) against its closed form.

    The closed form is a power of two over pi times a Gamma quotient
    times a two-term Gamma bracket.  Terminating instances (1 + a a
    nonpositive integer) are cross-checked against the exact rational
    sum; nonterminating ones need margin a/2 - c - e >= 1/2.
    """
    _require_precision(precision)
    a, c, e = map(_as_fraction, (a, c, e))
    params = (("a", a), ("c", c), ("e", e), ("precision", precision))
    uppers = [1 + a, c, e]
    lowers = [1 + a - c, 1 + a - e]
    if _is_nonpositive_integer(1 + a):
        n = -int(1 + a)
        exact = pfq_unity_sum_exact(uppers, lowers, n)
        with mp.workdps(precision + _GUARD):
            value = _finite_sum_mpf(uppers, lowers, n)
            closed = _to_mpf(exact)
            tol = mp.mpf(10) ** -(precision - 5)
            return _series_report(
                "dminus", params + (("terminating", True),),
                value, closed, tol, precision,
            )
    _check_lower_parameters(lowers)
    margin = a / 2 - c - e
    if margin < Fraction(1, 2):
        raise NonConvergent(f"margin a/2 - c - e = {margin} is below 1/2")

    def ratio(k: int) -> Fraction:
        return ((1 + a + k) * (c + k) * (e + k)) / (
            (lowers[0] + k) * (lowers[1] + k) * (1 + k)
        )

    value = _levin_unity_sum(ratio, precision, max_terms)
    half = Fraction(1, 2)
    with mp.workdps(precision + _GUARD):
        prefactor = mp.power(2, _to_mpf(2 * a - 2 * c - 2 * e - 1)) / mp.pi
    front = gamma_quotient(
        GammaQuotientSpec(
            (1 + a - c, 1 + a - e), (1 + a - 2 * c, 1 + a - 2 * e)
        ),
        precision,
    )
    bracket_first = gamma_quotient(
        GammaQuotientSpec(
            (
                (1 + a) * half,
                (2 + a) * half - c,
                (2 + a) * half - e,
                (1 + a) * half - c - e,
            ),
            (1 + a, 1 + a - c - e),
        ),
        precision,
    )
    bracket_second = gamma_quotient(
        GammaQuotientSpec(
            (
                (2 + a) * half,
                (1 + a) * half - c,
                (1 + a) * half - e,
                (2 + a) * half - c - e,
            ),
            (1 + a, 1 + a - c - e),
        ),
        precision,
    )
    with mp.workdps(precision + _GUARD):
        closed = prefactor * front * (bracket_first + bracket_second)
        tol = mp.mpf(10) ** -(precision // 2)
        return _series_report("dminus", params, value, closed, tol, precision)


def linear4f3_check(
    a: RationalLike,
    c: RationalLike,
    e: RationalLike,
    lam: RationalLike,
    precision: int = 40,
    max_terms: int = 100000,
) -> VerificationReport:
    """4F3 with the (1+lam, lam) linear column against its closed form.

    The closed form is a Gamma quotient times a lam-weighted two-term
    Gamma bracket.  Terminating instances (a a nonpositive integer) are
    cross-checked against the exact half-order evaluation; nonterminating
    ones need margin a/2 - c - e >= 1/2 and lam off the nonpositive
    integers.
    """
    _require_precision(precision)
    a, c, e, lam = map(_as_fraction, (a, c, e, lam))
    if lam == 0:
        raise DegenerateLambda("linear-factor parameter must be nonzero")
    params = (
        ("a", a), ("c", c), ("e", e), ("lam", lam), ("precision", precision)
    )
    uppers = [a, c, e, 1 + lam]
    lowers = [1 + a - c, 1 + a - e, lam]
    if _is_nonpositive_integer(a):
        n = -int(a)
        exact = terminating_4f3_closed_form(n, c, e, lam)
        with mp.workdps(precision + _GUARD):
            value = _finite_sum_mpf(uppers, lowers, n)
            closed = _to_mpf(exact)
            tol = mp.mpf(10) ** -(precision - 5)
            return _series_report(
                "linear4f3", params + (("terminating", True),),
                value, closed, tol, precision,
            )
    _check_lower_parameters(lowers)
    margin = a / 2 - c - e
    if margin < Fraction(1, 2):
        raise NonConvergent(f"margin a/2 - c - e = {margin} is below 1/2")

    def ratio(k: int) -> Fraction:
        return ((a + k) * (c + k) * (e + k) * (1 + lam + k)) / (
            (lowers[0] + k) * (lowers[1] + k) * (lam + k) * (1 + k)
        )

    value = _levin_unity_sum(ratio, precision, max_terms)
    half = Fraction(1, 2)
    front = gamma_quotient(
        GammaQuotientSpec((1 + a - c, 1 + a - e), (a, 1 + a - c - e)),
        precision,
    )
    bracket_first = gamma_quotient(
        GammaQuotientSpec(
            ((1 + a) * half, (1 + a) * half - c - e),
            ((1 + a) * half - c, (1 + a) * half - e),
        ),
        precision,
    )
    bracket_second = gamma_quotient(
        GammaQuotientSpec(
            (a * half, (2 + a) * half - c - e),
            ((2 + a) * half - c, (2 + a) * half - e),
        ),
        precision,
    )
    with mp.workdps(precision + _GUARD):
        closed = front * (
            bracket_first / (2 * _to_mpf(lam))
            + _to_mpf((2 * lam - a) / (4 * lam)) * bracket_second
        )
        tol = mp.mpf(10) ** -(precision // 2)
        return _series_report(
            "linear4f3", params, value, closed, tol, precision
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


def _jacobi_recurrence(alpha: Fraction, beta: Fraction, m: int):
    # monic three-term recurrence for the (-1, 1) Jacobi weight
    # (1-t)^alpha (1+t)^beta; exact rational coefficients
    ab = alpha + beta
    diag = [Fraction(beta - alpha, 1) / (ab + 2)]
    for k in range(1, m):
        diag.append(
            (beta * beta - alpha * alpha)
            / ((2 * k + ab) * (2 * k + ab + 2))
        )
    offdiag_sq = []
    if m > 1:
        # cancelled form of the k=1 coefficient, finite at ab = -1
        offdiag_sq.append(
            4 * (1 + alpha) * (1 + beta) / ((2 + ab) ** 2 * (3 + ab))
        )
    for k in range(2, m):
        offdiag_sq.append(
            4 * k * (k + alpha) * (k + beta) * (k + ab)
            / ((2 * k + ab) ** 2 * ((2 * k + ab) ** 2 - 1))
        )
    return diag, offdiag_sq


def jacobi_rule(
    alpha: RationalLike,
    beta: RationalLike,
    m: int,
    precision: int = 40,
) -> QuadratureRule:
    """Gauss rule for weight x^beta (1-x)^alpha on (0, 1).

    Built by symmetric tridiagonal eigendecomposition of the recurrence
    matrix; exact for polynomials of degree <= 2m - 1 against the weight,
    and the weights sum to Beta(beta+1, alpha+1).
    """
    _require_precision(precision)
    alpha = _as_fraction(alpha)
    beta = _as_fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ValueError("weight exponents must exceed -1")
    if m < 1:
        raise ValueError("node count must be positive")
    return _jacobi_rule(alpha, beta, m, precision)


# A rule is frozen with tuple nodes and weights, so callers may share it.
# The integral grids ask for few distinct rules: m = n//2 + 2 repeats
# across n, and thm-a's rule is thm-b's second axis.  The size is fixed
# so that memory does not grow with the grid.
@functools.lru_cache(maxsize=128)
def _jacobi_rule(
    alpha: Fraction, beta: Fraction, m: int, precision: int
) -> QuadratureRule:
    diag, offdiag_sq = _jacobi_recurrence(alpha, beta, m)
    with mp.workdps(precision + 25):
        matrix = mp.zeros(m, m)
        for i in range(m):
            matrix[i, i] = _to_mpf(diag[i])
        for i, b in enumerate(offdiag_sq):
            root = mp.sqrt(_to_mpf(b))
            matrix[i, i + 1] = root
            matrix[i + 1, i] = root
        try:
            eigenvalues, eigenvectors = mp.eigsy(matrix)
        except Exception as exc:
            raise RuleConstructionFailure(str(exc)) from exc
        moment = mp.beta(_to_mpf(beta + 1), _to_mpf(alpha + 1))
        nodes = []
        weights = []
        for i in range(m):
            node = (1 + eigenvalues[i]) / 2
            weight = moment * eigenvectors[0, i] ** 2
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


def integral_check(
    which: str,
    n: int,
    lam: int,
    precision: int = 40,
    m: int | None = None,
    n_cap: int = 12,
    lam_cap: int = 6,
) -> VerificationReport:
    """Compare the double integral against its closed form.

    Nonzero closed forms must match to relative 10^-(precision-8); cases
    whose closed form is exactly zero (odd n under the symmetric weight)
    must come out below 10^-(precision-8) of the rule's total mass.
    """
    if n > n_cap or lam > lam_cap:
        raise ValueError(
            f"configured caps are n <= {n_cap}, lam <= {lam_cap}"
        )
    quadrature, closed, mass = integral_value(which, n, lam, precision, m)
    report = VerificationReport(name=f"integral-{which}")
    params = (
        ("which", which),
        ("n", n),
        ("lam", lam),
        ("m", m if m is not None else n // 2 + 2),
        ("precision", precision),
    )
    with mp.workdps(precision + 25):
        tolerance = mp.mpf(10) ** -(precision - 8)
        if closed == 0:
            ok = abs(quadrature) <= tolerance * mass
            note = (
                f"|integral| {mp.nstr(abs(quadrature), 5)} against "
                f"zero closed form, mass {mp.nstr(mass, 5)}"
            )
        else:
            residual = abs(quadrature - closed) / abs(closed)
            ok = residual <= tolerance
            note = f"relative error {mp.nstr(residual, 5)}"
        if ok:
            report.record_pass()
        else:
            report.record_failure(
                CaseRecord(
                    params=params,
                    lhs=mp.nstr(quadrature, precision),
                    rhs=mp.nstr(closed, precision),
                    note=note,
                )
            )
    return report
