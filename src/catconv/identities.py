"""Catalog of alternating convolution identities.

Each catalog entry pairs an independent brute-force summation (the left
side, summed term by term with no reference to any closed form) with a
closed-form evaluator (the right side, transcribed as stated).  Both are
exact rationals, so verification is literal equality.

The rational-valued sums run on integers: the summands are brought to
one common denominator, added with alternating signs, and one
``Fraction`` is built from the total.  Binomials come from
``math.comb``, and a rational parameter's rising factorials from an
integer row with ``(x)_k = row[k] / q**k`` over one shared ``q``, whose
powers cancel in the balanced quotients of the propositions.  Where the
sum is a binomial convolution ``sum (-1)^k C(n,k) x_k y_{n-k}``, the
common denominator needs no lcm over the point's terms:

- thm-e: ``x`` depends only on lam and ``y`` only on mu.  Each is an
  integer row over the lcm of its own denominators, built once per
  (parameter, n) and kept, like the Pascal row ``C(n, .)``, in a cache
  of fixed size; a point multiplies the two row denominators.
- prop-a/b/c: a rising row divides its last entry, so every term's
  denominator divides the product of the two lower rows' entries at
  index n, and each term reaches it by exact division.

The corollaries bring their terms to the lcm of the denominators.
Adding ``Fraction`` values instead pays a gcd on ever larger operands at
every step; here the only gcd of a thm-e or proposition sum is the final
reduction's.

One catalogued closed form (``cor-2``) is known to disagree with the
oracle sum by the factor ``(1+2*lam+2*n)/(1+lam+n)``; its mismatches are
recorded as flagged discrepancies (with both exact values) and the
corrected denominator variant is validated alongside.  Nothing is
silently patched.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

from .exactnum import RationalLike, binomial, catalan, chi, pochhammer
from .hyperseries import DEFAULT_RATIONAL_GRID
from .report import CaseRecord, VerificationReport

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "IdentityId",
    "IdentityParams",
    "ARITY",
    "DomainError",
    "validate",
    "lhs_value",
    "rhs_value",
    "cor2_rhs_corrected",
    "verify_case",
    "verify_grid",
    "case_points",
    "capture_case",
    "map_points",
    "usable_workers",
    "dictionary_check",
    "specialization_check",
    "specialization_findings",
    "VALIDATED_SPECIALIZATIONS",
    "PRINTED_SPECIALIZATIONS",
    "CHI_BEARING",
    "INTEGER_VALUED",
]


class IdentityId(enum.Enum):
    RECURRENCE = "recurrence"
    TOUCHARD = "touchard"
    MIKIC1 = "mikic-1"
    MIKIC2 = "mikic-2"
    THM_A = "thm-a"
    THM_B = "thm-b"
    THM_C = "thm-c"
    THM_D = "thm-d"
    THM_E = "thm-e"
    PROP_A = "prop-a"
    PROP_B = "prop-b"
    PROP_C = "prop-c"
    COR_1 = "cor-1"
    COR_2 = "cor-2"
    COR_3 = "cor-3"
    COR_4 = "cor-4"


# parameter names each identity reads, in reporting order
ARITY: dict[IdentityId, tuple[str, ...]] = {
    IdentityId.RECURRENCE: ("n",),
    IdentityId.TOUCHARD: ("n",),
    IdentityId.MIKIC1: ("n",),
    IdentityId.MIKIC2: ("n",),
    IdentityId.THM_A: ("n", "lam"),
    IdentityId.THM_B: ("n", "lam"),
    IdentityId.THM_C: ("n", "lam"),
    IdentityId.THM_D: ("n", "lam"),
    IdentityId.THM_E: ("n", "lam", "mu"),
    IdentityId.PROP_A: ("n", "a", "c"),
    IdentityId.PROP_B: ("n", "a", "c"),
    IdentityId.PROP_C: ("n", "a", "c"),
    IdentityId.COR_1: ("n", "lam"),
    IdentityId.COR_2: ("n", "lam"),
    IdentityId.COR_3: ("n", "lam"),
    IdentityId.COR_4: ("n", "lam"),
}

# identities whose right side carries the even-index indicator; their sums
# vanish identically for odd n
CHI_BEARING = (
    IdentityId.MIKIC1,
    IdentityId.THM_A,
    IdentityId.THM_C,
    IdentityId.THM_E,
    IdentityId.PROP_A,
    IdentityId.PROP_B,
    IdentityId.COR_1,
    IdentityId.COR_3,
)

# sums that take integer values on their whole valid domain
INTEGER_VALUED = (
    IdentityId.THM_A,
    IdentityId.THM_B,
    IdentityId.THM_C,
    IdentityId.THM_D,
)


class DomainError(ValueError):
    """A parameter combination the identity's statement does not cover."""


@dataclass(frozen=True)
class IdentityParams:
    n: int
    lam: int | None = None
    mu: int | None = None
    a: Fraction | None = None
    c: Fraction | None = None

    def __post_init__(self):
        if self.a is not None:
            object.__setattr__(self, "a", Fraction(self.a))
        if self.c is not None:
            object.__setattr__(self, "c", Fraction(self.c))

    def items_for(self, ident: IdentityId) -> tuple[tuple[str, object], ...]:
        return tuple((name, getattr(self, name)) for name in ARITY[ident])


def _nonpos_int_hit(x: Fraction, span: int) -> bool:
    # does x + j == 0 for some 0 <= j < span?
    return x.denominator == 1 and 0 >= x.numerator > -span


def validate(ident: IdentityId, p: IdentityParams) -> None:
    """Raise DomainError when the statement does not cover the parameters."""
    if p.n < 0:
        raise DomainError("n must be nonnegative")
    for name in ARITY[ident]:
        if getattr(p, name) is None:
            raise DomainError(f"{ident.value} requires parameter {name}")
    for name in ("lam", "mu"):
        if name in ARITY[ident] and getattr(p, name) < 0:
            raise DomainError(f"{name} must be nonnegative")
    n = p.n
    if ident is IdentityId.THM_D:
        # the stated right side contains lam!/(n)_lam, undefined at n=0
        # for positive lam; n=0 is covered only at lam=0
        if n == 0 and p.lam > 0:
            raise DomainError("thm-d right side is undefined at n=0 with lam>0")
    if ident is IdentityId.PROP_A:
        if _nonpos_int_hit(p.c, n):
            raise DomainError("prop-a requires (c)_k nonzero through k=n")
    if ident is IdentityId.PROP_B:
        if _nonpos_int_hit(2 * p.a, n):
            raise DomainError("prop-b requires (2a)_k nonzero through k=n")
        if _nonpos_int_hit(2 * p.c, n):
            raise DomainError("prop-b requires (2c)_k nonzero through k=n")
        if _nonpos_int_hit(p.a + p.c, n // 2):
            raise DomainError("prop-b requires (a+c)_h nonzero")
    if ident is IdentityId.PROP_C:
        if _nonpos_int_hit(p.c, n):
            raise DomainError("prop-c requires (c)_k nonzero through k=n")
        if _nonpos_int_hit(p.c - 1, n + 1):
            raise DomainError("prop-c requires (c-1)_k nonzero through k=n+1")
    # cor-2 case branches divide by 1-n (even) and 2-n (odd); the points
    # where those vanish have the opposite parity, so no guard is needed


# --- left sides: brute-force sums -------------------------------------

def _lhs_recurrence(p: IdentityParams) -> Fraction:
    n = p.n
    return Fraction(sum(catalan(k) * catalan(n - k) for k in range(n + 1)))


def _lhs_touchard(p: IdentityParams) -> Fraction:
    n = p.n
    total = 0
    for k in range(n // 2 + 1):
        total += 2 ** (n - 2 * k) * binomial(n, 2 * k) * catalan(k)
    return Fraction(total)


def _lhs_mikic1(p: IdentityParams) -> Fraction:
    n = p.n
    total = 0
    for k in range(n + 1):
        term = binomial(n, k) * catalan(k) * catalan(n - k)
        total += -term if k % 2 else term
    return Fraction(total)


def _lhs_mikic2(p: IdentityParams) -> Fraction:
    n = p.n
    total = 0
    for k in range(n + 1):
        term = binomial(n, k) * binomial(2 * n - 2 * k, n - k) * catalan(k)
        total += -term if k % 2 else term
    return Fraction(total)


def _lhs_thm_a(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    total = 0
    for k in range(n + 1):
        term = binomial(n, k) * catalan(k + lam) * catalan(n - k + lam)
        total += -term if k % 2 else term
    return Fraction(total)


def _lhs_thm_b(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    total = 0
    for k in range(n + 1):
        term = (
            binomial(n, k)
            * binomial(2 * (n - k) + 2 * lam, n - k + lam)
            * catalan(k + lam)
        )
        total += -term if k % 2 else term
    return Fraction(total)


def _lhs_thm_c(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    total = 0
    for k in range(n + 1):
        term = (
            binomial(n, k)
            * binomial(2 * k + 2 * lam, k + lam)
            * binomial(2 * (n - k) + 2 * lam, n - k + lam)
        )
        total += -term if k % 2 else term
    return Fraction(total)


def _lhs_thm_d(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    total = 0
    for k in range(n + 1):
        term = (
            binomial(n, k)
            * binomial(2 * k + 2 * lam, k + lam)
            * binomial(2 * (n - k) + 2 * lam, n - k + lam)
            * (n - k + lam)
        )
        total += -term if k % 2 else term
    return Fraction(total)


def _rising_rows(params: Sequence[Fraction], n: int) -> list[list[int]]:
    # integer rows with (x)_k = row[k] / q**k for every x, over one shared
    # q = lcm of the denominators, so a balanced quotient loses its q's
    q = math.lcm(*(x.denominator for x in params))
    rows = []
    for x in params:
        start = x.numerator * (q // x.denominator)
        row = [1]
        for j in range(n):
            row.append(row[-1] * (start + j * q))
        rows.append(row)
    return rows


def _alternating_sum(
    nums: Sequence[int], dens: Sequence[int], scale: int = 1
) -> Fraction:
    # scale * sum_k (-1)^k nums[k] / dens[k], over one lcm
    lcm = math.lcm(*dens)
    total = 0
    for k, (num, den) in enumerate(zip(nums, dens)):
        term = num * (lcm // den)
        total += -term if k % 2 else term
    return Fraction(scale * total, lcm)


def _central_row(n: int, lam: int) -> list[int]:
    # binomial(2j + 2lam, j + lam) for j = 0 .. n
    return [math.comb(2 * j + 2 * lam, j + lam) for j in range(n + 1)]


# The caches below hold a fixed number of rows whatever the grid, so
# memory does not grow with the parameter range.  The grids loop over n
# outermost, so a few Pascal rows suffice, and a thm-e grid row needs one
# entry per distinct lam or mu: up to 32 of them stay cached.
@functools.lru_cache(maxsize=8)
def _pascal_row(n: int) -> tuple[int, ...]:
    return tuple(math.comb(n, k) for k in range(n + 1))


@functools.lru_cache(maxsize=32)
def _thm_e_row(lam: int, n: int) -> tuple[int, tuple[int, ...]]:
    # binomial(2k + 2lam, k + lam) / binomial(k + 2lam, lam) for
    # k = 0 .. n, as (den, numerators) over the lcm of the row
    dens = [math.comb(k + 2 * lam, lam) for k in range(n + 1)]
    den = math.lcm(*dens)
    central = _central_row(n, lam)
    return den, tuple(c * (den // d) for c, d in zip(central, dens))


def _convolution(x: Sequence[int], y: Sequence[int], den: int) -> Fraction:
    # sum_k (-1)^k binomial(n, k) x[k] y[n - k] / den, n = len(x) - 1
    n = len(x) - 1
    total = 0
    for k, b in enumerate(_pascal_row(n)):
        term = b * x[k] * y[n - k]
        total += -term if k % 2 else term
    return Fraction(total, den)


def _lhs_thm_e(p: IdentityParams) -> Fraction:
    den_lam, x = _thm_e_row(p.lam, p.n)
    den_mu, y = _thm_e_row(p.mu, p.n)
    return _convolution(x, y, den_lam * den_mu)


def _over_top(upper: list[int], lower: list[int]) -> list[int]:
    # upper[k] * lower[-1] / lower[k]: a rising row divides its last
    # entry, so every quotient is exact; lower[-1] is nonzero wherever
    # validate admits the point
    top = lower[-1]
    return [u * (top // d) for u, d in zip(upper, lower)]


def _lhs_prop_a(p: IdentityParams) -> Fraction:
    pa, pc = _rising_rows((p.a, p.c), p.n)
    x = _over_top(pa, pc)
    return _convolution(x, x, pc[-1] ** 2)


def _lhs_prop_b(p: IdentityParams) -> Fraction:
    pa, pc, p2a, p2c = _rising_rows((p.a, p.c, 2 * p.a, 2 * p.c), p.n)
    return _convolution(
        _over_top(pa, p2a), _over_top(pc, p2c), p2a[-1] * p2c[-1]
    )


def _lhs_prop_c(p: IdentityParams) -> Fraction:
    pa, pc, pcm = _rising_rows((p.a, p.c, p.c - 1), p.n)
    return _convolution(
        _over_top(pa, pc), _over_top(pa, pcm), pc[-1] * pcm[-1]
    )


def _lhs_cor_1(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    return _alternating_sum(
        [math.comb(n, k) for k in range(n + 1)],
        [catalan(k + lam) * catalan(n - k + lam) for k in range(n + 1)],
        (n - 1) * (n - 3) * catalan(lam) ** 2,
    )


def _lhs_cor_2(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    return _alternating_sum(
        [math.comb(n, k) for k in range(n + 1)],
        [
            math.comb(1 + 2 * k + 2 * lam, k + lam) * catalan(n - k + lam)
            for k in range(n + 1)
        ],
        n * math.comb(1 + 2 * lam, lam) * catalan(lam),
    )


def _lhs_cor_3(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    central = _central_row(n, lam)
    return _alternating_sum(
        [math.comb(n, k) for k in range(n + 1)],
        [central[k] * central[n - k] for k in range(n + 1)],
        (1 - n) * math.comb(2 * lam, lam) ** 2,
    )


def _lhs_cor_4(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    central = _central_row(n, lam)
    return _alternating_sum(
        [math.comb(n, k) for k in range(n + 1)],
        [
            (1 + 2 * k + 2 * lam) * central[k] * central[n - k]
            for k in range(n + 1)
        ],
        n * (1 + 2 * lam) * (1 + 2 * n + 2 * lam) * math.comb(2 * lam, lam) ** 2,
    )


# --- right sides: closed forms as catalogued ---------------------------

def _rhs_recurrence(p: IdentityParams) -> Fraction:
    return Fraction(catalan(p.n + 1))


_rhs_touchard = _rhs_recurrence


def _rhs_mikic1(p: IdentityParams) -> Fraction:
    n = p.n
    h = n // 2
    return Fraction(2 * chi(n % 2 == 0) * binomial(n, h) ** 2, n + 2)


def _rhs_mikic2(p: IdentityParams) -> Fraction:
    h = p.n // 2
    return Fraction(binomial(p.n, h) ** 2)


def _rhs_thm_a(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        math.factorial(lam)
        * chi(n % 2 == 0)
        * binomial(2 * lam, lam)
        * binomial(n, h)
        * catalan(lam + h)
    )
    return num / pochhammer(2 + n, lam)


def _rhs_thm_b(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        math.factorial(lam)
        * binomial(2 * lam, lam)
        * binomial(n, h)
        * binomial(n + 2 * lam, lam + h)
    )
    return num / pochhammer(2 + n, lam)


def _rhs_thm_c(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        math.factorial(lam)
        * chi(n % 2 == 0)
        * binomial(2 * lam, lam)
        * binomial(n, h)
        * binomial(2 * lam + n, lam + h)
    )
    return num / pochhammer(1 + n, lam)


def _rhs_thm_d(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    if n == 0 and lam == 0:
        # both case branches carry a factor n; the sum is 0 by inspection
        return Fraction(0)
    h = n // 2
    base = (
        math.factorial(lam)
        * binomial(n, h)
        * binomial(2 * lam, lam)
        * binomial(2 * lam + n, lam + h)
        / pochhammer(n, lam)
    )
    if n % 2 == 0:
        branch = Fraction(n * (2 * lam + n), 2 * (lam + n))
    else:
        branch = Fraction((n + 1) * (2 * lam + n + 1), 2 * (lam + n))
    return base * branch


def _rhs_thm_e(p: IdentityParams) -> Fraction:
    n, lam, mu = p.n, p.lam, p.mu
    if n % 2:
        return Fraction(0)
    h = n // 2
    return Fraction(
        binomial(n, h) * binomial(n + lam + mu, h),
        binomial(lam + h, lam) * binomial(mu + h, mu),
    )


def _rhs_prop_a(p: IdentityParams) -> Fraction:
    n, a, c = p.n, p.a, p.c
    if n % 2:
        return Fraction(0)
    h = n // 2
    return (
        math.factorial(n)
        / pochhammer(c, n)
        * pochhammer(a, h)
        * pochhammer(c - a, h)
        / (math.factorial(h) * pochhammer(c, h))
    )


def _rhs_prop_b(p: IdentityParams) -> Fraction:
    n, a, c = p.n, p.a, p.c
    if n % 2:
        return Fraction(0)
    h = n // 2
    first = (
        math.factorial(n)
        * pochhammer(a + c, n)
        / (pochhammer(2 * a, n) * pochhammer(2 * c, n))
    )
    second = (
        pochhammer(a, h)
        * pochhammer(c, h)
        / (math.factorial(h) * pochhammer(a + c, h))
    )
    return first * second


def _rhs_prop_c(p: IdentityParams) -> Fraction:
    n, a, c = p.n, p.a, p.c
    h = n // 2
    base = (
        math.factorial(n)
        / pochhammer(c - 1, n + 1)
        * pochhammer(a, h)
        * pochhammer(c - a, h)
        / (math.factorial(h) * pochhammer(c, h))
    )
    if n % 2 == 0:
        branch = c + Fraction(n - 2, 2)
    else:
        branch = a + Fraction(n - 1, 2)
    return base * branch


def _rhs_cor_1(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    h = n // 2
    num = 3 * catalan(lam) * binomial(2 * lam, lam) * binomial(n, h) * chi(n % 2 == 0)
    den = (
        catalan(lam + h)
        * binomial(lam + n, lam)
        * binomial(2 * lam + 2 * n, lam + n)
    )
    return Fraction(num, den)


def _cor_2_shell(p: IdentityParams, central: int) -> Fraction:
    # everything in the cor-2 right side except the contested binomial,
    # which the caller supplies
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        (1 + n + 2 * lam)
        * catalan(lam)
        * binomial(1 + 2 * lam, lam)
        * binomial(n, h)
    )
    den = binomial(lam + n + 1, n) * central * binomial(1 + 2 * lam + n, lam + h)
    if n % 2 == 0:
        branch = Fraction(n, 1 - n)
    else:
        branch = Fraction(1 + n, 2 - n)
    return Fraction(num, den) * branch


def _rhs_cor_2(p: IdentityParams) -> Fraction:
    return _cor_2_shell(p, binomial(2 * p.lam + 2 * p.n, p.lam + p.n))


def cor2_rhs_corrected(p: IdentityParams) -> Fraction:
    """The cor-2 closed form with the corrected central binomial.

    Replacing ``binomial(2lam+2n, lam+n)`` by ``binomial(1+2lam+2n, lam+n)``
    in the denominator makes the closed form agree with the brute-force
    sum everywhere; the two differ by the factor (1+2lam+2n)/(1+lam+n).
    """
    return _cor_2_shell(p, binomial(1 + 2 * p.lam + 2 * p.n, p.lam + p.n))


def _rhs_cor_3(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    h = n // 2
    num = binomial(2 * lam, lam) ** 2 * binomial(n, h) * chi(n % 2 == 0)
    den = (
        binomial(lam + n, n)
        * binomial(2 * lam + 2 * n, lam + n)
        * binomial(2 * lam + n, lam + h)
    )
    return Fraction(num, den)


def _rhs_cor_4(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    h = n // 2
    num = (1 + 2 * lam) * binomial(2 * lam, lam) ** 2 * binomial(n, h)
    den = (
        binomial(lam + n, n)
        * binomial(2 * lam + 2 * n, lam + n)
        * binomial(2 * lam + n, lam + h)
    )
    return Fraction(num, den) * (n if n % 2 == 0 else n + 1)


_LHS: dict[IdentityId, Callable[[IdentityParams], Fraction]] = {
    IdentityId.RECURRENCE: _lhs_recurrence,
    IdentityId.TOUCHARD: _lhs_touchard,
    IdentityId.MIKIC1: _lhs_mikic1,
    IdentityId.MIKIC2: _lhs_mikic2,
    IdentityId.THM_A: _lhs_thm_a,
    IdentityId.THM_B: _lhs_thm_b,
    IdentityId.THM_C: _lhs_thm_c,
    IdentityId.THM_D: _lhs_thm_d,
    IdentityId.THM_E: _lhs_thm_e,
    IdentityId.PROP_A: _lhs_prop_a,
    IdentityId.PROP_B: _lhs_prop_b,
    IdentityId.PROP_C: _lhs_prop_c,
    IdentityId.COR_1: _lhs_cor_1,
    IdentityId.COR_2: _lhs_cor_2,
    IdentityId.COR_3: _lhs_cor_3,
    IdentityId.COR_4: _lhs_cor_4,
}

_RHS: dict[IdentityId, Callable[[IdentityParams], Fraction]] = {
    IdentityId.RECURRENCE: _rhs_recurrence,
    IdentityId.TOUCHARD: _rhs_touchard,
    IdentityId.MIKIC1: _rhs_mikic1,
    IdentityId.MIKIC2: _rhs_mikic2,
    IdentityId.THM_A: _rhs_thm_a,
    IdentityId.THM_B: _rhs_thm_b,
    IdentityId.THM_C: _rhs_thm_c,
    IdentityId.THM_D: _rhs_thm_d,
    IdentityId.THM_E: _rhs_thm_e,
    IdentityId.PROP_A: _rhs_prop_a,
    IdentityId.PROP_B: _rhs_prop_b,
    IdentityId.PROP_C: _rhs_prop_c,
    IdentityId.COR_1: _rhs_cor_1,
    IdentityId.COR_2: _rhs_cor_2,
    IdentityId.COR_3: _rhs_cor_3,
    IdentityId.COR_4: _rhs_cor_4,
}

# closed forms with a documented mismatch against the oracle, mapped to
# the evaluator for the corrected variant
PRINTED_FORM_DISCREPANCIES: dict[
    IdentityId, Callable[[IdentityParams], Fraction]
] = {
    IdentityId.COR_2: cor2_rhs_corrected,
}


def lhs_value(ident: IdentityId, p: IdentityParams) -> Fraction:
    """Brute-force sum of the identity's left side. Exact."""
    validate(ident, p)
    return _LHS[ident](p)


def rhs_value(ident: IdentityId, p: IdentityParams) -> Fraction:
    """Closed-form value of the identity's right side. Exact."""
    validate(ident, p)
    return _RHS[ident](p)


def verify_case(ident: IdentityId, p: IdentityParams) -> VerificationReport:
    """Compare both sides of one case exactly.

    A mismatch on an identity with a documented closed-form discrepancy is
    recorded as flagged when the corrected variant matches the oracle;
    any other mismatch is a failure.
    """
    validate(ident, p)
    report = VerificationReport(name=ident.value)
    lhs = _LHS[ident](p)
    rhs = _RHS[ident](p)
    if lhs == rhs:
        report.record_pass()
        return report
    params = p.items_for(ident)
    corrected = PRINTED_FORM_DISCREPANCIES.get(ident)
    if corrected is not None and lhs == corrected(p):
        report.record_flagged(
            CaseRecord(
                params=params,
                lhs=lhs,
                rhs=rhs,
                note=(
                    "catalogued closed form disagrees with the oracle sum; "
                    "the corrected central binomial matches exactly"
                ),
            )
        )
    else:
        report.record_failure(CaseRecord(params=params, lhs=lhs, rhs=rhs))
    return report


def case_points(
    ident: IdentityId,
    n_range: tuple[int, int],
    lam_range: tuple[int, int] | None = None,
    mu_range: tuple[int, int] | None = None,
    rational_grid: Sequence[RationalLike] | None = None,
    a_grid: Sequence[RationalLike] | None = None,
    c_grid: Sequence[RationalLike] | None = None,
) -> Iterator[IdentityParams]:
    """The points of :func:`verify_grid`, in its order, made lazily.

    n is the outermost axis, then lam and mu, or a and c.  A missing
    range raises at once, not on iteration.
    """
    names = ARITY[ident]
    ns = range(n_range[0], n_range[1] + 1)
    if "a" in names:
        base = tuple(Fraction(g) for g in (rational_grid or DEFAULT_RATIONAL_GRID))
        a_values = tuple(Fraction(g) for g in a_grid) if a_grid else base
        c_values = tuple(Fraction(g) for g in c_grid) if c_grid else base
        return (
            IdentityParams(n=n, a=a, c=c)
            for n, a, c in itertools.product(ns, a_values, c_values)
        )
    if ("lam" in names and lam_range is None) or (
        "mu" in names and mu_range is None
    ):
        needs = "lam and mu ranges" if "mu" in names else "a lam range"
        raise ValueError(f"{ident.value} needs {needs}")
    lams = range(lam_range[0], lam_range[1] + 1) if "lam" in names else (None,)
    mus = range(mu_range[0], mu_range[1] + 1) if "mu" in names else (None,)
    return (
        IdentityParams(n=n, lam=lam, mu=mu)
        for n, lam, mu in itertools.product(ns, lams, mus)
    )


def capture_case(
    ident: IdentityId,
    p: IdentityParams,
    check: Callable[[IdentityId, IdentityParams], VerificationReport],
) -> VerificationReport:
    """``check(ident, p)``'s report, with its exceptions captured.

    A :class:`DomainError` counts as a skip.  An ``ArithmeticError``
    becomes a failure record at ``p`` with both sides ``None`` and
    ``"<Type>: <message>"`` as the note, so one bad point does not end
    the run.
    """
    try:
        return check(ident, p)
    except DomainError:
        report = VerificationReport(name=ident.value)
        report.record_skip()
    except ArithmeticError as exc:
        report = VerificationReport(name=ident.value)
        report.record_failure(
            CaseRecord(
                params=p.items_for(ident),
                lhs=None,
                rhs=None,
                note=f"{type(exc).__name__}: {exc}",
            )
        )
    return report


def _grid_worker(ident: IdentityId, p: IdentityParams) -> VerificationReport:
    return capture_case(ident, p, verify_case)


def usable_workers(jobs: int) -> int:
    """``jobs`` lowered to the CPUs this process may run on, and at least 1.

    More workers than CPUs only adds processes, never throughput.  The
    affinity mask is used where the platform has one.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus))


def map_points(
    worker: Callable[[T], R], items: Sequence[T], jobs: int = 1
) -> Iterator[R]:
    """Yield ``worker(item)`` for every item, in order.

    With one usable worker, or at most 64 items, the items run lazily in
    this process.  Otherwise they are mapped in chunks across one process
    pool, and the results still come back in submission order.  Either
    way each result can be merged and dropped before the next arrives.
    """
    jobs = usable_workers(jobs)
    if jobs == 1 or len(items) <= 64:
        yield from map(worker, items)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(
            worker, items, chunksize=max(1, len(items) // (jobs * 8))
        )


def verify_grid(
    ident: IdentityId,
    n_range: tuple[int, int],
    lam_range: tuple[int, int] | None = None,
    mu_range: tuple[int, int] | None = None,
    rational_grid: Sequence[RationalLike] | None = None,
    jobs: int = 1,
    a_grid: Sequence[RationalLike] | None = None,
    c_grid: Sequence[RationalLike] | None = None,
) -> VerificationReport:
    """Verify an identity over the Cartesian product of parameter ranges.

    Points outside the identity's valid domain count as skipped.  The
    iteration order is fixed, so reports are reproducible; with ``jobs``
    greater than one the grid is mapped across worker processes and
    results are merged in submission order.  ``a_grid``/``c_grid``
    override ``rational_grid`` per axis for the rational-parameter
    identities.
    """
    start = time.perf_counter()
    points = list(
        case_points(
            ident, n_range, lam_range, mu_range, rational_grid, a_grid, c_grid
        )
    )
    report = VerificationReport(name=ident.value)
    for sub in map_points(functools.partial(_grid_worker, ident), points, jobs):
        report.merge(sub)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


# --- shifted-factorial / binomial dictionary ---------------------------

def dictionary_check(k_max: int = 40, lam_max: int = 12) -> VerificationReport:
    """Verify the four quotient-to-binomial conversions exactly.

    Each conversion rewrites a quotient of half-integer-shifted rising
    factorials as a ratio of central-type binomials over powers of four.
    """
    start = time.perf_counter()
    half = Fraction(1, 2)
    report = VerificationReport(name="dictionary")
    for lam in range(lam_max + 1):
        for k in range(k_max + 1):
            four_k = Fraction(4) ** k
            cases = (
                (
                    "half-over-one",
                    pochhammer(half + lam, k) / pochhammer(1 + lam, k),
                    Fraction(binomial(2 * k + 2 * lam, k + lam))
                    / (four_k * binomial(2 * lam, lam)),
                ),
                (
                    "three-half-over-one",
                    pochhammer(Fraction(3, 2) + lam, k) / pochhammer(1 + lam, k),
                    Fraction(
                        binomial(2 * k + 2 * lam, k + lam) * (1 + 2 * k + 2 * lam)
                    )
                    / (four_k * binomial(2 * lam, lam) * (1 + 2 * lam)),
                ),
                (
                    "half-over-two",
                    pochhammer(half + lam, k) / pochhammer(2 + lam, k),
                    Fraction(catalan(k + lam)) / (four_k * catalan(lam)),
                ),
                (
                    "three-half-over-two",
                    pochhammer(Fraction(3, 2) + lam, k) / pochhammer(2 + lam, k),
                    Fraction(binomial(1 + 2 * k + 2 * lam, k + lam))
                    / (four_k * binomial(1 + 2 * lam, lam)),
                ),
            )
            for tag, lhs, rhs in cases:
                if lhs == rhs:
                    report.record_pass()
                else:
                    report.record_failure(
                        CaseRecord(
                            params=(("conversion", tag), ("k", k), ("lam", lam)),
                            lhs=lhs,
                            rhs=rhs,
                        )
                    )
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


# --- theorem-to-proposition specializations ----------------------------

@dataclass(frozen=True)
class SpecializationRule:
    """How a two-parameter convolution theorem sits inside a proposition.

    ``substitution`` is the (a, c) text, such as ``("1/2+lam", "1/2+mu")``,
    that :func:`_parse_substitution` reads at each (lam, mu).  ``scale``
    multiplies the proposition's sum to recover the theorem's sum after
    substituting; the dictionary conversions above supply the factor.
    """

    theorem: IdentityId
    proposition: IdentityId
    substitution: tuple[str, str]
    scale: Callable[[int, int, int | None], Fraction]
    lam_min: int = 0


VALIDATED_SPECIALIZATIONS: dict[IdentityId, SpecializationRule] = {
    IdentityId.THM_A: SpecializationRule(
        theorem=IdentityId.THM_A,
        proposition=IdentityId.PROP_A,
        substitution=("1/2+lam", "2+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n * catalan(lam) ** 2,
    ),
    IdentityId.THM_B: SpecializationRule(
        theorem=IdentityId.THM_B,
        proposition=IdentityId.PROP_C,
        substitution=("1/2+lam", "2+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n
        * catalan(lam)
        * binomial(2 * lam, lam),
    ),
    IdentityId.THM_C: SpecializationRule(
        theorem=IdentityId.THM_C,
        proposition=IdentityId.PROP_A,
        substitution=("1/2+lam", "1+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n * binomial(2 * lam, lam) ** 2,
    ),
    IdentityId.THM_D: SpecializationRule(
        theorem=IdentityId.THM_D,
        proposition=IdentityId.PROP_C,
        substitution=("1/2+lam", "1+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n
        * binomial(2 * lam, lam) ** 2
        * lam,
        lam_min=1,
    ),
    IdentityId.THM_E: SpecializationRule(
        theorem=IdentityId.THM_E,
        proposition=IdentityId.PROP_B,
        substitution=("1/2+lam", "1/2+mu"),
        scale=lambda n, lam, mu: Fraction(4) ** n,
    ),
}

# the substitutions as stated in the source catalog, for comparison with
# the oracle-validated table above
PRINTED_SPECIALIZATIONS: dict[IdentityId, tuple[str, str]] = {
    IdentityId.THM_A: ("1/2+lam", "2+lam"),
    IdentityId.THM_B: ("1/2+lam", "2+lam"),
    IdentityId.THM_C: ("1/2+lam", "1+lam"),
    IdentityId.THM_D: ("1/2+lam", "1+mu"),
    IdentityId.THM_E: ("1/2+lam", "2+mu"),
}


def specialization_check(
    theorem: IdentityId,
    n_max: int = 20,
    lam_max: int = 8,
    mu_max: int = 6,
) -> VerificationReport:
    """Confirm a theorem is its proposition rescaled, on both sides.

    For each grid point the proposition's sum and closed form are evaluated
    at the substituted (a, c) and multiplied by the dictionary scale; both
    must equal the theorem's sum and closed form exactly.
    """
    rule = VALIDATED_SPECIALIZATIONS[theorem]
    start = time.perf_counter()
    report = VerificationReport(name=f"{theorem.value}-specialization")
    mus = range(mu_max + 1) if "mu" in ARITY[theorem] else (None,)
    for lam in range(rule.lam_min, lam_max + 1):
        for mu in mus:
            a, c = (_parse_substitution(t, lam, mu) for t in rule.substitution)
            for n in range(n_max + 1):
                thm_p = IdentityParams(n=n, lam=lam, mu=mu)
                prop_p = IdentityParams(n=n, a=a, c=c)
                try:
                    validate(theorem, thm_p)
                    validate(rule.proposition, prop_p)
                except DomainError:
                    report.record_skip()
                    continue
                scale = rule.scale(n, lam, mu)
                params = thm_p.items_for(theorem) + (
                    ("a", a),
                    ("c", c),
                )
                ok = True
                for side, get in (("lhs", lhs_value), ("rhs", rhs_value)):
                    t_val = get(theorem, thm_p)
                    p_val = get(rule.proposition, prop_p)
                    if t_val != scale * p_val:
                        ok = False
                        report.record_failure(
                            CaseRecord(
                                params=params + (("side", side),),
                                lhs=t_val,
                                rhs=scale * p_val,
                            )
                        )
                        break
                if ok:
                    report.record_pass()
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def specialization_findings() -> VerificationReport:
    """Compare the stated substitution list against the validated one.

    Mismatches are flagged findings, each with a concrete witness point
    showing that the stated substitution does not reproduce the theorem
    while the validated one does.
    """
    report = VerificationReport(name="specialization-catalog")
    for theorem, rule in VALIDATED_SPECIALIZATIONS.items():
        printed = PRINTED_SPECIALIZATIONS[theorem]
        validated = rule.substitution
        if printed == validated:
            report.record_pass()
            continue
        witness = _specialization_witness(theorem, rule, printed)
        if witness is not None:
            note = (
                "stated substitution does not reproduce the theorem; "
                "lhs is the theorem value, rhs the rescaled proposition "
                "value under the stated substitution"
            )
        else:
            note = (
                "stated substitution leaves the proposition's domain at "
                "every probed point; the validated column reproduces the "
                "theorem exactly"
            )
            if any(
                "mu" in text and "mu" not in ARITY[theorem]
                for text in printed
            ):
                note += (
                    "; the stated text also names a parameter the theorem "
                    "does not have"
                )
        report.record_flagged(
            CaseRecord(
                params=(
                    ("theorem", theorem.value),
                    ("stated_a", printed[0]),
                    ("stated_c", printed[1]),
                    ("validated_a", validated[0]),
                    ("validated_c", validated[1]),
                )
                + (witness[0] if witness else ()),
                lhs=witness[1] if witness else None,
                rhs=witness[2] if witness else None,
                note=note,
            )
        )
    return report


def _parse_substitution(text: str, lam: int, mu: int | None) -> Fraction:
    base, _, shift = text.partition("+")
    offset = lam if shift == "lam" else mu
    return Fraction(base) + offset


def _specialization_witness(
    theorem: IdentityId,
    rule: SpecializationRule,
    printed: tuple[str, str],
):
    # find a small point where the stated substitution visibly fails
    for n in (2, 4, 6):
        for lam in range(rule.lam_min, 4):
            for mu in range(0, 4) if "mu" in ARITY[theorem] else (0,):
                mu_val = mu if "mu" in ARITY[theorem] else None
                thm_p = IdentityParams(n=n, lam=lam, mu=mu_val)
                a, c = (_parse_substitution(t, lam, mu) for t in printed)
                prop_p = IdentityParams(n=n, a=a, c=c)
                try:
                    validate(theorem, thm_p)
                    validate(rule.proposition, prop_p)
                except DomainError:
                    continue
                t_val = lhs_value(theorem, thm_p)
                mapped = rule.scale(n, lam, mu_val) * lhs_value(
                    rule.proposition, prop_p
                )
                if t_val != mapped:
                    return (thm_p.items_for(theorem), t_val, mapped)
    return None
