"""Catalog of alternating convolution identities.

Each catalog entry pairs an independent brute-force summation (the left
side, summed term by term with no reference to any closed form) with a
closed form (the right side, transcribed as stated).  Both are exact
rationals, so verification is literal equality.

Everything the catalogue states about an identity is one
:class:`Identity` record in ``IDENTITIES``: its parameters, its domain
guards, its suite grid family and its closed form.  Every closed form
is a hypergeometric term, written as data: per parity of n, a table of
factorials, binomials, Catalan numbers, Pochhammer symbols and linear
factors whose arguments are affine in n, h = n // 2 and the identity's
parameters.  One evaluator turns a table into an integer numerator and
denominator and builds one ``Fraction``.  The sums share nothing with it
beyond ``math.comb`` and ``catalan``.

The sums run on integers.  The integer-valued ones (thm-a..d and
mikic-1/2) convolve a Catalan row ``catalan(j + lam)`` and a central
row ``C(2j + 2lam, j + lam)``.  The rational-valued ones bring their
summands to one common denominator, add them with alternating signs,
and build one ``Fraction`` from the total.  Binomials come from
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
recorded as flagged discrepancies (with both exact values).  The
corrected table in its record differs from the printed one in a single
factor, the central binomial of the denominator, and is validated
alongside.  Nothing is silently patched.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
import time
# Unused: every grid runs in this process.  The name stays bound, as in
# suite, because perfbench/tracer.py counts pools by rebinding it.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .exactnum import RationalLike, binomial, catalan, pochhammer, zero_offset
from .hyperseries import DEFAULT_RATIONAL_GRID
from .report import CaseRecord, VerificationReport

__all__ = [
    "IdentityId",
    "IdentityParams",
    "Identity",
    "IDENTITIES",
    "DomainError",
    "validate",
    "lhs_value",
    "rhs_value",
    "closed_form",
    "verify_grid",
    "case_points",
    "capture_case",
    "dictionary_check",
    "specialization_check",
    "specialization_findings",
    "VALIDATED_SPECIALIZATIONS",
    "CHI_BEARING",
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
        return tuple((k, getattr(self, k)) for k in IDENTITIES[ident].params)


def validate(ident: IdentityId, p: IdentityParams) -> None:
    """Raise DomainError when the statement does not cover the parameters.

    The point must carry every parameter the identity reads, n, lam and
    mu must be nonnegative, and every stated guard ``(x)_span != 0`` of
    its :class:`Identity` record must hold.
    """
    record = IDENTITIES[ident]
    if p.n < 0:
        raise DomainError("n must be nonnegative")
    for name in record.params:
        value = getattr(p, name)
        if value is None:
            raise DomainError(f"{ident.value} requires parameter {name}")
        if name in ("lam", "mu") and value < 0:
            raise DomainError(f"{name} must be nonnegative")
    q, ints, scaled = _values(p)
    for x, span in record.guards:
        top = _at(_affine(x), scaled)
        if zero_offset(top, q, _at(_affine(span), ints)) is not None:
            raise DomainError(f"{ident.value} requires ({x})_({span}) nonzero")


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


def _catalan_row(n: int, lam: int) -> list[int]:
    # catalan(j + lam) for j = 0 .. n
    return [catalan(j + lam) for j in range(n + 1)]


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


def _convolution(
    x: Sequence[int], y: Sequence[int], den: int = 1
) -> Fraction:
    # sum_k (-1)^k binomial(n, k) x[k] y[n - k] / den, n = len(x) - 1
    n = len(x) - 1
    total = 0
    for k, b in enumerate(_pascal_row(n)):
        term = b * x[k] * y[n - k]
        total += -term if k % 2 else term
    return Fraction(total, den)


def _alternating_sum(dens: Sequence[int], scale: int) -> Fraction:
    # scale * sum_k (-1)^k binomial(n, k) / dens[k], n = len(dens) - 1,
    # over one lcm
    lcm = math.lcm(*dens)
    total = 0
    for k, b in enumerate(_pascal_row(len(dens) - 1)):
        term = b * (lcm // dens[k])
        total += -term if k % 2 else term
    return Fraction(scale * total, lcm)


def _lhs_mikic1(p: IdentityParams) -> Fraction:
    row = _catalan_row(p.n, 0)
    return _convolution(row, row)


def _lhs_mikic2(p: IdentityParams) -> Fraction:
    return _convolution(_catalan_row(p.n, 0), _central_row(p.n, 0))


def _lhs_thm_a(p: IdentityParams) -> Fraction:
    row = _catalan_row(p.n, p.lam)
    return _convolution(row, row)


def _lhs_thm_b(p: IdentityParams) -> Fraction:
    return _convolution(_catalan_row(p.n, p.lam), _central_row(p.n, p.lam))


def _lhs_thm_c(p: IdentityParams) -> Fraction:
    row = _central_row(p.n, p.lam)
    return _convolution(row, row)


def _lhs_thm_d(p: IdentityParams) -> Fraction:
    row = _central_row(p.n, p.lam)
    return _convolution(row, [(j + p.lam) * c for j, c in enumerate(row)])


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
    row = _catalan_row(n, lam)
    return _alternating_sum(
        [row[k] * row[n - k] for k in range(n + 1)],
        (n - 1) * (n - 3) * catalan(lam) ** 2,
    )


def _lhs_cor_2(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    row = _catalan_row(n, lam)
    return _alternating_sum(
        [
            math.comb(1 + 2 * k + 2 * lam, k + lam) * row[n - k]
            for k in range(n + 1)
        ],
        n * math.comb(1 + 2 * lam, lam) * catalan(lam),
    )


def _lhs_cor_3(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    central = _central_row(n, lam)
    return _alternating_sum(
        [central[k] * central[n - k] for k in range(n + 1)],
        (1 - n) * math.comb(2 * lam, lam) ** 2,
    )


def _lhs_cor_4(p: IdentityParams) -> Fraction:
    n, lam = p.n, p.lam
    central = _central_row(n, lam)
    return _alternating_sum(
        [
            (1 + 2 * k + 2 * lam) * central[k] * central[n - k]
            for k in range(n + 1)
        ],
        n * (1 + 2 * lam) * (1 + 2 * n + 2 * lam) * math.comb(2 * lam, lam) ** 2,
    )


# --- the catalogue: one record per identity ----------------------------
#
# Every right side is a hypergeometric term in n.  Per parity of n it is
# a product of factors written "kind(args)", with "/" putting a factor in
# the denominator and "^e" raising it to a power:
#
#   fact(x) = x!   binom(x,y)   catalan(x)   poch(x,k) = (x)_k   lin(x) = x
#
# Each argument is affine with integer coefficients in n, h = n // 2 and
# the identity's parameters; a and c appear only in poch's x and in lin.
# An odd table of None is the even-index indicator: the right side is 0
# at odd n.

_VARS = ("n", "h", "lam", "mu", "a", "c")
_FACTOR = re.compile(
    r"(/?)(fact|binom|catalan|poch|lin)\(([^()]*)\)(?:\^(\d+))?"
)
_TERM = re.compile(r"([+-])(\d*)(n|h|lam|mu|a|c)?")

Affine = tuple[tuple[int, int], ...]
Factor = tuple[str, tuple[Affine, ...], int]
Table = tuple[Factor, ...]
Texts = tuple[str, str | None]


# The parsers below keep one entry per distinct text: the catalogue's,
# and any variant a caller builds with dataclasses.replace.
@functools.cache
def _affine(text: str) -> Affine:
    # "1+2lam-n" -> ((0, 1), (3, 2), (1, -1)): (index, coefficient) pairs
    # over the values (1, n, h, lam, mu, a, c), index 0 the constant
    terms = []
    signed = text if text.startswith(("+", "-")) else "+" + text
    for term in re.split(r"(?=[+-])", signed)[1:]:
        match = _TERM.fullmatch(term)
        if not match or not (match[2] or match[3]):
            raise ValueError(f"not an affine argument: {text!r}")
        sign, digits, name = match.groups()
        coef = -int(digits or 1) if sign == "-" else int(digits or 1)
        terms.append((_VARS.index(name) + 1 if name else 0, coef))
    return tuple(terms)


def _factor(token: str) -> Factor:
    match = _FACTOR.fullmatch(token)
    if match is None:
        raise ValueError(f"not a factor: {token!r}")
    over, kind, args, power = match.groups()
    exp = -int(power or 1) if over else int(power or 1)
    return kind, tuple(_affine(arg) for arg in args.split(",")), exp


@functools.cache
def _tables(texts: Texts) -> tuple[Table, Table | None]:
    # (even, odd) factor strings -> (even, odd) factor tuples
    return tuple(
        None if text is None else tuple(_factor(t) for t in text.split())
        for text in texts
    )


@dataclass(frozen=True)
class Identity:
    """What the catalogue states about one identity, as data.

    ``params`` are the parameters it reads, in reporting order, and
    ``family`` the prefix of the ``suite.SuiteSizes`` fields bounding its
    suite grid.  ``printed`` is the closed form as catalogued, an (even n,
    odd n) pair of factor texts, and ``corrected`` the variant the oracle
    matches where the printed one is known wrong.  A guard ``(x, span)``
    of affine texts states ``(x)_span != 0``.  Guards are stated, not read
    off the tables, so a wrong zero denominator fails, not skips.
    """

    params: tuple[str, ...]
    family: str
    printed: Texts
    guards: tuple[tuple[str, str], ...] = ()
    corrected: Texts | None = None


_N_LAM = ("n", "lam")
_THM_D = (
    "fact(lam) binom(n,h) binom(2lam,lam) binom(2lam+n,lam+h) /poch(n,lam)"
    " /lin(2) /lin(lam+n)"
)
_PROP_C = (
    "fact(n) /poch(c-1,n+1) poch(a,h) poch(c-a,h) /fact(h) /poch(c,h) /lin(2)"
)
_COR_3 = (
    "binom(2lam,lam)^2 binom(n,h)"
    " /binom(lam+n,n) /binom(2lam+2n,lam+n) /binom(2lam+n,lam+h)"
)
_COR_4 = "lin(1+2lam) " + _COR_3


def _cor_2(central: str) -> Texts:
    # cor-2 with the central binomial's row index as given; the case
    # branches divide by 1-n (even n) and 2-n (odd n), which vanish only
    # at the other parity, so the statement needs no guard
    shell = (
        "lin(1+n+2lam) catalan(lam) binom(1+2lam,lam) binom(n,h)"
        f" /binom(lam+n+1,n) /binom({central},lam+n) /binom(1+2lam+n,lam+h)"
    )
    return shell + " lin(n) /lin(1-n)", shell + " lin(1+n) /lin(2-n)"


IDENTITIES: dict[IdentityId, Identity] = {
    IdentityId.RECURRENCE: Identity(("n",), "mikic", ("catalan(n+1)",) * 2),
    IdentityId.TOUCHARD: Identity(("n",), "mikic", ("catalan(n+1)",) * 2),
    IdentityId.MIKIC1: Identity(
        ("n",), "mikic", ("lin(2) binom(n,h)^2 /lin(n+2)", None)
    ),
    IdentityId.MIKIC2: Identity(("n",), "mikic", ("binom(n,h)^2",) * 2),
    IdentityId.THM_A: Identity(_N_LAM, "thm", (
        "fact(lam) binom(2lam,lam) binom(n,h) catalan(lam+h) /poch(2+n,lam)",
        None,
    )),
    IdentityId.THM_B: Identity(_N_LAM, "thm", (
        "fact(lam) binom(2lam,lam) binom(n,h) binom(n+2lam,lam+h)"
        " /poch(2+n,lam)",
    ) * 2),
    IdentityId.THM_C: Identity(_N_LAM, "thm", (
        "fact(lam) binom(2lam,lam) binom(n,h) binom(2lam+n,lam+h)"
        " /poch(1+n,lam)",
        None,
    )),
    # lam!/(n)_lam is undefined at n = 0 for positive lam
    IdentityId.THM_D: Identity(
        _N_LAM,
        "thm",
        (_THM_D + " lin(n) lin(2lam+n)", _THM_D + " lin(n+1) lin(2lam+n+1)"),
        guards=(("n", "lam"),),
    ),
    IdentityId.THM_E: Identity(("n", "lam", "mu"), "thm", (
        "binom(n,h) binom(n+lam+mu,h) /binom(lam+h,lam) /binom(mu+h,mu)",
        None,
    )),
    IdentityId.PROP_A: Identity(
        ("n", "a", "c"),
        "prop",
        ("fact(n) /poch(c,n) poch(a,h) poch(c-a,h) /fact(h) /poch(c,h)", None),
        guards=(("c", "n"),),
    ),
    IdentityId.PROP_B: Identity(
        ("n", "a", "c"),
        "prop",
        (
            "fact(n) poch(a+c,n) /poch(2a,n) /poch(2c,n)"
            " poch(a,h) poch(c,h) /fact(h) /poch(a+c,h)",
            None,
        ),
        guards=(("2a", "n"), ("2c", "n"), ("a+c", "h")),
    ),
    # (c-1)_(n+1) != 0 also keeps (c)_n and (c)_h clear of zero
    IdentityId.PROP_C: Identity(
        ("n", "a", "c"),
        "prop",
        (_PROP_C + " lin(2c+n-2)", _PROP_C + " lin(2a+n-1)"),
        guards=(("c-1", "n+1"),),
    ),
    IdentityId.COR_1: Identity(_N_LAM, "cor", (
        "lin(3) catalan(lam) binom(2lam,lam) binom(n,h)"
        " /catalan(lam+h) /binom(lam+n,lam) /binom(2lam+2n,lam+n)",
        None,
    )),
    # cor-2 disagrees with its sum as catalogued; it agrees everywhere
    # once the central binomial's row index is raised by one
    IdentityId.COR_2: Identity(
        _N_LAM, "cor", _cor_2("2lam+2n"), corrected=_cor_2("1+2lam+2n")
    ),
    IdentityId.COR_3: Identity(_N_LAM, "cor", (_COR_3, None)),
    IdentityId.COR_4: Identity(
        _N_LAM, "cor", (_COR_4 + " lin(n)", _COR_4 + " lin(n+1)")
    ),
}

# identities whose right side carries the even-index indicator; their sums
# vanish identically for odd n
CHI_BEARING = tuple(
    ident for ident, record in IDENTITIES.items() if record.printed[1] is None
)


def _at(arg: Affine, values: tuple) -> int:
    total = 0
    for index, coef in arg:
        total += coef * values[index]
    return total


def _values(p: IdentityParams) -> tuple[int, tuple, tuple]:
    # (q, ints, scaled): (1, n, h, lam, mu) for integer arguments, and the
    # values times q, the lcm of a's and c's denominators, for rational ones
    n = p.n
    ints = (1, n, n // 2, p.lam, p.mu)
    if p.a is None or p.c is None:
        return 1, ints, ints
    a, c = p.a, p.c
    q = math.lcm(a.denominator, c.denominator)
    a_q = a.numerator * (q // a.denominator)
    c_q = c.numerator * (q // c.denominator)
    return q, ints, (q, n * q, n // 2 * q, None, None, a_q, c_q)


def _evaluate(factors: Table, p: IdentityParams) -> Fraction:
    # One integer numerator and denominator, and one Fraction at the end:
    # lin(x) is (q x) / q and poch(x, k) is q**k (x)_k / q**k.
    q, ints, scaled = _values(p)
    num = den = 1
    for kind, args, exp in factors:
        scale = 1
        if kind == "poch":
            x, k = _at(args[0], scaled), _at(args[1], ints)
            value, scale = math.prod(range(x, x + k * q, q)), q**k
        elif kind == "lin":
            value, scale = _at(args[0], scaled), q
        elif kind == "binom":
            value = math.comb(_at(args[0], ints), _at(args[1], ints))
        elif kind == "fact":
            value = math.factorial(_at(args[0], ints))
        else:
            value = catalan(_at(args[0], ints))
        if exp < 0:
            value, scale, exp = scale, value, -exp
        num *= value**exp
        den *= scale**exp
    return Fraction(num, den)


def closed_form(
    ident: IdentityId, p: IdentityParams, corrected: bool = False
) -> Fraction:
    """``ident``'s right side at ``p``, from its record's factor table.

    The printed table, or with ``corrected`` the corrected one.  Exact.
    ``p`` is not validated; :func:`rhs_value` does that.
    """
    if ident is IdentityId.THM_D and p.n == p.lam == 0:
        # both case branches carry n / (lam + n), which is 0/0 here; the
        # sum is 0 by inspection
        return Fraction(0)
    record = IDENTITIES[ident]
    texts = record.corrected if corrected else record.printed
    factors = _tables(texts)[p.n % 2]
    return Fraction(0) if factors is None else _evaluate(factors, p)


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
    ident: functools.partial(closed_form, ident) for ident in IdentityId
}


def lhs_value(ident: IdentityId, p: IdentityParams) -> Fraction:
    """Brute-force sum of the identity's left side. Exact."""
    validate(ident, p)
    return _LHS[ident](p)


def rhs_value(ident: IdentityId, p: IdentityParams) -> Fraction:
    """Closed-form value of the identity's right side. Exact."""
    validate(ident, p)
    return _RHS[ident](p)


def _record_case(
    report: VerificationReport, ident: IdentityId, p: IdentityParams
) -> None:
    # Compare both sides of one case exactly.  A mismatch on an identity
    # with a documented closed-form discrepancy is flagged when the
    # corrected variant matches the oracle; any other is a failure.
    validate(ident, p)
    lhs = _LHS[ident](p)
    rhs = _RHS[ident](p)
    if lhs == rhs:
        report.record_pass()
        return
    params = p.items_for(ident)
    if IDENTITIES[ident].corrected and lhs == closed_form(
        ident, p, corrected=True
    ):
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
    names = IDENTITIES[ident].params
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
    report: VerificationReport,
    ident: IdentityId,
    p: IdentityParams,
    check: Callable[[VerificationReport, IdentityId, IdentityParams], None],
    prefix: tuple[tuple[str, object], ...] = (),
) -> None:
    """Record ``check(report, ident, p)`` into ``report``, with its
    exceptions captured.

    A :class:`DomainError` counts as a skip.  An ``ArithmeticError``
    becomes a failure record at ``prefix`` plus ``p``'s parameters, with
    both sides ``None`` and ``"<Type>: <message>"`` as the note, so one
    bad point does not end the run.  ``check`` records nothing before it
    can raise.
    """
    try:
        check(report, ident, p)
    except DomainError:
        report.record_skip()
    except ArithmeticError as exc:
        report.record_failure(
            CaseRecord(
                params=prefix + p.items_for(ident),
                lhs=None,
                rhs=None,
                note=f"{type(exc).__name__}: {exc}",
            )
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
    points are made lazily, in :func:`case_points` order, and each one
    records into the grid's one report, so reports are reproducible.
    ``jobs`` is accepted and ignored: every grid runs in this process.
    ``a_grid``/``c_grid`` override ``rational_grid`` per axis for the
    rational-parameter identities.
    """
    start = time.perf_counter()
    points = case_points(
        ident, n_range, lam_range, mu_range, rational_grid, a_grid, c_grid
    )
    report = VerificationReport(name=ident.value)
    for p in points:
        capture_case(report, ident, p, _record_case)
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
    that :func:`_parse_substitution` reads at each (lam, mu), and
    ``printed`` the text as the source catalogue states it.  ``scale``
    multiplies the proposition's sum to recover the theorem's sum after
    substituting; the dictionary conversions above supply the factor.
    """

    proposition: IdentityId
    substitution: tuple[str, str]
    printed: tuple[str, str]
    scale: Callable[[int, int, int | None], Fraction]
    lam_min: int = 0


VALIDATED_SPECIALIZATIONS: dict[IdentityId, SpecializationRule] = {
    IdentityId.THM_A: SpecializationRule(
        proposition=IdentityId.PROP_A,
        substitution=("1/2+lam", "2+lam"),
        printed=("1/2+lam", "2+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n * catalan(lam) ** 2,
    ),
    IdentityId.THM_B: SpecializationRule(
        proposition=IdentityId.PROP_C,
        substitution=("1/2+lam", "2+lam"),
        printed=("1/2+lam", "2+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n
        * catalan(lam)
        * binomial(2 * lam, lam),
    ),
    IdentityId.THM_C: SpecializationRule(
        proposition=IdentityId.PROP_A,
        substitution=("1/2+lam", "1+lam"),
        printed=("1/2+lam", "1+lam"),
        scale=lambda n, lam, mu: Fraction(4) ** n * binomial(2 * lam, lam) ** 2,
    ),
    IdentityId.THM_D: SpecializationRule(
        proposition=IdentityId.PROP_C,
        substitution=("1/2+lam", "1+lam"),
        printed=("1/2+lam", "1+mu"),
        scale=lambda n, lam, mu: Fraction(4) ** n
        * binomial(2 * lam, lam) ** 2
        * lam,
        lam_min=1,
    ),
    IdentityId.THM_E: SpecializationRule(
        proposition=IdentityId.PROP_B,
        substitution=("1/2+lam", "1/2+mu"),
        printed=("1/2+lam", "2+mu"),
        scale=lambda n, lam, mu: Fraction(4) ** n,
    ),
}


def _record_specializations(
    report: VerificationReport,
    theorem: IdentityId,
    substitution: tuple[str, str],
    ns: Sequence[int],
    lam_max: int,
    mu_max: int,
) -> None:
    # Compare the theorem with its proposition under ``substitution`` at
    # each (n, lam, mu), n outermost: a skip where either point leaves its
    # domain, else a pass, or one failure for the first side (lhs, then
    # rhs) that differs, at the theorem's point plus a, c and the side.
    # A theorem without mu reads a stated mu as 0.
    rule = VALIDATED_SPECIALIZATIONS[theorem]
    has_mu = "mu" in IDENTITIES[theorem].params
    for n in ns:
        for lam in range(rule.lam_min, lam_max + 1):
            for mu in range(mu_max + 1) if has_mu else (0,):
                a, c = (_parse_substitution(t, lam, mu) for t in substitution)
                thm_p = IdentityParams(n=n, lam=lam, mu=mu if has_mu else None)
                prop_p = IdentityParams(n=n, a=a, c=c)
                try:
                    validate(theorem, thm_p)
                    validate(rule.proposition, prop_p)
                except DomainError:
                    report.record_skip()
                    continue
                scale = rule.scale(n, lam, thm_p.mu)
                params = thm_p.items_for(theorem) + (("a", a), ("c", c))
                for side, get in (("lhs", lhs_value), ("rhs", rhs_value)):
                    t_val = get(theorem, thm_p)
                    p_val = scale * get(rule.proposition, prop_p)
                    if t_val != p_val:
                        report.record_failure(
                            CaseRecord(
                                params=params + (("side", side),),
                                lhs=t_val,
                                rhs=p_val,
                            )
                        )
                        break
                else:
                    report.record_pass()


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
    start = time.perf_counter()
    report = VerificationReport(name=f"{theorem.value}-specialization")
    _record_specializations(
        report,
        theorem,
        VALIDATED_SPECIALIZATIONS[theorem].substitution,
        range(n_max + 1),
        lam_max,
        mu_max,
    )
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def specialization_findings() -> VerificationReport:
    """Compare the stated substitution list against the validated one.

    Mismatches are flagged findings, each with a concrete witness point
    showing that the stated substitution does not reproduce the theorem
    while the validated one does: the first point of n in {2, 4, 6},
    lam in [lam_min, 3] and mu in [0, 3] where the left sides differ.
    """
    report = VerificationReport(name="specialization-catalog")
    for theorem, rule in VALIDATED_SPECIALIZATIONS.items():
        printed, validated = rule.printed, rule.substitution
        if printed == validated:
            report.record_pass()
            continue
        probe = VerificationReport(name=theorem.value)
        _record_specializations(probe, theorem, printed, (2, 4, 6), 3, 3)
        witness = next(
            (r for r in probe.failures if r.params[-1] == ("side", "lhs")),
            None,
        )
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
                "mu" in text and "mu" not in IDENTITIES[theorem].params
                for text in printed
            ):
                note += (
                    "; the stated text also names a parameter the theorem "
                    "does not have"
                )
        report.record_flagged(
            CaseRecord(
                # the witness's point, without its a, c and side
                params=(
                    ("theorem", theorem.value),
                    ("stated_a", printed[0]),
                    ("stated_c", printed[1]),
                    ("validated_a", validated[0]),
                    ("validated_c", validated[1]),
                )
                + (witness.params[:-3] if witness else ()),
                lhs=witness.lhs if witness else None,
                rhs=witness.rhs if witness else None,
                note=note,
            )
        )
    return report


def _parse_substitution(text: str, lam: int, mu: int | None) -> Fraction:
    base, _, shift = text.partition("+")
    offset = lam if shift == "lam" else mu
    return Fraction(base) + offset
