"""Catalog of alternating convolution identities.

Each catalog entry pairs an independent brute-force summation (the left
side, summed term by term with no reference to any closed form) with a
closed form (the right side, transcribed as stated).  Both are exact
rationals, so verification is literal equality.  Each side leaves its
kernel as an unreduced integer :class:`Pair`, and two values are
compared by cross-multiplying their pairs; a ``Fraction`` is made only
by the public views (:func:`lhs_value`, :func:`rhs_value`,
:func:`closed_form`) and for the sides of a failure or flagged record.

Everything the catalogue states about an identity is one
:class:`Identity` record in ``IDENTITIES``: its parameters, domain
guards, suite grid family, summand and closed form, and where it applies
its :class:`Link` to the identity it is a special case of: a base
identity is its theorem at lam = 0, and a theorem its proposition at a
substituted (a, c).  Both sides are data.  A closed form is a
hypergeometric term in n: per parity of n, a table of factorials,
binomials, Catalan numbers, Pochhammer symbols and linear factors affine
in n, h = n // 2 and the parameters, which one evaluator turns into one
pair.  A :class:`Summand` is two rows and a weight, scale *
sum_k w(n, k) X(k) Y(n - k), or that sum over X(0) Y(0) / (X(k) Y(n -
k)) for the corollaries, and each row a hypergeometric term in k:
X(k + 1) / X(k) = z (u + k) / (l + k).  A row's u and l and a link's
substitution are written in one notation, parameter texts such as
"1/2+lam", "2a" or "-1+c", which one parser compiles when the row or
link is built.  One row kernel sums every record on integers and shares
nothing with the closed forms' tables or their parser.  A link's scale
is read off the two summands, z^n X(0) Y(0) of each.

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
from operator import floordiv, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exactnum import RationalLike, binomial, catalan, zero_offset
from .hyperseries import DEFAULT_RATIONAL_GRID
from .report import CaseRecord, VerificationReport

__all__ = [
    "IdentityId",
    "IdentityParams",
    "Pair",
    "Identity",
    "IDENTITIES",
    "DomainError",
    "validate",
    "lhs_pair",
    "lhs_value",
    "rhs_value",
    "closed_form",
    "verify_grid",
    "case_points",
    "capture_case",
    "dictionary_check",
    "link_sweep",
    "specialization_check",
    "specialization_findings",
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


class _Point(NamedTuple):
    n: int
    lam: int | None = None
    mu: int | None = None
    a: Fraction | None = None
    c: Fraction | None = None


class IdentityParams(_Point):
    """One point: n, and lam and mu or a and c as the identity reads them.

    An immutable tuple record; ``a`` and ``c`` are coerced to ``Fraction``.
    """

    __slots__ = ()

    def __new__(cls, n, lam=None, mu=None, a=None, c=None):
        if a is not None and type(a) is not Fraction:
            a = Fraction(a)
        if c is not None and type(c) is not Fraction:
            c = Fraction(c)
        return tuple.__new__(cls, (n, lam, mu, a, c))

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
    if not record.guards:
        return
    q, ints, scaled = _values(p)
    for (x, span), (top, length) in zip(record.guards, record._guards):
        if zero_offset(_at(top, scaled), q, _at(length, ints)) is not None:
            raise DomainError(f"{ident.value} requires ({x})_({span}) nonzero")


# --- left sides: one row kernel ----------------------------------------

# The largest lam or mu a caller may ask for (the CLI's cap).
MAX_SHIFT = 60

# each slice row's sequence t(m), grown in place by _sequence, and the
# first row of each form of one-parameter row
_SEQUENCES: dict[tuple, list[int]] = {}
_FORMS: dict[tuple, "Row"] = {}

# a row parameter or link substitution text: const, coef name or
# const+coef name with an integer coef, as "1/2", "2a" (2 a) or "-1+c"
_PARAMETER = re.compile(
    r"(-?\d+(?:/[1-9]\d*)?)?(?:((?(1)[+-]|-?))([1-9]\d*)?(lam|mu|a|c))?"
)
# the integer parameters, by name and by index in a point
_SHIFTS = ("lam", "mu")
_SHIFT_AT = tuple(map(_Point._fields.index, _SHIFTS))


def _parameter(text: str, names=_SHIFTS + ("a", "c")) -> tuple:
    # text -> (const, coef, index of its name in a point, None for none);
    # const is an int where it is whole, so lam and mu stay integers
    match = _PARAMETER.fullmatch(text)
    if not text or not match or match[4] not in names + (None,):
        raise ValueError(f"not a parameter text over {names}: {text!r}")
    const = Fraction(match[1] or 0)
    const = const.numerator if const.denominator == 1 else const
    coef = int(match[3] or 1) * (-1 if match[2] == "-" else 1)
    return const, coef, _Point._fields.index(match[4]) if match[4] else None


@dataclass(frozen=True, eq=False)
class Row:
    """The row X(k) = X(0) z^k (u)_k / (l)_k for k = 0 .. n, on integers.

    ``u`` and ``l`` are parameter texts, const, coef name or const+coef
    name such as ``"1/2+lam"``, ``"2a"`` or ``"-1+c"``, parsed once,
    here.  When both are const + lam (or mu), or both constant, the row
    is a slice of the sequence t(m) = z^m (u0)_m / (l0)_m from m = lam
    on, grown by exact division, so X(0) = t(lam); ``linear`` multiplies
    X(k) by lam + k.  Any other row starts at X(0) = 1, over one
    denominator: a row of one parameter over the lcm of its entries'
    denominators, cached per (form, value, n), and any other over q^n
    (l)_n, built at each point.
    """

    u: str
    l: str
    z: int = 1
    linear: bool = False

    def __post_init__(self):
        u, l = _parameter(self.u), _parameter(self.l)
        (u0, du, by), (l0, dl, l_by) = u, l
        terms = form = None
        shifted = by is None or (du == dl == 1 and by in _SHIFT_AT)
        if by == l_by and shifted:
            terms = _SEQUENCES.setdefault((u0, l0, self.z), [1])
        elif None in (by, l_by) or by == l_by:
            key = (u0, du if by else 0, l0, dl if l_by else 0, self.z)
            form = _FORMS.setdefault(key, self)
        if self.linear and terms is None:
            raise ValueError("only a row shifted by lam can be linear")
        parsed = dict(_u=u, _l=l, _terms=terms, _form=form, _reads=by or l_by)
        for name, value in parsed.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Summand:
    """A left side: scale(n, lam) * sum_k w(n, k) X(k) Y(n - step k).

    ``weight`` names w and its step: ``"alternating"`` is (-1)^k C(n, k),
    ``"plain"`` is 1, and ``"even"`` is C(n, 2k) at step 2.  A
    ``reciprocal`` summand sums X(0) Y(0) / (X(k) Y(n - k)) instead.  A
    ``scale`` of None is 1.
    """

    x: Row
    y: Row
    scale: Callable[[int, int], int] | None = None
    reciprocal: bool = False
    weight: str = "alternating"


@functools.lru_cache(maxsize=8)
def _pascal_row(n: int) -> tuple[int, ...]:
    # (-1)^k binomial(n, k) for k = 0 .. n, by the exact recurrence
    # C(n, k + 1) = C(n, k) (n - k) / (k + 1)
    row = [1]
    for k in range(n):
        row.append(-row[-1] * (n - k) // (k + 1))
    return tuple(row)


# weight -> (step, w(n, k) for k = 0, 1, ...)
_WEIGHTS = {
    "alternating": (1, _pascal_row),
    "plain": (1, lambda n: itertools.repeat(1)),
    "even": (2, lambda n: (math.comb(n, j) for j in range(0, n + 1, 2))),
}


@functools.lru_cache(maxsize=128)
def _rising_store(start: int, q: int, z: int) -> list[int]:
    # (z q)^k (x)_k for x = start / q, k = 0 .. len - 1, extended in place
    return [1]


def _ratio_row(u, l, z: int, n: int) -> tuple[list[int], int]:
    # z^k (u)_k / (l)_k for k = 0 .. n as integers (z q)^k (u)_k
    # q^(n-k) (l+k)_(n-k) over den = q^n (l)_n, q the lcm of the two
    # denominators; den is nonzero wherever validate admits the point
    q = math.lcm(u.denominator, l.denominator)
    upper = u.numerator * (q // u.denominator)
    lower = l.numerator * (q // l.denominator)
    row = _rising_store(upper, q, z)
    for j in range(len(row) - 1, n):
        row.append(row[-1] * z * (upper + j * q))
    factors = range(lower + (n - 1) * q, lower - q, -q)
    tail = list(itertools.accumulate(factors, mul, initial=1))
    tail.reverse()
    return list(map(mul, row, tail)), tail[0]


def _value(arg: tuple, p) -> Fraction | int:
    # const + coef times p[index], where an absent lam or mu reads as 0
    const, coef, index = arg
    value = None if index is None else p[index]
    if value is None:
        return const
    value = value if coef == 1 else coef * value
    return value + const if const else value


# Per n, a thm-e grid needs a plain row per value and a weighted one per
# lam, a proposition grid under 30 rows on the default grid.
@functools.lru_cache(maxsize=2 * (MAX_SHIFT + 1))
def _one_parameter_row(form: Row, value, n: int, weight: str | None):
    # den / gcd(den, nums) is the lcm of the entries' denominators
    if weight is not None:
        nums, den = _one_parameter_row(form, value, n, None)
        return tuple(map(mul, _WEIGHTS[weight][1](n), nums)), den
    p = {form._reads: value}  # the one entry the form reads
    nums, den = _ratio_row(_value(form._u, p), _value(form._l, p), form.z, n)
    g = math.gcd(den, *nums)
    return tuple(map(floordiv, nums, itertools.repeat(g))), den // g


def _sequence(row: Row, stop: int) -> list[int]:
    # a slice row's sequence t(m), grown in place to m = stop - 1
    terms = row._terms
    for m in range(len(terms) - 1, stop - 1):
        t = Fraction(terms[-1] * row.z) * (row._u[0] + m) / (row._l[0] + m)
        if t.denominator != 1:
            raise ArithmeticError(f"row {row.u}, {row.l} is not integral")
        terms.append(t.numerator)
    return terms


def _row(row: Row, p: IdentityParams, weight: str | None = None):
    # (w(n, k) X(k) for k = 0 .. p.n, den) over one integer den; without a
    # weight, a list is the caller's own and a cached row a tuple
    n = p.n
    if row._form is not None:
        return _one_parameter_row(row._form, p[row._reads], n, weight)
    if row._terms is None:
        nums, den = _ratio_row(_value(row._u, p), _value(row._l, p), row.z, n)
    else:
        shift = p[row._reads] if row._reads else 0
        stop = shift + n + 1
        nums, den = _sequence(row, stop)[shift:stop], 1
        if row.linear:
            nums = list(map(mul, range(shift, stop), nums))
    if weight is not None:
        nums = map(mul, _WEIGHTS[weight][1](n), nums)
    return nums, den


class Pair(NamedTuple):
    """An exact rational as an unreduced integer pair.

    The denominator is nonzero and may be negative.  Like a ``Fraction``,
    a pair has int ``numerator`` and ``denominator`` attributes, which
    every comparison reads, so a ``Fraction`` compares the same way.
    """

    numerator: int
    denominator: int


def _pair(num: int, den: int) -> Pair:
    # a zero denominator raises as Fraction(num, 0) does, with its message
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return Pair(num, den)


def _fraction(value) -> Fraction:
    # the Fraction view of a pair, or of a Fraction
    return Fraction(value.numerator, value.denominator)


def _equal(x, y) -> bool:
    # x == y for pairs, by cross-multiplication
    return x.numerator * y.denominator == y.numerator * x.denominator


def _convolve(ident: IdentityId, p: IdentityParams) -> Pair:
    # ident's left side at p, from its record's summand
    s = IDENTITIES[ident].summand
    n = p.n
    step, weights = _WEIGHTS[s.weight]
    y, den_y = _row(s.y, p)
    y_back = y[n::-step]
    if s.reciprocal:
        # den_x and den_y cancel against X(0) Y(0)
        x = y if s.x is s.y else _row(s.x, p)[0]
        dens = list(map(mul, x, y_back))
        den = math.lcm(*dens)
        terms = map(floordiv, itertools.repeat(den), dens)
        total = x[0] * y[0] * sum(map(mul, weights(n), terms))
    elif s.x is s.y:
        total, den = sum(map(mul, map(mul, weights(n), y), y_back)), den_y**2
    else:
        x, den_x = _row(s.x, p, s.weight)
        total, den = sum(map(mul, x, y_back)), den_x * den_y
    if s.scale is not None:
        total *= s.scale(n, p.lam)
    return _pair(total, den)


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


Substitution = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Link:
    """How an identity is a special case of ``general``.

    ``substitution`` gives each parameter of ``general`` as a parameter
    text over lam and mu, written as a :class:`Row`'s are, such as
    ``(("a", "1/2+lam"), ("c", "2+lam"))``, where a parameter the point
    does not have reads as 0.  ``printed`` is the substitution as the
    source catalogue states it, where it states a different one, and
    ``lam_min`` the least lam checked.  The texts are parsed once, here.
    The scale between the two sums is read off the summands.
    """

    general: IdentityId
    substitution: Substitution
    printed: Substitution | None = None
    lam_min: int = 0

    def __post_init__(self):
        for field in ("substitution", "printed"):
            texts = getattr(self, field) or ()
            parsed = tuple((k, _parameter(t, _SHIFTS)) for k, t in texts)
            object.__setattr__(self, "_" + field, parsed)


@dataclass(frozen=True)
class Identity:
    """What the catalogue states about one identity, as data.

    ``params`` are the parameters it reads, in reporting order, and
    ``family`` the prefix of the ``suite.SuiteSizes`` fields bounding its
    suite grid.  ``summand`` is its left side.  ``printed`` is the closed
    form as catalogued, an (even n, odd n) pair of factor texts, and
    ``corrected`` the variant the oracle matches where the printed one is
    known wrong.  A guard ``(x, span)`` of affine texts states
    ``(x)_span != 0``.  Guards are stated, not read off the tables, so a
    wrong zero denominator fails, not skips; their texts are parsed
    once, here.  ``link`` states which identity it is a special case of.
    """

    params: tuple[str, ...]
    family: str
    summand: Summand
    printed: Texts
    guards: tuple[tuple[str, str], ...] = ()
    corrected: Texts | None = None
    link: Link | None = None

    def __post_init__(self):
        parsed = tuple((_affine(x), _affine(span)) for x, span in self.guards)
        object.__setattr__(self, "_guards", parsed)


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


_CATALAN = Row("1/2+lam", "2+lam", 4)  # catalan(m), m = lam + k
_CENTRAL = Row("1/2+lam", "1+lam", 4)  # binomial(2m, m)
_ODD_CATALAN = Row("3/2+lam", "2+lam", 4)  # binomial(2m + 1, m)
_ODD_CENTRAL = Row("3/2+lam", "1+lam", 4)  # (2m + 1) binomial(2m, m)
# mikic's rows are the theorems' at lam = 0
_CATALAN_0 = Row("1/2", "2", 4)
_N_A_C, _A_OVER_C = ("n", "a", "c"), Row("a", "c")
_reciprocal = functools.partial(Summand, reciprocal=True)

IDENTITIES: dict[IdentityId, Identity] = {
    IdentityId.RECURRENCE: Identity(
        ("n",), "mikic", Summand(_CATALAN_0, _CATALAN_0, weight="plain"),
        ("catalan(n+1)",) * 2,
    ),
    IdentityId.TOUCHARD: Identity(
        ("n",), "mikic",
        Summand(_CATALAN_0, Row("1", "1", 2), weight="even"),
        ("catalan(n+1)",) * 2,
    ),
    IdentityId.MIKIC1: Identity(
        ("n",), "mikic", Summand(_CATALAN_0, _CATALAN_0),
        ("lin(2) binom(n,h)^2 /lin(n+2)", None),
        link=Link(IdentityId.THM_A, (("lam", "0"),)),
    ),
    IdentityId.MIKIC2: Identity(
        ("n",), "mikic", Summand(_CATALAN_0, Row("1/2", "1", 4)),
        ("binom(n,h)^2",) * 2,
        link=Link(IdentityId.THM_B, (("lam", "0"),)),
    ),
    IdentityId.THM_A: Identity(
        _N_LAM, "thm", Summand(_CATALAN, _CATALAN),
        (
            "fact(lam) binom(2lam,lam) binom(n,h) catalan(lam+h)"
            " /poch(2+n,lam)",
            None,
        ),
        link=Link(IdentityId.PROP_A, (("a", "1/2+lam"), ("c", "2+lam"))),
    ),
    IdentityId.THM_B: Identity(
        _N_LAM, "thm", Summand(_CATALAN, _CENTRAL),
        (
            "fact(lam) binom(2lam,lam) binom(n,h) binom(n+2lam,lam+h)"
            " /poch(2+n,lam)",
        ) * 2,
        link=Link(IdentityId.PROP_C, (("a", "1/2+lam"), ("c", "2+lam"))),
    ),
    IdentityId.THM_C: Identity(
        _N_LAM, "thm", Summand(_CENTRAL, _CENTRAL),
        (
            "fact(lam) binom(2lam,lam) binom(n,h) binom(2lam+n,lam+h)"
            " /poch(1+n,lam)",
            None,
        ),
        link=Link(IdentityId.PROP_A, (("a", "1/2+lam"), ("c", "1+lam"))),
    ),
    # lam!/(n)_lam is undefined at n = 0 for positive lam; the catalogue
    # embeds thm-d at c = 1+mu, a parameter it does not have
    IdentityId.THM_D: Identity(
        _N_LAM, "thm",
        Summand(_CENTRAL, Row("1/2+lam", "1+lam", 4, linear=True)),
        (_THM_D + " lin(n) lin(2lam+n)", _THM_D + " lin(n+1) lin(2lam+n+1)"),
        guards=(("n", "lam"),),
        link=Link(
            IdentityId.PROP_C, (("a", "1/2+lam"), ("c", "1+lam")),
            printed=(("a", "1/2+lam"), ("c", "1+mu")), lam_min=1,
        ),
    ),
    # the catalogue embeds thm-e at c = 2+mu, which does not reproduce it
    IdentityId.THM_E: Identity(
        ("n", "lam", "mu"), "thm",
        Summand(Row("1/2+lam", "1+2lam", 4), Row("1/2+mu", "1+2mu", 4)),
        (
            "binom(n,h) binom(n+lam+mu,h) /binom(lam+h,lam) /binom(mu+h,mu)",
            None,
        ),
        link=Link(
            IdentityId.PROP_B, (("a", "1/2+lam"), ("c", "1/2+mu")),
            printed=(("a", "1/2+lam"), ("c", "2+mu")),
        ),
    ),
    IdentityId.PROP_A: Identity(
        _N_A_C, "prop", Summand(_A_OVER_C, _A_OVER_C),
        ("fact(n) /poch(c,n) poch(a,h) poch(c-a,h) /fact(h) /poch(c,h)", None),
        guards=(("c", "n"),),
    ),
    IdentityId.PROP_B: Identity(
        _N_A_C, "prop", Summand(Row("a", "2a"), Row("c", "2c")),
        (
            "fact(n) poch(a+c,n) /poch(2a,n) /poch(2c,n)"
            " poch(a,h) poch(c,h) /fact(h) /poch(a+c,h)",
            None,
        ),
        guards=(("2a", "n"), ("2c", "n"), ("a+c", "h")),
    ),
    # (c-1)_(n+1) != 0 also keeps (c)_n and (c)_h clear of zero
    IdentityId.PROP_C: Identity(
        _N_A_C, "prop", Summand(_A_OVER_C, Row("a", "-1+c")),
        (_PROP_C + " lin(2c+n-2)", _PROP_C + " lin(2a+n-1)"),
        guards=(("c-1", "n+1"),),
    ),
    IdentityId.COR_1: Identity(_N_LAM, "cor", _reciprocal(
        _CATALAN, _CATALAN, lambda n, lam: (n - 1) * (n - 3)
    ), (
        "lin(3) catalan(lam) binom(2lam,lam) binom(n,h)"
        " /catalan(lam+h) /binom(lam+n,lam) /binom(2lam+2n,lam+n)",
        None,
    )),
    # cor-2 disagrees with its sum as catalogued; it agrees everywhere
    # once the central binomial's row index is raised by one
    IdentityId.COR_2: Identity(
        _N_LAM, "cor", _reciprocal(_ODD_CATALAN, _CATALAN, lambda n, lam: n),
        _cor_2("2lam+2n"),
        corrected=_cor_2("1+2lam+2n"),
    ),
    IdentityId.COR_3: Identity(
        _N_LAM, "cor", _reciprocal(_CENTRAL, _CENTRAL, lambda n, lam: 1 - n),
        (_COR_3, None),
    ),
    IdentityId.COR_4: Identity(
        _N_LAM, "cor",
        _reciprocal(
            _ODD_CENTRAL, _CENTRAL, lambda n, lam: n * (1 + 2 * n + 2 * lam)
        ),
        (_COR_4 + " lin(n)", _COR_4 + " lin(n+1)"),
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


def _evaluate(factors: Table, p: IdentityParams) -> Pair:
    # One integer numerator and denominator, unreduced: lin(x) is (q x) / q
    # and poch(x, k) is q**k (x)_k / q**k.
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
    return _pair(num, den)


_ZERO = Pair(0, 1)


def _closed_pair(
    ident: IdentityId, p: IdentityParams, corrected: bool = False
) -> Pair:
    # ident's right side at p as a pair; closed_form is its Fraction view
    if ident is IdentityId.THM_D and p.n == p.lam == 0:
        # both case branches carry n / (lam + n), which is 0/0 here; the
        # sum is 0 by inspection
        return _ZERO
    record = IDENTITIES[ident]
    texts = record.corrected if corrected else record.printed
    factors = _tables(texts)[p.n % 2]
    return _ZERO if factors is None else _evaluate(factors, p)


def closed_form(
    ident: IdentityId, p: IdentityParams, corrected: bool = False
) -> Fraction:
    """``ident``'s right side at ``p``, from its record's factor table.

    The printed table, or with ``corrected`` the corrected one.  Exact.
    ``p`` is not validated; :func:`rhs_value` does that.
    """
    return _fraction(_closed_pair(ident, p, corrected))


_LHS: dict[IdentityId, Callable[[IdentityParams], Pair]] = {
    ident: functools.partial(_convolve, ident) for ident in IDENTITIES
}

_RHS: dict[IdentityId, Callable[[IdentityParams], Pair]] = {
    ident: functools.partial(_closed_pair, ident) for ident in IdentityId
}


def lhs_pair(ident: IdentityId, p: IdentityParams) -> Pair:
    """Brute-force sum of the identity's left side, as an unreduced pair."""
    validate(ident, p)
    return _LHS[ident](p)


def lhs_value(ident: IdentityId, p: IdentityParams) -> Fraction:
    """Brute-force sum of the identity's left side. Exact."""
    return _fraction(lhs_pair(ident, p))


def rhs_value(ident: IdentityId, p: IdentityParams) -> Fraction:
    """Closed-form value of the identity's right side. Exact."""
    validate(ident, p)
    return _fraction(_RHS[ident](p))


def _record_case(
    report: VerificationReport, ident: IdentityId, p: IdentityParams
) -> None:
    # Compare both sides of one case exactly, by cross-multiplying their
    # pairs.  A mismatch on an identity with a documented closed-form
    # discrepancy is flagged when the corrected variant matches the
    # oracle; any other is a failure.
    validate(ident, p)
    lhs = _LHS[ident](p)
    rhs = _RHS[ident](p)
    if _equal(lhs, rhs):
        report.record_pass()
        return
    params = p.items_for(ident)
    corrected = IDENTITIES[ident].corrected and _equal(
        lhs, _closed_pair(ident, p, corrected=True)
    )
    lhs, rhs = _fraction(lhs), _fraction(rhs)
    if corrected:
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

# Each shift row of the records, read from lam, and its entry at
# m = lam + k as a binomial
_CONVERSIONS = (
    ("half-over-one", _CENTRAL, lambda m: binomial(2 * m, m)),
    ("three-half-over-one", _ODD_CENTRAL,
     lambda m: (1 + 2 * m) * binomial(2 * m, m)),
    ("half-over-two", _CATALAN, catalan),
    ("three-half-over-two", _ODD_CATALAN, lambda m: binomial(1 + 2 * m, m)),
)


def dictionary_check(k_max: int = 40, lam_max: int = 12) -> VerificationReport:
    """Verify the four shift rows of the sums against their binomials.

    The kernel's row 4^k (u)_k / (l)_k from X(0) = t(lam), as the records
    state it, must be the central-type binomial at m = lam + k: the
    quotient-to-binomial dictionary, such as (1/2+lam)_k / (1+lam)_k =
    C(2m, m) / (4^k C(2lam, lam)), with its start.
    """
    start = time.perf_counter()
    report = VerificationReport(name="dictionary")
    for lam in range(lam_max + 1):
        p = IdentityParams(n=k_max, lam=lam)
        rows = [(tag, _row(row, p)[0], f) for tag, row, f in _CONVERSIONS]
        for k in range(k_max + 1):
            for tag, row, formula in rows:
                lhs, rhs = row[k], formula(lam + k)
                if lhs == rhs:
                    report.record_pass()
                    continue
                params = (("conversion", tag), ("k", k), ("lam", lam))
                report.record_failure(
                    CaseRecord(params, Fraction(lhs), Fraction(rhs))
                )
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


# --- links: one identity as another's special case --------------------

def _scale(base: IdentityId, p: IdentityParams, q: IdentityParams):
    # base's sides at p over its general identity's at q: z^n X(0) Y(0)
    # of base's summand over that of the general's, z shared by both rows
    starts = []
    for ident, point in ((base, p), (IDENTITIES[base].link.general, q)):
        s = IDENTITIES[ident].summand
        start = s.x.z**p.n
        for row in (s.x, s.y):
            if row._terms is not None:
                shift = point[row._reads] if row._reads else 0
                start *= _sequence(row, shift + 1)[shift]
                start *= shift if row.linear else 1
        starts.append(start)
    num, den = starts
    return 1 if num == den else Fraction(num, den)


def _record_link(
    prefix: tuple[tuple[str, object], ...],
    substitution: tuple,
    report: VerificationReport,
    base: IdentityId,
    p: IdentityParams,
) -> None:
    # base's lhs and rhs at p, and its general identity's lhs and rhs at
    # the point ``substitution`` gives, times the scale, must all four
    # agree; the scale multiplies the general's pairs, and they cross-multiply
    general = IDENTITIES[base].link.general
    validate(base, p)
    q = IdentityParams(
        n=p.n, **{name: _value(arg, p) for name, arg in substitution}
    )
    validate(general, q)
    values = (_LHS[base](p), _RHS[base](p), _LHS[general](q), _RHS[general](q))
    scale = _scale(base, p, q)
    s, t = scale.numerator, scale.denominator
    values = values[:2] + tuple(
        Pair(v.numerator * s, v.denominator * t) for v in values[2:]
    )
    if all(_equal(v, values[0]) for v in values[1:]):
        report.record_pass()
        return
    report.record_failure(
        CaseRecord(
            params=prefix + p.items_for(base),
            lhs=_fraction(values[0]),
            rhs=_fraction(values[2]),
            note="all four of base lhs/rhs and general lhs/rhs, rescaled, "
            "must agree",
        )
    )


def link_sweep(
    report: VerificationReport,
    base: IdentityId,
    ns: Iterable[int],
    lam_max: int = 0,
    mu_max: int = 0,
    stated: bool = False,
) -> None:
    """Check ``base``'s link into ``report`` at every point of ns x
    [lam_min, lam_max] x [0, mu_max], in :func:`case_points` order.

    Each failure is recorded at (base, general) plus the point.  With
    ``stated`` the link's printed substitution is checked instead.
    """
    link = IDENTITIES[base].link
    prefix = (("base", base.value), ("general", link.general.value))
    parsed = link._printed if stated else link._substitution
    check = functools.partial(_record_link, prefix, parsed)
    lams, mus = (link.lam_min, lam_max), (0, mu_max)
    for n in ns:
        for p in case_points(base, (n, n), lams, mus):
            capture_case(report, base, p, check, prefix)


def specialization_check(
    theorem: IdentityId,
    n_max: int = 20,
    lam_max: int = 8,
    mu_max: int = 6,
) -> VerificationReport:
    """Confirm a theorem is its proposition rescaled, on both sides.

    At each grid point the proposition's sum and closed form, at the
    substituted (a, c) and rescaled, must equal the theorem's sum and
    closed form exactly.  A point outside either domain is a skip.
    """
    start = time.perf_counter()
    report = VerificationReport(name=f"{theorem.value}-specialization")
    link_sweep(report, theorem, range(n_max + 1), lam_max, mu_max)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def specialization_findings() -> VerificationReport:
    """Compare the stated substitution list against the validated one.

    Mismatches are flagged findings, each with a concrete witness point
    showing that the stated substitution does not reproduce the theorem
    while the validated one does: the first point of n in {2, 4, 6},
    lam in [lam_min, 3] and mu in [0, 3] where the stated link fails.
    """
    report = VerificationReport(name="specialization-catalog")
    for theorem, record in IDENTITIES.items():
        if record.family != "thm":
            continue
        link = record.link
        if link.printed is None:
            report.record_pass()
            continue
        probe = VerificationReport(name=theorem.value)
        link_sweep(probe, theorem, (2, 4, 6), 3, 3, stated=True)
        witness = probe.failures[0] if probe.failures else None
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
            reads = {_Point._fields[i] for _, (_, _, i) in link._printed if i}
            if reads - set(record.params):
                note += (
                    "; the stated text also names a parameter the theorem "
                    "does not have"
                )
        report.record_flagged(
            CaseRecord(
                # the witness's point, without its base and general
                params=(("theorem", theorem.value),)
                + tuple((f"stated_{k}", t) for k, t in link.printed)
                + tuple((f"validated_{k}", t) for k, t in link.substitution)
                + (witness.params[2:] if witness else ()),
                lhs=witness.lhs if witness else None,
                rhs=witness.rhs if witness else None,
                note=note,
            )
        )
    return report
