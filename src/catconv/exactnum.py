"""Exact integer and rational building blocks.

Binomial coefficients, Catalan numbers, rising factorials (Pochhammer
symbols) and their quotients.  Everything returns Python ``int`` or
``fractions.Fraction``; nothing here rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "RationalLike",
    "ZeroLowerPochhammer",
    "binomial",
    "catalan",
    "pochhammer",
    "poch_quotient",
    "zero_offset",
]


class ZeroLowerPochhammer(ArithmeticError):
    """A denominator-side rising factorial contains a zero factor.

    Raised when a lower parameter ``x`` satisfies ``x + j == 0`` for some
    offset ``0 <= j < n`` inside ``(x)_n``.  Zero numerators are meaningful
    (they terminate series); zero denominators are not.
    """

    def __init__(self, parameter: RationalLike, index: int):
        self.parameter = Fraction(parameter)
        self.index = index
        super().__init__(
            f"lower parameter {parameter} hits zero at offset {index}"
        )


def binomial(n: int, k: int) -> int:
    """Binomial coefficient ``n`` choose ``k``.

    Parameters
    ----------
    n : int
        Row index, must be nonnegative.
    k : int
        Column index; any integer is accepted.

    Returns
    -------
    int
        ``n! / (k! (n-k)!)`` when ``0 <= k <= n``, otherwise 0.  The
        out-of-range convention lets alternating sums run over a full
        index range without boundary guards.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """Catalan number ``binomial(2n, n) // (n + 1)``.  The division is
    exact."""
    if n < 0:
        raise ValueError(f"catalan requires n >= 0, got n={n}")
    return math.comb(2 * n, n) // (n + 1)


def _rising_numerator(x: Fraction, n: int) -> int:
    # q^n (x)_n for x = p/q: the integers p, p+q, ..., p+(n-1)q multiplied
    p, q = x.numerator, x.denominator
    return math.prod(range(p, p + n * q, q))


def pochhammer(x: RationalLike, n: int) -> Fraction:
    """Rising factorial ``x (x+1) ... (x+n-1)`` with ``(x)_0 = 1``.

    A nonpositive-integer ``x`` within range is legal here and yields 0;
    only quotients (see :func:`poch_quotient`) reject such values in the
    denominator.  The product runs on integers over the single
    denominator ``q**n``, so only the returned value is reduced.
    """
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got n={n}")
    x = Fraction(x)
    return Fraction(_rising_numerator(x, n), x.denominator**n)


def zero_offset(num: int, den: int, n: int | None = None) -> int | None:
    """The offset ``j`` with ``num/den + j == 0`` and ``0 <= j < n``, if any.

    This is the one statement of when a rising factorial ``(x)_n`` of
    ``x = num/den`` has a zero factor.  The pair need not be reduced, but
    ``den`` must be positive; ``n=None`` leaves ``j`` unbounded, which asks
    whether ``x`` is a nonpositive integer.  It takes integers, not a
    ``Fraction``, so hot callers build none.
    """
    if num > 0 or num % den:
        return None
    j = -num // den
    return j if n is None or j < n else None


def poch_quotient(
    uppers: Iterable[RationalLike],
    lowers: Iterable[RationalLike],
    n: int,
) -> Fraction:
    """Quotient of rising-factorial products at a shared order ``n``.

    Computes ``prod (u)_n / prod (l)_n`` exactly.  Every lower parameter
    must stay clear of ``{0, -1, ..., -(n-1)}``; a hit raises
    :class:`ZeroLowerPochhammer` naming the offending parameter and offset.
    Each ``(p/q)_n`` enters as the integer ``q^n (p/q)_n`` with its
    ``q^n`` moved to the other side, and one ``Fraction`` is built at the
    end.
    """
    if n < 0:
        raise ValueError(f"poch_quotient requires n >= 0, got n={n}")
    lower_fracs = [Fraction(l) for l in lowers]
    for l in lower_fracs:
        offset = zero_offset(l.numerator, l.denominator, n)
        if offset is not None:
            raise ZeroLowerPochhammer(l, offset)
    num = den = 1
    for u in uppers:
        u = Fraction(u)
        num *= _rising_numerator(u, n)
        den *= u.denominator**n
    for l in lower_fracs:
        num *= l.denominator**n
        den *= _rising_numerator(l, n)
    return Fraction(num, den)
