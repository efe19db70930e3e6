"""Slow Fraction-per-term reference versions of the exact kernels.

These are the term-by-term ``fractions.Fraction`` loops that
``catconv.hyperseries``, ``catconv.exactnum`` and the brute-force sums of
``catconv.identities`` used before they moved to integer rows, the
per-term integer loops of the integer-valued sums before they became
row convolutions, direct sums of recurrence and touchard, which the row
kernel now sums too, the ``Fraction`` comparisons of the 4F3 block
before it compared integer pairs, the hand-written closed forms that the
identities' factor tables replaced, and the per-identity domain checks
that the records' stated guards replaced, and the hand-written scales of
the theorem-in-proposition embeddings, which the link check now reads
off the summands.
They are kept only as oracles for the differential tests: every
operation reduces by a gcd, which makes them slow but easy to read.
The series references state the zero-lower rule on their own, with their
own loop and not through the kernel: a lower parameter that hits zero at
a step the series would take if no upper ended it raises
``ZeroLowerPochhammer``, whichever upper ends it first.
The floating Levin loop over mpmath's transform, which the exact one in
``catconv.numerics`` replaced, is kept here the same way.
"""

import itertools
import math
from fractions import Fraction

from mpmath import mp

from catconv import exactnum
from catconv.exactnum import ZeroLowerPochhammer, binomial, catalan
from catconv.hyperseries import ARG_MINUS, ARG_SQUARED, TruncatedSeries
from catconv.identities import DomainError, IdentityId
from catconv.numerics import TailBoundExceeded
from catconv.report import CaseRecord, VerificationReport


def _check_lowers(lowers, steps):
    # a lower parameter l with l + k == 0 at a step k < steps that the
    # series would take if no upper ended it, least k first, then list order
    for k in range(steps):
        for l in lowers:
            if l + k == 0:
                raise ZeroLowerPochhammer(l, k)


def pfq_truncate(spec, order, column=False):
    # a column spec's first lower is the lam of a (1+lam; lam) column: its
    # upper 1 + lam ends the term loop a step before lam hits zero, and
    # only lam's own rule decides where lam leaves the series undefined
    if order < 0:
        raise ValueError("order must be nonnegative")
    pref_coeff, pref_power = spec.prefactor
    stride = 2 if spec.argument == ARG_SQUARED else 1
    # every step up to the last stored term's, and the one past it
    lowers = spec.lowers[1:] if column else spec.lowers
    _check_lowers(lowers, (order - pref_power) // stride + 1)
    coeffs = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    k = 0
    while True:
        position = 2 * k if spec.argument == ARG_SQUARED else k
        position += pref_power
        if position > order:
            break
        value = term
        if spec.argument == ARG_MINUS and k % 2:
            value = -value
        elif spec.argument == ARG_SQUARED:
            value = value / Fraction(4) ** k
        coeffs[position] = pref_coeff * value
        # advance the running term; numerator zero means termination
        numerator = Fraction(1)
        terminated = False
        for u in spec.uppers:
            factor = u + k
            if factor == 0:
                terminated = True
                break
            numerator *= factor
        if terminated:
            break
        denominator = Fraction(k + 1)
        for l in spec.lowers:
            denominator *= l + k
        term = term * numerator / denominator
        k += 1
    return TruncatedSeries(order, tuple(coeffs))


def series_mul(a, b):
    order = min(a.order, b.order)
    out = []
    for n in range(order + 1):
        acc = Fraction(0)
        for i in range(n + 1):
            ai = a.coeffs[i]
            if ai:
                bj = b.coeffs[n - i]
                if bj:
                    acc += ai * bj
        out.append(acc)
    return TruncatedSeries(order, tuple(out))


def pfq_unity_sum_exact(uppers, lowers, last_index):
    ups = [Fraction(u) for u in uppers]
    lows = [Fraction(l) for l in lowers]
    _check_lowers(lows, last_index)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(last_index + 1):
        total += term
        if k == last_index:
            break
        numerator = Fraction(1)
        dead = False
        for u in ups:
            factor = u + k
            if factor == 0:
                dead = True
                break
            numerator *= factor
        if dead:
            break
        denominator = Fraction(k + 1)
        for l in lows:
            denominator *= l + k
        term = term * numerator / denominator
    return total


def _undefined_at(x, n):
    return x.denominator == 1 and 1 - n <= x <= 0


def terminating_4f3_block(n, c, e, lams):
    # both reports of one (n, c, e) block, every side a Fraction: the
    # closed form factor * tail and the contiguous combination
    # (lam - a)/lam * plain + a/lam * raised at a = -n
    c = Fraction(c)
    e = Fraction(e)
    lams = [Fraction(lam) for lam in lams]
    evaluation = VerificationReport(name="terminating-4f3")
    contiguous = VerificationReport(name="contiguous-relation")
    block_skipped = _undefined_at(c, n) or _undefined_at(e, n)
    if not block_skipped:
        a = Fraction(-n)
        lowers = [1 - c - n, 1 - e - n]
        plain = pfq_unity_sum_exact([a, c, e], lowers, n)
        raised = pfq_unity_sum_exact([1 + a, c, e], lowers, n - 1) if n else None
        factor = poch_quotient([a, 1 - c - e - n], lowers, n // 2)
    for lam in lams:
        if block_skipped or lam == 0 or _undefined_at(lam, n):
            evaluation.record_skip()
            contiguous.record_skip()
            continue
        four = pfq_unity_sum_exact([a, c, e, 1 + lam], lowers + [lam], n)
        if n % 2 == 0:
            tail = (2 * lam + n) / (2 * lam)
        else:
            tail = Fraction(-(1 + n)) / (2 * lam)
        if n == 0:
            combination = plain
        else:
            combination = (lam + n) / lam * plain - n / lam * raised
        params = (("n", n), ("c", c), ("e", e), ("lam", lam))
        for report, rhs in ((evaluation, factor * tail), (contiguous, combination)):
            if four == rhs:
                report.record_pass()
            else:
                report.record_failure(CaseRecord(params=params, lhs=four, rhs=rhs))
    return evaluation, contiguous


# --- exactnum -----------------------------------------------------------

def pochhammer(x, n):
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got n={n}")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(n):
        out *= x + j
    return out


def _zero_offset(x, n):
    if x.denominator == 1 and -x.numerator >= 0 and -x.numerator < n:
        return -x.numerator
    return None


def poch_quotient(uppers, lowers, n):
    if n < 0:
        raise ValueError(f"poch_quotient requires n >= 0, got n={n}")
    lower_fracs = [Fraction(l) for l in lowers]
    for l in lower_fracs:
        offset = _zero_offset(l, n)
        if offset is not None:
            raise ZeroLowerPochhammer(l, offset)
    num = Fraction(1)
    for u in uppers:
        num *= pochhammer(u, n)
    den = Fraction(1)
    for l in lower_fracs:
        den *= pochhammer(l, n)
    return num / den


# --- identities: domain checks ------------------------------------------

ARITY = {
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


def _nonpos_int_hit(x, span):
    # does x + j == 0 for some 0 <= j < span?
    return x.denominator == 1 and 0 >= x.numerator > -span


def validate(ident, p):
    # the hand-written branches, prop-c's (c)_n check included
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
        # lam!/(n)_lam is undefined at n=0 for positive lam
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


# --- identities: brute-force left sides ---------------------------------

def _alternating(terms):
    total = 0
    for k, term in enumerate(terms):
        total += -term if k % 2 else term
    return Fraction(total)


def lhs_recurrence(p):
    n = p.n
    return Fraction(sum(catalan(k) * catalan(n - k) for k in range(n + 1)))


def lhs_touchard(p):
    n = p.n
    return Fraction(
        sum(
            2 ** (n - 2 * k) * binomial(n, 2 * k) * catalan(k)
            for k in range(n // 2 + 1)
        )
    )


def lhs_mikic1(p):
    n = p.n
    return _alternating(
        binomial(n, k) * catalan(k) * catalan(n - k) for k in range(n + 1)
    )


def lhs_mikic2(p):
    n = p.n
    return _alternating(
        binomial(n, k) * binomial(2 * n - 2 * k, n - k) * catalan(k)
        for k in range(n + 1)
    )


def lhs_thm_a(p):
    n, lam = p.n, p.lam
    return _alternating(
        binomial(n, k) * catalan(k + lam) * catalan(n - k + lam)
        for k in range(n + 1)
    )


def lhs_thm_b(p):
    n, lam = p.n, p.lam
    return _alternating(
        binomial(n, k)
        * binomial(2 * (n - k) + 2 * lam, n - k + lam)
        * catalan(k + lam)
        for k in range(n + 1)
    )


def lhs_thm_c(p):
    n, lam = p.n, p.lam
    return _alternating(
        binomial(n, k)
        * binomial(2 * k + 2 * lam, k + lam)
        * binomial(2 * (n - k) + 2 * lam, n - k + lam)
        for k in range(n + 1)
    )


def lhs_thm_d(p):
    n, lam = p.n, p.lam
    return _alternating(
        binomial(n, k)
        * binomial(2 * k + 2 * lam, k + lam)
        * binomial(2 * (n - k) + 2 * lam, n - k + lam)
        * (n - k + lam)
        for k in range(n + 1)
    )


def lhs_thm_e(p):
    n, lam, mu = p.n, p.lam, p.mu
    total = Fraction(0)
    for k in range(n + 1):
        num = (
            binomial(n, k)
            * binomial(2 * k + 2 * lam, k + lam)
            * binomial(2 * (n - k) + 2 * mu, n - k + mu)
        )
        den = binomial(k + 2 * lam, lam) * binomial(n - k + 2 * mu, mu)
        term = Fraction(num, den)
        total += -term if k % 2 else term
    return total


def _poch_row(x, n):
    # (x)_0 .. (x)_n
    row = [Fraction(1)]
    acc = Fraction(1)
    for j in range(n):
        acc *= x + j
        row.append(acc)
    return row


def lhs_prop_a(p):
    n, a, c = p.n, p.a, p.c
    pa = _poch_row(a, n)
    pc = _poch_row(c, n)
    total = Fraction(0)
    for k in range(n + 1):
        term = binomial(n, k) * pa[k] * pa[n - k] / (pc[k] * pc[n - k])
        total += -term if k % 2 else term
    return total


def lhs_prop_b(p):
    n, a, c = p.n, p.a, p.c
    pa = _poch_row(a, n)
    pc = _poch_row(c, n)
    p2a = _poch_row(2 * a, n)
    p2c = _poch_row(2 * c, n)
    total = Fraction(0)
    for k in range(n + 1):
        term = binomial(n, k) * pa[k] * pc[n - k] / (p2a[k] * p2c[n - k])
        total += -term if k % 2 else term
    return total


def lhs_prop_c(p):
    n, a, c = p.n, p.a, p.c
    pa = _poch_row(a, n)
    pc = _poch_row(c, n)
    pcm = _poch_row(c - 1, n)
    total = Fraction(0)
    for k in range(n + 1):
        term = binomial(n, k) * pa[k] * pa[n - k] / (pc[k] * pcm[n - k])
        total += -term if k % 2 else term
    return total


def lhs_cor_1(p):
    n, lam = p.n, p.lam
    scale = (n - 1) * (n - 3) * catalan(lam) ** 2
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(
            binomial(n, k) * scale, catalan(k + lam) * catalan(n - k + lam)
        )
        total += -term if k % 2 else term
    return total


def lhs_cor_2(p):
    n, lam = p.n, p.lam
    scale = n * binomial(1 + 2 * lam, lam) * catalan(lam)
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(
            binomial(n, k) * scale,
            binomial(1 + 2 * k + 2 * lam, k + lam) * catalan(n - k + lam),
        )
        total += -term if k % 2 else term
    return total


def lhs_cor_3(p):
    n, lam = p.n, p.lam
    scale = (1 - n) * binomial(2 * lam, lam) ** 2
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(
            binomial(n, k) * scale,
            binomial(2 * k + 2 * lam, k + lam)
            * binomial(2 * (n - k) + 2 * lam, n - k + lam),
        )
        total += -term if k % 2 else term
    return total


def lhs_cor_4(p):
    n, lam = p.n, p.lam
    scale = n * (1 + 2 * lam) * (1 + 2 * n + 2 * lam) * binomial(2 * lam, lam) ** 2
    total = Fraction(0)
    for k in range(n + 1):
        term = Fraction(
            binomial(n, k) * scale,
            (1 + 2 * k + 2 * lam)
            * binomial(2 * k + 2 * lam, k + lam)
            * binomial(2 * (n - k) + 2 * lam, n - k + lam),
        )
        total += -term if k % 2 else term
    return total


# --- identities: closed forms -------------------------------------------
#
# The hand-written right sides that the factor tables of
# ``catconv.identities`` replaced, each building its value from
# ``Fraction``s in its own way.  They call ``exactnum.pochhammer``, as
# they did, not the slower loop above, which the factor tables do not use
# either.

def chi(condition):
    return 1 if condition else 0


def rhs_recurrence(p):
    return Fraction(catalan(p.n + 1))


def rhs_mikic1(p):
    n = p.n
    h = n // 2
    return Fraction(2 * chi(n % 2 == 0) * binomial(n, h) ** 2, n + 2)


def rhs_mikic2(p):
    h = p.n // 2
    return Fraction(binomial(p.n, h) ** 2)


def rhs_thm_a(p):
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        math.factorial(lam)
        * chi(n % 2 == 0)
        * binomial(2 * lam, lam)
        * binomial(n, h)
        * catalan(lam + h)
    )
    return num / exactnum.pochhammer(2 + n, lam)


def rhs_thm_b(p):
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        math.factorial(lam)
        * binomial(2 * lam, lam)
        * binomial(n, h)
        * binomial(n + 2 * lam, lam + h)
    )
    return num / exactnum.pochhammer(2 + n, lam)


def rhs_thm_c(p):
    n, lam = p.n, p.lam
    h = n // 2
    num = (
        math.factorial(lam)
        * chi(n % 2 == 0)
        * binomial(2 * lam, lam)
        * binomial(n, h)
        * binomial(2 * lam + n, lam + h)
    )
    return num / exactnum.pochhammer(1 + n, lam)


def rhs_thm_d(p):
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
        / exactnum.pochhammer(n, lam)
    )
    if n % 2 == 0:
        branch = Fraction(n * (2 * lam + n), 2 * (lam + n))
    else:
        branch = Fraction((n + 1) * (2 * lam + n + 1), 2 * (lam + n))
    return base * branch


def rhs_thm_e(p):
    n, lam, mu = p.n, p.lam, p.mu
    if n % 2:
        return Fraction(0)
    h = n // 2
    return Fraction(
        binomial(n, h) * binomial(n + lam + mu, h),
        binomial(lam + h, lam) * binomial(mu + h, mu),
    )


def rhs_prop_a(p):
    n, a, c = p.n, p.a, p.c
    if n % 2:
        return Fraction(0)
    h = n // 2
    return (
        math.factorial(n)
        / exactnum.pochhammer(c, n)
        * exactnum.pochhammer(a, h)
        * exactnum.pochhammer(c - a, h)
        / (math.factorial(h) * exactnum.pochhammer(c, h))
    )


def rhs_prop_b(p):
    n, a, c = p.n, p.a, p.c
    if n % 2:
        return Fraction(0)
    h = n // 2
    first = (
        math.factorial(n)
        * exactnum.pochhammer(a + c, n)
        / (exactnum.pochhammer(2 * a, n) * exactnum.pochhammer(2 * c, n))
    )
    second = (
        exactnum.pochhammer(a, h)
        * exactnum.pochhammer(c, h)
        / (math.factorial(h) * exactnum.pochhammer(a + c, h))
    )
    return first * second


def rhs_prop_c(p):
    n, a, c = p.n, p.a, p.c
    h = n // 2
    base = (
        math.factorial(n)
        / exactnum.pochhammer(c - 1, n + 1)
        * exactnum.pochhammer(a, h)
        * exactnum.pochhammer(c - a, h)
        / (math.factorial(h) * exactnum.pochhammer(c, h))
    )
    if n % 2 == 0:
        branch = c + Fraction(n - 2, 2)
    else:
        branch = a + Fraction(n - 1, 2)
    return base * branch


def rhs_cor_1(p):
    n, lam = p.n, p.lam
    h = n // 2
    num = 3 * catalan(lam) * binomial(2 * lam, lam) * binomial(n, h) * chi(n % 2 == 0)
    den = (
        catalan(lam + h)
        * binomial(lam + n, lam)
        * binomial(2 * lam + 2 * n, lam + n)
    )
    return Fraction(num, den)


def _cor_2_shell(p, central):
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


def rhs_cor_2(p):
    return _cor_2_shell(p, binomial(2 * p.lam + 2 * p.n, p.lam + p.n))


def rhs_cor_2_corrected(p):
    """The cor-2 closed form with the corrected central binomial.

    Replacing ``binomial(2lam+2n, lam+n)`` by ``binomial(1+2lam+2n, lam+n)``
    in the denominator makes the closed form agree with the brute-force
    sum everywhere; the two differ by the factor (1+2lam+2n)/(1+lam+n).
    """
    return _cor_2_shell(p, binomial(1 + 2 * p.lam + 2 * p.n, p.lam + p.n))


def rhs_cor_3(p):
    n, lam = p.n, p.lam
    h = n // 2
    num = binomial(2 * lam, lam) ** 2 * binomial(n, h) * chi(n % 2 == 0)
    den = (
        binomial(lam + n, n)
        * binomial(2 * lam + 2 * n, lam + n)
        * binomial(2 * lam + n, lam + h)
    )
    return Fraction(num, den)


def rhs_cor_4(p):
    n, lam = p.n, p.lam
    h = n // 2
    num = (1 + 2 * lam) * binomial(2 * lam, lam) ** 2 * binomial(n, h)
    den = (
        binomial(lam + n, n)
        * binomial(2 * lam + 2 * n, lam + n)
        * binomial(2 * lam + n, lam + h)
    )
    return Fraction(num, den) * (n if n % 2 == 0 else n + 1)


RHS = {
    IdentityId.RECURRENCE: rhs_recurrence,
    IdentityId.TOUCHARD: rhs_recurrence,
    IdentityId.MIKIC1: rhs_mikic1,
    IdentityId.MIKIC2: rhs_mikic2,
    IdentityId.THM_A: rhs_thm_a,
    IdentityId.THM_B: rhs_thm_b,
    IdentityId.THM_C: rhs_thm_c,
    IdentityId.THM_D: rhs_thm_d,
    IdentityId.THM_E: rhs_thm_e,
    IdentityId.PROP_A: rhs_prop_a,
    IdentityId.PROP_B: rhs_prop_b,
    IdentityId.PROP_C: rhs_prop_c,
    IdentityId.COR_1: rhs_cor_1,
    IdentityId.COR_2: rhs_cor_2,
    IdentityId.COR_3: rhs_cor_3,
    IdentityId.COR_4: rhs_cor_4,
}


# the factor that turns each theorem's proposition at the substituted
# (a, c) into the theorem: 4^n and the shift rows' starts, from the
# quotient-to-binomial dictionary
EMBEDDING_SCALES = {
    IdentityId.THM_A: lambda n, lam, mu: Fraction(4) ** n * catalan(lam) ** 2,
    IdentityId.THM_B: lambda n, lam, mu: Fraction(4) ** n
    * catalan(lam)
    * binomial(2 * lam, lam),
    IdentityId.THM_C: lambda n, lam, mu: Fraction(4) ** n
    * binomial(2 * lam, lam) ** 2,
    IdentityId.THM_D: lambda n, lam, mu: Fraction(4) ** n
    * binomial(2 * lam, lam) ** 2
    * lam,
    IdentityId.THM_E: lambda n, lam, mu: Fraction(4) ** n,
}


def _floating_partial_sums(ratio):
    # t_0 = 1 and t_{k+1} = ratio(k) t_k in the ambient context; a zero
    # term is summed and then ends the series, before any later ratio
    term = mp.mpf(1)
    total = mp.mpf(0)
    for k in itertools.count():
        total += term
        yield total
        if term == 0:
            return
        quotient = ratio(k)
        term = term * (
            mp.mpf(quotient.numerator) / mp.mpf(quotient.denominator)
        )


def levin_unity_sum(ratio, precision, max_terms):
    # mpmath's Levin u transform over floating partial sums at double the
    # target precision; stops once its error estimate and the change
    # between consecutive extrapolations both fall below
    # 10^-(precision+5), never before 17 terms
    target = mp.mpf(10) ** -(precision + 5)
    with mp.workdps(2 * precision + 15):
        transform = mp.levin(method="levin", variant="u")
        partial_sums = []
        previous = None
        for k, total in zip(range(max_terms), _floating_partial_sums(ratio)):
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
        raise TailBoundExceeded(
            f"no convergence to {mp.nstr(target, 3)} within {max_terms} terms"
        )
