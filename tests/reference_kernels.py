"""Slow Fraction-per-term reference versions of the hyperseries kernels.

These are the term-by-term ``fractions.Fraction`` loops that
``catconv.hyperseries`` used before its kernels moved to integer rows.
They are kept only as oracles for the differential tests: every
operation reduces by a gcd, which makes them slow but easy to read.
"""

from fractions import Fraction

from catconv.exactnum import ZeroLowerPochhammer
from catconv.hyperseries import ARG_MINUS, ARG_SQUARED, TruncatedSeries


def pfq_truncate(spec, order):
    if order < 0:
        raise ValueError("order must be nonnegative")
    pref_coeff, pref_power = spec.prefactor
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
            factor = l + k
            if factor == 0:
                raise ZeroLowerPochhammer(l, k)
            denominator *= factor
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
            factor = l + k
            if factor == 0:
                raise ZeroLowerPochhammer(l, k)
            denominator *= factor
        term = term * numerator / denominator
    return total
