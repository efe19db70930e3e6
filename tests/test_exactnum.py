"""Exact building blocks: binomials, Catalan numbers, rising factorials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catconv.exactnum import (
    ZeroLowerPochhammer,
    binomial,
    catalan,
    poch_quotient,
    pochhammer,
)

import reference_kernels as ref


class TestBinomial:
    def test_k_zero_is_empty_product(self):
        assert binomial(7, 0) == 1

    def test_out_of_range_k_is_zero(self):
        # Alternating sums rely on this instead of boundary guards.
        assert binomial(2, 5) == 0
        assert binomial(4, -1) == 0

    def test_small_value(self):
        assert binomial(4, 2) == 6

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 80), st.integers(-5, 90))
    def test_matches_factorial_ratio(self, n, k):
        if 0 <= k <= n:
            expected = math.factorial(n) // (
                math.factorial(k) * math.factorial(n - k)
            )
        else:
            expected = 0
        assert binomial(n, k) == expected

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestCatalan:
    def test_first_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_division_is_exact_up_to_500(self):
        for n in range(501):
            assert catalan(n) * (n + 1) == binomial(2 * n, n)

    def test_nonlinear_recurrence(self):
        # C_{n+1} = sum_{k=0}^{n} C_k C_{n-k}
        for n in range(60):
            total = sum(catalan(k) * catalan(n - k) for k in range(n + 1))
            assert catalan(n + 1) == total

    def test_touchard_identity_up_to_200(self):
        for n in range(201):
            total = sum(
                2 ** (n - 2 * k) * binomial(n, 2 * k) * catalan(k)
                for k in range(n // 2 + 1)
            )
            assert catalan(n + 1) == total

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)

    def test_values_beyond_cache_cap(self):
        assert catalan(600) * 601 == binomial(1200, 600)

    def test_memo_stays_bounded(self):
        for n in range(1200):
            assert catalan(n) * (n + 1) == math.comb(2 * n, n)
        assert catalan.cache_info().currsize <= 512


class TestPochhammer:
    def test_order_zero_is_one(self):
        assert pochhammer(Fraction(5, 3), 0) == 1

    def test_integer_base(self):
        assert pochhammer(2, 3) == 24

    def test_rational_base(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_nonpositive_integer_base_is_legal_zero(self):
        assert pochhammer(-3, 5) == 0
        assert pochhammer(-3, 3) == -6

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    @settings(max_examples=200)
    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=20),
        st.integers(0, 30),
        st.integers(0, 30),
    )
    def test_split_law(self, x, m, n):
        # (x)_{m+n} = (x)_m (x+m)_n
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)

    @given(st.fractions(min_value=-8, max_value=8, max_denominator=12),
           st.integers(0, 25))
    def test_canonical_form(self, x, n):
        value = pochhammer(x, n)
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


class TestPochQuotient:
    def test_full_cancellation(self):
        a = Fraction(7, 5)
        assert poch_quotient([a], [a], 9) == 1

    def test_single_step(self):
        assert poch_quotient([Fraction(1, 2)], [2], 1) == Fraction(1, 4)

    def test_central_binomial_shape(self):
        # (1/2)_k / (1)_k = binomial(2k, k) / 4^k at k = 2.
        assert poch_quotient([Fraction(1, 2)], [1], 2) == Fraction(3, 8)
        assert Fraction(binomial(4, 2), 4**2) == Fraction(3, 8)

    def test_zero_lower_names_parameter_and_offset(self):
        with pytest.raises(ZeroLowerPochhammer) as excinfo:
            poch_quotient([1], [-2], 4)
        assert excinfo.value.parameter == Fraction(-2)
        assert excinfo.value.index == 2

    def test_lower_checked_before_upper_zero(self):
        # A terminating numerator does not excuse a zero denominator.
        with pytest.raises(ZeroLowerPochhammer):
            poch_quotient([-1], [-3], 5)

    def test_lower_just_out_of_range_is_fine(self):
        # (-3)_3 = (-3)(-2)(-1) has no zero factor.
        assert poch_quotient([1], [-3], 3) == Fraction(6, -6)

    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=6,
                         max_denominator=8),
            min_size=1, max_size=3,
        ),
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=6,
                         max_denominator=8),
            min_size=1, max_size=3,
        ),
        st.integers(0, 20),
    )
    def test_agrees_with_direct_products(self, uppers, lowers, n):
        expected = Fraction(1)
        for u in uppers:
            expected *= pochhammer(u, n)
        for l in lowers:
            expected /= pochhammer(l, n)
        assert poch_quotient(uppers, lowers, n) == expected


# signed rationals with q <= 7; nonpositive integers, plain or as
# Fraction, are the zero factors
signed = st.one_of(
    st.integers(-8, 0),
    st.integers(-8, 0).map(Fraction),
    st.fractions(min_value=-8, max_value=8, max_denominator=7),
)


def outcome(fn, *args):
    """A kernel's value, or the identity of the zero-lower error it raised."""
    try:
        return fn(*args)
    except ZeroLowerPochhammer as exc:
        return (type(exc), exc.parameter, exc.index, str(exc))


class TestAgainstReference:
    @settings(max_examples=300)
    @given(signed, st.integers(0, 30))
    def test_pochhammer(self, x, n):
        value = pochhammer(x, n)
        assert type(value) is Fraction
        assert value == ref.pochhammer(x, n)

    @settings(max_examples=300)
    @given(
        st.lists(signed, max_size=4),
        st.lists(signed, max_size=4),
        st.integers(0, 30),
    )
    def test_poch_quotient(self, uppers, lowers, n):
        assert outcome(poch_quotient, uppers, lowers, n) == outcome(
            ref.poch_quotient, uppers, lowers, n
        )

    def test_poch_quotient_zero_lower_matches(self):
        # the first lower that hits is named, with its offset, even when
        # an upper is zero too
        args = ([Fraction(-1), Fraction(2, 7)], [Fraction(5, 3), -4, -2], 6)
        got = outcome(poch_quotient, *args)
        assert got == outcome(ref.poch_quotient, *args)
        assert got[1:3] == (Fraction(-4), 4)
