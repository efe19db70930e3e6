"""High-precision checks: Gamma quotients, accelerated series, quadrature;
and the exact Beta-moment integrals."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import reference_kernels as ref
from catconv import numerics, suite
from catconv.hyperseries import DegenerateLambda
from catconv.numerics import (
    NonConvergent,
    PoleError,
    RuleConstructionFailure,
    TailBoundExceeded,
    dixon_check,
    dminus_check,
    gamma_quotient,
    gamma_selftest,
    integral_check,
    integral_value,
    jacobi_rule,
    linear4f3_check,
)

F = Fraction


def rationals(low, high, denominators):
    """Rationals p/q in [low, high] with q drawn from ``denominators``."""
    return st.sampled_from(denominators).flatmap(
        lambda q: st.integers(low * q, high * q).map(lambda p: F(p, q))
    )


def as_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def close(x, y, eps):
    with mp.workdps(80):
        scale = max(1, abs(as_mpf(y)))
        return abs(as_mpf(x) - as_mpf(y)) <= mp.mpf(eps) * scale


class TestGammaQuotient:
    def test_full_cancellation(self):
        assert close(gamma_quotient((F(7, 3),), (F(7, 3),), 40), 1, "1e-39")

    def test_reflection_product(self):
        # Gamma(1/4) Gamma(3/4) = pi sqrt(2)
        value = gamma_quotient((F(1, 4), F(3, 4)), (), 40)
        with mp.workdps(60):
            assert close(value, mp.pi * mp.sqrt(2), "1e-38")

    def test_negative_half_integer_argument(self):
        # Gamma(-3/2) = 4 sqrt(pi) / 3
        value = gamma_quotient((F(-3, 2),), (), 40)
        with mp.workdps(60):
            assert close(value, 4 * mp.sqrt(mp.pi) / 3, "1e-38")

    def test_negative_arguments_cancel_in_ratio(self):
        # Gamma(-3/2)/Gamma(-1/2) = -2/3 by the recurrence
        value = gamma_quotient((F(-3, 2),), (F(-1, 2),), 40)
        assert close(value, F(-2, 3), "1e-38")

    def test_append_invariance(self):
        for precision in (20, 40, 60):
            a = gamma_quotient((F(5, 3), F(1, 2)), (F(9, 4),), precision)
            b = gamma_quotient(
                (F(5, 3), F(1, 2), F(11, 7)), (F(9, 4), F(11, 7)), precision
            )
            assert close(a, b, mp.mpf(10) ** -(precision - 2))

    def test_exact_pole_rejected(self):
        with pytest.raises(PoleError):
            gamma_quotient((F(-3),), (), 40)
        with pytest.raises(PoleError):
            gamma_quotient((F(1),), (F(0),), 40)

    def test_near_pole_rejected(self):
        # within 10^-20 of the pole at -2 when precision is 40
        x = F(-2) + F(1, 10**30)
        with pytest.raises(PoleError):
            gamma_quotient((x,), (), 40)

    def test_just_outside_near_pole_band_accepted(self):
        x = F(-2) + F(1, 10**10)
        gamma_quotient((x,), (), 40)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            gamma_quotient((1,), (), precision=5)

    @settings(max_examples=60, deadline=None)
    @given(rationals(-6, 6, range(2, 8)))
    def test_reflection_and_duplication(self, x):
        # Gamma(x) Gamma(1-x) = pi/sin(pi x) and Gamma(x) Gamma(x+1/2) /
        # Gamma(2x) = 2^(1-2x) sqrt(pi), right sides at P + 20 digits
        assume(x.denominator > 1)
        half = F(1, 2)
        reflection = gamma_quotient((x, 1 - x), (), 40)
        with mp.workdps(60):
            expected = mp.pi / mp.sin(mp.pi * as_mpf(x))
            assert close(reflection, expected, "1e-38")
        if (2 * x).denominator == 1:
            return  # x + 1/2 and 2x are integers, one a pole for x < 0
        duplication = gamma_quotient((x, x + half), (2 * x,), 40)
        with mp.workdps(60):
            expected = mp.power(2, as_mpf(1 - 2 * x)) * mp.sqrt(mp.pi)
            assert close(duplication, expected, "1e-38")


class TestGammaSelftest:
    @pytest.mark.parametrize("precision", [20, 40, 60])
    def test_all_nine_checks_pass(self, precision):
        report = gamma_selftest(precision)
        assert report.ok
        assert report.cases_run == 9


class TestSeriesChecks:
    def test_dixon_convergent_point(self):
        report = dixon_check(F(1, 2), F(1, 4), F(1, 4), precision=40)
        assert report.ok, report.failures

    @pytest.mark.parametrize("a", [-2, -4, -6])
    def test_dixon_terminating_matches_exact(self, a):
        report = dixon_check(a, F(1, 3), F(1, 5), precision=40)
        assert report.ok, report.failures

    def test_dixon_pole_in_lower_parameter(self):
        # 1 + a - c = 0
        with pytest.raises(PoleError):
            dixon_check(1, 2, 2, precision=40)

    def test_dixon_nonconvergent_margin(self):
        with pytest.raises(NonConvergent):
            dixon_check(1, F(3, 2), F(3, 2), precision=40)

    def test_dminus_convergent_point(self):
        report = dminus_check(3, F(1, 2), F(1, 2), precision=40)
        assert report.ok, report.failures

    @pytest.mark.parametrize("a", [-3, -5])
    def test_dminus_terminating(self, a):
        report = dminus_check(a, F(1, 3), F(1, 5), precision=40)
        assert report.ok, report.failures

    def test_linear4f3_convergent_point(self):
        report = linear4f3_check(4, F(1, 2), F(1, 2), 1, precision=40)
        assert report.ok, report.failures

    def test_linear4f3_lambda_equals_c_minus_one(self):
        report = linear4f3_check(6, F(3, 2), 1, F(1, 2), precision=40)
        assert report.ok, report.failures

    @pytest.mark.parametrize("case", [(-2, 2), (-4, 2), (-7, 3)])
    def test_linear4f3_terminating(self, case):
        a, lam = case
        report = linear4f3_check(a, F(1, 3), F(1, 5), lam, precision=40)
        assert report.ok, report.failures

    @pytest.mark.parametrize(
        "check, point",
        [
            (dixon_check, (F(5, 2), -1, F(1, 4))),
            (dminus_check, (F(5, 2), -1, F(1, 4))),
            (linear4f3_check, (F(5, 2), -1, F(1, 4), 2)),
            (dixon_check, (F(5, 2), F(1, 3), -2)),
            (linear4f3_check, (F(5, 2), -1, F(1, 4), -1)),
            (linear4f3_check, (F(5, 2), -2, F(1, 4), -2)),
            (linear4f3_check, (F(5, 2), -2, F(1, 4), -5)),
        ],
        ids=["dixon", "dminus", "linear4f3", "dixon-e",
             "lam-1", "lam-2", "lam-5"],
    )
    def test_a_later_upper_terminates_the_series(self, check, point):
        # c = -1 or e = -2 ends the sum although a is not an integer; the
        # finite sum is checked exactly instead of being handed to Levin.
        # lam <= c = -n zeroes (lam)_k only past the last term, k = n
        report = check(*point, precision=40)
        assert report.ok and report.cases_run == 1, report.failures

    @pytest.mark.parametrize(
        "c, lam", [(F(1, 3), -1), (F(1, 3), -3), (-3, -1), (-3, -2)],
    )
    def test_linear4f3_column_does_not_end_the_series(self, c, lam):
        # 1 + lam zeroes an upper, but the column's factor (lam + k)/lam
        # does not end the series: lam is a pole, within c's terms if any
        with pytest.raises(PoleError):
            linear4f3_check(F(5, 2), c, F(1, 4), lam, precision=40)

    def test_linear4f3_zero_lambda_rejected(self):
        with pytest.raises(DegenerateLambda):
            linear4f3_check(4, F(1, 2), F(1, 2), 0, precision=40)

    def test_higher_precision_still_converges(self):
        report = dixon_check(F(1, 2), F(1, 4), F(1, 4), precision=60)
        assert report.ok


class TestSharedRecurrence:
    # one term ratio feeds both the terminating cross-check and Levin
    @staticmethod
    def perturb_step(monkeypatch, step):
        original = numerics._term_ratio

        def perturbed(uppers, lowers):
            ratio = original(uppers, lowers)

            def step_ratio(k):
                scale = F(1000001, 1000000) if k == step else 1
                return ratio(k) * scale

            return step_ratio

        monkeypatch.setattr(numerics, "_term_ratio", perturbed)

    @pytest.mark.parametrize(
        "point",
        [(-6, F(1, 3), F(1, 5)), (F(1, 2), F(1, 4), F(1, 4))],
        ids=["terminating", "nonterminating"],
    )
    def test_one_perturbed_step_fails_the_check(self, monkeypatch, point):
        assert dixon_check(*point, precision=40).ok
        self.perturb_step(monkeypatch, 2)
        report = dixon_check(*point, precision=40)
        assert len(report.failures) == 1, report.failures

    def test_termination_by_a_later_upper_is_checked(self, monkeypatch):
        # the exact sum 1 + ace/((1+a-c)(1+a-e)) = 112/117 over the actual
        # parameters is the reference, so a wrong first ratio fails
        point = (F(5, 2), -1, F(1, 4))
        self.perturb_step(monkeypatch, 0)
        [case] = dixon_check(*point, precision=40).failures
        assert dict(case.params)["terminating"] is True
        assert close(case.rhs, F(112, 117), 1e-35)

    @pytest.mark.parametrize("precision", [30, 40])
    def test_terminating_sum_must_equal_its_reference(
        self, monkeypatch, precision
    ):
        # a reference off by a relative 10^-P lies inside any floating
        # tolerance at P digits, but two exact sums must agree exactly
        original = numerics.pfq_unity_sum_exact
        off = 1 + F(1, 10**precision)

        def shifted(uppers, lowers, n):
            return original(uppers, lowers, n) * off

        monkeypatch.setattr(numerics, "pfq_unity_sum_exact", shifted)
        report = dixon_check(-6, F(1, 3), F(1, 5), precision=precision)
        [case] = report.failures
        assert dict(case.params)["terminating"] is True
        assert case.rhs == case.lhs * off

    def test_zero_term_ends_the_sum_before_a_lower_pole(self, monkeypatch):
        # c = -1 zeroes t_2; the pole of 1 + a - c = -4 at k = 4 is never
        # reached, so only the first two ratios are taken
        calls = []
        original = numerics._term_ratio

        def recording(uppers, lowers):
            ratio = original(uppers, lowers)
            return lambda k: calls.append(k) or ratio(k)

        monkeypatch.setattr(numerics, "_term_ratio", recording)
        report = dixon_check(-6, -1, F(1, 5), precision=40)
        assert report.ok and report.cases_run == 1
        assert calls == [0, 1]


# every nonterminating point of criterion 8's tables
NONTERMINATING = [
    (family, point)
    for family, points in (
        ("dixon", suite.DIXON_TRIPLES),
        ("dminus", suite.DMINUS_TRIPLES),
        ("linear4f3", suite.LINEAR4F3_TRIPLES),
    )
    for point in points
]


class TestExactLevin:
    # the exact transform against mpmath's floating one, the loop it
    # replaced: the same ratio calls, so the same stopping index, and the
    # same sum to the stopping rule's 10^-(P+5)
    @pytest.mark.parametrize("precision", [30, 40])
    @pytest.mark.parametrize(
        "family, point", NONTERMINATING,
        ids=[f"{family}-{i}" for i, (family, _) in enumerate(NONTERMINATING)],
    )
    def test_matches_the_floating_transform(
        self, monkeypatch, family, point, precision
    ):
        exact_levin = numerics._levin_unity_sum
        sums = []

        def both(ratio, precision, max_terms):
            exact_calls, floating_calls = [], []
            value = exact_levin(
                lambda k: exact_calls.append(k) or ratio(k),
                precision, max_terms,
            )
            reference = ref.levin_unity_sum(
                lambda k: floating_calls.append(k) or ratio(k),
                precision, max_terms,
            )
            sums.append((value, reference, exact_calls, floating_calls))
            return value

        monkeypatch.setattr(numerics, "_levin_unity_sum", both)
        check = getattr(numerics, f"{family}_check")
        assert check(*point, precision=precision).ok
        [(value, reference, exact_calls, floating_calls)] = sums
        assert type(value) is Fraction
        assert exact_calls == floating_calls == list(range(len(exact_calls)))
        with mp.workdps(2 * precision + 15):
            bound = mp.mpf(10) ** -(precision + 5) * abs(reference)
            assert abs(as_mpf(value) - reference) <= bound

    def test_a_zero_denominator_is_never_accepted(self):
        # t_k = 1/(k + 1): each denominator sum is an n-th difference of a
        # polynomial of degree n - 1, so 0, and the transform runs out of
        # terms instead of dividing by it
        ratio = numerics._term_ratio([F(1), F(1)], [F(2)])
        with pytest.raises(TailBoundExceeded):
            numerics._levin_unity_sum(ratio, 200, 40)

    def test_the_term_budget_bounds_the_ratio_calls(self):
        calls = []
        # Dixon's (1/2, 1/4, 1/4) needs more than 20 terms at 40 digits
        ratio = numerics._term_ratio(
            [F(1, 2), F(1, 4), F(1, 4)], [F(5, 4), F(5, 4)]
        )
        with pytest.raises(TailBoundExceeded):
            numerics._levin_unity_sum(
                lambda k: calls.append(k) or ratio(k), 40, 20
            )
        assert calls == list(range(19))


class TestJacobiRule:
    def test_legendre_two_point_nodes(self):
        rule = jacobi_rule(0, 0, 2, precision=40)
        assert type(rule.alpha) is type(rule.beta) is Fraction
        with mp.workdps(60):
            low = (3 - mp.sqrt(3)) / 6
            high = (3 + mp.sqrt(3)) / 6
            nodes = sorted(rule.nodes)
            assert close(nodes[0], low, "1e-38")
            assert close(nodes[1], high, "1e-38")
            for w in rule.weights:
                assert close(w, F(1, 2), "1e-38")

    def test_single_node_half_integer_weight(self):
        rule = jacobi_rule(F(1, 2), F(-1, 2), 1, precision=40)
        with mp.workdps(60):
            assert close(rule.nodes[0], F(1, 4), "1e-38")
            assert close(rule.weights[0], mp.pi / 2, "1e-38")

    def test_mass_is_beta_moment(self):
        rule = jacobi_rule(F(1, 2), F(3, 2), 5, precision=40)
        with mp.workdps(60):
            expected = mp.beta(mp.mpf(5) / 2, mp.mpf(3) / 2)
            assert close(rule.mass(), expected, "1e-37")

    def test_weight_exponents_must_exceed_minus_one(self):
        with pytest.raises(ValueError):
            jacobi_rule(-1, 0, 3)
        with pytest.raises(ValueError):
            jacobi_rule(0, F(-3, 2), 3)

    def test_node_count_must_be_positive(self):
        with pytest.raises(ValueError):
            jacobi_rule(0, 0, 0)

    def test_degenerate_parameter_sum(self):
        # alpha + beta = -1 exercises the cancelled first off-diagonal term
        rule = jacobi_rule(F(-1, 2), F(-1, 2), 4, precision=40)
        assert all(0 < node < 1 for node in rule.nodes)
        with mp.workdps(60):
            assert close(rule.mass(), mp.pi, "1e-37")

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(rationals(-1, 3, range(1, 5)),
                      rationals(-1, 3, range(1, 5))),
            # alpha + beta = -1, the cancelled first off-diagonal term
            rationals(-1, 0, range(1, 5)).map(lambda a: (a, -1 - a)),
        ),
        st.integers(1, 8),
    )
    @example((F(1, 2), F(-1, 2)), 6)
    @example((F(-1, 4), F(-3, 4)), 8)
    def test_degree_exactness(self, exponents, m):
        # m nodes must integrate x^d exactly for d <= 2m - 1
        alpha, beta = exponents
        assume(alpha > -1 and beta > -1)
        rule = jacobi_rule(alpha, beta, m, precision=40)
        with mp.workdps(60):
            for d in range(2 * m):
                quad = mp.fsum(
                    w * x**d for x, w in zip(rule.nodes, rule.weights)
                )
                exact = mp.beta(as_mpf(beta + 1 + d), as_mpf(alpha + 1))
                assert close(quad, exact, "1e-36"), d

    def test_a_failing_construction_is_reported(self, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("no convergence")

        monkeypatch.setattr(numerics.mp, "gauss_quadrature", broken)
        with pytest.raises(RuleConstructionFailure, match="no convergence"):
            jacobi_rule(F(1, 2), F(1, 2), 3)

    @pytest.mark.parametrize(
        "point, weight, message",
        [(1, 1, "escaped"), (-2, 1, "escaped"), (0, 0, "not positive")],
    )
    def test_an_invalid_node_or_weight_is_rejected(
        self, monkeypatch, point, weight, message
    ):
        def fake(m, qtype, alpha, beta):
            return [mp.mpf(point)], [mp.mpf(weight)]

        monkeypatch.setattr(numerics.mp, "gauss_quadrature", fake)
        with pytest.raises(RuleConstructionFailure, match=message):
            jacobi_rule(0, 0, 1)


class TestIntegrals:
    def test_base_case_is_pi_squared_over_four(self):
        quadrature, closed, _ = integral_value("thm-a", 0, 0, precision=40)
        with mp.workdps(60):
            assert close(closed, mp.pi**2 / 4, "1e-38")
            assert close(quadrature, mp.pi**2 / 4, "1e-32")

    def test_symmetric_weight_odd_case_vanishes(self):
        quadrature, closed, mass = integral_value("thm-a", 3, 1, precision=40)
        assert closed == 0
        with mp.workdps(60):
            assert abs(quadrature) <= mp.mpf("1e-32") * mass

    def test_skew_weight_small_case(self):
        _, closed, _ = integral_value("thm-b", 2, 1, precision=40)
        with mp.workdps(60):
            assert close(closed, 3 * mp.pi**2 / 256, "1e-38")

    @pytest.mark.parametrize("which", ["thm-a", "thm-b"])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_check_passes_both_parities(self, which, n):
        report = integral_check(which, n, 2)
        assert report.ok, report.failures

    def test_more_nodes_than_needed_changes_nothing(self):
        _, closed, _ = integral_value("thm-a", 4, 1, precision=40)
        for m in (4, 8, 12):
            quadrature, _, _ = integral_value("thm-a", 4, 1, precision=40, m=m)
            with mp.workdps(60):
                assert abs(quadrature - closed) <= mp.mpf("1e-32") * abs(closed), m

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            integral_check("thm-a", 61, 0)
        with pytest.raises(ValueError):
            integral_check("thm-b", 2, 13)

    @pytest.mark.parametrize("which", ["thm-a", "thm-b"])
    @pytest.mark.parametrize("n", [13, 30, 60])
    @pytest.mark.parametrize("lam", [0, 7, 12])
    def test_exact_check_covers_the_theorem_grid(self, which, n, lam):
        # the exact moment sum has no precision limit, so the caps are
        # the theorems' own grid, n <= 60 and lam <= 12
        assert integral_check(which, n, lam).ok

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            integral_value("thm-z", 0, 0)
        with pytest.raises(ValueError):
            integral_check("thm-z", 0, 0)
        with pytest.raises(ValueError):
            integral_check("thm-a", -1, 0)


# every criterion-9 point at full size, plus the configured caps
_CRITERION_9_POINTS = [
    (which, n, lam)
    for which in ("thm-a", "thm-b")
    for n in range(9)
    for lam in range(4)
] + [("thm-a", 12, 6), ("thm-b", 12, 6)]


class TestExactIntegrals:
    @pytest.mark.parametrize("b", [F(3, 2), F(1, 2)])
    def test_moments_match_the_beta_function(self, b):
        moments = numerics._beta_moments(b, 31)
        with mp.workdps(60):
            for p, moment in enumerate(moments):
                expected = mp.beta(p + mp.mpf(1) / 2, as_mpf(b)) / mp.pi
                assert close(moment, expected, "1e-55"), (b, p)

    @pytest.mark.parametrize("which, n, lam", _CRITERION_9_POINTS)
    def test_moment_sum_matches_the_quadrature(self, which, n, lam):
        # the exact path against the floating Gauss-Jacobi reference
        quadrature, _, mass = integral_value(which, n, lam, precision=40)
        exact = numerics._moment_sum(which, n, lam)
        with mp.workdps(60):
            value = mp.pi**2 * as_mpf(exact)
            tolerance = mp.mpf("1e-32")
            if exact == 0:
                assert abs(quadrature) <= tolerance * mass
            else:
                assert abs(quadrature - value) <= tolerance * abs(value)

    @pytest.mark.parametrize(
        "which, n, lam, perturb",
        [
            ("thm-b", 5, 2, lambda closed: closed * (1 + F(1, 10**40))),
            ("thm-a", 4, 2, lambda closed: closed * (1 + F(1, 10**40))),
            ("thm-a", 3, 1, lambda closed: closed + F(1, 10**40)),
        ],
        ids=["thm-b-relative", "thm-a-relative", "thm-a-odd-zero"],
    )
    def test_seeded_closed_form_fault_fails(
        self, monkeypatch, which, n, lam, perturb
    ):
        # the relative faults sit below any 40-digit quadrature tolerance;
        # only an exact comparison sees them
        original = numerics._integral_closed_form

        def faulty(w, k, l):
            closed = original(w, k, l)
            return perturb(closed) if (w, k, l) == (which, n, lam) else closed

        monkeypatch.setattr(numerics, "_integral_closed_form", faulty)
        report = integral_check(which, n, lam)
        assert report.cases_run == 1 and len(report.failures) == 1
        params = dict(report.failures[0].params)
        assert (params["which"], params["n"], params["lam"]) == (which, n, lam)
        assert integral_check(which, n, lam + 1).ok
