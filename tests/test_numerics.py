"""High-precision checks: Gamma quotients, accelerated series, quadrature;
and the exact Beta-moment integrals."""

from fractions import Fraction

import pytest
from mpmath import mp

from catconv import numerics
from catconv.hyperseries import DegenerateLambda
from catconv.numerics import (
    GammaQuotientSpec,
    NonConvergent,
    PoleError,
    dixon_check,
    dminus_check,
    gamma_quotient,
    gamma_selftest,
    integral_check,
    integral_value,
    jacobi_rule,
    linear4f3_check,
    log_gamma,
)

F = Fraction


def as_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def close(x, y, eps):
    with mp.workdps(80):
        scale = max(1, abs(as_mpf(y)))
        return abs(as_mpf(x) - as_mpf(y)) <= mp.mpf(eps) * scale


class TestLogGamma:
    def test_gamma_one_is_one(self):
        assert close(log_gamma(1, 40), 0, "1e-38")

    def test_gamma_half_is_sqrt_pi(self):
        with mp.workdps(60):
            value = mp.e ** log_gamma(F(1, 2), 50)
            assert close(value, mp.sqrt(mp.pi), "1e-45")

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log_gamma(0)
        with pytest.raises(ValueError):
            log_gamma(F(-1, 2))

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            log_gamma(1, precision=5)


class TestGammaQuotient:
    def test_full_cancellation(self):
        spec = GammaQuotientSpec((F(7, 3),), (F(7, 3),))
        assert close(gamma_quotient(spec, 40), 1, "1e-39")

    def test_reflection_product(self):
        # Gamma(1/4) Gamma(3/4) = pi sqrt(2)
        spec = GammaQuotientSpec((F(1, 4), F(3, 4)), ())
        with mp.workdps(60):
            assert close(gamma_quotient(spec, 40), mp.pi * mp.sqrt(2), "1e-38")

    def test_negative_half_integer_argument(self):
        # Gamma(-3/2) = 4 sqrt(pi) / 3
        spec = GammaQuotientSpec((F(-3, 2),), ())
        with mp.workdps(60):
            expected = 4 * mp.sqrt(mp.pi) / 3
            assert close(gamma_quotient(spec, 40), expected, "1e-38")

    def test_negative_arguments_cancel_in_ratio(self):
        # Gamma(-3/2)/Gamma(-1/2) = -2/3 by the recurrence
        spec = GammaQuotientSpec((F(-3, 2),), (F(-1, 2),))
        assert close(gamma_quotient(spec, 40), F(-2, 3), "1e-38")

    def test_append_invariance(self):
        base = GammaQuotientSpec((F(5, 3), F(1, 2)), (F(9, 4),))
        extended = GammaQuotientSpec(
            (F(5, 3), F(1, 2), F(11, 7)), (F(9, 4), F(11, 7))
        )
        for precision in (20, 40, 60):
            a = gamma_quotient(base, precision)
            b = gamma_quotient(extended, precision)
            assert close(a, b, mp.mpf(10) ** -(precision - 2))

    def test_exact_pole_rejected(self):
        with pytest.raises(PoleError):
            gamma_quotient(GammaQuotientSpec((F(-3),), ()), 40)
        with pytest.raises(PoleError):
            gamma_quotient(GammaQuotientSpec((F(1),), (F(0),)), 40)

    def test_near_pole_rejected(self):
        # within 10^-20 of the pole at -2 when precision is 40
        x = F(-2) + F(1, 10**30)
        with pytest.raises(PoleError):
            gamma_quotient(GammaQuotientSpec((x,), ()), 40)

    def test_just_outside_near_pole_band_accepted(self):
        x = F(-2) + F(1, 10**10)
        gamma_quotient(GammaQuotientSpec((x,), ()), 40)


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


class TestJacobiRule:
    def test_legendre_two_point_nodes(self):
        rule = jacobi_rule(0, 0, 2, precision=40)
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

    def test_degree_exactness(self):
        # m nodes must integrate x^d exactly for d <= 2m - 1.
        alpha, beta, m = F(1, 2), F(-1, 2), 6
        rule = jacobi_rule(alpha, beta, m, precision=40)
        with mp.workdps(70):
            for d in range(2 * m):
                quad = mp.fsum(
                    w * x**d for x, w in zip(rule.nodes, rule.weights)
                )
                exact = mp.beta(as_mpf(beta + 1 + d), as_mpf(alpha + 1))
                assert close(quad, exact, "1e-36"), d

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

    def test_equal_requests_share_one_rule(self):
        # the rule is frozen, so equal requests may share it, however the
        # exponents and the precision are spelled
        first = jacobi_rule(1, F(1, 2), 3, precision=40)
        assert jacobi_rule(F(1), F(1, 2), 3, 40) is first
        assert first.alpha == 1 and type(first.alpha) is Fraction
        assert jacobi_rule(1, F(1, 2), 3, precision=60) is not first
        assert numerics._jacobi_rule.cache_info().maxsize is not None


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
