"""Truncated exact series, Cauchy products, and the product formulae."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catconv import hyperseries
from catconv.exactnum import ZeroLowerPochhammer
from catconv.hyperseries import (
    ARG_MINUS,
    ARG_PLUS,
    ARG_SQUARED,
    BAILEY_DIXON,
    BAILEY_WATSON,
    CLAUSEN,
    LEMMA_LINEAR,
    VARIANT_LINEAR,
    PRODUCT_FORMULAE,
    DegenerateLambda,
    SeriesSpec,
    TruncatedSeries,
    check_product_formula,
    check_product_grid,
    contiguous_relation_check,
    pfq_truncate,
    pfq_unity_sum_exact,
    series_mul,
    terminating_4f3_block,
    terminating_4f3_check,
    terminating_4f3_closed_form,
)
from catconv.hyperseries import _product_sides, _view
from catconv.report import CaseRecord, VerificationReport

import reference_kernels as ref

F = Fraction


def one_f_one(a, c, argument=ARG_PLUS):
    return SeriesSpec(uppers=(F(a),), lowers=(F(c),), argument=argument)


class TestPfqTruncate:
    def test_equal_parameters_reduce_to_exponential(self):
        series = pfq_truncate(one_f_one(F(3, 7), F(3, 7)), 6)
        assert series.coeffs == tuple(
            F(1, math.factorial(k)) for k in range(7)
        )

    def test_half_over_two_x_squared_coefficient(self):
        series = pfq_truncate(one_f_one(F(1, 2), 2), 4)
        assert series.coefficient(2) == F(1, 16)

    def test_squared_argument_has_no_odd_powers(self):
        spec = SeriesSpec(
            uppers=(F(1), F(1)),
            lowers=(F(2), F(1), F(3, 2)),
            argument=ARG_SQUARED,
        )
        series = pfq_truncate(spec, 9)
        assert series.coefficient(1) == 0
        assert all(series.coefficient(k) == 0 for k in range(1, 10, 2))

    def test_squared_argument_scaling(self):
        # Term k lands on x^{2k} with a 4^{-k} scale.
        spec = SeriesSpec(uppers=(F(1),), lowers=(F(1),), argument=ARG_SQUARED)
        series = pfq_truncate(spec, 6)
        assert series.coefficient(0) == 1
        assert series.coefficient(2) == F(1, 4)
        assert series.coefficient(4) == F(1, 32)

    def test_minus_argument_flips_odd_signs(self):
        plus = pfq_truncate(one_f_one(F(1, 3), F(5, 4)), 7)
        minus = pfq_truncate(one_f_one(F(1, 3), F(5, 4), ARG_MINUS), 7)
        for k in range(8):
            expected = -plus.coeffs[k] if k % 2 else plus.coeffs[k]
            assert minus.coeffs[k] == expected

    def test_prefactor_shifts_and_scales(self):
        spec = SeriesSpec(
            uppers=(F(1),),
            lowers=(F(1),),
            prefactor=(F(3, 2), 2),
        )
        series = pfq_truncate(spec, 4)
        assert series.coeffs[:2] == (F(0), F(0))
        assert series.coefficient(2) == F(3, 2)
        assert series.coefficient(3) == F(3, 2)

    def test_terminating_upper_wins_over_later_lower_zero(self):
        # Upper -2 kills every term past x^2, and lower -12 hits zero only
        # past the order.
        spec = SeriesSpec(uppers=(F(-2),), lowers=(F(-12),))
        series = pfq_truncate(spec, 10)
        assert all(series.coefficient(k) == 0 for k in range(3, 11))
        assert series.coefficient(1) == F(-2) / F(-12)

    def test_lower_zero_within_the_order_raises_after_termination(self):
        # Upper -2 ends the series after x^2, but lower -5 still hits zero
        # within the order: a pole or 0/0, not the truncated sum.
        spec = SeriesSpec(uppers=(F(-2),), lowers=(F(-5),))
        with pytest.raises(ZeroLowerPochhammer) as caught:
            pfq_truncate(spec, 10)
        assert (caught.value.parameter, caught.value.index) == (-5, 5)

    def test_lower_zero_before_termination_raises(self):
        spec = SeriesSpec(uppers=(F(-5),), lowers=(F(-2),))
        with pytest.raises(ZeroLowerPochhammer):
            pfq_truncate(spec, 10)

    @given(st.integers(1, 8), st.integers(0, 20))
    def test_terminating_tail_is_zero(self, m, extra):
        spec = SeriesSpec(uppers=(F(-m), F(1, 2)), lowers=(F(7, 3),))
        series = pfq_truncate(spec, m + extra)
        assert all(series.coefficient(k) == 0 for k in range(m + 1, m + extra + 1))
        assert series.coefficient(m) != 0


def random_series(order):
    return st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=10),
        min_size=order + 1,
        max_size=order + 1,
    ).map(lambda cs: TruncatedSeries(order=order, coeffs=tuple(cs)))


class TestSeriesMul:
    def test_multiplicative_identity(self):
        a = pfq_truncate(one_f_one(F(1, 2), F(7, 2)), 8)
        unit = TruncatedSeries(order=8, coeffs=(F(1),) + (F(0),) * 8)
        assert series_mul(a, unit).coeffs == a.coeffs

    def test_difference_of_squares(self):
        plus = TruncatedSeries(order=2, coeffs=(F(1), F(1), F(0)))
        minus = TruncatedSeries(order=2, coeffs=(F(1), F(-1), F(0)))
        assert series_mul(plus, minus).coeffs == (F(1), F(0), F(-1))

    def test_one_f_one_product_x_squared_coefficient(self):
        # 1/6 - 1/4 + 1/6 = +1/12
        left = pfq_truncate(one_f_one(1, 2), 4)
        right = pfq_truncate(one_f_one(1, 2, ARG_MINUS), 4)
        assert series_mul(left, right).coefficient(2) == F(1, 12)

    def test_truncates_to_shorter_factor(self):
        a = pfq_truncate(one_f_one(F(1), F(1)), 10)
        b = pfq_truncate(one_f_one(F(1), F(1)), 3)
        assert series_mul(a, b).order == 3

    @settings(max_examples=60)
    @given(random_series(5), random_series(5))
    def test_commutative(self, a, b):
        assert series_mul(a, b).coeffs == series_mul(b, a).coeffs

    @settings(max_examples=40)
    @given(random_series(4), random_series(4), random_series(4))
    def test_associative_up_to_truncation(self, a, b, c):
        left = series_mul(series_mul(a, b), c)
        right = series_mul(a, series_mul(b, c))
        assert left.coeffs == right.coeffs


SAMPLE_POINTS = {
    BAILEY_DIXON: [(F(1), F(2), None), (F(1, 2), F(3, 2), None), (F(2, 3), F(3), None)],
    BAILEY_WATSON: [(F(1, 2), F(3, 2), None), (F(1), F(2), None), (F(5, 2), F(1, 3), None)],
    CLAUSEN: [(F(1, 2), F(1, 2), None), (F(1), F(1, 3), None), (F(3, 2), F(2), None)],
    LEMMA_LINEAR: [(F(1, 2), F(2), F(1)), (F(1), F(3), F(1, 2)), (F(2, 3), F(5, 2), F(2))],
    VARIANT_LINEAR: [(F(1, 2), F(2), None), (F(1), F(3), None), (F(3, 2), F(5, 2), None)],
}


class TestProductFormulae:
    @pytest.mark.parametrize("formula", PRODUCT_FORMULAE)
    def test_sample_points_pass(self, formula):
        for a, c, lam in SAMPLE_POINTS[formula]:
            report = check_product_formula(formula, a, c, lam, order=16)
            assert report.ok, (formula, a, c, lam, report.failures)

    def test_dixon_named_example(self):
        assert check_product_formula(BAILEY_DIXON, 1, 2, order=16).ok

    def test_clausen_square_constant_term(self):
        [sides] = _product_sides(CLAUSEN, F(1, 2), F(1, 2), (None,), 12)
        lhs, _ = map(_view, sides)
        assert lhs.coefficient(0) == 1

    def test_lemma_specializes_to_variant(self):
        for a in (F(1, 2), F(1), F(5, 3)):
            for c in (F(2), F(5, 2), F(7, 3)):
                [lemma] = _product_sides(LEMMA_LINEAR, a, c, (c - 1,), 20)
                [variant] = _product_sides(VARIANT_LINEAR, a, c, (None,), 20)
                lemma_l, lemma_r = map(_view, lemma)
                var_l, var_r = map(_view, variant)
                assert lemma_l.coeffs == var_l.coeffs
                assert lemma_r.coeffs == var_r.coeffs

    def test_lemma_rejects_zero_lambda(self):
        with pytest.raises(DegenerateLambda):
            check_product_formula(LEMMA_LINEAR, F(1, 2), F(2), 0, order=8)

    def test_variant_rejects_c_one(self):
        with pytest.raises(DegenerateLambda):
            check_product_formula(VARIANT_LINEAR, F(1, 2), F(1), order=8)

    def test_first_factor_is_built_first(self):
        # at c = -1 the first factor's lower c and the second's c - 1 both
        # hit zero; the first factor is built first, so c is the one named
        with pytest.raises(ZeroLowerPochhammer) as info:
            check_product_formula(VARIANT_LINEAR, F(1, 2), -1, order=10)
        assert (info.value.parameter, info.value.index) == (-1, 1)
        assert str(info.value) == "lower parameter -1 hits zero at offset 1"

    @pytest.mark.parametrize("formula", PRODUCT_FORMULAE)
    def test_grid_sweep_order_24(self, formula):
        report = check_product_grid(formula, order=24)
        assert report.ok, report.failures[:3]
        assert report.cases_run > 0

    @pytest.mark.parametrize(
        "formula, lams, builds",
        [
            (LEMMA_LINEAR, [F(2)], 3 * 64),
            (LEMMA_LINEAR, list(hyperseries.DEFAULT_RATIONAL_GRID), 3 * 64),
            (BAILEY_DIXON, None, 2 * 64),
            (BAILEY_WATSON, None, 3 * 64),
        ],
    )
    def test_series_are_built_once_per_block(
        self, monkeypatch, formula, lams, builds
    ):
        # each (a, c) builds its rows once, as locals: the lemma those of
        # its first factor, of its even part's base and of its odd part,
        # however many lams it covers; bailey-dixon's +x and -x factors
        # share their (a; c) rows.  Nothing is kept across points, so
        # bailey-watson builds its (a; 2a), (c; 2c) and right-side rows at
        # every point.  A cache across points would save little: on the
        # five default grids at order 24, 144 of 3,592 lookups of a
        # per-grid memo found an entry built at another point (120 in
        # bailey-watson, 24 in variant-linear)
        calls = []
        original = hyperseries._ratio_rows

        def ratio_rows(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hyperseries, "_ratio_rows", ratio_rows)
        report = check_product_grid(formula, order=16, lam_grid=lams)
        assert report.ok and report.skipped == 0
        assert len(calls) == builds

    def test_grid_counts_skips(self):
        # c = 1 is inadmissible for the variant, so the sweep must skip it.
        report = check_product_grid(VARIANT_LINEAR, order=8)
        assert report.skipped > 0

    @pytest.mark.parametrize("order", [0, 1, 8])
    @pytest.mark.parametrize("formula", PRODUCT_FORMULAE)
    def test_no_lattice_point_fails(self, formula, order):
        # integers and half-integers, where uppers end series before,
        # at and after lowers hit zero: each point passes, or a single
        # point raises and the grid skips it
        lattice = tuple(F(k, 2) for k in range(-6, 5))
        lams = [F(-3), F(-1), F(-1, 2), F(1, 2), F(2)]
        if formula != LEMMA_LINEAR:
            lams = [None]
        passed = undefined = 0
        for a, c, lam in grid_points(formula, lattice, lams):
            try:
                report = check_product_formula(formula, a, c, lam, order)
            except (ZeroLowerPochhammer, DegenerateLambda):
                undefined += 1
                continue
            assert report.ok, report.failures
            passed += 1
        with mock.patch.object(hyperseries, "DEFAULT_RATIONAL_GRID", lattice):
            grid = check_product_grid(formula, order, lams)
        assert (grid.cases_run, grid.skipped) == (passed, undefined)
        assert grid.ok

    def test_odd_coefficients_vanish_in_balanced_product(self):
        for a in (F(1, 2), F(1), F(4, 3)):
            for c in (F(3, 2), F(2), F(7, 3)):
                left = pfq_truncate(one_f_one(a, c), 17)
                right = pfq_truncate(one_f_one(a, c, ARG_MINUS), 17)
                product = series_mul(left, right)
                assert all(
                    product.coefficient(k) == 0 for k in range(1, 18, 2)
                ), (a, c)


def reference_sides(formula, specs, order):
    # a formula's two sides from its specs in the order _product_sides
    # builds them: two factors (one, squared, for Clausen), then the right
    # series or its even and odd parts
    # the lemma's second factor and even part carry the (1+lam; lam) column
    column = formula == LEMMA_LINEAR
    series = [
        ref.pfq_truncate(spec, order, column and i in (1, 2))
        for i, spec in enumerate(specs)
    ]
    if formula == CLAUSEN:
        series.insert(0, series[0])
    lhs = ref.series_mul(series[0], series[1]).coeffs
    if len(series) == 3:
        return lhs, series[2].coeffs
    even, odd = series[2].coeffs, series[3].coeffs
    return lhs, tuple(x - y for x, y in zip(even, odd))


def product_specs(formula, a, c, lam=None):
    # a formula's series at one point, each from its own spec: its two
    # factors (one for Clausen), then the right series or its even and odd
    # parts
    half = F(1, 2)
    if formula == BAILEY_DIXON:
        return [
            SeriesSpec((a,), (c,)),
            SeriesSpec((a,), (c,), ARG_MINUS),
            SeriesSpec((a, c - a), (c, c / 2, (1 + c) / 2), ARG_SQUARED),
        ]
    if formula == BAILEY_WATSON:
        return [
            SeriesSpec((a,), (2 * a,)),
            SeriesSpec((c,), (2 * c,), ARG_MINUS),
            SeriesSpec(
                ((a + c) / 2, (a + c + 1) / 2),
                (a + c, a + half, c + half),
                ARG_SQUARED,
            ),
        ]
    if formula == CLAUSEN:
        return [
            SeriesSpec((a, c), (a + c + half,)),
            SeriesSpec((a + c, 2 * a, 2 * c), (a + c + half, 2 * a + 2 * c)),
        ]
    if formula == LEMMA_LINEAR:
        second = (1 + lam, a), (lam, c)
        even = (1 + lam, a, c - a), (lam, c, c / 2, (1 + c) / 2)
    else:
        lam = c - 1
        second = (a,), (lam,)
        even = (a, c - a), (lam, c / 2, (1 + c) / 2)
    return [
        SeriesSpec((a,), (c,)),
        SeriesSpec(*second, ARG_MINUS),
        SeriesSpec(*even, ARG_SQUARED),
        SeriesSpec(
            (1 + a, c - a),
            (c, (1 + c) / 2, (2 + c) / 2),
            ARG_SQUARED,
            (a / (c * lam), 1),
        ),
    ]


def first_mismatch(lhs, rhs):
    return next((i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)


def assert_first_mismatch(report, lhs, rhs):
    # the one failure record names the first differing coefficient and
    # carries both values as the Fraction-per-term reference computes them
    first = first_mismatch(lhs, rhs)
    [case] = report.failures
    assert dict(case.params)["coeff_index"] == first
    assert (case.lhs, case.rhs) == (lhs[first], rhs[first])
    assert type(case.lhs) is type(case.rhs) is Fraction


def undefined_lam(lam, a, order):
    # lam = 0, or lam + k = 0 at a step k that the first factor (a; c; x)
    # takes: k < order, and k < -a where a nonpositive integer a ends the
    # series.  There 1 + lam ends the series a step before the lower lam
    # hits zero, so every later term is 0/0; where a ends it first, no
    # term is.
    steps = order
    if a.denominator == 1 and a <= 0:
        steps = min(steps, -a)
    return lam == 0 or (lam.denominator == 1 and 1 - steps <= lam <= -1)


def reference_point(formula, a, c, lam, order):
    """One point's two sides from its own specs, or None for a skip."""
    if formula == LEMMA_LINEAR and undefined_lam(lam, a, order):
        return None
    if formula == VARIANT_LINEAR and c == 1:
        return None
    try:
        if formula in (LEMMA_LINEAR, VARIANT_LINEAR):
            # the first factor comes first: at c = 0 it raises before the
            # odd part's prefactor a/c divides by c
            ref.pfq_truncate(SeriesSpec((a,), (c,)), order)
        return reference_sides(formula, product_specs(formula, a, c, lam), order)
    except ZeroLowerPochhammer:
        return None


def reference_report(formula, a, c, lam, order):
    # check_product_formula's report at one point, or None for a skip
    sides = reference_point(formula, a, c, lam, order)
    if sides is None:
        return None
    report = VerificationReport(name=formula)
    lhs, rhs = sides
    first = first_mismatch(lhs, rhs)
    if first is None:
        report.record_pass()
        return report
    params = (("formula", formula), ("a", a), ("c", c))
    if formula == LEMMA_LINEAR:
        params += (("lam", lam),)
    params += (("order", order), ("coeff_index", first))
    report.record_failure(CaseRecord(params, lhs[first], rhs[first]))
    return report


def grid_points(formula, grid, lams):
    for a, c in itertools.product(grid, grid):
        for lam in lams if formula == LEMMA_LINEAR else [None]:
            yield a, c, lam


def reference_grid(formula, grid, lams, order):
    # check_product_grid's report, point by point from the reference
    report = VerificationReport(name=formula)
    for a, c, lam in grid_points(formula, grid, lams):
        point = reference_report(formula, a, c, lam, order)
        if point is None:
            report.record_skip()
        else:
            report.merge(point)
    return report


class TestProductFormulaFaults:
    @pytest.mark.parametrize(
        "formula, point, index, perturbed",
        [
            (BAILEY_DIXON, (F(1, 2), F(3, 2), None), 0, 2),
            (BAILEY_DIXON, (F(1, 2), F(3, 2), None), 1, 1),
            (BAILEY_WATSON, (F(1), F(2), None), 2, 1),
            (CLAUSEN, (F(1), F(1, 3), None), 0, 1),
            (VARIANT_LINEAR, (F(3, 2), F(5, 2), None), 3, 1),
        ],
    )
    def test_a_perturbed_side_is_recorded_at_its_first_mismatch(
        self, monkeypatch, formula, point, index, perturbed
    ):
        # shift the first upper parameter of the index-th row list built by
        # 1/7, and so every series built from it: one series, or both of
        # bailey-dixon's factors, which share their (a; c) rows.  The
        # record must name the first differing coefficient and carry both
        # values as the Fraction-per-term reference computes them from the
        # same shift
        order = 16
        built = []
        original = hyperseries._rows

        def rows(uppers, lowers, order, stride=1, power=0):
            built.append((uppers, lowers, stride, power))
            if len(built) - 1 == index:
                uppers = (uppers[0] + F(1, 7),) + tuple(uppers[1:])
            return original(uppers, lowers, order, stride, power)

        monkeypatch.setattr(hyperseries, "_rows", rows)
        report = check_product_formula(formula, *point, order=order)
        specs = product_specs(formula, *point)
        for i, spec in enumerate(specs):
            stride = 2 if spec.argument == ARG_SQUARED else 1
            key = (spec.uppers, spec.lowers, stride, spec.prefactor[1])
            if key == built[index]:
                uppers = (spec.uppers[0] + F(1, 7),) + spec.uppers[1:]
                specs[i] = SeriesSpec(
                    uppers, spec.lowers, spec.argument, spec.prefactor
                )
                perturbed -= 1
        assert perturbed == 0
        assert_first_mismatch(report, *reference_sides(formula, specs, order))

    def test_a_perturbed_lemma_second_factor_is_recorded_at_its_first_mismatch(
        self, monkeypatch
    ):
        # the lemma's second factor (1+lam, a; lam, c; -x) is the first
        # factor's rows times the (1+lam; lam) column, the block's first;
        # shift that column's upper 1 + lam by 1/7 there
        order = 16
        a, c, lam = F(2, 3), F(5, 2), F(2)
        columns = []

        def column(rows, lam):
            upper = 1 + lam + (F(1, 7) if not columns else 0)
            columns.append(lam)
            ratios = [(upper + k) / (lam + k) for k in range(len(rows))]
            return [
                (num * r.numerator, den * r.denominator)
                for (num, den), r in zip(rows, ratios)
            ]

        monkeypatch.setattr(hyperseries, "_column", column)
        report = check_product_formula(LEMMA_LINEAR, a, c, lam, order=order)
        specs = product_specs(LEMMA_LINEAR, a, c, lam)
        specs[1] = SeriesSpec((1 + lam + F(1, 7), a), (lam, c), ARG_MINUS)
        assert columns == [lam, lam]
        assert_first_mismatch(
            report, *reference_sides(LEMMA_LINEAR, specs, order)
        )

    def test_an_off_by_one_column_is_recorded_at_the_grids_first_mismatch(
        self, monkeypatch
    ):
        # every lam's column ratio one off, (2+lam+k)/(1+lam+k) for
        # (1+lam+k)/(lam+k), in both the second factor and the even part;
        # the grid's first record is the reference's first mismatching
        # point, in grid order, and coefficient
        original = hyperseries._column
        monkeypatch.setattr(
            hyperseries, "_column", lambda rows, lam: original(rows, lam + 1)
        )
        order = 8
        report = check_product_grid(LEMMA_LINEAR, order=order)
        grid = hyperseries.DEFAULT_RATIONAL_GRID
        for a, c, lam in itertools.product(grid, grid, grid):
            specs = product_specs(LEMMA_LINEAR, a, c, lam)
            for i in (1, 2):
                spec = specs[i]
                specs[i] = SeriesSpec(
                    (2 + lam,) + spec.uppers[1:],
                    (1 + lam,) + spec.lowers[1:],
                    spec.argument,
                )
            lhs, rhs = reference_sides(LEMMA_LINEAR, specs, order)
            first = next((i for i in range(order + 1) if lhs[i] != rhs[i]), None)
            if first is not None:
                break
        assert report.failures, "the off-by-one column went unrecorded"
        case = report.failures[0]
        assert dict(case.params) == {
            "formula": LEMMA_LINEAR, "a": a, "c": c, "lam": lam,
            "order": order, "coeff_index": first,
        }
        assert (case.lhs, case.rhs) == (lhs[first], rhs[first])


class TestTerminating4F3:
    def test_n_zero_both_sides_one(self):
        assert terminating_4f3_closed_form(0, F(1, 3), F(1, 5), 2) == 1
        assert terminating_4f3_check(0, F(1, 3), F(1, 5), 2).ok

    def test_n_one_is_minus_half_at_lambda_two(self):
        # two-term sum 1 - (1+lam)/lam is independent of c and e
        for c, e in [(F(1, 3), F(1, 5)), (F(2, 7), F(3, 4)), (F(1, 2), F(2, 5))]:
            assert terminating_4f3_closed_form(1, c, e, 2) == F(-1, 2)
            assert terminating_4f3_check(1, c, e, 2).ok

    def test_n_two_unit_parameters(self):
        assert terminating_4f3_closed_form(2, 1, 1, 1) == 3
        assert terminating_4f3_check(2, 1, 1, 1).ok

    def test_zero_lambda_rejected(self):
        with pytest.raises(DegenerateLambda):
            terminating_4f3_closed_form(3, F(1, 3), F(1, 5), 0)
        with pytest.raises(DegenerateLambda):
            terminating_4f3_check(3, F(1, 3), F(1, 5), 0)

    @pytest.mark.parametrize("n", range(0, 13))
    @pytest.mark.parametrize("lam", [1, 2, F(1, 2), F(7, 3)])
    def test_closed_form_matches_direct_sum(self, n, lam):
        report = terminating_4f3_check(n, F(1, 3), F(1, 5), lam)
        assert report.ok, report.failures

    def test_direct_sum_oracle_inline(self):
        # Recompute one case with a from-scratch term loop.
        n, c, e, lam = 4, F(1, 3), F(1, 5), F(3)
        total = F(0)
        for k in range(n + 1):
            num = (
                math.prod(F(-n) + j for j in range(k))
                * math.prod(c + j for j in range(k))
                * math.prod(e + j for j in range(k))
                * math.prod(1 + lam + j for j in range(k))
            )
            den = (
                math.prod(1 - c - n + j for j in range(k))
                * math.prod(1 - e - n + j for j in range(k))
                * math.prod(lam + j for j in range(k))
                * math.factorial(k)
            )
            total += F(num) / F(den)
        assert total == terminating_4f3_closed_form(n, c, e, lam)


class TestContiguousRelation:
    def test_n_zero(self):
        assert contiguous_relation_check(0, F(1, 3), F(1, 5), 2).ok

    def test_named_small_cases(self):
        assert contiguous_relation_check(1, F(1, 3), F(1, 5), 2).ok
        assert contiguous_relation_check(3, F(1, 2), F(3, 2), 1).ok

    @pytest.mark.parametrize("n", range(0, 11))
    @pytest.mark.parametrize("lam", [1, 3, F(2, 5)])
    def test_grid(self, n, lam):
        assert contiguous_relation_check(n, F(1, 3), F(1, 5), lam).ok

    def test_zero_lambda_rejected(self):
        with pytest.raises(DegenerateLambda):
            contiguous_relation_check(2, F(1, 3), F(1, 5), 0)


class TestUnitySum:
    def test_geometric_like_partial_sum(self):
        # 2F1(1, 1; 2; 1) partial terms are 1/(k+1); check first four.
        value = pfq_unity_sum_exact([F(1), F(1)], [F(2)], 3)
        assert value == F(1) + F(1, 2) + F(1, 3) + F(1, 4)

    def test_zero_lower_raises(self):
        with pytest.raises(ZeroLowerPochhammer):
            pfq_unity_sum_exact([F(1)], [F(-2)], 5)

    def test_upper_termination_short_circuits(self):
        # -3 kills the series after four terms; lower -8 is never reached.
        value = pfq_unity_sum_exact([F(-3)], [F(-8)], 7)
        direct = sum(
            F(math.prod(-3 + j for j in range(k)))
            / (math.prod(-8 + j for j in range(k)) * math.factorial(k))
            for k in range(4)
        )
        assert value == direct


class TestTerminating4F3Block:
    def test_passes_on_a_defined_grid(self):
        lams = [F(1), F(2), F(1, 2), F(7, 3)]
        for n in range(0, 9):
            for c, e in [(F(1, 3), F(1, 5)), (F(3, 2), F(2)), (F(2, 3), F(5, 2))]:
                evaluation, contiguous = terminating_4f3_block(n, c, e, lams)
                assert evaluation.name == "terminating-4f3"
                assert contiguous.name == "contiguous-relation"
                for report in (evaluation, contiguous):
                    assert (report.cases_run, report.skipped) == (len(lams), 0)
                    assert report.ok, report.failures

    def test_single_point_checks_share_its_skips(self):
        # c = -1 and lam = -1 are undefined at n = 3; the one-lam checks
        # skip them as the block does instead of reporting a mismatch
        for check in (terminating_4f3_check, contiguous_relation_check):
            for c, lam in [(F(-1), F(2)), (F(1, 3), F(-1))]:
                report = check(3, c, F(1, 5), lam)
                assert (report.cases_run, report.skipped) == (0, 1)
                assert report.elapsed_ms is not None

    # lam = -3 = -n ends the 4F3 a term early, through its 1 + lam upper
    @pytest.mark.parametrize("lam", [F(2), F(7, 3), F(-3)])
    def test_records_mismatch_with_both_values(self, monkeypatch, lam):
        # a wrong closed-form tail must surface as a failure of the
        # evaluation check only, with the shared 4F3 sum as its lhs
        monkeypatch.setattr(
            "catconv.hyperseries._f43_tail", lambda n, lam: (n + 1, 1)
        )
        c, e = F(1, 3), F(1, 5)
        evaluation, contiguous = terminating_4f3_block(3, c, e, [lam])
        assert contiguous.ok and contiguous.cases_run == 1
        [case] = evaluation.failures
        assert dict(case.params) == {"n": 3, "c": c, "e": e, "lam": lam}
        assert case.lhs == ref.pfq_unity_sum_exact(
            [F(-3), c, e, 1 + lam], [1 - c - 3, 1 - e - 3, lam], 3
        )
        assert case.rhs == terminating_4f3_closed_form(3, c, e, lam)

    def test_records_contiguous_mismatch_alone(self, monkeypatch):
        # a wrong raised 3F2 must fail the contiguous check only, with the
        # 4F3 sum and the combination as its two Fractions
        original = hyperseries._unity_sum

        def unity_sum(uppers, lowers, last_index):
            p, q = original(uppers, lowers, last_index)
            # the raised 3F2 is the only sum whose first upper is 1 - n
            return (p + q, q) if uppers[0] == (-2, 1) else (p, q)

        monkeypatch.setattr(hyperseries, "_unity_sum", unity_sum)
        c, e, lam = F(1, 3), F(1, 5), F(2)
        evaluation, contiguous = terminating_4f3_block(3, c, e, [lam])
        assert evaluation.ok and evaluation.cases_run == 1
        [case] = contiguous.failures
        lowers = [1 - c - 3, 1 - e - 3]
        plain = ref.pfq_unity_sum_exact([F(-3), c, e], lowers, 3)
        raised = ref.pfq_unity_sum_exact([F(-2), c, e], lowers, 2) + 1
        assert dict(case.params) == {"n": 3, "c": c, "e": e, "lam": lam}
        assert case.lhs == ref.pfq_unity_sum_exact(
            [F(-3), c, e, 1 + lam], lowers + [lam], 3
        )
        assert case.rhs == (lam + 3) / lam * plain - 3 / lam * raised
        assert type(case.lhs) is type(case.rhs) is Fraction

    @pytest.mark.parametrize("lams", [[F(2)], [F(k, 3) for k in range(1, 9)]])
    def test_rows_are_built_once_per_block(self, monkeypatch, lams):
        # every lam's 4F3 reuses the rows of the plain 3F2, so a block
        # builds two row lists, for the plain and the raised 3F2, however
        # many lams it covers
        calls = []
        original = hyperseries._ratio_rows

        def ratio_rows(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hyperseries, "_ratio_rows", ratio_rows)
        evaluation, contiguous = terminating_4f3_block(6, F(1, 3), F(1, 5), lams)
        assert evaluation.ok and evaluation.cases_run == len(lams)
        assert len(calls) == 2

    def test_undefined_parameters_are_skipped(self):
        # c = -1 lies in [1-n, 0]: its upper and the lower 1-c-n both hit
        # zero inside the sum, so the whole block is skipped
        evaluation, contiguous = terminating_4f3_block(3, F(-1), F(1, 5), [1, 2])
        for report in (evaluation, contiguous):
            assert (report.cases_run, report.skipped) == (0, 2)

    def test_zero_and_undefined_lambdas_are_skipped(self):
        # lam = 0 is degenerate and -3..-1 are undefined at n = 4;
        # lam = -4 terminates the series cleanly and still runs
        lams = [-4, -3, -2, -1, 0, 1]
        evaluation, contiguous = terminating_4f3_block(4, F(1, 3), F(1, 5), lams)
        for report in (evaluation, contiguous):
            assert (report.cases_run, report.skipped) == (2, 4)
            assert report.ok, report.failures


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# nonpositive integers make uppers terminate and lowers hit zero
parameters = st.one_of(st.integers(-6, 0).map(F), rationals)


# integers down to -10 reach every undefined c, e and lam at n <= 10
block_parameters = st.one_of(
    st.integers(-10, 3).map(F),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)

# the criterion's grid, and fractions that at n >= 30 rarely skip a block
criterion_parameters = st.one_of(
    st.sampled_from(hyperseries.DEFAULT_RATIONAL_GRID),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


def outcome(fn, *args):
    """A kernel's value, or the identity of the zero-lower error it raised."""
    try:
        return fn(*args)
    except ZeroLowerPochhammer as exc:
        return (type(exc), exc.parameter, exc.index, str(exc))


# 0, negative integers past the largest order, halves and thirds: c,
# c/2, (1+c)/2, 2a, 2c, a+1/2 and lam each reach zero within the order
product_parameters = st.one_of(
    st.integers(-31, 3).map(F),
    st.fractions(min_value=-16, max_value=4, max_denominator=3),
)


def report_or_error(fn, *args):
    """A report without its timing, or None for a skip."""
    try:
        report = fn(*args)
    except (ZeroLowerPochhammer, DegenerateLambda):
        return None
    return None if report is None else report.as_dict(include_timing=False)


class TestKernelsAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(PRODUCT_FORMULAE),
        st.lists(product_parameters, min_size=1, max_size=3),
        st.lists(product_parameters, min_size=1, max_size=3),
        st.integers(0, 30),
    )
    @example(LEMMA_LINEAR, [F(1, 2), F(2)], [F(-3), F(-8), F(-5, 2)], 8)
    @example(LEMMA_LINEAR, [F(-2), F(1, 2)], [F(-5), F(-2), F(-1)], 8)
    @example(LEMMA_LINEAR, [F(1), F(-3)], [F(-2)], 2)
    @example(LEMMA_LINEAR, [F(0)], [F(0), F(-1)], 8)
    @example(LEMMA_LINEAR, [F(1), F(-1)], [F(-1)], 0)
    @example(VARIANT_LINEAR, [F(1), F(0)], [F(1)], 5)
    def test_product_grid(self, formula, grid, lams, order):
        # the grid, point by point, and check_product_formula at each
        # of its points, against every point built from its own specs: the
        # same passes, skips and failure records, in the same order
        lam_grid = lams if formula == LEMMA_LINEAR else None
        with mock.patch.object(hyperseries, "DEFAULT_RATIONAL_GRID", tuple(grid)):
            fast = report_or_error(check_product_grid, formula, order, lam_grid)
        slow = report_or_error(reference_grid, formula, grid, lams, order)
        assert fast == slow
        for a, c, lam in grid_points(formula, grid, lams):
            point = (formula, a, c, lam, order)
            assert report_or_error(check_product_formula, *point) == (
                report_or_error(reference_report, *point)
            ), point

    @settings(max_examples=300)
    @given(
        st.lists(parameters, max_size=4),
        st.lists(parameters, max_size=3),
        st.integers(-1, 14),
    )
    def test_unity_sum(self, uppers, lowers, last_index):
        assert outcome(pfq_unity_sum_exact, uppers, lowers, last_index) == outcome(
            ref.pfq_unity_sum_exact, uppers, lowers, last_index
        )

    @settings(max_examples=300)
    @given(
        st.lists(parameters, max_size=3),
        st.lists(parameters, max_size=3),
        st.sampled_from([ARG_PLUS, ARG_MINUS, ARG_SQUARED]),
        rationals,
        st.integers(0, 3),
        st.integers(0, 16),
    )
    def test_truncate(self, uppers, lowers, argument, coeff, power, order):
        spec = SeriesSpec(
            tuple(uppers), tuple(lowers), argument, prefactor=(coeff, power)
        )
        assert outcome(pfq_truncate, spec, order) == outcome(
            ref.pfq_truncate, spec, order
        )

    @settings(max_examples=200)
    @given(
        st.integers(0, 8).flatmap(random_series),
        st.integers(0, 8).flatmap(random_series),
    )
    def test_series_mul(self, a, b):
        assert series_mul(a, b) == ref.series_mul(a, b)

    @settings(max_examples=300)
    @given(
        st.integers(0, 10),
        block_parameters,
        block_parameters,
        st.lists(block_parameters, min_size=1, max_size=4),
    )
    def test_4f3_block(self, n, c, e, lams):
        fast = terminating_4f3_block(n, c, e, lams)
        slow = ref.terminating_4f3_block(n, c, e, lams)
        assert [r.as_dict(include_timing=False) for r in fast] == [
            r.as_dict(include_timing=False) for r in slow
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(30, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                criterion_parameters,
                criterion_parameters,
                st.lists(
                    st.one_of(
                        st.integers(1, 8).map(F),
                        st.builds(F, st.integers(-60, 60), st.integers(2, 6)),
                        st.sampled_from([F(-n), F(-2 * n - 1, 2)]),
                    ),
                    min_size=1,
                    max_size=4,
                ),
            )
        )
    )
    @example((35, F(1, 3), F(5, 2), [F(-35), F(-71, 2), F(7, 6), F(4)]))
    def test_4f3_block_at_criterion_sizes(self, point):
        # the 4F3 rows of the criterion's larger n, where a lam of -n
        # ends the series a term early and -n - 1/2 runs it to its end
        n, c, e, lams = point
        fast = terminating_4f3_block(n, c, e, lams)
        slow = ref.terminating_4f3_block(n, c, e, lams)
        assert [r.as_dict(include_timing=False) for r in fast] == [
            r.as_dict(include_timing=False) for r in slow
        ]

    def test_series_mul_of_expansions_at_order_48(self):
        a = pfq_truncate(SeriesSpec((F(2, 3), F(1, 2)), (F(5, 3),)), 48)
        b = pfq_truncate(
            SeriesSpec((F(-7, 2),), (F(1, 3), F(3, 2)), ARG_SQUARED), 48
        )
        assert series_mul(a, b) == ref.series_mul(a, b)
