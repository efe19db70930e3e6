"""Catalog of convolution identities: oracle sums vs closed forms."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from catconv import identities, suite
from catconv.exactnum import binomial, catalan, pochhammer
from catconv.identities import (
    CHI_BEARING,
    IDENTITIES,
    DomainError,
    IdentityId,
    IdentityParams,
    case_points,
    closed_form,
    dictionary_check,
    lhs_value,
    rhs_value,
    specialization_check,
    specialization_findings,
    validate,
    verify_grid,
)

import reference_kernels as ref

F = Fraction


def verify_point(ident, p):
    """verify_grid at the one point ``p``, which must be in the domain."""
    def axis(value):
        return None if value is None else (value, value)

    def grid(value):
        return None if value is None else (value,)

    report = verify_grid(
        ident, (p.n, p.n), axis(p.lam), axis(p.mu),
        a_grid=grid(p.a), c_grid=grid(p.c),
    )
    assert (report.cases_run, report.skipped) == (1, 0)
    return report


# sums that take integer values on their whole valid domain
INTEGER_VALUED = (
    IdentityId.THM_A,
    IdentityId.THM_B,
    IdentityId.THM_C,
    IdentityId.THM_D,
)


class TestKnownValues:
    def test_thm_a_direct_sum(self):
        # C0 C2 - 2 C1 C1 + C2 C0 = 2 - 2 + 2
        assert lhs_value(IdentityId.THM_A, IdentityParams(n=2, lam=0)) == 2

    @pytest.mark.parametrize("lam", [0, 1, 5, 9])
    def test_thm_a_odd_index_vanishes(self, lam):
        assert lhs_value(IdentityId.THM_A, IdentityParams(n=1, lam=lam)) == 0

    def test_thm_b_small_case(self):
        p = IdentityParams(n=2, lam=1)
        assert lhs_value(IdentityId.THM_B, p) == 20 - 24 + 10
        assert rhs_value(IdentityId.THM_B, p) == 6

    def test_thm_c_small_case(self):
        p = IdentityParams(n=2, lam=0)
        assert lhs_value(IdentityId.THM_C, p) == 6 - 8 + 6
        assert rhs_value(IdentityId.THM_C, p) == 4

    def test_thm_e_small_case(self):
        p = IdentityParams(n=2, lam=1, mu=0)
        assert lhs_value(IdentityId.THM_E, p) == 3

    def test_prop_a_small_case(self):
        p = IdentityParams(n=2, a=1, c=3)
        assert lhs_value(IdentityId.PROP_A, p) == F(1, 6) - F(2, 9) + F(1, 6)
        assert rhs_value(IdentityId.PROP_A, p) == F(1, 9)

    def test_prop_b_small_case(self):
        p = IdentityParams(n=2, a=F(1, 2), c=1)
        assert lhs_value(IdentityId.PROP_B, p) == F(1, 3) - F(1, 2) + F(3, 8)
        assert rhs_value(IdentityId.PROP_B, p) == F(5, 24)

    def test_prop_c_small_case(self):
        p = IdentityParams(n=1, a=1, c=2)
        assert lhs_value(IdentityId.PROP_C, p) == F(1, 2)
        assert rhs_value(IdentityId.PROP_C, p) == F(1, 2)

    def test_recurrence_case(self):
        p = IdentityParams(n=3)
        report = verify_point(IdentityId.RECURRENCE, p)
        assert report.ok
        assert lhs_value(IdentityId.RECURRENCE, p) == 14

    def test_touchard_case(self):
        p = IdentityParams(n=4)
        assert verify_point(IdentityId.TOUCHARD, p).ok
        assert lhs_value(IdentityId.TOUCHARD, p) == catalan(5)


class TestGrids:
    def test_thm_a_full_grid(self):
        report = verify_grid(IdentityId.THM_A, (0, 40), (0, 10))
        assert report.ok
        assert report.cases_run == 41 * 11
        assert report.skipped == 0

    def test_cor_3_grid(self):
        report = verify_grid(IdentityId.COR_3, (0, 30), (0, 8))
        assert report.ok

    @pytest.mark.parametrize(
        "ident",
        [IdentityId.RECURRENCE, IdentityId.TOUCHARD,
         IdentityId.MIKIC1, IdentityId.MIKIC2],
    )
    def test_single_parameter_identities(self, ident):
        report = verify_grid(ident, (0, 120))
        assert report.ok
        assert report.cases_run == 121

    def test_mikic_matches_lam_zero_theorems(self):
        for n in range(101):
            base = IdentityParams(n=n)
            lifted = IdentityParams(n=n, lam=0)
            assert lhs_value(IdentityId.MIKIC1, base) == lhs_value(
                IdentityId.THM_A, lifted
            )
            assert lhs_value(IdentityId.MIKIC2, base) == lhs_value(
                IdentityId.THM_B, lifted
            )

    def test_rational_grids_for_propositions(self):
        grid = [F(1, 2), F(3, 2), F(2), F(7, 3)]
        for ident in (IdentityId.PROP_A, IdentityId.PROP_B, IdentityId.PROP_C):
            report = verify_grid(ident, (0, 20), rational_grid=grid)
            assert report.ok, (ident, report.failures[:2])
            assert report.cases_run > 0

    def test_separate_a_and_c_grids(self):
        report = verify_grid(
            IdentityId.PROP_A,
            (0, 10),
            a_grid=[F(1, 2), F(1)],
            c_grid=[F(5, 2)],
        )
        assert report.ok
        assert report.cases_run == 11 * 2 * 1

    def test_domain_violations_counted_as_skips(self):
        # thm-d is undefined at n=0 with lam > 0
        report = verify_grid(IdentityId.THM_D, (0, 5), (0, 2))
        assert report.ok
        assert report.skipped == 2


def raising_at(table, ident, n, monkeypatch, error=ZeroDivisionError):
    # make one entry of an identity table raise at every point with index n
    original = table[ident]

    def entry(p):
        if p.n == n:
            raise error(f"raised at n={n}")
        return original(p)

    monkeypatch.setitem(table, ident, entry)


class TestCaseCapture:
    """An ArithmeticError at one point is a failure record, not an abort."""

    def test_grid_records_the_error_and_runs_on(self, monkeypatch):
        raising_at(identities._RHS, IdentityId.THM_D, 3, monkeypatch)
        report = verify_grid(IdentityId.THM_D, (0, 5), (0, 2))
        # thm-d's two n = 0 skips are still skips
        assert report.skipped == 2
        assert report.cases_run == 6 * 3 - 2
        assert [dict(r.params) for r in report.failures] == [
            {"n": 3, "lam": lam} for lam in range(3)
        ]
        for record in report.failures:
            assert (record.lhs, record.rhs) == (None, None)
            assert record.note == "ZeroDivisionError: raised at n=3"

    def test_parity_records_the_error_and_runs_on(self, monkeypatch):
        sizes = suite.SuiteSizes(
            thm_n=5, thm_lam=1, thm_mu=1, mikic_n=5, prop_n=3, cor_n=5,
            cor_lam=1,
        )
        clean = suite.criterion_parity(sizes).reports[0]
        assert clean.ok and clean.skipped == 0
        raising_at(identities._LHS, IdentityId.THM_A, 3, monkeypatch)
        # a DomainError stays a skip: thm-c at n = 5, lam = 0 and 1
        raising_at(identities._LHS, IdentityId.THM_C, 5, monkeypatch,
                   error=DomainError)
        # and a plain mismatch: cor-3's sum made nonzero at n = 1, lam = 0
        cor_3 = identities._LHS[IdentityId.COR_3]
        monkeypatch.setitem(
            identities._LHS, IdentityId.COR_3,
            lambda p: F(1) if (p.n, p.lam) == (1, 0) else cor_3(p),
        )
        report = suite.criterion_parity(sizes).reports[0]
        assert (report.cases_run, report.skipped) == (clean.cases_run - 2, 2)
        # one report holds every identity, so each record names its own,
        # first
        assert [r.params for r in report.failures] == [
            (("identity", "thm-a"), ("n", 3), ("lam", 0)),
            (("identity", "thm-a"), ("n", 3), ("lam", 1)),
            (("identity", "cor-3"), ("n", 1), ("lam", 0)),
        ]
        assert report.failures[0].note == "ZeroDivisionError: raised at n=3"
        assert report.failures[0].lhs is None
        assert (report.failures[2].lhs, report.failures[2].rhs) == (1, 0)

    def test_mikic_records_the_error_and_runs_on(self, monkeypatch):
        raising_at(identities._LHS, IdentityId.MIKIC1, 3, monkeypatch)
        # and a plain mismatch: mikic-2's sum off by one at n = 5
        mikic_2 = identities._LHS[IdentityId.MIKIC2]
        monkeypatch.setitem(
            identities._LHS, IdentityId.MIKIC2,
            lambda p: mikic_2(p) + (p.n == 5),
        )
        report = suite.criterion_mikic(suite.QUICK_SIZES).reports[0]
        assert report.cases_run == 2 * (suite.QUICK_SIZES.mikic_n + 1)
        assert [r.params for r in report.failures] == [
            (("base", "mikic-1"), ("general", "thm-a"), ("n", 3)),
            (("base", "mikic-2"), ("general", "thm-b"), ("n", 5)),
        ]
        raised, mismatch = report.failures
        assert (raised.lhs, raised.rhs) == (None, None)
        assert raised.note == "ZeroDivisionError: raised at n=3"
        assert mismatch.lhs == mismatch.rhs + 1
        assert mismatch.note.startswith("all four of base")


class TestCasePoints:
    def test_grid_checks_each_point_as_it_is_made(self, monkeypatch):
        made, checked = [], []
        points, record = identities.case_points, identities._record_case

        def counting(*args):
            for p in points(*args):
                made.append(p)
                yield p

        def recording(report, ident, p):
            checked.append((len(made), p))
            record(report, ident, p)

        monkeypatch.setattr(identities, "case_points", counting)
        monkeypatch.setattr(identities, "_record_case", recording)
        report = verify_grid(IdentityId.THM_A, (0, 3), (0, 1))
        assert (report.ok, report.cases_run) == (True, 8)
        # no point is made before the one ahead of it is checked
        assert checked == list(enumerate(made, start=1))

    def test_case_points_order_and_missing_range(self):
        points = list(case_points(IdentityId.THM_E, (0, 1), (0, 1), (2, 3)))
        assert [(p.n, p.lam, p.mu) for p in points] == [
            (n, lam, mu) for n in (0, 1) for lam in (0, 1) for mu in (2, 3)
        ]
        with pytest.raises(ValueError, match="needs lam and mu ranges"):
            case_points(IdentityId.THM_E, (0, 1), (0, 1))


class TestStructuralInvariants:
    @pytest.mark.parametrize("ident", CHI_BEARING)
    def test_odd_index_sums_vanish(self, ident):
        for n in (1, 3, 5, 7, 9):
            if IDENTITIES[ident].params == ("n", "lam"):
                points = [IdentityParams(n=n, lam=l) for l in range(5)]
            elif IDENTITIES[ident].params == ("n", "lam", "mu"):
                points = [
                    IdentityParams(n=n, lam=l, mu=m)
                    for l in range(3) for m in range(3)
                ]
            else:
                points = [
                    IdentityParams(n=n, a=a, c=c)
                    for a in (F(1, 2), F(4, 3))
                    for c in (F(3, 2), F(5, 2))
                ]
            for p in points:
                try:
                    validate(ident, p)
                except DomainError:
                    continue
                assert lhs_value(ident, p) == 0, (ident, p)

    @pytest.mark.parametrize("ident", INTEGER_VALUED)
    def test_integer_valued_theorems(self, ident):
        for n in range(13):
            for lam in range(6):
                p = IdentityParams(n=n, lam=lam)
                try:
                    validate(ident, p)
                except DomainError:
                    continue
                assert lhs_value(ident, p).denominator == 1, (ident, p)

    def test_dictionary_conversions(self):
        report = dictionary_check()
        assert report.ok
        assert report.cases_run == 41 * 13 * 4

    def test_dictionary_fails_on_a_wrong_shift_row(self, monkeypatch):
        # the Catalan conversion read off the central binomial row
        conversions = list(identities._CONVERSIONS)
        tag, _, formula = conversions[2]
        conversions[2] = (tag, identities._CENTRAL, formula)
        monkeypatch.setattr(identities, "_CONVERSIONS", tuple(conversions))
        report = dictionary_check(k_max=3, lam_max=2)
        assert len(report.failures) == 3 * 4 - 1
        first = report.failures[0]
        assert first.params == (
            ("conversion", "half-over-two"), ("k", 1), ("lam", 0)
        )
        assert (first.lhs, first.rhs) == (F(2), F(1))

    def test_rows_read_only_the_identity_parameters(self):
        # a row that reads mu where it means lam, or lam in a one-variable
        # identity, reads a parameter the point does not carry
        for ident, record in IDENTITIES.items():
            for row in (record.summand.x, record.summand.y):
                names = {row.u[2], row.l[2]} - {None}
                assert names <= set(record.params), ident

    def test_only_a_row_shifted_by_lam_is_linear(self):
        # the factor lam + k belongs to a slice of an integer sequence;
        # any other row would silently drop it
        with pytest.raises(ValueError, match="linear"):
            identities.Row((0, 1, "a"), (0, 2, "a"), linear=True)

    def test_arity_covers_every_identity(self):
        assert list(IDENTITIES) == list(IdentityId)


def swap_factor(monkeypatch, ident, old, new):
    # replace one factor of an identity's closed form at even n
    record = IDENTITIES[ident]
    even, odd = record.printed
    factors = even.split()
    factors[factors.index(old)] = new
    swapped = dataclasses.replace(record, printed=(" ".join(factors), odd))
    monkeypatch.setitem(IDENTITIES, ident, swapped)


def swap_row(monkeypatch, ident, old, new):
    # replace one row parameter, such as (2, 1, "lam") for 2+lam, in every
    # row of an identity's summand that reads it
    record = IDENTITIES[ident]
    rows, swapped = {}, 0
    for side in ("x", "y"):
        row = getattr(record.summand, side)
        fields = {k: new for k in ("u", "l") if getattr(row, k) == old}
        rows[side] = dataclasses.replace(row, **fields)
        swapped += len(fields)
    assert swapped
    summand = dataclasses.replace(record.summand, **rows)
    monkeypatch.setitem(
        IDENTITIES, ident, dataclasses.replace(record, summand=summand)
    )


class TestSeededFaults:
    """One wrong factor in a table, or one wrong row parameter in a
    summand, gives an exact failure witness."""

    @pytest.mark.parametrize(
        "ident, old, new, witness, lhs, rhs",
        [
            (IdentityId.THM_A, "/poch(2+n,lam)", "/poch(1+n,lam)",
             {"n": 0, "lam": 1}, F(1), F(2)),
            (IdentityId.THM_E, "/binom(mu+h,mu)", "/binom(mu+h+1,mu)",
             {"n": 0, "lam": 0, "mu": 1}, F(1), F(1, 2)),
            (IdentityId.PROP_C, "lin(2c+n-2)", "lin(2c+n)",
             {"n": 0, "a": F(1, 2), "c": F(1, 2)}, F(1), F(-1)),
            # a summand's row parameter: thm-a's Catalan rows read as
            # central binomial rows, and prop-b's (c)_k / (2c)_k as 1
            (IdentityId.THM_A, (2, 1, "lam"), (1, 1, "lam"),
             {"n": 0, "lam": 1}, F(4), F(1)),
            (IdentityId.PROP_B, (0, 2, "c"), (0, 1, "c"),
             {"n": 1, "a": F(1, 2), "c": F(1, 2)}, F(1, 2), F(0)),
        ],
    )
    def test_wrong_factor_fails_at_its_first_point(
        self, monkeypatch, ident, old, new, witness, lhs, rhs
    ):
        swap = swap_factor if isinstance(old, str) else swap_row
        swap(monkeypatch, ident, old, new)
        grid = suite._suite_grid(ident, suite.QUICK_SIZES)
        first = verify_grid(ident, *grid).failures[0]
        assert dict(first.params) == witness
        assert (first.lhs, first.rhs) == (lhs, rhs)

    def test_a_row_with_no_integer_sequence_is_a_captured_failure(
        self, monkeypatch
    ):
        # 4^m (1/2)_m / (3)_m is 2/3 at m = 1, so thm-a's rows with
        # l = 3+lam have no integer sequence to slice
        swap_row(monkeypatch, IdentityId.THM_A, (2, 1, "lam"), (3, 1, "lam"))
        report = verify_grid(IdentityId.THM_A, (0, 2), (0, 1))
        assert (report.cases_run, len(report.failures)) == (6, 5)
        first = report.failures[0]
        assert dict(first.params) == {"n": 0, "lam": 1}
        assert (first.lhs, first.rhs) == (None, None)
        assert first.note.startswith("ArithmeticError: row ")

    def test_zero_denominator_is_a_captured_failure(self, monkeypatch):
        # binom(mu+h, lam) is 0 once lam > mu + h
        swap_factor(
            monkeypatch, IdentityId.THM_E, "/binom(mu+h,mu)", "/binom(mu+h,lam)"
        )
        grid = suite._suite_grid(IdentityId.THM_E, suite.QUICK_SIZES)
        report = verify_grid(IdentityId.THM_E, *grid)
        # the error is one record, and the grid runs on past it
        assert report.cases_run == 25 * 7 * 7
        first = report.failures[0]
        assert dict(first.params) == {"n": 0, "lam": 1, "mu": 0}
        assert (first.lhs, first.rhs) == (None, None)
        assert first.note.startswith("ZeroDivisionError: ")


class TestFactorTables:
    # kinds whose arguments are integers, by position; poch's first and
    # lin's only argument may be rational
    INTEGER_ARGS = {
        "fact": (0,), "binom": (0, 1), "catalan": (0,), "poch": (1,), "lin": (),
    }

    def tables(self):
        for ident, record in IDENTITIES.items():
            for texts in (record.printed, record.corrected):
                for table in identities._tables(texts) if texts else ():
                    if table is not None:
                        yield ident, table

    def test_tables_name_only_the_identity_parameters(self):
        # a table that names mu where it means lam, or a where it means
        # c in an integer slot, reads a parameter the point does not carry
        for ident, table in self.tables():
            allowed = {"n", "h"} | set(IDENTITIES[ident].params)
            for kind, args, exp in table:
                assert len(args) == (2 if kind in ("binom", "poch") else 1)
                assert exp != 0
                for position, arg in enumerate(args):
                    names = {
                        identities._VARS[index - 1]
                        for index, coef in arg
                        if index and coef
                    }
                    assert names <= allowed, (ident, kind, names)
                    if position in self.INTEGER_ARGS[kind]:
                        assert not names & {"a", "c"}, (ident, kind)

    def test_corrected_cor_2_differs_in_one_factor(self):
        central = identities._factor("/binom(2lam+2n,lam+n)")
        raised = identities._factor("/binom(1+2lam+2n,lam+n)")
        assert [
            ident for ident, record in IDENTITIES.items() if record.corrected
        ] == [IdentityId.COR_2]
        record = IDENTITIES[IdentityId.COR_2]
        for printed, corrected in zip(
            identities._tables(record.printed),
            identities._tables(record.corrected),
        ):
            assert len(printed) == len(corrected)
            assert [
                (x, y) for x, y in zip(printed, corrected) if x != y
            ] == [(central, raised)]

    @pytest.mark.parametrize(
        "text", ["binom(2*lam,lam)", "binom(2lam,nu)", "gamma(n)", "lin()",
                 "lin(n+)", "lin(2n3)"],
    )
    def test_malformed_factor_text_is_rejected(self, text):
        with pytest.raises(ValueError):
            identities._factor(text)

    def test_malformed_guard_fails_when_its_record_is_built(self):
        record = IDENTITIES[IdentityId.PROP_A]
        with pytest.raises(ValueError, match="not an affine argument"):
            dataclasses.replace(record, guards=(("c*", "n"),))


def corrected_cor_2(p):
    return closed_form(IdentityId.COR_2, p, corrected=True)


class TestCor2Discrepancy:
    def test_n_zero_matches_as_printed(self):
        assert verify_point(IdentityId.COR_2, IdentityParams(n=0, lam=0)).ok

    def test_flagged_not_failed(self):
        report = verify_point(IdentityId.COR_2, IdentityParams(n=1, lam=0))
        assert not report.failures
        assert len(report.flagged) == 1
        record = report.flagged[0]
        assert record.lhs == F(2, 3)
        assert record.rhs == F(1)
        assert "corrected central binomial" in record.note

    def test_second_witness_point(self):
        report = verify_point(IdentityId.COR_2, IdentityParams(n=2, lam=0))
        assert not report.failures
        assert report.flagged[0].lhs == F(-2, 15)
        assert report.flagged[0].rhs == F(-2, 9)

    def test_corrected_form_matches_oracle_everywhere(self):
        for n in range(25):
            for lam in range(6):
                p = IdentityParams(n=n, lam=lam)
                assert lhs_value(IdentityId.COR_2, p) == corrected_cor_2(p)

    def test_corrected_and_printed_differ_by_single_binomial(self):
        # The two tables differ only in the central binomial's row index.
        for n in (1, 2, 5, 8):
            for lam in (0, 1, 3):
                p = IdentityParams(n=n, lam=lam)
                printed = rhs_value(IdentityId.COR_2, p)
                corrected = corrected_cor_2(p)
                if printed == 0:
                    assert corrected == 0
                    continue
                ratio = printed / corrected
                expected = F(
                    binomial(1 + 2 * lam + 2 * n, lam + n),
                    binomial(2 * lam + 2 * n, lam + n),
                )
                assert ratio == expected

    def test_grid_reports_flags_without_failures(self):
        report = verify_grid(IdentityId.COR_2, (0, 20), (0, 5))
        assert report.ok
        assert report.flagged
        assert not report.failures


class TestDomainValidation:
    def test_thm_d_rejects_n_zero_with_positive_lam(self):
        with pytest.raises(DomainError):
            validate(IdentityId.THM_D, IdentityParams(n=0, lam=1))
        # lam = 0 stays in the domain
        validate(IdentityId.THM_D, IdentityParams(n=0, lam=0))

    def test_prop_c_rejects_c_one(self):
        with pytest.raises(DomainError):
            validate(IdentityId.PROP_C, IdentityParams(n=2, a=F(1, 2), c=1))

    def test_prop_a_rejects_nonpositive_integer_c_within_range(self):
        with pytest.raises(DomainError):
            validate(IdentityId.PROP_A, IdentityParams(n=3, a=F(1, 2), c=-2))
        # same c is fine when n stays below the zero hit
        validate(IdentityId.PROP_A, IdentityParams(n=2, a=F(1, 2), c=-2))

    def test_prop_b_rejects_half_integer_hits(self):
        with pytest.raises(DomainError):
            validate(
                IdentityId.PROP_B,
                IdentityParams(n=4, a=F(-1, 2), c=F(1, 2)),
            )

    def test_missing_parameter_is_a_domain_error(self):
        with pytest.raises(DomainError):
            validate(IdentityId.THM_A, IdentityParams(n=2))

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            validate(IdentityId.RECURRENCE, IdentityParams(n=-1))


class TestSpecializations:
    # (cases, skips) at n <= 12, lam <= 5, mu <= 4: thm-d starts at
    # lam = 1 and skips n = 0, where its (n)_lam vanishes
    EMBEDDED = {
        IdentityId.THM_A: (78, 0),
        IdentityId.THM_B: (78, 0),
        IdentityId.THM_C: (78, 0),
        IdentityId.THM_D: (60, 5),
        IdentityId.THM_E: (390, 0),
    }

    @pytest.mark.parametrize("theorem", list(EMBEDDED))
    def test_theorem_is_rescaled_proposition(self, theorem):
        report = specialization_check(theorem, n_max=12, lam_max=5, mu_max=4)
        assert report.ok, report.failures[:2]
        assert (report.cases_run, report.skipped) == self.EMBEDDED[theorem]

    def test_only_the_theorems_embed(self):
        assert [i for i, r in IDENTITIES.items() if r.embedding] == list(
            self.EMBEDDED
        )

    def test_findings_flag_exactly_the_two_bad_rows(self):
        report = specialization_findings()
        assert not report.failures
        flagged = {dict(r.params)["theorem"]: r for r in report.flagged}
        assert set(flagged) == {"thm-d", "thm-e"}

    def test_thm_e_finding_carries_witness(self):
        report = specialization_findings()
        record = next(
            r for r in report.flagged if dict(r.params)["theorem"] == "thm-e"
        )
        params = dict(record.params)
        assert params["stated_c"] == "2+mu"
        assert params["validated_c"] == "1/2+mu"
        # witness point where the stated substitution gives the wrong value
        assert record.lhs == F(4)
        assert record.rhs == F(14, 5)

    def test_thm_d_finding_explains_domain_exit(self):
        report = specialization_findings()
        record = next(
            r for r in report.flagged if dict(r.params)["theorem"] == "thm-d"
        )
        assert record.lhs is None
        assert "parameter the theorem does not have" in record.note

    def test_findings_report_is_pinned(self):
        # the whole report: thm-e's witness point and values, and thm-d's
        # stated 1+mu, read at mu = 0, leaving prop-c's domain everywhere
        stated = {"stated_a": "1/2+lam", "validated_a": "1/2+lam"}
        assert specialization_findings().as_dict(include_timing=False) == {
            "name": "specialization-catalog",
            "cases_run": 5,
            "skipped": 0,
            "failures": [],
            "flagged": [
                {
                    "params": {
                        "theorem": "thm-d", **stated,
                        "stated_c": "1+mu", "validated_c": "1+lam",
                    },
                    "lhs": None,
                    "rhs": None,
                    "note": (
                        "stated substitution leaves the proposition's "
                        "domain at every probed point; the validated column "
                        "reproduces the theorem exactly; the stated text "
                        "also names a parameter the theorem does not have"
                    ),
                },
                {
                    "params": {
                        "theorem": "thm-e", **stated,
                        "stated_c": "2+mu", "validated_c": "1/2+mu",
                        "n": 2, "lam": 0, "mu": 0,
                    },
                    "lhs": "4/1",
                    "rhs": "14/5",
                    "note": (
                        "stated substitution does not reproduce the "
                        "theorem; lhs is the theorem value, rhs the "
                        "rescaled proposition value under the stated "
                        "substitution"
                    ),
                },
            ],
        }

    def test_a_wrong_scale_is_recorded_at_its_point(self, monkeypatch):
        # double thm-a's scale at (n, lam) = (4, 1) only: that one point
        # fails on its first side, at the theorem's point plus a and c
        record = IDENTITIES[IdentityId.THM_A]
        rule = record.embedding
        wrong = dataclasses.replace(
            rule,
            scale=lambda n, lam, mu: rule.scale(n, lam, mu)
            * (2 if (n, lam) == (4, 1) else 1),
        )
        monkeypatch.setitem(
            IDENTITIES, IdentityId.THM_A,
            dataclasses.replace(record, embedding=wrong),
        )
        report = specialization_check(IdentityId.THM_A, 6, 2, 0)
        theorem = lhs_value(IdentityId.THM_A, IdentityParams(n=4, lam=1))
        [case] = report.failures
        assert case.params == (
            ("n", 4), ("lam", 1), ("a", F(3, 2)), ("c", F(3)), ("side", "lhs")
        )
        assert (case.lhs, case.rhs) == (theorem, 2 * theorem)
        assert report.cases_run == 21 and report.skipped == 0

    def test_an_arithmetic_error_is_recorded_at_its_point(self, monkeypatch):
        # prop-a's sum raises at thm-a's embedding point (n, lam) = (4, 1)
        # only: that point is a failure with null sides, and the rest runs
        prop_a = identities._LHS[IdentityId.PROP_A]

        def entry(p):
            if (p.n, p.a) == (4, F(3, 2)):
                raise ZeroDivisionError("raised at n=4")
            return prop_a(p)

        monkeypatch.setitem(identities._LHS, IdentityId.PROP_A, entry)
        report = specialization_check(IdentityId.THM_A, 6, 2, 0)
        [case] = report.failures
        assert case.params == (("n", 4), ("lam", 1))
        assert (case.lhs, case.rhs) == (None, None)
        assert case.note == "ZeroDivisionError: raised at n=4"
        assert report.cases_run == 21 and report.skipped == 0


# signed rationals with q <= 7; 0 and the negative integers make (a)_k
# vanish from some k on, and as c they hit the lower-parameter checks
rationals = st.one_of(
    st.integers(-6, 0).map(F),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)
orders = st.one_of(st.just(0), st.integers(0, 30))
shifts = st.integers(0, 12)

REFERENCE_SUMS = {
    IdentityId.RECURRENCE: ref.lhs_recurrence,
    IdentityId.TOUCHARD: ref.lhs_touchard,
    IdentityId.MIKIC1: ref.lhs_mikic1,
    IdentityId.MIKIC2: ref.lhs_mikic2,
    IdentityId.THM_A: ref.lhs_thm_a,
    IdentityId.THM_B: ref.lhs_thm_b,
    IdentityId.THM_C: ref.lhs_thm_c,
    IdentityId.THM_D: ref.lhs_thm_d,
    IdentityId.THM_E: ref.lhs_thm_e,
    IdentityId.PROP_A: ref.lhs_prop_a,
    IdentityId.PROP_B: ref.lhs_prop_b,
    IdentityId.PROP_C: ref.lhs_prop_c,
    IdentityId.COR_1: ref.lhs_cor_1,
    IdentityId.COR_2: ref.lhs_cor_2,
    IdentityId.COR_3: ref.lhs_cor_3,
    IdentityId.COR_4: ref.lhs_cor_4,
}


def agrees_with_reference(ident, p):
    try:
        validate(ident, p)
    except DomainError:
        reject()
    value = lhs_value(ident, p)
    assert type(value) is Fraction
    assert value == REFERENCE_SUMS[ident](p)


class TestSumsAgainstReference:
    @settings(max_examples=300)
    @given(
        st.sampled_from(
            [IdentityId.PROP_A, IdentityId.PROP_B, IdentityId.PROP_C]
        ),
        orders,
        rationals,
        rationals,
    )
    @example(IdentityId.PROP_A, 0, F(0), F(1, 2))
    @example(IdentityId.PROP_A, 12, F(0), F(-5, 7))
    @example(IdentityId.PROP_B, 6, F(-3), F(2, 3))
    @example(IdentityId.PROP_C, 9, F(-2), F(-1, 6))
    def test_propositions(self, ident, n, a, c):
        agrees_with_reference(ident, IdentityParams(n=n, a=a, c=c))

    @settings(max_examples=100)
    @given(orders, shifts, shifts)
    @example(0, 0, 0)
    def test_thm_e(self, n, lam, mu):
        agrees_with_reference(
            IdentityId.THM_E, IdentityParams(n=n, lam=lam, mu=mu)
        )

    @settings(max_examples=200)
    @given(
        st.sampled_from(
            [IdentityId.COR_1, IdentityId.COR_2, IdentityId.COR_3, IdentityId.COR_4]
        ),
        orders,
        shifts,
    )
    @example(IdentityId.COR_1, 0, 0)
    @example(IdentityId.COR_1, 3, 2)
    def test_corollaries(self, ident, n, lam):
        agrees_with_reference(ident, IdentityParams(n=n, lam=lam))


def admitted(check, ident, p):
    try:
        check(ident, p)
    except DomainError:
        return False
    return True


# nonpositive integers, half-integers of both signs and two thirds: the
# a and c values at which the stated guards bite
EDGE_VALUES = sorted({F(k, 2) for k in range(-13, 6)} | {F(-5, 3), F(1, 3)})


def edge_points(ident, n_max):
    # n, lam and mu from -1, so the sign checks are compared too
    names = IDENTITIES[ident].params
    ns = range(-1, n_max + 1)
    if "a" in names:
        return [
            IdentityParams(n=n, a=a, c=c)
            for n, a, c in itertools.product(ns, EDGE_VALUES, EDGE_VALUES)
        ]
    shifts = range(-1, 5)
    lams = shifts if "lam" in names else (None,)
    mus = shifts if "mu" in names else (None,)
    return [
        IdentityParams(n=n, lam=lam, mu=mu)
        for n, lam, mu in itertools.product(ns, lams, mus)
    ]


class TestAgainstHandWrittenReference:
    """The records' guards and the row sums against the hand-written
    validate branches and per-term loops they replaced."""

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_guards_admit_what_the_branches_admitted(self, ident):
        points = edge_points(ident, 12)
        verdicts = [admitted(validate, ident, p) for p in points]
        assert verdicts == [admitted(ref.validate, ident, p) for p in points]
        # a guard must bite somewhere a sign check does not
        in_sign = [
            ok for p, ok in zip(points, verdicts)
            if p.n >= 0 and min(p.lam or 0, p.mu or 0) >= 0
        ]
        assert all(in_sign) == (not IDENTITIES[ident].guards), ident

    @pytest.mark.parametrize(
        "ident, n_max, lam_max",
        [
            (IdentityId.RECURRENCE, 60, None),
            (IdentityId.TOUCHARD, 60, None),
            (IdentityId.MIKIC1, 60, None),
            (IdentityId.MIKIC2, 60, None),
            (IdentityId.THM_A, 30, 8),
            (IdentityId.THM_B, 30, 8),
            (IdentityId.THM_C, 30, 8),
            (IdentityId.THM_D, 30, 8),
        ],
    )
    def test_row_sums_match_per_term_loops(self, ident, n_max, lam_max):
        lams = range(lam_max + 1) if lam_max is not None else (None,)
        for n, lam in itertools.product(range(n_max + 1), lams):
            p = IdentityParams(n=n, lam=lam)
            if admitted(validate, ident, p):
                value = lhs_value(ident, p)
                assert type(value) is Fraction
                assert value == REFERENCE_SUMS[ident](p), p

    @pytest.mark.parametrize(
        "ident", [IdentityId.PROP_A, IdentityId.PROP_B, IdentityId.PROP_C]
    )
    def test_proposition_sums_on_the_edge_grid(self, ident):
        checked = 0
        for p in edge_points(ident, 6):
            if admitted(validate, ident, p):
                assert lhs_value(ident, p) == REFERENCE_SUMS[ident](p), p
                checked += 1
        assert checked > 0


# the row kernel's keyed caches, each of a fixed size
ROW_CACHES = (
    identities._pascal_row,
    identities._one_parameter_row,
    identities._rising_store,
)


def clear_rows():
    for cache in ROW_CACHES:
        cache.cache_clear()
    for terms in identities._SEQUENCES.values():
        del terms[1:]


# descending, interleaved and repeated orders, over more distinct n than
# the Pascal cache holds
PAST_PASCAL = identities._pascal_row.cache_info().maxsize + 8
N_ORDERS = (
    list(range(PAST_PASCAL, -1, -1))
    + [n for k in range(PAST_PASCAL // 2) for n in (k, PAST_PASCAL - k)]
    + [5, 5, 0, 0, PAST_PASCAL, 1, PAST_PASCAL]
)


class TestRowCaches:
    # the sums read their rows from caches and sequences shared across
    # points; a value must not depend on what was evaluated before it
    def test_thm_e_in_any_call_order_and_after_eviction(self):
        clear_rows()
        rows = identities._one_parameter_row
        # more distinct lam/mu values than the row cache holds, at
        # descending and repeated n, so rows are evicted and rebuilt
        span = rows.cache_info().maxsize + 8
        points = [
            (n, lam, (7 * lam + 3) % span)
            for n in (20, 9, 20, 2, 0)
            for lam in range(span)
        ]
        points += [(n, n % 3, n % 5) for n in N_ORDERS]
        for n, lam, mu in points:
            p = IdentityParams(n=n, lam=lam, mu=mu)
            value = lhs_value(IdentityId.THM_E, p)
            assert value == ref.lhs_thm_e(p), (n, lam, mu)
        for cache in ROW_CACHES[:2]:
            info = cache.cache_info()
            assert info.currsize == info.maxsize

    def test_thm_e_row_cache_holds_a_grid_row_at_the_cli_caps(self):
        # one n of thm-e over the CLI's whole lam and mu range builds each
        # plain row once, shared by its lam and its mu use, and each
        # weighted lam row once: nothing is evicted
        clear_rows()
        shifts = (0, identities.MAX_SHIFT)
        assert verify_grid(IdentityId.THM_E, (3, 3), shifts, shifts).ok
        info = identities._one_parameter_row.cache_info()
        assert info.misses == info.currsize == 2 * (identities.MAX_SHIFT + 1)

    def test_rows_of_one_form_share_their_cached_rows(self):
        # (a)_k / (2a)_k and (c)_k / (2c)_k are one row at a = c; the
        # same parameters at z = 3 are another
        clear_rows()
        p = IdentityParams(n=6, a=F(1, 3), c=F(1, 3))
        rows = [
            identities.Row((0, 1, by), (0, 2, by), z)
            for by, z in (("a", 1), ("c", 1), ("a", 3))
        ]
        (nums, den), same, (nums_3, den_3) = (
            identities._row(row, p) for row in rows
        )
        assert same == (nums, den)
        assert [F(x, den_3) for x in nums_3] == [
            3**k * F(x, den) for k, x in enumerate(nums)
        ]
        assert identities._one_parameter_row.cache_info().misses == 2

    @pytest.mark.parametrize(
        "ident",
        [
            IdentityId.RECURRENCE, IdentityId.TOUCHARD, IdentityId.MIKIC1,
            IdentityId.MIKIC2, IdentityId.THM_A, IdentityId.THM_B,
            IdentityId.THM_C, IdentityId.THM_D, IdentityId.COR_1,
            IdentityId.COR_2, IdentityId.COR_3, IdentityId.COR_4,
        ],
    )
    def test_row_sums_in_any_n_order(self, ident):
        clear_rows()
        for n in N_ORDERS:
            for lam in (n % 4, 3, 0):
                p = IdentityParams(n=n, lam=lam)
                if admitted(validate, ident, p):
                    assert lhs_value(ident, p) == REFERENCE_SUMS[ident](p), p
        # recurrence and touchard weigh their terms without the Pascal row
        if IDENTITIES[ident].summand.weight == "alternating":
            info = identities._pascal_row.cache_info()
            assert info.currsize == info.maxsize

    @pytest.mark.parametrize(
        "ident", [IdentityId.PROP_A, IdentityId.PROP_B, IdentityId.PROP_C]
    )
    def test_proposition_sums_past_the_rising_row_limit(self, ident):
        clear_rows()
        store = identities._rising_store
        # more distinct a than the rising-row cache (and prop-b's
        # one-parameter rows) hold, at descending, interleaved and
        # repeated n
        limit = store.cache_info().maxsize
        a_values = [F(k, 7) for k in range(1, limit + 9)]
        for n in (6, 2, 6, 0, 4, 1, 4):
            for a in a_values:
                p = IdentityParams(n=n, a=a, c=F(5, 2))
                assert lhs_value(ident, p) == REFERENCE_SUMS[ident](p), p
        caches = [store]
        if ident is IdentityId.PROP_B:
            caches.append(identities._one_parameter_row)
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize == info.maxsize

    def test_mutating_a_returned_row_changes_no_later_sum(self):
        clear_rows()
        thm_e = IDENTITIES[IdentityId.THM_E].summand.x
        prop_a = IDENTITIES[IdentityId.PROP_A].summand.x
        for row, p in (
            (identities._CENTRAL, IdentityParams(n=12, lam=3)),
            (identities._CATALAN, IdentityParams(n=12, lam=3)),
            (prop_a, IdentityParams(n=12, a=F(1, 2), c=F(5, 2))),
        ):
            nums = identities._row(row, p)[0]
            nums[:] = [0] * len(nums)
        for ident, p in (
            (IdentityId.THM_C, IdentityParams(n=12, lam=3)),
            (IdentityId.THM_A, IdentityParams(n=12, lam=3)),
            (IdentityId.COR_3, IdentityParams(n=10, lam=4)),
            (IdentityId.PROP_A, IdentityParams(n=12, a=F(1, 2), c=F(5, 2))),
        ):
            assert lhs_value(ident, p) == REFERENCE_SUMS[ident](p), ident
        # the cached rows that the thm-e sums read are immutable
        p = IdentityParams(n=12, lam=3)
        for weight in (None, "alternating"):
            assert type(identities._row(thm_e, p, weight)[0]) is tuple
        assert type(identities._pascal_row(12)) is tuple


class TestChainDenominatorEdges:
    # the proposition sums divide every term into the lower rows' entries
    # at index n; these points have a lower rising factorial that is
    # nonzero through k = n and vanishes at k = n + 1
    @pytest.mark.parametrize(
        "ident, n, a, c, lower",
        [
            (IdentityId.PROP_A, 5, F(1, 2), F(-5), "c"),
            (IdentityId.PROP_B, 6, F(-3), F(2, 3), "2a"),
            (IdentityId.PROP_B, 6, F(5, 2), F(-3), "2c"),
            (IdentityId.PROP_B, 7, F(-7, 2), F(-7, 2), "2a"),
            # c = -n is prop-c's edge: validate asks (c-1)_k to be
            # nonzero through k = n + 1, so c - 1 = -n is outside it
            (IdentityId.PROP_C, 6, F(1, 3), F(-6), "c"),
            (IdentityId.PROP_C, 3, F(-2), F(-3), "c"),
        ],
    )
    def test_lower_row_vanishes_just_past_n(self, ident, n, a, c, lower):
        x = {"c": c, "2a": 2 * a, "2c": 2 * c}[lower]
        assert pochhammer(x, n) != 0 and pochhammer(x, n + 1) == 0
        p = IdentityParams(n=n, a=a, c=c)
        validate(ident, p)
        assert lhs_value(ident, p) == REFERENCE_SUMS[ident](p)
        assert verify_point(ident, p).ok
