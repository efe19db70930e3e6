"""Acceptance suite: every verification family, one runner per criterion.

Each criterion function takes a :class:`SuiteSizes` describing grid caps
and precision, runs the corresponding checks, and returns a
:class:`CriterionResult`.  ``run_all`` executes all ten; the full sizes
are the shipping targets, the quick sizes keep the whole run under the
CI budget.  One decorator, ``_criterion``, numbers, titles and times
every criterion; it accepts the ``jobs`` argument and ignores it, since
every criterion runs in this process.
"""

from __future__ import annotations

import functools
import itertools
import time
# Unused: every grid runs in this process.  The name stays bound, as in
# identities, because perfbench/tracer.py counts pools by rebinding it.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import hyperseries, numerics
from .identities import (
    CHI_BEARING,
    IDENTITIES,
    IdentityId,
    IdentityParams,
    DomainError,
    capture_case,
    case_points,
    lhs_value,
    rhs_value,
    validate,
    verify_grid,
)
from .report import CaseRecord, VerificationReport

__all__ = [
    "SuiteSizes",
    "FULL_SIZES",
    "QUICK_SIZES",
    "CriterionResult",
    "CRITERIA",
    "f43_sweep",
    "numeric_sweep",
    "integral_sweep",
    "run_all",
    "DIXON_TRIPLES",
    "DIXON_TERMINATING",
    "DMINUS_TRIPLES",
    "DMINUS_TERMINATING",
    "LINEAR4F3_TRIPLES",
    "LINEAR4F3_TERMINATING",
]


@dataclass(frozen=True)
class SuiteSizes:
    thm_n: int = 60
    thm_lam: int = 12
    thm_mu: int = 12
    mikic_n: int = 200
    prop_n: int = 40
    cor_n: int = 30
    cor_lam: int = 8
    order: int = 48
    f43_n: int = 40
    f43_lam: int = 8
    precision: int = 40
    gamma_precisions: tuple[int, ...] = (20, 40, 60)
    int_n: int = 8
    int_lam: int = 3


FULL_SIZES = SuiteSizes()
QUICK_SIZES = SuiteSizes(
    thm_n=24,
    thm_lam=6,
    thm_mu=6,
    mikic_n=24,
    prop_n=24,
    cor_n=24,
    cor_lam=6,
    order=24,
    f43_n=24,
    f43_lam=6,
    precision=30,
    gamma_precisions=(20, 30),
)

_F = Fraction

# nonterminating triples all satisfy the convergence margin of their
# family; the terminating lists share instances with the exact engine
DIXON_TRIPLES = (
    (_F(1, 2), _F(1, 4), _F(1, 4)),
    (_F(1), _F(1, 2), _F(1, 4)),
    (_F(3, 2), _F(1, 2), _F(1, 2)),
    (_F(2), _F(3, 4), _F(1, 2)),
    (_F(5, 2), _F(1), _F(1, 2)),
    (_F(3), _F(1), _F(1)),
    (_F(7, 2), _F(3, 2), _F(1, 2)),
    (_F(4), _F(3, 2), _F(1)),
    (_F(3), _F(1, 2), _F(3, 4)),
    (_F(5), _F(2), _F(1, 2)),
)
DIXON_TERMINATING = tuple(
    (_F(a), _F(1, 3), _F(1, 5)) for a in (-2, -4, -6, -8, -10)
)
DMINUS_TRIPLES = (
    (_F(3), _F(1, 2), _F(1, 2)),
    (_F(5, 2), _F(1, 4), _F(1, 2)),
    (_F(4), _F(3, 4), _F(3, 4)),
    (_F(7, 2), _F(1, 2), _F(1, 2)),
    (_F(4), _F(1), _F(1, 2)),
    (_F(9, 2), _F(3, 4), _F(1)),
    (_F(5), _F(1), _F(1)),
    (_F(3), _F(1, 4), _F(3, 4)),
    (_F(6), _F(3, 2), _F(1)),
    (_F(5), _F(1, 2), _F(3, 2)),
)
DMINUS_TERMINATING = tuple(
    (_F(a), _F(1, 3), _F(1, 5)) for a in (-3, -4, -5, -6, -7)
)
# the (6, 3/2, 1, 1/2) entry sits at lam = c - 1, the linear-factor
# value the product-formula variant specializes to
LINEAR4F3_TRIPLES = (
    (_F(3), _F(1, 2), _F(1, 2), _F(1)),
    (_F(5, 2), _F(1, 4), _F(1, 2), _F(2)),
    (_F(4), _F(3, 4), _F(3, 4), _F(1, 2)),
    (_F(7, 2), _F(1, 2), _F(1, 2), _F(3)),
    (_F(4), _F(1), _F(1, 2), _F(3, 2)),
    (_F(9, 2), _F(3, 4), _F(1), _F(1)),
    (_F(5), _F(1), _F(1), _F(2)),
    (_F(3), _F(1, 4), _F(3, 4), _F(1, 2)),
    (_F(6), _F(3, 2), _F(1), _F(1, 2)),
    (_F(5), _F(1, 2), _F(3, 2), _F(5, 2)),
)
LINEAR4F3_TERMINATING = (
    (_F(-2), _F(1, 3), _F(1, 5), _F(2)),
    (_F(-4), _F(1, 3), _F(1, 5), _F(2)),
    (_F(-6), _F(1, 3), _F(1, 5), _F(2)),
    (_F(-7), _F(1, 2), _F(1, 5), _F(3)),
    (_F(-9), _F(1, 3), _F(2, 5), _F(1)),
)


@dataclass
class CriterionResult:
    """One criterion's verdict.  ``passed`` is worked out from the
    reports: all must be ok, and a ``passed=False`` given here fails the
    criterion even so (criterion 3's count of admissible pairs)."""

    number: int
    title: str
    reports: list[VerificationReport]
    elapsed_s: float = 0.0
    details: str = ""
    passed: bool = True

    def __post_init__(self) -> None:
        self.passed = self.passed and all(r.ok for r in self.reports)

    def as_dict(self, include_timing: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "number": self.number,
            "title": self.title,
            "passed": self.passed,
        }
        if self.details:
            out["details"] = self.details
        if include_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        out["reports"] = [
            r.as_dict(include_timing=include_timing) for r in self.reports
        ]
        return out


def _criterion(number: int, title: str):
    """Make ``body(sizes)`` criterion ``number``, called as ``fn(sizes,
    jobs)`` and timed.  The body returns its reports, or a ``(reports,
    details)`` or ``(reports, details, passed)`` tuple."""

    def decorate(body):
        @functools.wraps(body)
        def criterion(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
            start = time.perf_counter()
            found = body(sizes)
            reports, *rest = found if isinstance(found, tuple) else (found,)
            elapsed_s = time.perf_counter() - start
            return CriterionResult(number, title, reports, elapsed_s, *rest)

        criterion.number = number
        return criterion

    return decorate


def _suite_grid(
    ident: IdentityId, sizes: SuiteSizes
) -> tuple[tuple[int, int], tuple[int, int] | None, tuple[int, int] | None]:
    """The ``(n, lam, mu)`` ranges the suite checks ``ident`` on: from 0
    to its family's size field, such as ``thm_lam``, or None if unread."""
    record = IDENTITIES[ident]
    return tuple(
        (0, getattr(sizes, f"{record.family}_{name}"))
        if name in record.params
        else None
        for name in ("n", "lam", "mu")
    )


def _verify_family(family: str, sizes: SuiteSizes) -> list[VerificationReport]:
    """One suite-grid report per identity of ``family``, in catalogue order."""
    return [
        verify_grid(ident, *_suite_grid(ident, sizes))
        for ident, record in IDENTITIES.items()
        if record.family == family
    ]


@_criterion(1, "alternating convolution theorems")
def criterion_theorems(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 1: the five convolution theorems, exact, full grid."""
    return _verify_family("thm", sizes)


# criterion 2 at one point: base at n against general at (n, lam=0)
def _record_specialization(
    general: IdentityId,
    prefix: tuple[tuple[str, object], ...],
    report: VerificationReport,
    base: IdentityId,
    p: IdentityParams,
) -> None:
    p_gen = IdentityParams(n=p.n, lam=0)
    values = (
        lhs_value(base, p),
        rhs_value(base, p),
        lhs_value(general, p_gen),
        rhs_value(general, p_gen),
    )
    if all(v == values[0] for v in values[1:]):
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(
                params=prefix + p.items_for(base),
                lhs=values[0],
                rhs=values[2],
                note="all four of base lhs/rhs and lam=0 lhs/rhs must agree",
            )
        )


@_criterion(2, "base identities match lam=0 specializations")
def criterion_mikic(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 2: the base identities coincide with lam=0 throughout."""
    report = VerificationReport(name="mikic-specialization")
    for base, record in IDENTITIES.items():
        general = record.lam0_of
        if general is None:
            continue
        prefix = (("base", base.value), ("general", general.value))
        check = functools.partial(_record_specialization, general, prefix)
        for n in range(sizes.mikic_n + 1):
            capture_case(report, base, IdentityParams(n=n), check, prefix)
    return [report]


@_criterion(3, "rational-parameter propositions")
def criterion_props(
    sizes: SuiteSizes,
) -> tuple[list[VerificationReport], str, bool]:
    """Criterion 3: rational-parameter propositions over the default grid,
    each with at least 40 admissible (n, a) pairs."""
    reports = _verify_family("prop", sizes)
    counts = []
    for ident in map(IdentityId, (r.name for r in reports)):
        admissible = 0
        for p in case_points(ident, (sizes.prop_n, sizes.prop_n)):
            try:
                validate(ident, p)
            except DomainError:
                continue
            admissible += 1
        counts.append((ident.value, admissible))
    details = "admissible pairs: " + ", ".join(
        f"{name} {count}" for name, count in counts
    )
    return reports, details, all(count >= 40 for _, count in counts)


@_criterion(4, "reciprocal corollaries (exact or flagged)")
def criterion_cors(sizes: SuiteSizes) -> tuple[list[VerificationReport], str]:
    """Criterion 4: reciprocal corollaries; documented mismatches flag."""
    reports = _verify_family("cor", sizes)
    flagged = sum(len(r.flagged) for r in reports)
    return reports, f"{flagged} flagged closed-form discrepancies"


@_criterion(5, "product formulae through fixed order")
def criterion_products(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 5: product formulae, coefficientwise to the fixed order."""
    return [
        hyperseries.check_product_grid(formula, order=sizes.order)
        for formula in hyperseries.PRODUCT_FORMULAE
    ]


def f43_sweep(
    ns: Sequence[int],
    cs: Sequence[Fraction],
    es: Sequence[Fraction],
    lams: Iterable[int | Fraction],
) -> list[VerificationReport]:
    """The 4F3 evaluation and contiguous-relation reports over a grid.

    The grid runs in (n, c, e) blocks, in that order, each covering every
    lam, so the series a block shares are summed once.
    """
    lams = tuple(Fraction(lam) for lam in lams)
    evaluation = VerificationReport(name="terminating-4f3")
    contiguous = VerificationReport(name="contiguous-relation")
    for n, c, e in itertools.product(ns, cs, es):
        first, second = hyperseries.terminating_4f3_block(n, c, e, lams)
        evaluation.merge(first)
        contiguous.merge(second)
    return [evaluation, contiguous]


@_criterion(6, "terminating 4f3 and contiguous relation")
def criterion_f43(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 6: terminating 4F3 evaluation plus contiguous relation."""
    grid = hyperseries.DEFAULT_RATIONAL_GRID
    return f43_sweep(
        range(sizes.f43_n + 1), grid, grid, range(1, sizes.f43_lam + 1)
    )


@_criterion(7, "gamma self-test")
def criterion_gamma(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 7: reflection/duplication self-test at several precisions."""
    return [
        numerics.gamma_selftest(precision)
        for precision in sizes.gamma_precisions
    ]


_NUMERIC_POINTS = {
    "dixon": DIXON_TRIPLES + DIXON_TERMINATING,
    "dminus": DMINUS_TRIPLES + DMINUS_TERMINATING,
    "linear4f3": LINEAR4F3_TRIPLES + LINEAR4F3_TERMINATING,
}


def numeric_sweep(
    family: str,
    precision: int = 40,
    max_terms: int = numerics.MAX_TERMS,
    points: Iterable[tuple] | None = None,
) -> VerificationReport:
    """One family's series checks, by default over its table of points."""
    # looked up at call time, so a rebound numerics.<family>_check runs
    check = getattr(numerics, f"{family}_check")
    report = VerificationReport(name=family)
    for point in _NUMERIC_POINTS[family] if points is None else points:
        report.merge(check(*point, precision, max_terms))
    return report


@_criterion(8, "nonterminating series vs gamma closed forms")
def criterion_numeric(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 8: nonterminating series against Gamma closed forms."""
    return [
        numeric_sweep(family, sizes.precision)
        for family in numerics.NUMERIC_FAMILIES
    ]


def integral_sweep(
    which: str,
    ns: Iterable[int],
    lams: Sequence[int],
) -> VerificationReport:
    """One double-integral family's checks over the (n, lam) grid."""
    report = VerificationReport(name=f"integral-{which}")
    for n in ns:
        for lam in lams:
            report.merge(numerics.integral_check(which, n, lam))
    return report


@_criterion(9, "double-integral representations")
def criterion_integrals(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 9: double-integral representations from Beta moments."""
    ns, lams = range(sizes.int_n + 1), range(sizes.int_lam + 1)
    return [
        integral_sweep(which, ns, lams)
        for which in numerics.INTEGRAL_FAMILIES
    ]


# criterion 10 mixes identities in one report, so its records name theirs
def _record_parity(
    report: VerificationReport, ident: IdentityId, p: IdentityParams
) -> None:
    value = lhs_value(ident, p)
    if value == 0:
        report.record_pass()
    else:
        params = (("identity", ident.value),) + p.items_for(ident)
        report.record_failure(
            CaseRecord(params=params, lhs=value, rhs=Fraction(0))
        )


@_criterion(10, "odd-index vanishing")
def criterion_parity(sizes: SuiteSizes) -> list[VerificationReport]:
    """Criterion 10: every chi-bearing sum vanishes exactly at odd index.

    The points are each chi-bearing identity's suite grid at odd n.
    """
    report = VerificationReport(name="odd-index-vanishing")
    for ident in CHI_BEARING:
        (_, n_hi), lam_range, mu_range = _suite_grid(ident, sizes)
        prefix = (("identity", ident.value),)
        for n in range(1, n_hi + 1, 2):
            for p in case_points(ident, (n, n), lam_range, mu_range):
                capture_case(report, ident, p, _record_parity, prefix)
    return [report]


# run_all looks the table up at call time, so a rebound table is the one run
_Criterion = Callable[[SuiteSizes, int], CriterionResult]
CRITERIA: tuple[tuple[int, _Criterion], ...] = tuple(
    (fn.number, fn)
    for fn in (
        criterion_theorems,
        criterion_mikic,
        criterion_props,
        criterion_cors,
        criterion_products,
        criterion_f43,
        criterion_gamma,
        criterion_numeric,
        criterion_integrals,
        criterion_parity,
    )
)


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run criteria 1-10 at full or quick sizes."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    return [fn(sizes) for _, fn in CRITERIA]
