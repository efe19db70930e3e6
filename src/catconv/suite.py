"""Acceptance suite: every verification family, one runner per criterion.

Each criterion function takes a :class:`SuiteSizes` describing grid caps
and precision, runs the corresponding checks, and returns a
:class:`CriterionResult`.  ``run_all`` executes all ten; the full sizes
are the shipping targets, the quick sizes keep the whole run under the
CI budget.  Every criterion runs in this process; the ``jobs`` argument
each criterion function takes is accepted and ignored.
"""

from __future__ import annotations

import itertools
import time
# Unused: every grid runs in this process.  The name stays bound, as in
# identities, because perfbench/tracer.py counts pools by rebinding it.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
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
    "SuiteResult",
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
    number: int
    title: str
    passed: bool
    reports: list[VerificationReport]
    elapsed_s: float
    details: str = ""

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


def _finish(
    number: int,
    title: str,
    reports: list[VerificationReport],
    start: float,
    passed: bool | None = None,
    details: str = "",
) -> CriterionResult:
    if passed is None:
        passed = all(r.ok for r in reports)
    return CriterionResult(
        number=number,
        title=title,
        passed=passed,
        reports=reports,
        elapsed_s=time.perf_counter() - start,
        details=details,
    )


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


def criterion_theorems(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 1: the five convolution theorems, exact, full grid."""
    start = time.perf_counter()
    reports = _verify_family("thm", sizes)
    return _finish(1, "alternating convolution theorems", reports, start)


def criterion_mikic(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 2: the base identities coincide with lam=0 throughout."""
    start = time.perf_counter()
    report = VerificationReport(name="mikic-specialization")
    pairs = (
        (IdentityId.MIKIC1, IdentityId.THM_A),
        (IdentityId.MIKIC2, IdentityId.THM_B),
    )
    for base, general in pairs:
        for n in range(sizes.mikic_n + 1):
            p_base = IdentityParams(n=n)
            p_gen = IdentityParams(n=n, lam=0)
            values = (
                lhs_value(base, p_base),
                rhs_value(base, p_base),
                lhs_value(general, p_gen),
                rhs_value(general, p_gen),
            )
            if all(v == values[0] for v in values[1:]):
                report.record_pass()
            else:
                report.record_failure(
                    CaseRecord(
                        params=(
                            ("base", base.value),
                            ("general", general.value),
                            ("n", n),
                        ),
                        lhs=values[0],
                        rhs=values[2],
                        note="all four of base lhs/rhs and lam=0 lhs/rhs must agree",
                    )
                )
    return _finish(
        2, "base identities match lam=0 specializations", [report], start
    )


def criterion_props(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 3: rational-parameter propositions over the default grid."""
    start = time.perf_counter()
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
    passed = all(r.ok for r in reports) and all(
        count >= 40 for _, count in counts
    )
    details = "admissible pairs: " + ", ".join(
        f"{name} {count}" for name, count in counts
    )
    return _finish(
        3,
        "rational-parameter propositions",
        reports,
        start,
        passed=passed,
        details=details,
    )


def criterion_cors(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 4: reciprocal corollaries; documented mismatches flag."""
    start = time.perf_counter()
    reports = _verify_family("cor", sizes)
    flagged = sum(len(r.flagged) for r in reports)
    details = f"{flagged} flagged closed-form discrepancies"
    return _finish(
        4,
        "reciprocal corollaries (exact or flagged)",
        reports,
        start,
        details=details,
    )


def criterion_products(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 5: product formulae, coefficientwise to the fixed order."""
    start = time.perf_counter()
    reports = [
        hyperseries.check_product_grid(formula, order=sizes.order)
        for formula in hyperseries.PRODUCT_FORMULAE
    ]
    return _finish(5, "product formulae through fixed order", reports, start)


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


def criterion_f43(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 6: terminating 4F3 evaluation plus contiguous relation."""
    start = time.perf_counter()
    grid = hyperseries.DEFAULT_RATIONAL_GRID
    reports = f43_sweep(
        range(sizes.f43_n + 1), grid, grid, range(1, sizes.f43_lam + 1)
    )
    return _finish(
        6, "terminating 4f3 and contiguous relation", reports, start
    )


def criterion_gamma(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 7: reflection/duplication self-test at several precisions."""
    start = time.perf_counter()
    reports = [
        numerics.gamma_selftest(precision)
        for precision in sizes.gamma_precisions
    ]
    return _finish(7, "gamma self-test", reports, start)


_NUMERIC_POINTS = {
    "dixon": DIXON_TRIPLES + DIXON_TERMINATING,
    "dminus": DMINUS_TRIPLES + DMINUS_TERMINATING,
    "linear4f3": LINEAR4F3_TRIPLES + LINEAR4F3_TERMINATING,
}


def numeric_sweep(
    family: str,
    precision: int = 40,
    max_terms: int = 100000,
    points: Iterable[tuple] | None = None,
) -> VerificationReport:
    """One family's series checks, by default over its table of points."""
    # looked up at call time, so a rebound numerics.<family>_check runs
    check = getattr(numerics, f"{family}_check")
    report = VerificationReport(name=family)
    for point in _NUMERIC_POINTS[family] if points is None else points:
        report.merge(check(*point, precision, max_terms))
    return report


def criterion_numeric(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 8: nonterminating series against Gamma closed forms."""
    start = time.perf_counter()
    reports = [
        numeric_sweep(family, sizes.precision)
        for family in numerics.NUMERIC_FAMILIES
    ]
    return _finish(
        8, "nonterminating series vs gamma closed forms", reports, start
    )


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


def criterion_integrals(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 9: double-integral representations from Beta moments."""
    start = time.perf_counter()
    ns, lams = range(sizes.int_n + 1), range(sizes.int_lam + 1)
    reports = [
        integral_sweep(which, ns, lams)
        for which in numerics.INTEGRAL_FAMILIES
    ]
    return _finish(9, "double-integral representations", reports, start)


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


def criterion_parity(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 10: every chi-bearing sum vanishes exactly at odd index.

    The points are each chi-bearing identity's suite grid at odd n.
    """
    start = time.perf_counter()
    report = VerificationReport(name="odd-index-vanishing")
    for ident in CHI_BEARING:
        (_, n_hi), lam_range, mu_range = _suite_grid(ident, sizes)
        prefix = (("identity", ident.value),)
        for n in range(1, n_hi + 1, 2):
            for p in case_points(ident, (n, n), lam_range, mu_range):
                capture_case(report, ident, p, _record_parity, prefix)
    return _finish(10, "odd-index vanishing", [report], start)


CRITERIA: tuple[tuple[int, Callable[[SuiteSizes, int], CriterionResult]], ...] = (
    (1, criterion_theorems),
    (2, criterion_mikic),
    (3, criterion_props),
    (4, criterion_cors),
    (5, criterion_products),
    (6, criterion_f43),
    (7, criterion_gamma),
    (8, criterion_numeric),
    (9, criterion_integrals),
    (10, criterion_parity),
)


@dataclass
class SuiteResult:
    quick: bool
    criteria: list[CriterionResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.criteria)

    def as_dict(self, include_timing: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "quick": self.quick,
            "ok": self.ok,
            "criteria": [
                c.as_dict(include_timing=include_timing)
                for c in self.criteria
            ],
        }
        if include_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out


def run_all(quick: bool = False) -> SuiteResult:
    """Run criteria 1-10 at full or quick sizes."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    start = time.perf_counter()
    result = SuiteResult(quick=quick)
    for _, fn in CRITERIA:
        result.criteria.append(fn(sizes))
    result.elapsed_s = time.perf_counter() - start
    return result
