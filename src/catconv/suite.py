"""Acceptance suite: every verification family, one runner per criterion.

Each criterion function takes a :class:`SuiteSizes` describing grid caps
and precision, runs the corresponding checks, and returns a
:class:`CriterionResult`.  ``run_all`` executes all ten; the full sizes
are the shipping targets, the quick sizes keep the whole run under the
CI budget.
"""

from __future__ import annotations

import time
# identities.map_points builds every pool; the name stays bound here
# because perfbench/tracer.py rebinds it with identities' own, or neither
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import hyperseries, numerics
from .identities import (
    ARITY,
    CHI_BEARING,
    IdentityId,
    IdentityParams,
    DomainError,
    capture_case,
    case_points,
    lhs_value,
    map_points,
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
    """The ``(n, lam, mu)`` ranges the suite checks ``ident`` on."""
    names = ARITY[ident]
    if names == ("n",):
        return (0, sizes.mikic_n), None, None
    if "a" in names:
        return (0, sizes.prop_n), None, None
    if ident.name.startswith("COR"):
        return (0, sizes.cor_n), (0, sizes.cor_lam), None
    mu_range = (0, sizes.thm_mu) if "mu" in names else None
    return (0, sizes.thm_n), (0, sizes.thm_lam), mu_range


def criterion_theorems(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 1: the five convolution theorems, exact, full grid."""
    start = time.perf_counter()
    reports = [
        verify_grid(ident, *_suite_grid(ident, sizes), jobs=jobs)
        for ident in (
            IdentityId.THM_A,
            IdentityId.THM_B,
            IdentityId.THM_C,
            IdentityId.THM_D,
            IdentityId.THM_E,
        )
    ]
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
    reports = []
    counts = []
    for ident in (IdentityId.PROP_A, IdentityId.PROP_B, IdentityId.PROP_C):
        grid = _suite_grid(ident, sizes)
        reports.append(verify_grid(ident, *grid, jobs=jobs))
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
    reports = [
        verify_grid(ident, *_suite_grid(ident, sizes), jobs=jobs)
        for ident in (
            IdentityId.COR_1,
            IdentityId.COR_2,
            IdentityId.COR_3,
            IdentityId.COR_4,
        )
    ]
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


def _f43_worker(
    block: tuple,
) -> tuple[VerificationReport, VerificationReport]:
    return hyperseries.terminating_4f3_block(*block)


def f43_sweep(
    ns: Sequence[int],
    cs: Sequence[Fraction],
    es: Sequence[Fraction],
    lams: Iterable[int | Fraction],
    jobs: int = 1,
) -> list[VerificationReport]:
    """The 4F3 evaluation and contiguous-relation reports over a grid.

    The work is split into (n, c, e) blocks, each covering every lam, so
    the series a block shares are summed once also inside the pool.
    """
    lams = tuple(Fraction(lam) for lam in lams)
    blocks = [(n, c, e, lams) for n in ns for c in cs for e in es]
    evaluation = VerificationReport(name="terminating-4f3")
    contiguous = VerificationReport(name="contiguous-relation")
    for first, second in map_points(_f43_worker, blocks, jobs):
        evaluation.merge(first)
        contiguous.merge(second)
    return [evaluation, contiguous]


def criterion_f43(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 6: terminating 4F3 evaluation plus contiguous relation."""
    start = time.perf_counter()
    grid = hyperseries.DEFAULT_RATIONAL_GRID
    reports = f43_sweep(
        range(sizes.f43_n + 1), grid, grid, range(1, sizes.f43_lam + 1), jobs
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


def criterion_numeric(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 8: nonterminating series against Gamma closed forms."""
    start = time.perf_counter()
    precision = sizes.precision
    reports: list[VerificationReport] = []
    for a, c, e in DIXON_TRIPLES + DIXON_TERMINATING:
        reports.append(numerics.dixon_check(a, c, e, precision))
    for a, c, e in DMINUS_TRIPLES + DMINUS_TERMINATING:
        reports.append(numerics.dminus_check(a, c, e, precision))
    for a, c, e, lam in LINEAR4F3_TRIPLES + LINEAR4F3_TERMINATING:
        reports.append(numerics.linear4f3_check(a, c, e, lam, precision))
    merged: dict[str, VerificationReport] = {}
    for sub in reports:
        merged.setdefault(
            sub.name, VerificationReport(name=sub.name)
        ).merge(sub)
    return _finish(
        8,
        "nonterminating series vs gamma closed forms",
        list(merged.values()),
        start,
    )


def criterion_integrals(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 9: double-integral representations by exact-weight rules."""
    start = time.perf_counter()
    merged: dict[str, VerificationReport] = {}
    for which in numerics.INTEGRAL_FAMILIES:
        for n in range(sizes.int_n + 1):
            for lam in range(sizes.int_lam + 1):
                sub = numerics.integral_check(
                    which, n, lam, precision=sizes.precision
                )
                merged.setdefault(
                    sub.name, VerificationReport(name=sub.name)
                ).merge(sub)
    return _finish(
        9, "double-integral representations", list(merged.values()), start
    )


def _parity_case(ident: IdentityId, p: IdentityParams) -> VerificationReport:
    report = VerificationReport(name=ident.value)
    value = lhs_value(ident, p)
    if value == 0:
        report.record_pass()
    else:
        report.record_failure(
            CaseRecord(params=p.items_for(ident), lhs=value, rhs=Fraction(0))
        )
    return report


def _parity_worker(
    point: tuple[IdentityId, IdentityParams]
) -> VerificationReport:
    return capture_case(*point, _parity_case)


def criterion_parity(sizes: SuiteSizes, jobs: int = 1) -> CriterionResult:
    """Criterion 10: every chi-bearing sum vanishes exactly at odd index.

    The points are each chi-bearing identity's suite grid at odd n.
    """
    start = time.perf_counter()
    points = []
    for ident in CHI_BEARING:
        (_, n_hi), lam_range, mu_range = _suite_grid(ident, sizes)
        points.extend(
            (ident, p)
            for n in range(1, n_hi + 1, 2)
            for p in case_points(ident, (n, n), lam_range, mu_range)
        )
    report = VerificationReport(name="odd-index-vanishing")
    for sub in map_points(_parity_worker, points, jobs):
        report.merge(sub)
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


def run_all(quick: bool = False, jobs: int = 1) -> SuiteResult:
    """Run criteria 1-10 at full or quick sizes."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    start = time.perf_counter()
    result = SuiteResult(quick=quick)
    for _, fn in CRITERIA:
        result.criteria.append(fn(sizes, jobs))
    result.elapsed_s = time.perf_counter() - start
    return result
