"""The four benchmark workloads and the verdict digest.

Each workload drives catconv through its public API.  Its verdict is
the criteria it ran, as plain dicts in the shape of
``CriterionResult.as_dict(include_timing=False)``; ``summarize`` reduces
them to one digest per criterion.  Only the child process imports this
module; the parent ``run.py`` never imports catconv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from catconv import cli, identities, suite

# Criterion 3's 8-value grid is drawn from this class for every seed but
# 0, which keeps the catalogued DEFAULT_RATIONAL_GRID.
PROP_CLASS = tuple(
    sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(1, 3 * q + 1)})
)
PROP_IDS = (
    identities.IdentityId.PROP_A,
    identities.IdentityId.PROP_B,
    identities.IdentityId.PROP_C,
)

# Taken at import, before the tracer rebinds suite.CRITERIA: the direct
# workloads record their own criterion spans.
_CRITERIA = dict(suite.CRITERIA)

# Criteria 7-9 at precision 100, with the integral grid at the caps
# integral_check enforces (n <= 12, lam <= 6).
NUMERIC_P100 = suite.SuiteSizes(
    precision=100, gamma_precisions=(100,), int_n=12, int_lam=6
)


def prop_grid(seed: int) -> list[Fraction] | None:
    """Criterion 3's rational grid for a seed; None means the catalogued one."""
    if seed == 0:
        return None
    return sorted(random.Random(seed).sample(PROP_CLASS, 8))


def _props_on_grid(grid: list[Fraction]):
    """Criterion 3 on a drawn grid: one verify_grid call per proposition."""

    def criterion(sizes: suite.SuiteSizes, jobs: int) -> dict:
        reports = [
            identities.verify_grid(
                ident, (0, sizes.prop_n), rational_grid=grid, jobs=jobs
            )
            for ident in PROP_IDS
        ]
        return {
            "number": 3,
            "title": "rational-parameter propositions",
            "passed": all(r.ok for r in reports),
            "details": "grid: " + ", ".join(str(g) for g in grid),
            "reports": [r.as_dict(include_timing=False) for r in reports],
        }

    return criterion


class Workload:
    """One named workload.

    ``run(seed, span)`` does the timed work and returns its raw result;
    ``verdict(raw)`` turns that into criterion dicts outside the timed
    region.  ``span(name)`` is a context manager the tracer supplies
    (a no-op when untraced).  ``seeded`` lists the criteria whose inputs
    depend on the seed.
    """

    jobs = 1

    def seeded(self, seed: int) -> list[int]:
        return []


class CliSuite(Workload):
    """``catconv all --quick --format json --no-timing --jobs N`` in-process."""

    def __init__(self, jobs: int):
        self.jobs = jobs

    def run(self, seed, span):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(
                [
                    "all", "--quick", "--format", "json", "--no-timing",
                    "--jobs", str(self.jobs),
                ]
            )
        return out.getvalue()

    def verdict(self, raw):
        return json.loads(raw)["criteria"]


class DirectCriteria(Workload):
    """A fixed list of suite criteria at fixed sizes, called directly."""

    def __init__(self, numbers: tuple[int, ...], sizes: suite.SuiteSizes):
        self.numbers = numbers
        self.sizes = sizes

    def criterion(self, number: int, seed: int):
        if number == 3 and seed != 0:
            return _props_on_grid(prop_grid(seed))
        return _CRITERIA[number]

    def seeded(self, seed):
        return [3] if 3 in self.numbers and seed != 0 else []

    def run(self, seed, span):
        steps = [(n, self.criterion(n, seed)) for n in self.numbers]
        results = []
        for number, fn in steps:
            with span(f"suite.criterion{number:02d}"):
                results.append(fn(self.sizes, self.jobs))
        return results

    def verdict(self, raw):
        return [
            r if isinstance(r, dict) else r.as_dict(include_timing=False)
            for r in raw
        ]


WORKLOADS: dict[str, Workload] = {
    "suite-quick": CliSuite(jobs=1),
    "exact-full": DirectCriteria((1, 2, 3, 4, 10), suite.FULL_SIZES),
    "numeric-p100": DirectCriteria((7, 8, 9), NUMERIC_P100),
    "suite-quick-j2": CliSuite(jobs=2),
}


def _case(case: dict) -> dict:
    return {"params": case["params"], "lhs": case["lhs"], "rhs": case["rhs"]}


def canonical(criterion: dict) -> dict:
    """The verdict fields of one criterion: no timings, no extra keys."""
    return {
        "number": criterion["number"],
        "passed": criterion["passed"],
        "details": criterion.get("details", ""),
        "reports": [
            {
                "name": r["name"],
                "cases_run": r["cases_run"],
                "skipped": r["skipped"],
                "failures": [_case(c) for c in r["failures"]],
                "flagged": [_case(c) for c in r["flagged"]],
            }
            for r in criterion["reports"]
        ],
    }


def summarize(criteria: list[dict]) -> dict[str, dict]:
    """Per criterion: verdict digest, cases run, failures and pass flag."""
    out = {}
    for criterion in criteria:
        body = json.dumps(
            canonical(criterion), sort_keys=True, separators=(",", ":")
        )
        out[str(criterion["number"])] = {
            "digest": hashlib.sha256(body.encode()).hexdigest(),
            "cases": sum(r["cases_run"] for r in criterion["reports"]),
            "failures": sum(len(r["failures"]) for r in criterion["reports"]),
            "passed": criterion["passed"],
        }
    return out
