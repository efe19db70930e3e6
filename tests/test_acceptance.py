"""Acceptance gate: every criterion at full size, one line apiece.

Each test runs one numbered criterion through the same code path the
``catconv all`` command uses, at the full (non-quick) grid sizes, and
prints a single PASS/FAIL line.  The last test drives the installed
console entry point end to end in quick mode.
"""

import importlib
import importlib.util
import itertools
import json
import math
import pkgutil
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference_kernels as ref

import catconv
from catconv import identities, suite
from catconv.identities import (
    IDENTITIES,
    DomainError,
    IdentityId,
    case_points,
    closed_form,
    validate,
    verify_grid,
)
from catconv.suite import (
    FULL_SIZES,
    QUICK_SIZES,
    SuiteSizes,
    _suite_grid,
    criterion_cors,
    criterion_f43,
    criterion_gamma,
    criterion_integrals,
    criterion_mikic,
    criterion_numeric,
    criterion_parity,
    criterion_products,
    criterion_props,
    criterion_theorems,
)


def report(result):
    verdict = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number}: {verdict} - {result.title}"
    if result.details:
        line += f" ({result.details})"
    print(line, flush=True)
    return result


def failing_cases(result):
    return [case.as_dict() for r in result.reports for case in r.failures][:5]


def test_criterion_01_theorems_full_grid_under_60s():
    result = report(criterion_theorems(FULL_SIZES))
    assert result.passed, failing_cases(result)
    assert result.elapsed_s < 60.0, f"took {result.elapsed_s:.1f}s"
    # five theorems, zero failures, zero silent drops
    assert len(result.reports) == 5
    assert all(not r.failures for r in result.reports)


def test_criterion_02_base_identities_match_specializations():
    result = report(criterion_mikic(FULL_SIZES))
    assert result.passed, failing_cases(result)
    # two base identities, each compared on n = 0..200
    assert result.reports[0].cases_run == 2 * (FULL_SIZES.mikic_n + 1)


def test_criterion_03_propositions_on_rational_grid():
    result = report(criterion_props(FULL_SIZES))
    assert result.passed, failing_cases(result)
    assert all(not r.failures for r in result.reports)


def test_criterion_04_corollaries_exact_or_flagged():
    result = report(criterion_cors(FULL_SIZES))
    assert result.passed, failing_cases(result)
    for r in result.reports:
        assert not r.failures
        for case in r.flagged:
            # a flagged discrepancy must carry reproducer parameters
            # and both exact values
            assert case.params
            assert case.lhs is not None
            assert case.rhs is not None


def full_size_digest(result):
    # the benchmark's verdict digest of one criterion: every case count,
    # skip, witness and flag
    summary = load_perfbench("workloads").summarize(
        [result.as_dict(include_timing=False)]
    )
    return summary[str(result.number)]["digest"]


def test_criterion_05_product_formulae_order_48():
    result = report(criterion_products(FULL_SIZES))
    assert result.passed, failing_cases(result)
    # an 8 x 8 (a, c) grid, times 8 lam for the lemma; the variant skips
    # its eight c = 1 points
    assert [(r.name, r.cases_run, r.skipped) for r in result.reports] == [
        ("bailey-dixon", 64, 0),
        ("bailey-watson", 64, 0),
        ("clausen", 64, 0),
        ("lemma-linear", 512, 0),
        ("variant-linear", 56, 8),
    ]
    assert full_size_digest(result) == (
        "ed1ee5707cdaf4d17a8ee327baa50a954b66ab6700b6a39d6888f7b1048dd0d0"
    )


def test_criterion_06_terminating_4f3_and_contiguous():
    result = report(criterion_f43(FULL_SIZES))
    assert result.passed, failing_cases(result)
    # n = 0..40, lam = 1..8, an 8 x 8 (c, e) grid: nothing skipped
    assert [(r.name, r.cases_run, r.skipped) for r in result.reports] == [
        ("terminating-4f3", 20992, 0),
        ("contiguous-relation", 20992, 0),
    ]
    assert full_size_digest(result) == (
        "c5c43aba9385007bd8da249303e42ebe47037c725ecac59d41ceea6e0c0d3d7c"
    )


def test_grids_run_in_one_process(monkeypatch):
    # jobs = 2 is accepted, but no grid may start a process pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(identities, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(suite, "ProcessPoolExecutor", no_pool)
    f43 = criterion_f43(SuiteSizes(f43_n=6, f43_lam=2), 2)
    assert f43.passed and [(r.cases_run, r.skipped) for r in f43.reports] == [
        (7 * 2 * 64, 0),
    ] * 2
    grid = verify_grid(IdentityId.THM_A, (0, 12), (0, 8), jobs=2)
    assert grid.ok and grid.cases_run + grid.skipped == 13 * 9
    assert criterion_parity(QUICK_SIZES, 2).passed


def test_criterion_07_gamma_selftest_three_precisions():
    result = report(criterion_gamma(FULL_SIZES))
    assert result.passed, failing_cases(result)
    assert len(result.reports) == len(FULL_SIZES.gamma_precisions) == 3


def test_criterion_08_series_vs_gamma_closed_forms():
    result = report(criterion_numeric(FULL_SIZES))
    assert result.passed, failing_cases(result)
    # ten convergent triples and five terminating instances per family
    assert len(result.reports) == 3
    for r in result.reports:
        assert r.cases_run >= 15


def test_criterion_09_double_integral_representations():
    result = report(criterion_integrals(FULL_SIZES))
    assert result.passed, failing_cases(result)
    expected = 2 * (FULL_SIZES.int_n + 1) * (FULL_SIZES.int_lam + 1)
    assert sum(r.cases_run for r in result.reports) == expected


def test_criterion_10_odd_index_vanishing():
    result = report(criterion_parity(FULL_SIZES))
    assert result.passed, failing_cases(result)
    assert result.reports[0].cases_run > 0
    assert not result.reports[0].failures


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_size_exact_verdicts_match_benchmark_reference():
    # criteria 1-4 and 10 at full size are the benchmark's exact-full
    # workload; their digests pin every case count, witness and flag, so
    # each fast path in the identity sums is checked at full size here
    workloads = load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    criteria = [
        fn(FULL_SIZES).as_dict(include_timing=False)
        for fn in (
            criterion_theorems,
            criterion_mikic,
            criterion_props,
            criterion_cors,
            criterion_parity,
        )
    ]
    digests = {
        number: entry["digest"]
        for number, entry in workloads.summarize(criteria).items()
    }
    assert digests == reference["exact-full"]


def test_closed_forms_match_the_hand_written_reference():
    # every closed form from its factor tables, cor-2's corrected one
    # included, against the hand-written Fraction version it replaced: at
    # every admissible full-size suite point, and for the propositions
    # also on the benchmark's wider class of rational grid values
    prop_class = load_perfbench("workloads").PROP_CLASS
    checked = 0
    for ident in IdentityId:
        points = case_points(ident, *_suite_grid(ident, FULL_SIZES))
        if "a" in IDENTITIES[ident].params:
            points = itertools.chain(
                points,
                case_points(
                    ident, (0, FULL_SIZES.prop_n), rational_grid=prop_class
                ),
            )
        for p in points:
            try:
                validate(ident, p)
            except DomainError:
                continue
            value = closed_form(ident, p)
            assert type(value) is Fraction
            assert value == ref.RHS[ident](p), (ident, p)
            checked += 1
            if IDENTITIES[ident].corrected:
                corrected = closed_form(ident, p, corrected=True)
                assert corrected == ref.rhs_cor_2_corrected(p), p
                checked += 1
    assert checked == 40432


def test_tracer_finds_every_target_and_covers_the_per_layer_metrics():
    # the benchmark's tracer rebinds catconv's module attributes and
    # silently drops every metric of a target it cannot find
    tracer_module = load_perfbench("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    names = set(tracer.metrics()) | set(tracer_module.kernel_timings())
    # the names run.py derives itself from the child processes' records
    run_source = (PERFBENCH / "run.py").read_text()
    names |= set(re.findall(r'metrics\["([\w.]+)"\] =', run_source))
    benchmark = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    wanted = {entry["name"] for entry in benchmark["per_layer"]}
    assert wanted - names == set()


def test_traced_benchmark_run_prints_a_complete_result(catconv_env):
    # only the traced run rebinds catconv's names and prints per-layer
    # metrics, and run.py needs its last stdout line to be a strict-JSON
    # result with every target found and every metric a finite number
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload",
         "suite-quick", "--seed", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
        env=catconv_env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject)
    assert result["missing"] == []
    layers = result["layers"]
    assert [
        name for name, value in layers.items()
        if type(value) not in (int, float) or not math.isfinite(value)
    ] == []
    # the names run.py derives itself from the child processes' records
    run_source = (PERFBENCH / "run.py").read_text()
    names = set(layers)
    names |= set(re.findall(r'metrics\["([\w.]+)"\] =', run_source))
    benchmark = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    wanted = {entry["name"] for entry in benchmark["per_layer"]}
    assert wanted - names == set()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    digests = {
        number: entry["digest"] for number, entry in result["criteria"].items()
    }
    assert digests == reference["suite-quick"]


def test_seeded_exact_full_calls_verify_grid_as_the_benchmark_does():
    # for every seed but 0, exact-full runs criterion 3 on a drawn grid
    # through verify_grid(..., rational_grid=..., jobs=...); a signature
    # change there would fail every such benchmark run
    workloads = load_perfbench("workloads")
    criterion = workloads._props_on_grid(workloads.prop_grid(11))
    result = criterion(SuiteSizes(prop_n=4), 1)
    assert result["passed"]
    assert [
        (r["name"], r["cases_run"], r["skipped"]) for r in result["reports"]
    ] == [("prop-a", 320, 0), ("prop-b", 320, 0), ("prop-c", 280, 40)]


def test_every_name_in_each_modules_all_exists():
    # the package does not import the public names, so nothing else
    # notices a stale __all__ entry
    missing = []
    for info in pkgutil.iter_modules(catconv.__path__):
        module = importlib.import_module(f"catconv.{info.name}")
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []


def test_criterion_11_quick_suite_end_to_end(catconv_env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "catconv", "all", "--quick", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=300,
        env=catconv_env,
    )
    elapsed = time.perf_counter() - start
    verdict = "PASS" if proc.returncode == 0 and elapsed < 120 else "FAIL"
    print(f"criterion 11: {verdict} - quick suite in {elapsed:.1f}s", flush=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert len(payload["criteria"]) == 10
    assert all(c["passed"] for c in payload["criteria"])
    # the quick suite is the benchmark's suite-quick workload: its digests
    # pin every case count, skip and witness of criteria 1-10
    workloads = load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    digests = {
        number: entry["digest"]
        for number, entry in workloads.summarize(payload["criteria"]).items()
    }
    assert digests == reference["suite-quick"]
