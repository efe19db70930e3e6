"""Outside-in tracing of catconv's layers.

The tracer rebinds module attributes that callers look up at call time
(``catconv.suite.run_all``, ``catconv.hyperseries.pfq_unity_sum_exact``,
``catconv.numerics.jacobi_rule``, ...) to wrappers that record a span
(name, tag, start, end, parent) or bump a counter.  Spans stay in memory
until the run ends.  A target that no longer exists is recorded as
missing and every metric derived from it is left out, so a rename in
catconv costs the trace some metrics but never fails the run.

Only parent-side work is seen: pool workers forked under ``--jobs 2``
inherit the wrappers, but their spans and counts die with them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter_ns

from catconv import cli, hyperseries, identities, numerics, suite

# Per-call p50/p99 are reported for these spans, whose calls run into the
# thousands on at least one workload.
PERCENTILE_SPANS = (
    "identities.lhs_value",
    "identities.rhs_value",
    "exactnum.poch_quotient",
    "hyperseries.pfq_truncate",
    "hyperseries.pfq_unity_sum_exact",
)

SWEPT_IDS = (
    "thm-a", "thm-b", "thm-c", "thm-d", "thm-e",
    "prop-a", "prop-b", "prop-c",
    "cor-1", "cor-2", "cor-3", "cor-4",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._restore: list = []

    # --- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, None, start, end, parent)

    def timed(self, name, fn, tag=None, after=None):
        """Wrap ``fn`` in a span; ``tag(args, kwargs)`` labels the call and
        ``after(args, kwargs, result)`` records counts from its result."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                label = tag(args, kwargs) if tag else None
                spans[index] = (name, label, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def max_bits(self, key):
        """An ``after`` hook keeping the largest numerator or denominator
        bit length of the rational results under ``key``."""

        def after(args, kwargs, value):
            bits = max(
                value.numerator.bit_length(), value.denominator.bit_length()
            )
            self.maxima[key] = max(self.maxima[key], bits)

        return after

    # --- installing ------------------------------------------------------

    def rebind(self, name: str, targets, make) -> None:
        """Replace every ``(module, attr)`` in ``targets`` with one wrapper
        built by ``make(original)``; all must exist and share the original."""
        originals = []
        for module, attr in targets:
            if not hasattr(module, attr):
                self.missing.append(f"{module.__name__}.{attr}")
                return
            originals.append(getattr(module, attr))
        wrapper = make(originals[0])
        for (module, attr), original in zip(targets, originals):
            self._restore.append((module, attr, original))
            setattr(module, attr, wrapper)
        self.installed.add(name)

    def install(self) -> None:
        t = self
        t.rebind(
            "suite.criterion", [(suite, "CRITERIA")],
            lambda table: tuple(
                (n, t.timed(f"suite.criterion{n:02d}", fn)) for n, fn in table
            ),
        )
        t.rebind(
            "suite.pools_started",
            [(suite, "ProcessPoolExecutor"), (identities, "ProcessPoolExecutor")],
            lambda cls: t.counted("suite.pools_started", cls),
        )
        t.rebind("suite.run_all", [(suite, "run_all")],
                 lambda fn: t.timed("suite.run_all", fn))
        t.rebind("cli.main", [(cli, "main")],
                 lambda fn: t.timed("cli.main", fn))

        def grid_counts(args, kwargs, report):
            t.counts["identities.cases"] += report.cases_run
            t.counts["identities.skipped"] += report.skipped
            t.counts["identities.flagged"] += len(report.flagged)

        t.rebind(
            "identities.verify_grid",
            [(suite, "verify_grid"), (identities, "verify_grid")],
            lambda fn: t.timed(
                "identities.verify_grid", fn,
                tag=lambda a, k: (a[0] if a else k["ident"]).value,
                after=grid_counts,
            ),
        )

        # verify_case reads the _LHS/_RHS tables directly and lhs_value
        # goes through them too, so wrapping the tables sees every sum once
        lhs_bits = t.max_bits("identities.lhs_value.max_bits")
        for side, after in (("lhs", lhs_bits), ("rhs", None)):
            t.rebind(
                f"identities.{side}_value",
                [(identities, f"_{side.upper()}")],
                lambda table, side=side, after=after: {
                    ident: t.timed(f"identities.{side}_value", fn, after=after)
                    for ident, fn in table.items()
                },
            )
        for fn_name in ("catalan", "binomial"):
            t.rebind(
                f"exactnum.{fn_name}.calls", [(identities, fn_name)],
                lambda fn, n=fn_name: t.counted(f"exactnum.{n}.calls", fn),
            )
        t.rebind("exactnum.poch_quotient", [(hyperseries, "poch_quotient")],
                 lambda fn: t.timed("exactnum.poch_quotient", fn))

        def coeffs(args, kwargs, report):
            order = args[1] if len(args) > 1 else kwargs.get(
                "order", hyperseries.DEFAULT_ORDER
            )
            t.counts["hyperseries.coeffs_compared"] += (
                (order + 1) * report.cases_run
            )

        t.rebind(
            "hyperseries.check_product_grid",
            [(hyperseries, "check_product_grid")],
            lambda fn: t.timed(
                "hyperseries.check_product_grid", fn,
                tag=lambda a, k: a[0] if a else k["formula"], after=coeffs,
            ),
        )

        t.rebind(
            "hyperseries.pfq_unity_sum_exact",
            [(hyperseries, "pfq_unity_sum_exact"),
             (numerics, "pfq_unity_sum_exact")],
            lambda fn: t.timed(
                "hyperseries.pfq_unity_sum_exact", fn,
                after=t.max_bits("hyperseries.pfq_unity_sum_exact.max_bits"),
            ),
        )
        t.rebind(
            "hyperseries.terminating_4f3_closed_form",
            [(hyperseries, "terminating_4f3_closed_form"),
             (numerics, "terminating_4f3_closed_form")],
            lambda fn: t.timed("hyperseries.terminating_4f3_closed_form", fn),
        )
        for fn_name in (
            "pfq_truncate", "series_mul",
            "terminating_4f3_check", "contiguous_relation_check",
        ):
            t.rebind(
                f"hyperseries.{fn_name}", [(hyperseries, fn_name)],
                lambda fn, n=fn_name: t.timed(f"hyperseries.{n}", fn),
            )
        for fn_name in (
            "gamma_selftest", "dixon_check", "dminus_check",
            "linear4f3_check", "gamma_quotient", "jacobi_rule",
        ):
            t.rebind(
                f"numerics.{fn_name}", [(numerics, fn_name)],
                lambda fn, n=fn_name: t.timed(f"numerics.{n}", fn),
            )

        def nodes(args, kwargs, result):
            n = args[1] if len(args) > 1 else kwargs["n"]
            m = args[4] if len(args) > 4 else kwargs.get("m")
            m = n // 2 + 2 if m is None else m
            t.counts["numerics.quadrature.nodes"] += m * m

        t.rebind(
            "numerics.integral_value", [(numerics, "integral_value")],
            lambda fn: t.timed("numerics.integral_value", fn, after=nodes),
        )

        def levin(fn):
            timed = t.timed("numerics.levin", fn)

            def wrapper(ratio, *args, **kwargs):
                def counted_ratio(k):
                    t.counts["numerics.levin.terms"] += 1
                    return ratio(k)

                return timed(counted_ratio, *args, **kwargs)

            return wrapper

        t.rebind("numerics.levin", [(numerics, "_levin_unity_sum")], levin)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # --- reporting -------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        Times are busy time summed over calls, in seconds; ``self_s``
        subtracts the time covered by direct child spans.
        """
        total = defaultdict(int)
        by_tag = defaultdict(int)
        calls = Counter()
        durations = defaultdict(list)
        child_time = defaultdict(int)
        for name, tag, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if tag is not None:
                by_tag[tag] += duration
            if name in PERCENTILE_SPANS:
                durations[name].append(duration)
            if parent >= 0:
                child_time[parent] += duration
        self_time = defaultdict(int)
        for index, (name, _, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]

        ok = self.installed.__contains__
        out: dict[str, float] = {}

        def seconds(ns):
            return ns / 1e9

        if ok("suite.criterion") or any(
            name.startswith("suite.criterion") for name in total
        ):
            for n in range(1, 11):
                out[f"suite.criterion{n:02d}.s"] = seconds(
                    total[f"suite.criterion{n:02d}"]
                )
        if ok("suite.pools_started"):
            out["suite.pools_started"] = self.counts["suite.pools_started"]
        if ok("identities.verify_grid"):
            out["identities.verify_grid.calls"] = calls["identities.verify_grid"]
            out["identities.verify_grid.s"] = seconds(
                total["identities.verify_grid"]
            )
            for ident in SWEPT_IDS:
                out[f"identities.{ident}.s"] = seconds(by_tag[ident])
            for key in ("cases", "skipped", "flagged"):
                out[f"identities.{key}"] = self.counts[f"identities.{key}"]
        for name in (
            "identities.lhs_value", "identities.rhs_value",
            "exactnum.poch_quotient", "hyperseries.pfq_truncate",
            "hyperseries.series_mul", "hyperseries.pfq_unity_sum_exact",
            "numerics.levin", "numerics.gamma_quotient", "numerics.jacobi_rule",
        ):
            if ok(name):
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.s"] = seconds(total[name])
            if ok(name) and name in PERCENTILE_SPANS:
                samples = sorted(durations[name])
                out[f"{name}.p50_us"] = _quantile(samples, 0.50) / 1e3
                out[f"{name}.p99_us"] = _quantile(samples, 0.99) / 1e3
        for key in (
            "identities.lhs_value.max_bits",
            "hyperseries.pfq_unity_sum_exact.max_bits",
        ):
            if ok(key.rsplit(".", 1)[0]):
                out[key] = self.maxima[key]
        for key in ("exactnum.catalan.calls", "exactnum.binomial.calls"):
            if ok(key):
                out[key] = self.counts[key]
        if ok("hyperseries.check_product_grid"):
            out["hyperseries.check_product_grid.s"] = seconds(
                total["hyperseries.check_product_grid"]
            )
            for formula in hyperseries.PRODUCT_FORMULAE:
                out[f"hyperseries.{formula}.s"] = seconds(by_tag[formula])
            out["hyperseries.coeffs_compared"] = self.counts[
                "hyperseries.coeffs_compared"
            ]
        for name in (
            "hyperseries.terminating_4f3_check",
            "hyperseries.contiguous_relation_check",
            "hyperseries.terminating_4f3_closed_form",
            "numerics.gamma_selftest", "numerics.dixon_check",
            "numerics.dminus_check", "numerics.linear4f3_check",
            "numerics.integral_value",
        ):
            if ok(name):
                out[f"{name}.s"] = seconds(total[name])
        if ok("numerics.levin"):
            out["numerics.levin.terms"] = self.counts["numerics.levin.terms"]
        if ok("numerics.integral_value"):
            out["numerics.quadrature.nodes"] = self.counts[
                "numerics.quadrature.nodes"
            ]
            if ok("numerics.jacobi_rule"):
                out["numerics.quadrature.self_s"] = seconds(
                    self_time["numerics.integral_value"]
                )
        if ok("cli.main") and ok("suite.run_all"):
            out["cli.emit.s"] = seconds(
                total["cli.main"] - total["suite.run_all"]
            )
        return out


def _quantile(samples: list[int], q: float) -> float:
    """Nearest-rank quantile of sorted samples; 0 when there are none."""
    if not samples:
        return 0.0
    return float(samples[min(len(samples) - 1, int(q * len(samples)))])


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - start)
    return statistics.median(times)


def kernel_timings() -> dict[str, float]:
    """Fixed-input kernel timings, each the median of k repeats.

    Order 48 is the full-size order that ``--quick`` (order 24) never
    reaches.  Run after ``uninstall`` so the kernels are unwrapped.
    """
    out: dict[str, float] = {}
    try:
        plus = hyperseries.SeriesSpec((1,), (2,), hyperseries.ARG_PLUS)
        minus = hyperseries.SeriesSpec((1,), (2,), hyperseries.ARG_MINUS)
        truncate, mul = hyperseries.pfq_truncate, hyperseries.series_mul
    except AttributeError:
        pass
    else:
        left, right = truncate(plus, 48), truncate(minus, 48)
        out["hyperseries.pfq_truncate.o48_us"] = (
            _median_time(lambda: truncate(plus, 48), 41) / 1e3
        )
        out["hyperseries.series_mul.o48_us"] = (
            _median_time(lambda: mul(left, right), 41) / 1e3
        )
    rule = getattr(numerics, "jacobi_rule", None)
    if rule is not None:
        half = Fraction(1, 2)
        out["numerics.jacobi_rule.m6p40_ms"] = (
            _median_time(lambda: rule(half, half, 6, 40), 9) / 1e6
        )
    return out
