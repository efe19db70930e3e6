"""One benchmark iteration in a fresh interpreter.

``run.py`` starts this script once per iteration, so the Catalan memo,
mpmath's caches and every import start cold, as in a ``catconv`` CLI
invocation.  It prints one JSON object on its last stdout line.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py --workload exact-full --seed 0 --trace 0
"""

import time

import catconv

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    source = Path(catconv.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"catconv imported from {source}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out = {
        "imported_at": IMPORTED_AT,
        "machine": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    }
    if args.import_only:
        print(json.dumps(out))
        return 0

    from workloads import WORKLOADS, summarize

    workload = WORKLOADS[args.workload]
    span = contextlib.nullcontext
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    window_start = time.monotonic()
    start = time.perf_counter()
    raw = workload.run(args.seed, span)
    verdict_s = time.perf_counter() - start
    window_end = time.monotonic()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    out.update(
        jobs=workload.jobs,
        verdict_s=verdict_s,
        # for run.py's machine-speed probe, which shares this clock
        window=[window_start, window_end],
        self_cpu_s=_cpu(self_after) - _cpu(self_before),
        children_cpu_s=_cpu(children_after) - _cpu(children_before),
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024,
        criteria=summarize(workload.verdict(raw)),
        seeded=workload.seeded(args.seed),
    )
    if tracer is not None:
        from tracer import kernel_timings

        tracer.uninstall()
        layers = tracer.metrics()
        layers.update(kernel_timings())
        out["layers"] = layers
        out["missing"] = tracer.missing
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            tracer.write_spans(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
