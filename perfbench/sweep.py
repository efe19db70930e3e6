"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py                  # seeds 1..10, all workloads
    python3 perfbench/sweep.py --seeds 0        # one run each, seed 0
    python3 perfbench/sweep.py --workloads exact-full --seeds 1-5
    python3 perfbench/sweep.py --baseline perfbench/baseline.json

Run from the root of a checkout.  Runs are made one at a time, seed by
seed, each seed going through every workload, so drift in the machine's
load falls on all workloads alike.  For each workload and end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, against the
metric's bound in BENCHMARK.json: ``steady`` below a third of the
bound, ``wide`` below the bound, ``TOO WIDE`` above it (``setup_s`` is
judged by its median only).  ``--baseline`` also writes every run and
the summary, with the machine record of each run, to a compact JSON
file (``python3 -m json.tool`` pretty-prints it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    machine = next(
        json.loads(line[len("machine "):])
        for line in lines if line.startswith("machine ")
    )
    return dict(json.loads(lines[-1]), seed=seed, machine=machine)


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        # idle layers read 0 on every run, which leaves no relative spread
        "spread": (q3 - q1) / median if median else None,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", help="comma-separated; default BENCHMARK.json's"
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args()

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    seeds = parse_seeds(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            run = one_run(workload, seed, spec["run_seconds"], args.trace)
            runs[workload].append(run)
            shown = "  ".join(
                f"{name}={m['value']:.6g}{m['unit']}"
                for name, m in list(run["metrics"].items())[:6]
            )
            machine = run["machine"]
            print(
                f"{workload:16s} seed {seed:3d} correct={run['correct']} "
                f"failed={run['failed']}/{run['attempted']}  {shown}  "
                f"unscaled verdict_s="
                f"{statistics.median(machine['verdict_s']):.6g}s "
                f"speed={statistics.median(machine['speed']):.4f}",
                flush=True,
            )

    summary: dict[str, dict] = {}
    ok = all(r["correct"] for rs in runs.values() for r in rs)
    for workload, rs in runs.items():
        summary[workload] = {}
        print(f"\n{workload}: {len(rs)} runs")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in rs
                      if name in r["metrics"]]
            if len(values) < 2:
                if values:
                    print(f"  {name:45s} {values[0]:14.6g} {metric['unit']}")
                continue
            s = summarize(values, metric.get("bound"))
            summary[workload][name] = dict(s, unit=metric["unit"])
            line = (
                f"  {name:45s} median {s['median']:14.6g} {metric['unit']:8s}"
                f" q1 {s['q1']:12.6g} q3 {s['q3']:12.6g}"
            )
            if s["spread"] is not None:
                line += f" spread {s['spread']:7.2%}"
            if "bound" in metric and s["spread"] is not None:
                line += f" of bound {metric['bound']:.0%} " + (
                    "(spread not judged)" if name == "setup_s"
                    else "steady" if s["spread"] < metric["bound"] / 3
                    else "wide" if s["spread"] < metric["bound"]
                    else "TOO WIDE"
                )
            print(line)
    if args.baseline:
        Path(args.baseline).write_text(
            json.dumps(
                {"seeds": seeds, "trace": args.trace, "summary": summary,
                 "runs": runs},
                separators=(",", ":"),
            )
            + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
