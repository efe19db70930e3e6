"""catconv benchmark: one run of one workload.

    python3 perfbench/run.py --workload suite-quick --seed 0 --seconds 55 --trace 0

Run from the root of a catconv checkout; see README.md beside this file.
The run starts a fresh child interpreter (``child.py``) per iteration and
starts another only while it is expected to end inside the ``--seconds``
window; there is always at least one.  Load model: a closed loop with one
client.  Only ``suite-quick-j2`` starts pool workers, two at a time;
every other workload runs on one CPU.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
medians over the iterations.  With ``--trace 1`` each round runs one
untraced and one traced iteration, and the line holds the per-layer
metrics, with ``trace.overhead_s`` as traced minus untraced ``verdict_s``.

Every time is scaled to a fixed reference machine speed.  Beside the
iterations runs ``calibrate.py``, a low-priority probe pinned to the
iterations' CPU that repeats a fixed round of stdlib arithmetic.  An
iteration's ``verdict_s`` and ``cpu_s`` are multiplied by its speed,
``REF_ROUND_S`` over the probe's mean CPU time per round inside the
iteration's window, and ``setup_s`` by the speed over all the run's
import windows together.  This removes the host's swings in speed (up
to 2x on the machine this was written on) from the figures; the
unscaled median and the speed are printed beside them.

Every iteration's verdict is reduced to one digest per criterion and
checked against ``reference.json``, seed 0's verdict.  Seeds other than
0 change only criterion 3's grid in ``exact-full``; that criterion is
checked for engine-reported failures instead.  ``failed`` counts the
cases of every iteration whose verdict differs (all of an iteration's
cases when a digest differs), so failed / attempted is the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import BUCKET_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-quick", "exact-full", "numeric-p100", "suite-quick-j2")
# import-only children, half before and half after the iterations
SETUP_PROBES = 12
# a run must end within 180 s; this leaves room for start-up and reporting
BUDGET_S = 165.0
# workloads that start pool workers, which must not share one CPU
POOLED = ("suite-quick-j2",)
# the probe's CPU time per round at the reference speed: about its mean
# on the 2-vCPU Xeon VM the benchmark was written on (see README.md)
REF_ROUND_S = 6.3e-4
# fewer probe rounds than this inside the windows of a speed is no measurement
MIN_ROUNDS = 20
E2E_UNITS = {
    "verdict_s": "s",
    "cases_per_s": "cases/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("utilization"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def pin(cpu: int | None):
    """A preexec_fn that pins the new process to one CPU, if given."""
    if cpu is None:
        return None

    def pin_to_cpu():
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass

    return pin_to_cpu


def run_child(
    root: Path, args: list[str], deadline: float, cpu: int | None = None
) -> tuple[dict, float]:
    """Run child.py to completion; return its result and its start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # a process group, not a session: a new session would get its own
        # scheduler autogroup and take an equal share from the speed probe
        process_group=0,
        preexec_fn=pin(cpu),
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        # the group holds the child and any pool workers it forked
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args} ran past the time budget")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise ChildFailed(f"child {args} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


class Probe:
    """calibrate.py, running beside the iterations until stopped."""

    def __init__(self, cpu: int | None):
        args = [sys.executable, str(HERE / "calibrate.py")]
        if cpu is not None:
            args += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, text=True, process_group=0
        )
        self.buckets: list[list[float]] = []

    def stop(self) -> None:
        if self.proc.stdout.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            stdout, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
            return
        if self.proc.returncode == 0 and stdout.strip():
            self.buckets = json.loads(stdout.strip().splitlines()[-1])

    def speed(self, windows: list[list[float]]) -> tuple[float, int]:
        """REF_ROUND_S over the probe's mean CPU time per round inside the
        windows, and the number of rounds it rests on.  A bucket counts
        when its midpoint falls inside a window."""
        rounds, cpu = 0, 0.0
        for bucket_start, n, c in self.buckets:
            mid = bucket_start + BUCKET_S / 2
            if any(start <= mid < end for start, end in windows):
                rounds += n
                cpu += c
        if rounds < MIN_ROUNDS:
            raise ChildFailed(
                f"speed probe made {rounds} rounds inside {len(windows)} "
                f"window(s); need {MIN_ROUNDS}"
            )
        return REF_ROUND_S / (cpu / rounds), rounds


def judge(result: dict, reference: dict) -> int:
    """Cases of one iteration whose verdict differs from the reference."""
    criteria = result["criteria"]
    seeded = {str(n) for n in result["seeded"]}
    cases = sum(c["cases"] for c in criteria.values())
    fixed = {k: v["digest"] for k, v in criteria.items() if k not in seeded}
    expected = {k: v for k, v in reference.items() if k not in seeded}
    if fixed != expected or set(criteria) != set(reference):
        return cases
    return sum(criteria[k]["failures"] for k in seeded)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "catconv" / "__init__.py").is_file():
        print(f"no catconv sources under {root / 'src'}; run from the "
              "root of a catconv checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    if args.workload not in reference:
        print(f"no reference verdict for {args.workload}", file=sys.stderr)
        return 2
    reference = reference[args.workload]

    begun = time.monotonic()
    deadline = begun + BUDGET_S
    load_start = os.getloadavg()
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    spans_out = (
        root / ".bench_build" / "perfbench"
        / f"spans-{args.workload}-seed{args.seed}.json"
    )

    # (child start, import done) per child
    setups: list[list[float]] = []
    # one CPU for the iterations and the speed probe, unless pool
    # workers need the others
    cpu = None if args.workload in POOLED else max(os.sched_getaffinity(0))

    def probe_setup():
        for _ in range(SETUP_PROBES // 2):
            probe, started = run_child(
                root, ["--import-only"], deadline, cpu
            )
            setups.append([started, probe["imported_at"]])

    speed_probe = Probe(cpu)
    try:
        # fills the bytecode caches, which users have warm after install
        warm, _ = run_child(root, ["--import-only"], deadline, cpu)
        probe_setup()
        plain, traced = [], []
        rounds = [(plain, ["--trace", "0"])]
        if args.trace:
            rounds.append(
                (traced, ["--trace", "1", "--spans-out", str(spans_out)])
            )
        measured_from = time.monotonic()
        while True:
            for bucket, extra in rounds:
                result, started = run_child(
                    root, child_args + extra, deadline, cpu
                )
                setups.append([started, result["imported_at"]])
                bucket.append(result)
            # start another round only if it should end inside the window
            elapsed = time.monotonic() - measured_from
            per_round = elapsed / len(plain)
            if elapsed + per_round > min(args.seconds, deadline - begun):
                break
        probe_setup()
        speed_probe.stop()
        for result in plain + traced:
            result["speed"], result["probe_rounds"] = speed_probe.speed(
                [result["window"]]
            )
        # one speed for all the imports: each is too short to carry its own
        setup_speed, setup_rounds = speed_probe.speed(setups)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        speed_probe.stop()

    iterations = plain + traced
    attempted = sum(
        c["cases"] for r in iterations for c in r["criteria"].values()
    )
    failed = sum(judge(r, reference) for r in iterations)
    correct = failed == 0

    if args.trace:
        metrics, counts_repeat = layer_metrics(plain, traced)
        correct = correct and counts_repeat
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "verdict_s": statistics.median([scaled_verdict(r) for r in plain]),
            "cases_per_s": statistics.median(
                [
                    sum(c["cases"] for c in r["criteria"].values())
                    / scaled_verdict(r)
                    for r in plain
                ]
            ),
            "cpu_s": statistics.median(
                [
                    (r["self_cpu_s"] + r["children_cpu_s"]) * r["speed"]
                    for r in plain
                ]
            ),
            "setup_s": statistics.median([end - start for start, end in setups])
            * setup_speed,
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
        units = E2E_UNITS

    machine = dict(
        warm["machine"],
        nproc=len(os.sched_getaffinity(0)),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        verdict_s=[r["verdict_s"] for r in plain],
        traced_verdict_s=[r["verdict_s"] for r in traced],
        speed=[r["speed"] for r in plain + traced],
        probe_rounds=[r["probe_rounds"] for r in plain + traced],
        setup_speed=setup_speed,
        setup_probe_rounds=setup_rounds,
        ref_round_s=REF_ROUND_S,
        wall_s=time.monotonic() - begun,
    )
    for name, value in metrics.items():
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"{args.workload:16s} {name:45s} {shown} {units[name]}")
    print(f"{args.workload:16s} {'failed_share':45s} "
          f"{failed / attempted:16.6f} ratio")
    print(f"{args.workload:16s} {'verdict_s, unscaled':45s} "
          f"{statistics.median(r['verdict_s'] for r in plain):16.6f} s")
    print(f"{args.workload:16s} {'speed (reference = 1)':45s} "
          f"{statistics.median(r['speed'] for r in plain):16.6f} ratio")
    if traced and traced[0]["missing"]:
        print("trace targets missing: " + ", ".join(traced[0]["missing"]))
    print("machine " + json.dumps(machine))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def scaled_verdict(result: dict) -> float:
    """An iteration's verdict_s at the reference machine speed."""
    return result["verdict_s"] * result["speed"]


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics: medians of scaled timings, counts that must
    repeat.  The fixed-input kernel timings run just after the traced
    iteration's window and take its speed."""
    counts_repeat = True
    metrics: dict[str, float] = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if all(isinstance(v, int) for v in values):
            if len(set(values)) != 1:
                print(f"count {name} differs between traced iterations: "
                      f"{values}", file=sys.stderr)
                counts_repeat = False
            metrics[name] = values[0]
        else:
            # a timing: scaled by its iteration's speed, like verdict_s
            metrics[name] = statistics.median(
                [r["layers"][name] * r["speed"]
                 for r in traced if name in r["layers"]]
            )
    metrics["suite.children.cpu_s"] = statistics.median(
        [r["children_cpu_s"] * r["speed"] for r in plain]
    )
    metrics["suite.pool.utilization"] = statistics.median(
        [
            (r["self_cpu_s"] + r["children_cpu_s"]) / (r["jobs"] * r["verdict_s"])
            for r in plain
        ]
    )
    metrics["trace.overhead_s"] = statistics.median(
        [scaled_verdict(r) for r in traced]
    ) - statistics.median([scaled_verdict(r) for r in plain])
    return metrics, counts_repeat


if __name__ == "__main__":
    sys.exit(main())
