"""Machine-speed probe that runs beside a benchmark run.

    python3 perfbench/calibrate.py --cpu 1

The host this benchmark was written on slows the same single-threaded
code by up to 2x for seconds or minutes at a time.  This probe
measures that speed while an iteration runs, so ``run.py`` can scale
the iteration's times to a fixed reference speed.

It repeats one fixed round of stdlib-only ``Fraction`` and big-integer
arithmetic (no catconv code, so no change to catconv moves it) at nice
``NICE``, pinned to the iteration's CPU.  The scheduler then
interleaves its rounds with the iteration a few milliseconds apart, so
both see the same machine speed.  Per 50 ms of monotonic time it counts
the rounds finished and the CPU time they took.  On SIGTERM, when its
parent has gone, or after ``MAX_SECONDS``, it prints those buckets as
one JSON list of ``[bucket_start, rounds, cpu_s]`` and exits.
"""

import argparse
import json
import os
import signal
import sys
import time
from fractions import Fraction
from math import comb

BUCKET_S = 0.05
# about 4% of a CPU beside a nice-0 process in the same scheduler group
NICE = 15
# longer than any run may last (run.py's budget is 165 s)
MAX_SECONDS = 200.0


def one_round() -> None:
    """The fixed unit of work: Fraction sums and big-integer products."""
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(k * k + 1, 3 * k + 2)
    x = 1
    for k in range(1, 300):
        x = x * k % (10**60 + 7)
    t = Fraction(0)
    for k in range(30):
        t += Fraction(comb(30, k) * (-1) ** k, k + 1) * Fraction(
            2 * k + 1, 3 * k + 2
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()

    if args.cpu is not None:
        try:
            os.sched_setaffinity(0, {args.cpu})
        except OSError:
            pass
    os.nice(NICE)
    stop = False

    def on_term(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    parent = os.getppid()
    give_up = time.monotonic() + MAX_SECONDS
    buckets: dict[int, list] = {}
    key = None
    while not stop:
        c0 = time.process_time()
        one_round()
        cpu = time.process_time() - c0
        now = time.monotonic()
        k = int(now / BUCKET_S)
        bucket = buckets.get(k)
        if bucket is None:
            bucket = buckets[k] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += cpu
        if k != key:
            key = k
            # never outlive the run that started this probe
            if os.getppid() != parent or now > give_up:
                break
    print(json.dumps(
        [[k * BUCKET_S, n, c] for k, (n, c) in sorted(buckets.items())]
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
