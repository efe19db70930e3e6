"""Rewrite reference.json: seed 0's verdict digests, per workload.

    python3 perfbench/reference.py

Run from the root of a checkout, and only when a change to catconv is
meant to change a verdict; say so in the change.  Refuses to record a
verdict that has a failure or a failed criterion.
"""

import json
import sys
import time
from pathlib import Path

from run import HERE, WORKLOADS, run_child


def main() -> int:
    root = Path.cwd()
    reference = {}
    for workload in WORKLOADS:
        result, _ = run_child(
            root,
            ["--workload", workload, "--seed", "0", "--trace", "0"],
            time.monotonic() + 600,
        )
        criteria = result["criteria"]
        bad = [k for k, c in criteria.items() if c["failures"] or not c["passed"]]
        if bad:
            print(f"{workload}: criteria {bad} fail; not recorded",
                  file=sys.stderr)
            return 1
        reference[workload] = {k: c["digest"] for k, c in criteria.items()}
        print(workload, sum(c["cases"] for c in criteria.values()), "cases")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
