"""Driver entry point: one workload, one result line.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``

``--trace 0`` replays the workload in fresh worker processes, one after the
other, until *S* seconds of worker time are spent (never fewer than five
rounds), and prints the median of each end-to-end metric.  ``--trace 1``
makes one untraced and one traced round and prints the per-layer metrics.
The last line of standard output is the result object; an incorrect run is
reported there (``"correct": false``), a run that could not be made at all
exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, sys.path[0] is this directory: swap it for the checkout
# root so that ``benchmarks.e2e`` imports as the package it is.
sys.path[0] = str(ROOT)

#: The host slows and recovers by a quarter in spells of 5-40 s; a median of
#: fewer rounds follows the spell it fell in.
MIN_ROUNDS = 5


def main() -> int:
    from benchmarks.e2e import suite
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        if args.trace:
            rounds = [suite.run_worker(args.workload, args.seed)]
            traced = suite.run_worker(args.workload, args.seed, traced=True)
        else:
            rounds, traced = [], None
            while (len(rounds) < MIN_ROUNDS
                   or sum(r["host"]["wall_s"] for r in rounds) < args.seconds):
                rounds.append(suite.run_worker(args.workload, args.seed))
    except suite.BenchError as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 2
    report = suite.fold(args.workload, rounds, traced)
    for problem in report["problems"]:
        print(f"benchmarks.e2e: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": suite.driver_metrics(report, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
