"""``python -m benchmarks.e2e``: the whole benchmark, or ``compare A B``.

Prints every end-to-end and per-layer metric by name with its unit, checks
the outputs, and exits non-zero on any oracle, fingerprint or invariant
failure.  The JSON report (``--out``) ends with ``"claim": null``: this
command measures, it claims nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from benchmarks.e2e import compare, suite
from benchmarks.e2e.metrics import PER_LAYER


def _print_report(report: Dict[str, Any]) -> None:
    meta = report["meta"]
    print("benchmarks.e2e  " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  ({entry['rounds']} rounds, fingerprint {entry['fingerprint']})")
        print(f"   sizes: {json.dumps(entry['sizes'])}")
        print(f"   attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        for metric, value in entry["end_to_end"].items():
            line = f"   {metric:<26} {value['median']:>14.6g} {value['unit']:<6}"
            if "q1" in value:
                line += f" [q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, n {value['n']}]"
            else:
                line += " [sim, exact]"
            print(line)
        for metric in PER_LAYER:
            print(f"   {metric.name:<40} {entry['per_layer'][metric.name]:>14.6g} {metric.unit}")
        for problem in entry["problems"]:
            print(f"   PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare.main(args.a, args.b)

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the tests (use with --rounds 1)")
    parser.add_argument("--trace-out", default=None,
                        help="prefix for the traced passes' span JSONL files")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    try:
        report = suite.run_suite(
            seed=args.seed, rounds=args.rounds, quick=args.quick,
            trace_out=args.trace_out,
            log=lambda message: print(message, file=sys.stderr),
        )
    except suite.BenchError as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
