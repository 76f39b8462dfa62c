"""Command-line workload generator.

Usage::

    python -m repro.workloads harvard --users 16 --days 7 -o harvard.jsonl
    python -m repro.workloads web --sites 60 --days 7 -o web.jsonl
    python -m repro.workloads hp --apps 12 --days 7 -o hp.jsonl
    python -m repro.workloads stats harvard.jsonl

Traces serialize as JSON lines (header + one record per line) and load
back with :meth:`repro.workloads.trace.Trace.load`, so experiments can run
against saved traces instead of regenerating.
"""

from __future__ import annotations

import argparse
import sys

from repro.workloads.harvard import HarvardConfig, generate_harvard
from repro.workloads.hp import HPConfig, generate_hp
from repro.workloads.trace import Trace
from repro.workloads.web import WebConfig, generate_web


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Generate or inspect synthetic workload traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    harvard = sub.add_parser("harvard", help="Harvard-like NFS workload")
    harvard.add_argument("--users", type=int, default=16)
    harvard.add_argument("--days", type=float, default=7.0)
    harvard.add_argument("--seed", type=int, default=0)
    harvard.add_argument("-o", "--output", required=True)

    hp = sub.add_parser("hp", help="HP-like block-level workload")
    hp.add_argument("--apps", type=int, default=12)
    hp.add_argument("--days", type=float, default=7.0)
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("-o", "--output", required=True)

    web = sub.add_parser("web", help="NLANR-like web workload")
    web.add_argument("--users", type=int, default=40)
    web.add_argument("--sites", type=int, default=60)
    web.add_argument("--days", type=float, default=7.0)
    web.add_argument("--seed", type=int, default=0)
    web.add_argument("-o", "--output", required=True)

    stats = sub.add_parser("stats", help="print a saved trace's Table-1 row")
    stats.add_argument("path")

    args = parser.parse_args(argv)

    if args.command == "harvard":
        trace = generate_harvard(
            HarvardConfig(users=args.users, days=args.days, seed=args.seed)
        )
    elif args.command == "hp":
        trace = generate_hp(
            HPConfig(applications=args.apps, days=args.days, seed=args.seed)
        )
    elif args.command == "web":
        trace = generate_web(
            WebConfig(users=args.users, sites=args.sites, days=args.days,
                      seed=args.seed)
        )
    elif args.command == "stats":
        try:
            trace = Trace.load(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for key, value in trace.stats().items():
            print(f"{key}: {value}")
        return 0
    else:  # pragma: no cover - argparse enforces choices
        return 2

    trace.save(args.output)
    summary = trace.stats()
    print(
        f"wrote {args.output}: {summary['operations']} records, "
        f"{summary['users']} users, {summary['active_bytes'] / 1e6:.1f} MB "
        f"active data over {summary['duration_days']:.2f} days"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
