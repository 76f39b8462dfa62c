"""Command-line entry point: run any paper experiment and print its report.

Usage::

    python -m repro list                 # what can I run?
    python -m repro fig3                 # one experiment
    python -m repro table2 fig7 fig16    # several
    python -m repro all                  # the whole evaluation (minutes)
    python -m repro --jobs 4 fig9 fig10  # grid cells across 4 processes

The names are the entries of :data:`repro.experiments.figures.FIGURES`.
Each runs at the laptop scale recorded in EXPERIMENTS.md and prints the
same rows/series the paper reports.  Heavy simulation matrices are shared
between experiments within one invocation, each cell computed once;
``--jobs N`` (or ``$REPRO_JOBS``) fans their cells out over N worker
processes without changing any row (see docs/performance.md).  Nothing
is kept across invocations.

After each entry's report the run checks the entry's claims (the paper's
shape, :mod:`repro.experiments.claims`) on the rows it printed: one stderr
line per gap and per failure, and exit status 1 if a claim fails or a gap's
claim starts to hold.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.figures import FIGURES
from repro.runner import JOBS_ENV


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help="experiment names (see `list`), or `all`",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation grids "
        "(0 = one per CPU; default $REPRO_JOBS, else serial)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None:
        if args.jobs < 0:
            parser.error(f"--jobs must be >= 0, got {args.jobs}")
        # Knob: the worker count reaches the runner as $REPRO_JOBS.
        os.environ[JOBS_ENV] = str(args.jobs)  # lint: allow=DET004

    # `all` is every entry that does not time the host (`scale` and
    # `accel` are run explicitly); a name given twice runs once.
    requested = []
    for name in args.experiments or ["list"]:
        expanded = [n for n, f in FIGURES.items() if f.in_all] if name == "all" else [name]
        requested.extend(n for n in expanded if n not in requested)

    unknown = [name for name in requested if name != "list" and name not in FIGURES]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("run `python -m repro list` to see what's available", file=sys.stderr)
        return 2

    status = 0
    for name in requested:
        if name == "list":
            print("available experiments:")
            for figure in FIGURES.values():
                print(f"  {figure.name:10s} {figure.title}")
            print("  all        run everything above")
            continue
        figure = FIGURES[name]
        started = time.perf_counter()
        rows = figure.rows()
        report = figure.render(rows)
        elapsed = time.perf_counter() - started
        print(report)
        print(f"[{name} finished in {elapsed:.1f}s]\n", flush=True)
        for ok, line in figure.check(rows):
            print(line, file=sys.stderr, flush=True)
            if not ok:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
