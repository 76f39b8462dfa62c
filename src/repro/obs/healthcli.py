"""Cluster-health analysis: ``python -m repro.obs health <file.jsonl>``.

Consumes a health-export JSONL file — the row stream produced by
:class:`repro.obs.health.HealthMonitor` (written by the runner as
``runner_<kind>.health<k>.jsonl``, or streamed live by the scale cells
as ``*_health.jsonl``) — and renders the run as an operator would read
it:

* **per-window health report** — windows covered, series observed,
  sample totals, alert counts;
* **alert timeline** — every fire/resolve transition in sim-time order,
  paired into episodes (rule, severity, fire/resolve windows, peak
  value, duration);
* **worst-node drill-down** — per-node series (``node.deficit``,
  ``node.load``) ranked by deficit-windows and peaks, so "which nodes
  hurt" has an answer, not just "something fired";
* **key-series table** (``--windows``) — one line per window for the
  headline cluster series.

``--require-cycle RULE`` exits 1 unless at least one episode of *RULE*
both fired **and** resolved — CI's ``health-smoke`` uses it to assert
the churn storm's replica-deficit alert completes its lifecycle.

Everything works from the JSONL alone and the output is a pure function
of the file contents, so serial and parallel runs of the same cells
render byte-identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.stream import read_jsonl

#: Cluster-level series shown in the --windows table, in column order.
KEY_SERIES = (
    "repair.deficit",
    "repair.backlog",
    "balance.imbalance",
    "lookup.hit_ratio",
    "pointer.stall",
    "ring.nodes",
)

_SERIES_FIELDS = ("name", "kind", "labels", "window", "start", "end",
                  "count", "value")
_ALERT_FIELDS = ("event", "rule", "severity", "series", "labels", "time",
                 "window", "value")


def validate_row(payload: object) -> List[str]:
    """All structural problems in one decoded health row."""
    if not isinstance(payload, dict):
        return ["not an object"]
    kind = payload.get("type")
    if kind == "series":
        fields = _SERIES_FIELDS
    elif kind == "alert":
        fields = _ALERT_FIELDS
    else:
        return [f"unknown row type {kind!r}"]
    missing = [f for f in fields if f not in payload]
    return [f"{kind} row missing {missing}"] if missing else []


def load_rows(path: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Decode and structurally validate one JSONL export."""
    return read_jsonl(path, validate_row)


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Episode:
    """One fire(-to-resolve) alert lifecycle reconstructed from rows."""

    __slots__ = ("rule", "severity", "series", "labels", "fired_window",
                 "fired_at", "peak", "resolved_window", "resolved_at")

    def __init__(self, fire: Dict[str, Any]) -> None:
        self.rule = fire["rule"]
        self.severity = fire["severity"]
        self.series = fire["series"]
        self.labels = dict(fire["labels"])
        self.fired_window = fire["window"]
        self.fired_at = fire["time"]
        self.peak = fire["value"]
        self.resolved_window: Optional[int] = None
        self.resolved_at: Optional[float] = None

    @property
    def resolved(self) -> bool:
        return self.resolved_at is not None


def episodes_of(rows: Sequence[Dict[str, Any]]) -> List[Episode]:
    """Pair fire/resolve transitions (rows are already in sim-time order)."""
    episodes: List[Episode] = []
    active: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Episode] = {}
    for row in rows:
        if row.get("type") != "alert":
            continue
        key = (row["rule"], _label_key(row["labels"]))
        if row["event"] == "fire":
            episode = Episode(row)
            episodes.append(episode)
            active[key] = episode
        elif row["event"] == "resolve":
            episode = active.pop(key, None)
            if episode is not None:
                episode.resolved_window = row["window"]
                episode.resolved_at = row["time"]
    return episodes


def worst_nodes(
    rows: Sequence[Dict[str, Any]], top: int
) -> List[Dict[str, Any]]:
    """Rank nodes by deficit exposure, then load peak (the drill-down)."""
    per_node: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        if row.get("type") != "series":
            continue
        node = row["labels"].get("node") if row["labels"] else None
        if node is None:
            continue
        entry = per_node.get(node)
        if entry is None:
            entry = per_node[node] = {
                "node": node, "deficit_windows": 0, "deficit_peak": 0.0,
                "load_peak": 0.0,
            }
        value = row["value"]
        if value is None or not row["count"]:
            continue
        if row["name"] == "node.deficit" and value > 0:
            entry["deficit_windows"] += 1
            entry["deficit_peak"] = max(entry["deficit_peak"], value)
        elif row["name"] == "node.load":
            entry["load_peak"] = max(entry["load_peak"], value)
    ranked = sorted(
        per_node.values(),
        key=lambda e: (
            -e["deficit_windows"], -e["deficit_peak"], -e["load_peak"],
            e["node"],
        ),
    )
    return ranked[:top]


# ----------------------------------------------------------------------
# rendering


def _fmt_value(value: Any) -> str:
    if value is None:
        return "-"
    number = float(value)
    if number == int(number) and abs(number) < 1e9:
        return str(int(number))
    return f"{number:.3f}"


def render_summary(rows: Sequence[Dict[str, Any]],
                   episodes: Sequence[Episode]) -> List[str]:
    series_rows = [r for r in rows if r["type"] == "series"]
    windows = {r["window"] for r in series_rows}
    names = {(r["name"], _label_key(r["labels"])) for r in series_rows}
    samples = sum(r["count"] for r in series_rows)
    width = None
    if series_rows:
        first = series_rows[0]
        width = first["end"] - first["start"]
    resolved = sum(1 for e in episodes if e.resolved)
    lines = []
    span = ""
    if windows:
        span = f" [{min(windows)}..{max(windows)}]"
        if width is not None:
            span += f" x {_fmt_value(width)}s"
    lines.append(
        f"windows: {len(windows)}{span}  series: {len(names)}  "
        f"samples: {samples}"
    )
    lines.append(
        f"alerts: {len(episodes)} fired, {resolved} resolved, "
        f"{len(episodes) - resolved} active"
    )
    return lines


def render_timeline(episodes: Sequence[Episode]) -> List[str]:
    lines = ["alert timeline:"]
    if not episodes:
        lines.append("  (no alerts fired)")
        return lines
    for episode in episodes:
        labels = ""
        if episode.labels:
            inner = ",".join(
                f"{k}={v}" for k, v in sorted(episode.labels.items())
            )
            labels = f"{{{inner}}}"
        head = (
            f"  [{episode.severity}] {episode.rule}{labels} "
            f"on {episode.series}: fired w={episode.fired_window} "
            f"t={_fmt_value(episode.fired_at)}s v={_fmt_value(episode.peak)}"
        )
        if episode.resolved:
            duration = episode.resolved_at - episode.fired_at
            head += (
                f" -> resolved w={episode.resolved_window} "
                f"t={_fmt_value(episode.resolved_at)}s "
                f"(after {_fmt_value(duration)}s)"
            )
        else:
            head += " -> STILL ACTIVE"
        lines.append(head)
    return lines


def render_worst_nodes(ranked: Sequence[Dict[str, Any]]) -> List[str]:
    lines = ["worst nodes (deficit windows, deficit peak, load peak):"]
    if not ranked:
        lines.append("  (no per-node series in this export)")
        return lines
    for rank, entry in enumerate(ranked, 1):
        lines.append(
            f"  {rank}. {entry['node']}  deficit_windows={entry['deficit_windows']}"
            f"  deficit_peak={_fmt_value(entry['deficit_peak'])}"
            f"  load_peak={_fmt_value(entry['load_peak'])}"
        )
    return lines


def render_windows(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """One line per window over the headline cluster series."""
    table: Dict[int, Dict[str, Any]] = {}
    for row in rows:
        if row["type"] != "series" or row["labels"]:
            continue
        if row["name"] not in KEY_SERIES:
            continue
        entry = table.setdefault(row["window"], {"start": row["start"]})
        if row["count"]:
            entry[row["name"]] = row["value"]
    lines = ["per-window key series:"]
    if not table:
        lines.append("  (no cluster-level series)")
        return lines
    present = [name for name in KEY_SERIES
               if any(name in entry for entry in table.values())]
    header = ["window", "start"] + [name.split(".", 1)[1] for name in present]
    widths = [max(len(h), 9) for h in header]
    lines.append("  " + "  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for window in sorted(table):
        entry = table[window]
        cells = [str(window), _fmt_value(entry["start"])]
        cells += [_fmt_value(entry.get(name)) for name in present]
        lines.append(
            "  " + "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        )
    return lines


# ----------------------------------------------------------------------
# CLI


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs health",
        description="Analyze a health-export JSONL: per-window report, "
        "SLO alert timeline, worst-node drill-down.",
    )
    parser.add_argument("files", nargs="+", help="health JSONL files")
    parser.add_argument("--top", type=int, default=5,
                        help="worst nodes to list (default 5)")
    parser.add_argument("--windows", action="store_true",
                        help="include the per-window key-series table")
    parser.add_argument(
        "--require-cycle", default=None, metavar="RULE",
        help="exit 1 unless at least one RULE alert fired AND resolved "
        "(CI smoke guard)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    status = 0
    for index, path in enumerate(args.files):
        if index:
            print()
        try:
            rows, problems = load_rows(path)
        except OSError as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            status = 1
            continue
        if problems:
            status = 1
            print(f"{path}: INVALID", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            continue
        episodes = episodes_of(rows)
        print(f"== {path}")
        for line in render_summary(rows, episodes):
            print(line)
        print()
        for line in render_timeline(episodes):
            print(line)
        print()
        for line in render_worst_nodes(worst_nodes(rows, args.top)):
            print(line)
        if args.windows:
            print()
            for line in render_windows(rows):
                print(line)
        if args.require_cycle is not None:
            cycled = any(
                e.rule == args.require_cycle and e.resolved for e in episodes
            )
            if not cycled:
                print(
                    f"{path}: no fired-and-resolved "
                    f"{args.require_cycle!r} alert",
                    file=sys.stderr,
                )
                status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via repro.obs CLI
    sys.exit(main())
