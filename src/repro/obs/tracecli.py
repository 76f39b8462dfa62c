"""Trace analysis: ``python -m repro.obs trace <file.jsonl>``.

Reconstructs span trees from a JSONL trace export (see
:mod:`repro.obs.spans`) and answers the question the flat counters cannot:
*where did the time in one slow operation go?*  Four reports come out of
one file:

* **per-phase latency attribution** — critical-path seconds bucketed into
  route / cache / transfer / queue / other, aggregated over every root
  operation (optionally filtered by root name); with ``--phase`` the
  same attribution is additionally grouped by the roots' ``phase``
  attribute (the accel matrix tags lookups pre/shift/post), so a mode's
  latency bill is visible per workload regime;
* **critical-path extraction** — for each root, the chain of descendant
  spans that determined its completion time;
* **slowest-N traces** — roots ranked by duration, with their direct
  critical chain;
* **text flamegraph** — the slowest (or a chosen) trace rendered as
  horizontally positioned bars in sim-time.

Everything works from the JSONL alone — no live tracer, registry, or
deployment is needed — so traces exported by runner cells can be analyzed
long after the run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import validate_span_dict
from repro.obs.stream import read_jsonl

#: Ordering and naming of the attribution buckets.
PHASES = ("route", "cache", "transfer", "queue", "other")

#: Tolerance for "child end meets parent/sibling boundary" comparisons.
EPS = 1e-9


def phase_of(name: str) -> str:
    """Attribution bucket for a span name (prefix-based, stable)."""
    if name.startswith("dht."):
        return "route"
    if name.startswith("lookup"):
        return "cache"
    if name.startswith(("transfer", "net.", "tcp.")):
        return "transfer"
    if name.startswith("queue"):
        return "queue"
    return "other"


@dataclass
class SpanRec:
    """One decoded span line, plus its resolved children."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: Optional[float]
    attrs: Dict[str, object]
    children: List["SpanRec"] = field(default_factory=list)
    orphaned: bool = False

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanRec":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            name=payload["name"],
            start=float(payload["start"]),
            end=None if payload.get("end") is None else float(payload["end"]),
            attrs=dict(payload.get("attrs") or {}),
        )


@dataclass
class Forest:
    """All trees reconstructed from one trace file."""

    roots: List[SpanRec]
    spans: List[SpanRec]
    orphans: List[SpanRec]       # parent_id set but parent not in the file
    open_spans: List[SpanRec]    # end is null (unclosed at snapshot time)


def load_spans(path: str) -> Tuple[List[SpanRec], List[str]]:
    """Decode and validate one JSONL file; returns (spans, problems)."""
    payloads, problems = read_jsonl(path, validate_span_dict)
    return [SpanRec.from_dict(payload) for payload in payloads], problems


def build_forest(spans: Sequence[SpanRec]) -> Forest:
    """Link spans into trees; orphaned spans become flagged roots."""
    by_id = {span.span_id: span for span in spans}
    roots: List[SpanRec] = []
    orphans: List[SpanRec] = []
    for span in spans:
        span.children = []
    for span in spans:
        if span.parent_id is None:
            roots.append(span)
        elif span.parent_id in by_id:
            by_id[span.parent_id].children.append(span)
        else:
            # The parent rotated out of the ring buffer (or was never
            # exported): keep the subtree visible as its own root.
            span.orphaned = True
            orphans.append(span)
            roots.append(span)
    for span in spans:
        span.children.sort(key=lambda s: (s.start, s.span_id))
    open_spans = [span for span in spans if span.end is None]
    return Forest(roots=roots, spans=list(spans), orphans=orphans,
                  open_spans=open_spans)


def critical_chain(span: SpanRec) -> List[SpanRec]:
    """Direct children on *span*'s critical path, in start order.

    Walks backward from ``span.end``: at each step the child whose finish
    time determines the current deadline joins the chain and the deadline
    moves to that child's start.  Children must be finished to qualify.
    """
    if span.end is None:
        return []
    remaining = [c for c in span.children if c.end is not None]
    chain: List[SpanRec] = []
    deadline = span.end
    while remaining:
        best = None
        for child in remaining:
            if child.end <= deadline + EPS and (best is None or child.end > best.end):
                best = child
        if best is None:
            break
        chain.append(best)
        remaining.remove(best)
        deadline = best.start
        if deadline <= span.start + EPS:
            break
    chain.reverse()
    return chain


def critical_path(span: SpanRec) -> List[SpanRec]:
    """Root-to-leaf critical path: each chain element expanded recursively."""
    path: List[SpanRec] = [span]
    for child in critical_chain(span):
        path.extend(critical_path(child))
    return path


def critical_segments(span: SpanRec) -> List[Tuple[SpanRec, float, float]]:
    """Critical-path time, attributed to the deepest responsible span.

    Returns ``(span, lo, hi)`` intervals covering ``[start, end]`` of
    *span*: intervals a critical child accounts for recurse into that
    child; uncovered time (queueing between children, work the span did
    itself) stays attributed to *span*.
    """
    if span.end is None:
        return []
    chain = critical_chain(span)
    if not chain:
        return [(span, span.start, span.end)]
    segments: List[Tuple[SpanRec, float, float]] = []
    cursor = span.start
    for child in chain:
        if child.start > cursor + EPS:
            segments.append((span, cursor, child.start))
        segments.extend(critical_segments(child))
        cursor = max(cursor, child.end)
    if span.end > cursor + EPS:
        segments.append((span, cursor, span.end))
    return segments


def attribution(roots: Sequence[SpanRec], op: Optional[str] = None) -> Dict[str, float]:
    """Critical-path seconds per phase, summed over matching finished roots."""
    totals = {phase: 0.0 for phase in PHASES}
    for root in roots:
        if op is not None and root.name != op:
            continue
        for span, lo, hi in critical_segments(root):
            totals[phase_of(span.name)] += hi - lo
    return totals


#: Canonical ordering of the accel matrix's workload phases; phases not
#: in this tuple sort after it, untagged roots group under ``(none)``.
WORKLOAD_PHASE_ORDER = ("pre", "shift", "post")

UNTAGGED_PHASE = "(none)"


def workload_phase_groups(
    roots: Sequence[SpanRec],
) -> Dict[str, List[SpanRec]]:
    """Group roots by their ``phase`` span attribute (``--phase``).

    The accel harness tags every ``accel.lookup`` root with the workload
    phase it ran in (pre-shift warmup, the shift quarter, the recovered
    tail), so attribution per group shows *when* latency was spent, not
    just in which subsystem.
    """
    groups: Dict[str, List[SpanRec]] = {}
    for root in roots:
        phase = root.attrs.get("phase")
        key = str(phase) if phase is not None else UNTAGGED_PHASE
        groups.setdefault(key, []).append(root)
    return groups


def ordered_workload_phases(groups: Dict[str, List[SpanRec]]) -> List[str]:
    named = [p for p in WORKLOAD_PHASE_ORDER if p in groups]
    extras = sorted(
        k for k in groups
        if k not in WORKLOAD_PHASE_ORDER and k != UNTAGGED_PHASE
    )
    tail = [UNTAGGED_PHASE] if UNTAGGED_PHASE in groups else []
    return named + extras + tail


def render_workload_phases(
    groups: Dict[str, List[SpanRec]], op: Optional[str] = None
) -> List[str]:
    lines = ["per-workload-phase critical-path attribution:"]
    if not groups:
        lines.append("  (no root spans)")
        return lines
    for phase in ordered_workload_phases(groups):
        roots = groups[phase]
        totals = attribution(roots, op=op)
        grand = sum(totals.values())
        finished = sum(1 for r in roots if r.end is not None)
        lines.append(
            f"  phase {phase}: {len(roots)} roots "
            f"({finished} finished)  critical {_fmt_seconds(grand)}"
        )
        if grand > 0.0:
            parts = [
                f"{bucket} {_fmt_seconds(totals[bucket])} "
                f"({100.0 * totals[bucket] / grand:.1f}%)"
                for bucket in PHASES
                if totals[bucket] > 0.0
            ]
            lines.append("    " + "  ".join(parts))
    return lines


def complete_critical_paths(roots: Sequence[SpanRec]) -> int:
    """Roots whose critical path descends through children to a leaf."""
    count = 0
    for root in roots:
        path = critical_path(root)
        if len(path) > 1 and not path[-1].children:
            count += 1
    return count


# ----------------------------------------------------------------------
# rendering


def _fmt_seconds(value: float) -> str:
    return f"{value:.6f}s" if value < 0.01 else f"{value:.3f}s"


def render_attribution(totals: Dict[str, float]) -> List[str]:
    grand = sum(totals.values())
    lines = ["per-phase critical-path attribution:"]
    if grand <= 0.0:
        lines.append("  (no finished critical-path time)")
        return lines
    width = max(len(p) for p in PHASES)
    for phase in PHASES:
        seconds = totals[phase]
        if seconds <= 0.0:
            continue
        share = 100.0 * seconds / grand
        lines.append(f"  {phase.ljust(width)}  {_fmt_seconds(seconds):>12}  {share:5.1f}%")
    lines.append(f"  {'total'.ljust(width)}  {_fmt_seconds(grand):>12}  100.0%")
    return lines


def render_slowest(roots: Sequence[SpanRec], top: int) -> List[str]:
    finished = sorted(
        (r for r in roots if r.end is not None),
        key=lambda r: r.duration,
        reverse=True,
    )
    lines = [f"slowest {min(top, len(finished))} traces:"]
    if not finished:
        lines.append("  (no finished root spans)")
        return lines
    for rank, root in enumerate(finished[:top], 1):
        chain = critical_chain(root)
        detail = " -> ".join(f"{c.name} {_fmt_seconds(c.duration)}" for c in chain)
        flags = " [orphaned]" if root.orphaned else ""
        lines.append(
            f"  {rank}. {root.name}  {_fmt_seconds(root.duration)}  "
            f"trace {root.trace_id}{flags}" + (f"  [{detail}]" if detail else "")
        )
    return lines


def render_flamegraph(root: SpanRec, width: int = 48) -> List[str]:
    """Text flamegraph: bars positioned by start offset within the root."""
    span_width = max(root.duration, EPS)
    name_width = _max_name_width(root, 0)
    lines = [
        f"flamegraph (trace {root.trace_id}, root {root.name}, "
        f"{_fmt_seconds(root.duration)}):"
    ]

    def emit(span: SpanRec, depth: int) -> None:
        label = ("  " * depth + span.name).ljust(name_width)
        if span.end is None:
            lines.append(f"  {label} |{'?' * width}| (unclosed)")
        else:
            offset = int(round((span.start - root.start) / span_width * width))
            offset = min(max(offset, 0), width)
            length = int(round(span.duration / span_width * width))
            length = min(max(length, 1 if span.duration > 0 else 0), width - offset)
            bar = (" " * offset + "#" * length).ljust(width)
            share = 100.0 * span.duration / span_width
            lines.append(
                f"  {label} |{bar}| {_fmt_seconds(span.duration):>12} {share:5.1f}%"
            )
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return lines


def _max_name_width(span: SpanRec, depth: int) -> int:
    width = len(span.name) + 2 * depth
    for child in span.children:
        width = max(width, _max_name_width(child, depth + 1))
    return width


# ----------------------------------------------------------------------
# CLI


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs trace",
        description="Analyze a span-trace JSONL export: attribution, "
        "critical paths, slowest traces, flamegraph.",
    )
    parser.add_argument("files", nargs="+", help="trace JSONL files")
    parser.add_argument("--top", type=int, default=5,
                        help="slowest traces to list (default 5)")
    parser.add_argument("--op", default=None,
                        help="restrict attribution to roots with this name")
    parser.add_argument(
        "--phase", action="store_true",
        help="also group critical-path attribution by the roots' 'phase' "
        "attribute (the accel matrix's pre/shift/post workload phases)",
    )
    parser.add_argument("--flame", default=None, metavar="TRACE_ID",
                        help="flamegraph this trace (default: the slowest)")
    parser.add_argument("--no-flame", action="store_true",
                        help="skip the flamegraph section")
    parser.add_argument(
        "--require-complete", action="store_true",
        help="exit 1 unless at least one complete root-to-leaf critical "
        "path exists (CI smoke guard)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    status = 0
    for index, path in enumerate(args.files):
        if index:
            print()
        try:
            spans, problems = load_spans(path)
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
        forest = build_forest(spans)
        complete = complete_critical_paths(forest.roots)
        print(f"== {path}")
        print(
            f"spans: {len(forest.spans)} (open: {len(forest.open_spans)}, "
            f"orphaned: {len(forest.orphans)})  traces: {len(forest.roots)}  "
            f"complete critical paths: {complete}"
        )
        if args.require_complete and complete == 0:
            print(f"{path}: no complete root-to-leaf critical path",
                  file=sys.stderr)
            status = 1
        print()
        for line in render_attribution(attribution(forest.roots, op=args.op)):
            print(line)
        if args.phase:
            print()
            groups = workload_phase_groups(forest.roots)
            for line in render_workload_phases(groups, op=args.op):
                print(line)
        print()
        for line in render_slowest(forest.roots, args.top):
            print(line)
        flame_root = _pick_flame_root(forest.roots, args.flame)
        if flame_root is not None and not args.no_flame:
            print()
            for line in render_flamegraph(flame_root):
                print(line)
        elif args.flame is not None and flame_root is None:
            print(f"{path}: no trace {args.flame!r}", file=sys.stderr)
            status = 1
    return status


def _pick_flame_root(roots: Sequence[SpanRec], trace_id: Optional[str]) -> Optional[SpanRec]:
    if trace_id is not None:
        for root in roots:
            if root.trace_id == trace_id:
                return root
        return None
    finished = [r for r in roots if r.end is not None and r.children]
    if not finished:
        return None
    return max(finished, key=lambda r: r.duration)


if __name__ == "__main__":  # pragma: no cover - exercised via repro.obs CLI
    sys.exit(main())
