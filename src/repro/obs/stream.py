"""Bounded-memory streaming export: the JSONL writer and reader.

The report path (:mod:`repro.obs.report`) accumulates every run entry in
memory and writes one JSON document at the end — fine for a 30-cell figure
grid, fatal for a 10^5-user replay whose per-window snapshots would grow
peak RSS linearly with run length.  This module is the streaming
alternative: rows go to disk as they are produced, nothing accumulates,
and peak memory is one row.

* :class:`JsonlWriter` — append-only writer of JSON objects, one per
  line, deterministic (``sort_keys``) so identical runs produce
  byte-identical files.
* :func:`stream_spans` — drain a tracer's finished spans into a writer
  (the scale harness calls this once per replay window, so span export is
  flat in run length too; lines validate against
  :func:`repro.obs.spans.validate_span_dict`).
* :class:`NullJsonlWriter` — the disabled variant (no export directory
  configured): counts rows, writes nothing, so harness code never
  branches.
* :func:`read_jsonl` — the line loop behind ``python -m repro.obs trace``
  and ``health``: every line is decoded and checked, and a line that is
  truncated, hand-edited or off-schema is reported, never returned.
"""

from __future__ import annotations

import json
import os
from types import TracebackType
from typing import IO, Any, Callable, List, Mapping, Optional, Tuple, Type


class JsonlWriter:
    """Append JSON objects to *path*, one per line, without buffering rows.

    Rows are serialized immediately; the only state held is the open file
    handle, so writing a million rows costs the same peak memory as
    writing one.  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.path = path
        self.rows = 0
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def write(self, payload: Mapping[str, object]) -> None:
        """Serialize one row; raises if the writer is closed."""
        if self._handle is None:
            raise ValueError(f"writer for {self.path!r} is closed")
        self._handle.write(json.dumps(payload, sort_keys=True))
        self._handle.write("\n")
        self.rows += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class NullJsonlWriter:
    """Export disabled: counts rows, touches no filesystem state."""

    path = None

    def __init__(self) -> None:
        self.rows = 0

    def write(self, payload: Mapping[str, object]) -> None:
        self.rows += 1


def stream_spans(tracer, writer) -> int:
    """Drain *tracer*'s finished spans into *writer*; returns rows written.

    A tracer without buffered finished spans (one at sample rate 0, say)
    is a cheap no-op, so call sites can invoke this unconditionally at
    every window boundary.
    """
    payloads = tracer.drain()
    for payload in payloads:
        writer.write(payload)
    return len(payloads)


def read_jsonl(
    path: str, check: Callable[[Any], List[str]]
) -> Tuple[List[Any], List[str]]:
    """Decode one JSONL file; returns ``(payloads, problems)``.

    *check* names what is wrong with one decoded line (nothing, when it is
    good).  A line that is not UTF-8, not JSON or fails its check is left
    out of the payloads and reported as ``line N: ...``; blank lines are
    skipped.
    """
    payloads: List[Any] = []
    problems: List[str] = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                problems.append(f"line {lineno}: not UTF-8")
                continue
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                problems.append(f"line {lineno}: not JSON: {exc}")
                continue
            line_problems = check(payload)
            if line_problems:
                problems.extend(f"line {lineno}: {p}" for p in line_problems)
            else:
                payloads.append(payload)
    return payloads, problems
