"""Trace model: timestamped file-system operations, stats, (de)serialization.

All three workloads the paper analyzes (Table 1) reduce to streams of
timestamped per-user operations; this module defines that common record
format plus the summary statistics the paper reports (duration, access
count, active data volume).

Records are deliberately path-level, not block-level: the same trace is
replayed through each system's file-system layer, which maps it to that
system's keys — exactly how the paper drives its comparison systems from
one trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.obs.stream import read_jsonl

SECONDS_PER_DAY = 86400.0

READ = "read"
WRITE = "write"
CREATE = "create"
DELETE = "delete"
MKDIR = "mkdir"
RENAME = "rename"

OPS = (READ, WRITE, CREATE, DELETE, MKDIR, RENAME)


@dataclass(frozen=True)
class TraceRecord:
    """One file-system operation by one user.

    ``offset``/``length`` apply to reads and writes; ``size`` to creates;
    ``dst_path`` to renames.
    """

    time: float
    user: str
    op: str
    path: str
    offset: int = 0
    length: int = 0
    size: int = 0
    dst_path: str = ""

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if self.time < 0:
            raise ValueError("record time must be non-negative")


@dataclass
class Trace:
    """An ordered stream of records plus the initial file-system image."""

    name: str
    records: List[TraceRecord]
    initial_dirs: List[str] = field(default_factory=list)
    initial_files: List[Tuple[str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.records.sort(key=lambda r: r.time)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def duration(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].time - self.records[0].time

    def users(self) -> List[str]:
        return sorted({r.user for r in self.records})

    def per_user(self) -> Dict[str, List[TraceRecord]]:
        by_user: Dict[str, List[TraceRecord]] = {}
        for record in self.records:
            by_user.setdefault(record.user, []).append(record)
        return by_user

    # ------------------------------------------------------------------
    # Table-1 style statistics

    def stats(self) -> Dict[str, object]:
        """The workload summary row reported in Table 1."""
        accesses = sum(1 for r in self.records if r.op in (READ, WRITE))
        sizes: Dict[str, int] = dict(self.initial_files)
        active_paths: Set[str] = set()
        for record in self.records:
            if record.op in (READ, WRITE, CREATE):
                active_paths.add(record.path)
            if record.op == CREATE:
                sizes[record.path] = max(sizes.get(record.path, 0), record.size)
            elif record.op in (READ, WRITE) and record.length:
                sizes[record.path] = max(
                    sizes.get(record.path, 0), record.offset + record.length
                )
        active_bytes = sum(sizes.get(p, 0) for p in active_paths)
        return {
            "workload": self.name,
            "duration_days": self.duration / SECONDS_PER_DAY,
            "operations": len(self.records),
            "accesses": accesses,
            "users": len(self.users()),
            "active_files": len(active_paths),
            "active_bytes": active_bytes,
            "initial_files": len(self.initial_files),
            "initial_bytes": sum(size for _, size in self.initial_files),
        }

    # ------------------------------------------------------------------
    # serialization (JSON lines; header object then one record per line)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "name": self.name,
                "initial_dirs": self.initial_dirs,
                "initial_files": self.initial_files,
            }
            fh.write(json.dumps(header) + "\n")
            for record in self.records:
                fh.write(json.dumps(asdict(record)) + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`.

        Lines go through :func:`repro.obs.stream.read_jsonl`.  A line that
        is cut off, is not JSON, or is not a header (the first line) or a
        record raises one :class:`ValueError` naming *path* and the line.
        The format stores no record count, so a file cut exactly at a line
        boundary loads as the shorter trace.
        """
        headers: List[Dict[str, Any]] = []
        records: List[TraceRecord] = []

        def check(payload: Any) -> List[str]:
            try:
                if headers:
                    records.append(_record(payload))
                else:
                    headers.append(_header(payload))
            except (TypeError, ValueError) as exc:
                return [str(exc)]
            return []

        _, problems = read_jsonl(path, check)
        if problems:
            raise ValueError(f"{path}: {problems[0]}")
        if not headers:
            raise ValueError(f"{path}: no header line")
        header = headers[0]
        return cls(
            name=header["name"],
            records=records,
            initial_dirs=list(header.get("initial_dirs", [])),
            initial_files=[tuple(item) for item in header.get("initial_files", [])],
        )


_RECORD_FIELDS = {f.name for f in fields(TraceRecord)}
_REQUIRED_FIELDS = ("time", "user", "op", "path")


def _header(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict) or not isinstance(payload.get("name"), str):
        raise ValueError("header must be a JSON object with a string 'name'")
    return payload


def _record(payload: Any) -> TraceRecord:
    if not isinstance(payload, dict):
        raise ValueError(f"record must be a JSON object, got {type(payload).__name__}")
    missing = [name for name in _REQUIRED_FIELDS if name not in payload]
    if missing:
        raise ValueError(f"record has no {', '.join(missing)}")
    unknown = sorted(set(payload) - _RECORD_FIELDS)
    if unknown:
        raise ValueError(f"record has unknown field(s) {', '.join(unknown)}")
    return TraceRecord(**payload)  # checks the op and the time
