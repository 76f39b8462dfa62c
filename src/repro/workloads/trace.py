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
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

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

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def duration(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].time - self.records[0].time

    def users(self) -> List[str]:
        return sorted({r.user for r in self.records})

    def slice(self, start: float, end: float) -> "Trace":
        """Records with ``start <= time < end`` (shared initial image)."""
        subset = [r for r in self.records if start <= r.time < end]
        return Trace(
            name=f"{self.name}[{start:.0f}:{end:.0f}]",
            records=subset,
            initial_dirs=self.initial_dirs,
            initial_files=self.initial_files,
        )

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
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            records = [TraceRecord(**json.loads(line)) for line in fh if line.strip()]
        return cls(
            name=header["name"],
            records=records,
            initial_dirs=list(header.get("initial_dirs", [])),
            initial_files=[tuple(item) for item in header.get("initial_files", [])],
        )
