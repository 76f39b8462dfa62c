"""Synthetic Harvard-like NFS workload (research + email, Table 1).

The real Harvard trace (Ellard et al., FAST '03; EECS workload) is a week
of timestamped NFS accesses by a research group — the only trace in the
paper with both path information and writes, so it drives every dynamic
experiment.  This generator reproduces the properties those experiments
consume:

* a **directory hierarchy** of per-user home trees plus a shared area,
  with heavy-tailed file sizes (lognormal body, occasional very large
  files — the paper notes a 4-orders-of-magnitude mean-to-max spread);
* **name-space-local tasks**: users work in bursts inside one directory at
  a time (compile, edit, survey a project tree), with sub-second gaps
  inside a task and think times between tasks — which is why ordering keys
  by path is nearly as good as an oracle (Figure 3);
* **diurnal activity** concentrated in working hours (the paper samples
  its 15-minute replay segments from 9 AM–6 PM);
* **daily churn** of roughly 10–20% of stored bytes written and a similar
  volume removed (Table 3), including mailbox appends and temporary files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.trace import (
    CREATE,
    DELETE,
    READ,
    RENAME,
    SECONDS_PER_DAY,
    Trace,
    TraceRecord,
    WRITE,
)


@dataclass(frozen=True)
class HarvardConfig:
    """Scale and shape knobs; defaults give a laptop-sized workload."""

    users: int = 16
    days: float = 7.0
    dirs_per_user: int = 10
    mean_files_per_dir: float = 10.0
    file_size_median: float = 8192.0
    file_size_sigma: float = 1.6
    big_file_fraction: float = 0.01
    big_file_bytes: int = 8 << 20
    tasks_per_active_hour: float = 5.0
    reads_per_task_mean: float = 10.0
    intra_task_gap_mean: float = 0.35
    write_fraction: float = 0.10
    create_fraction: float = 0.04
    delete_fraction: float = 0.035
    rename_fraction: float = 0.0005  # 0.05% of operations, per Section 4.2
    mailbox_appends_per_day: float = 20.0
    work_start_hour: int = 9
    work_end_hour: int = 18
    off_hours_activity: float = 0.08
    seed: int = 0


class _UserState:
    """Generator-side view of one user's files (keeps the trace replayable)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.dirs: List[str] = []
        self.files: Dict[str, int] = {}  # path -> size
        self.files_by_dir: Dict[str, List[str]] = {}
        self.mailbox: Optional[str] = None
        self.current_dir: Optional[str] = None
        self.next_file_id = 0

    def add_file(self, path: str, size: int) -> None:
        self.files[path] = size
        directory = path.rsplit("/", 1)[0]
        self.files_by_dir.setdefault(directory, []).append(path)

    def drop_file(self, path: str) -> None:
        size = self.files.pop(path, None)
        if size is None:
            return
        directory = path.rsplit("/", 1)[0]
        siblings = self.files_by_dir.get(directory, [])
        if path in siblings:
            siblings.remove(path)


def _lognormal_size(rng: random.Random, median: float, sigma: float) -> int:
    return max(64, int(median * math.exp(sigma * rng.gauss(0.0, 1.0))))


def generate_harvard(config: HarvardConfig = HarvardConfig()) -> Trace:
    """Generate the full workload bundle (initial image + week of records)."""
    rng = random.Random(config.seed)
    users: List[_UserState] = []
    initial_dirs: List[str] = []
    initial_files: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # initial file-system image

    initial_dirs.append("/home")
    shared = "/shared"
    initial_dirs.append(shared)
    shared_files: List[str] = []
    for i in range(24):
        path = f"{shared}/lib{i:02d}.so"
        size = _lognormal_size(rng, 4 * config.file_size_median, config.file_size_sigma)
        initial_files.append((path, size))
        shared_files.append(path)

    for u in range(config.users):
        name = f"user{u:03d}"
        home = f"/home/{name}"
        state = _UserState(name)
        initial_dirs.append(home)
        # Grow a project tree by preferential attachment (natural shapes).
        state.dirs.append(home)
        for d in range(config.dirs_per_user):
            parent = rng.choice(state.dirs)
            if parent.count("/") >= 8:
                parent = home
            path = f"{parent}/proj{d:02d}"
            initial_dirs.append(path)
            state.dirs.append(path)
        for directory in state.dirs:
            n_files = rng.randint(1, max(2, int(2 * config.mean_files_per_dir)))
            for f in range(n_files):
                path = f"{directory}/f{state.next_file_id:05d}.dat"
                state.next_file_id += 1
                if rng.random() < config.big_file_fraction:
                    size = rng.randint(config.big_file_bytes // 4, config.big_file_bytes)
                else:
                    size = _lognormal_size(rng, config.file_size_median, config.file_size_sigma)
                initial_files.append((path, size))
                state.add_file(path, size)
        # Mailbox (email is half the real workload's character).
        mail_dir = f"{home}/mail"
        initial_dirs.append(mail_dir)
        state.dirs.append(mail_dir)
        mailbox = f"{mail_dir}/inbox.mbox"
        mailbox_size = _lognormal_size(rng, 64 * config.file_size_median, 1.0)
        initial_files.append((mailbox, mailbox_size))
        state.add_file(mailbox, mailbox_size)
        state.mailbox = mailbox
        users.append(state)

    # ------------------------------------------------------------------
    # the week of activity

    records: List[TraceRecord] = []
    for state in users:
        _generate_user_activity(state, shared_files, config, rng, records)

    return Trace(
        name="harvard-synth",
        records=records,
        initial_dirs=initial_dirs,
        initial_files=initial_files,
    )


def _generate_user_activity(
    state: _UserState,
    shared_files: Sequence[str],
    config: HarvardConfig,
    rng: random.Random,
    records: List[TraceRecord],
) -> None:
    total_seconds = config.days * SECONDS_PER_DAY
    hour = 0
    while hour * 3600.0 < total_seconds:
        hour_start = hour * 3600.0
        hour_of_day = hour % 24
        active = config.work_start_hour <= hour_of_day < config.work_end_hour
        rate = config.tasks_per_active_hour if active else (
            config.tasks_per_active_hour * config.off_hours_activity
        )
        n_tasks = _poisson(rng, rate)
        for _ in range(n_tasks):
            start = hour_start + rng.uniform(0.0, 3600.0)
            _generate_task(state, shared_files, config, rng, records, start)
        # Mailbox appends arrive around the clock.
        n_mail = _poisson(rng, config.mailbox_appends_per_day / 24.0)
        for _ in range(n_mail):
            when = hour_start + rng.uniform(0.0, 3600.0)
            if state.mailbox and state.mailbox in state.files:
                size = state.files[state.mailbox]
                length = rng.randint(512, 24 * 1024)
                records.append(
                    TraceRecord(when, state.name, WRITE, state.mailbox, offset=size, length=length)
                )
                state.files[state.mailbox] = size + length
        hour += 1


def _generate_task(
    state: _UserState,
    shared_files: Sequence[str],
    config: HarvardConfig,
    rng: random.Random,
    records: List[TraceRecord],
    start: float,
) -> None:
    """One user task: a burst of operations, mostly inside one directory."""
    # Sticky working directory: tasks revisit the same project most times.
    if state.current_dir is None or rng.random() < 0.35:
        candidates = [d for d in state.dirs if state.files_by_dir.get(d)]
        if not candidates:
            return
        state.current_dir = rng.choice(candidates)
    directory = state.current_dir
    local_files = state.files_by_dir.get(directory, [])
    if not local_files:
        return
    n_ops = max(1, _poisson(rng, config.reads_per_task_mean))
    when = start
    for _ in range(n_ops):
        roll = rng.random()
        if roll < config.rename_fraction and local_files:
            src = rng.choice(local_files)
            dst = f"{directory}/r{state.next_file_id:05d}.dat"
            state.next_file_id += 1
            size = state.files[src]
            state.drop_file(src)
            state.add_file(dst, size)
            records.append(TraceRecord(when, state.name, RENAME, src, dst_path=dst))
        elif roll < config.create_fraction:
            path = f"{directory}/f{state.next_file_id:05d}.dat"
            state.next_file_id += 1
            size = _lognormal_size(rng, config.file_size_median, config.file_size_sigma)
            state.add_file(path, size)
            local_files = state.files_by_dir[directory]
            records.append(TraceRecord(when, state.name, CREATE, path, size=size))
        elif roll < config.create_fraction + config.delete_fraction and len(local_files) > 2:
            victim = rng.choice(local_files)
            if victim == state.mailbox:
                pass
            else:
                state.drop_file(victim)
                records.append(TraceRecord(when, state.name, DELETE, victim))
        elif roll < config.create_fraction + config.delete_fraction + config.write_fraction:
            path = rng.choice(local_files)
            size = state.files[path]
            if size <= 0 or rng.random() < 0.3:
                # Append (log-style growth).
                length = rng.randint(256, 16 * 1024)
                records.append(
                    TraceRecord(when, state.name, WRITE, path, offset=size, length=length)
                )
                state.files[path] = size + length
            else:
                # Overwrite a region in place.
                length = min(size, rng.randint(256, 32 * 1024))
                offset = rng.randint(0, max(0, size - length))
                records.append(
                    TraceRecord(when, state.name, WRITE, path, offset=offset, length=length)
                )
        else:
            # Read — usually a local file, occasionally a shared library.
            if shared_files and rng.random() < 0.08:
                path = rng.choice(list(shared_files))
                size = 0  # size resolved at replay; read whole file
                records.append(TraceRecord(when, state.name, READ, path))
            else:
                path = rng.choice(local_files)
                size = state.files[path]
                if size > 256 * 1024 and rng.random() < 0.7:
                    # Partial read of a large file.
                    length = rng.randint(8 * 1024, 256 * 1024)
                    offset = rng.randint(0, max(0, size - length))
                    records.append(
                        TraceRecord(when, state.name, READ, path, offset=offset, length=length)
                    )
                else:
                    records.append(
                        TraceRecord(when, state.name, READ, path, offset=0, length=size)
                    )
        when += rng.expovariate(1.0 / config.intra_task_gap_mean)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (lam is small everywhere we use it)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1
