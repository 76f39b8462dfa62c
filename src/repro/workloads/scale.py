"""Workload scaling by file-system replication (Section 9.1).

"In experiments with larger system sizes, we scale up the workload
accordingly by replicating the initial file system ... we have 5.5 million
blocks in the 200 node experiment, so in the 1000 node experiment, we add
four extra copies of the file system ... Since we only have 83 distinct
access patterns, we still only replay accesses from 83 users."

This helper does exactly that: the initial image (directories and files)
is cloned under ``/replicaN`` prefixes so the stored-data volume grows
with the node count, while the access stream is left untouched — keeping
per-node storage constant across system sizes, which is what makes the
paper's cross-size comparisons meaningful.  The scale harness goes one
step further and replays those same patterns for many cloned populations
(:func:`scaled_read_stream`): a clone is a block of shared request tuples,
not a renamed copy of each record, so the stream costs what is distinct in it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, cycle, islice
from typing import Iterator, List, Sequence, Tuple

from repro.workloads.trace import Trace

#: One template read: (user, path, offset, length).
ReadRequest = Tuple[str, str, int, int]
#: One op of the cloned stream: (path, offset, length).
Request = Tuple[str, int, int]


def replicate_filesystem(trace: Trace, extra_copies: int) -> Trace:
    """A trace whose initial image contains ``extra_copies`` clones.

    Copy 0 is the original (accessed by the replayed users); copies live
    under ``/replica1`` .. ``/replicaN`` and are never accessed — they are
    storage ballast, exactly as in the paper.
    """
    if extra_copies < 0:
        raise ValueError("extra_copies must be non-negative")
    if extra_copies == 0:
        return trace
    dirs: List[str] = list(trace.initial_dirs)
    files: List[Tuple[str, int]] = list(trace.initial_files)
    for copy in range(1, extra_copies + 1):
        prefix = f"/replica{copy}"
        dirs.append(prefix)
        dirs.extend(f"{prefix}{d}" for d in trace.initial_dirs)
        files.extend((f"{prefix}{path}", size) for path, size in trace.initial_files)
    return Trace(
        name=f"{trace.name}+{extra_copies}copies",
        records=list(trace.records),
        initial_dirs=dirs,
        initial_files=files,
    )


def copies_for_size(base_nodes: int, target_nodes: int) -> int:
    """Extra copies needed to keep per-node data constant when growing
    from *base_nodes* to *target_nodes* (the paper: 200 -> 1000 adds 4)."""
    if base_nodes <= 0 or target_nodes <= 0:
        raise ValueError("node counts must be positive")
    return max(0, round(target_nodes / base_nodes) - 1)


def replica_path(path: str, replica: int) -> str:
    """*path* inside replica image *replica* (0 = the original image)."""
    if replica == 0:
        return path
    return f"/replica{replica}{path}"


def scaled_read_stream(
    reads: Sequence[ReadRequest],
    *,
    clones: int,
    ops_per_clone: int,
    copies: int = 0,
) -> Iterator[Request]:
    """Lazily multiply a base read template across *clones* user populations.

    The paper replays 83 distinct access patterns regardless of system
    size; the million-user scale harness instead clones the base
    population: clone ``c`` replays ``ops_per_clone`` requests from the
    template (starting at a clone-dependent stride so clones do not all
    hammer the same files in the same order) against replica image
    ``c % (copies + 1)``.  One ``(path, offset, length)`` item per op, in
    clone order; who reads is dropped, since the replay plans and routes by
    request alone.

    A clone's requests depend only on ``(c % (copies + 1), c % len(reads))``,
    so they are one memoised block, sliced on first use from one shared
    tuple per (replica image, template read) and chained at C level.  The
    arguments are checked here, not at the first ``next()``, and the memo —
    this call's own — holds at most ``(copies + 1) * len(reads)`` blocks
    whatever *clones* is.
    """
    if clones <= 0:
        raise ValueError(f"clones must be positive, got {clones}")
    if ops_per_clone <= 0:
        raise ValueError(f"ops_per_clone must be positive, got {ops_per_clone}")
    if copies < 0:
        raise ValueError(f"copies must be non-negative, got {copies}")
    n = len(reads)
    per_clone = min(ops_per_clone, n)

    @lru_cache(maxsize=None)
    def image(replica: int) -> List[Request]:
        # The template twice over: a block that wraps is one slice.
        return 2 * [
            (replica_path(path, replica), offset, length)
            for _user, path, offset, length in reads
        ]

    @lru_cache(maxsize=None)
    def block(replica: int, start: int) -> Tuple[Request, ...]:
        return tuple(image(replica)[start:start + per_clone])

    # Clone c is block(c % (copies + 1), c % n); an empty template has none.
    replicas, starts = cycle(range(copies + 1)), islice(cycle(range(n)), clones)
    return chain.from_iterable(map(block, replicas, starts))
