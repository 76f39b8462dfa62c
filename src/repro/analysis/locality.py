"""Figure 3: data locality of candidate placements (Section 4.1).

For each workload we measure the mean number of *nodes* a user must touch
per active hour under three placements, each storing 250 MB (= 32,000
8 KB blocks) per node:

* **traditional** — every block assigned to a uniformly random node
  (consistent hashing with per-block keys);
* **ordered** — blocks sorted by name (full path + block number for file
  traces, block number for HP, reversed-domain URL for Web) and chunked
  into consecutive nodes — the idealization D2's key encoding realizes;
* **lower-bound** — ⌈blocks-the-user-touched / blocks-per-node⌉, the best
  any placement could possibly do for that user-hour (possibly
  unachievable, since two users' working sets may conflict).

The paper reports the result normalized against **traditional**; the
headline is that **ordered** is ~10x better than traditional and within an
order of magnitude of the bound.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.dht.consistent_hashing import hashed_key
from repro.fs.blocks import BLOCK_SIZE
from repro.workloads.trace import CREATE, READ, RENAME, Trace, WRITE

NODE_CAPACITY_BYTES = 250 * 1024 * 1024
BLOCKS_PER_NODE = NODE_CAPACITY_BYTES // BLOCK_SIZE  # 32,000

BlockName = Tuple[str, int]


def trace_block_accesses(trace: Trace) -> Dict[str, List[Tuple[float, BlockName]]]:
    """Per-user timestamped block-name accesses implied by a trace.

    Block names are ``(path, block_number)``; ordering them
    lexicographically orders blocks by full path then position — the
    paper's *ordered* scenario.  File sizes are tracked through creates and
    extending writes so reads of "the whole file" expand correctly.
    """
    sizes: Dict[str, int] = dict(trace.initial_files)
    accesses: Dict[str, List[Tuple[float, BlockName]]] = defaultdict(list)
    for record in trace:
        if record.op == CREATE:
            sizes[record.path] = record.size
            for number in _block_span(0, record.size, record.size):
                accesses[record.user].append((record.time, (record.path, number)))
        elif record.op == WRITE:
            size = max(sizes.get(record.path, 0), record.offset + record.length)
            sizes[record.path] = size
            for number in _block_span(record.offset, record.length, size):
                accesses[record.user].append((record.time, (record.path, number)))
        elif record.op == READ:
            size = sizes.get(record.path, 0)
            length = record.length if record.length > 0 else size
            if size == 0 and record.length > 0:
                # Size unknown to the table (e.g. web objects): length rules.
                sizes[record.path] = length
                size = length
            for number in _block_span(record.offset, length, size):
                accesses[record.user].append((record.time, (record.path, number)))
        elif record.op == RENAME:
            if record.path in sizes:
                sizes[record.dst_path] = sizes.pop(record.path)
    return dict(accesses)


def _block_span(offset: int, length: int, size: int) -> range:
    if size <= 0 and length <= 0:
        return range(0, 1)  # metadata-only object: a single block
    end = min(offset + length, size) if size > 0 else offset + length
    if end <= offset:
        return range(offset // BLOCK_SIZE, offset // BLOCK_SIZE + 1)
    return range(offset // BLOCK_SIZE, (end - 1) // BLOCK_SIZE + 1)


@dataclass
class LocalityResult:
    """Mean nodes-per-user-hour for one workload under the three scenarios."""

    workload: str
    n_blocks: int
    n_nodes: int
    traditional: float
    ordered: float
    lower_bound: float

    @property
    def ordered_normalized(self) -> float:
        return self.ordered / self.traditional if self.traditional else 0.0

    @property
    def lower_bound_normalized(self) -> float:
        return self.lower_bound / self.traditional if self.traditional else 0.0

    def rows(self) -> List[dict]:
        return [
            {"workload": self.workload, "scenario": "traditional", "nodes_per_user_hour": self.traditional, "normalized": 1.0},
            {"workload": self.workload, "scenario": "ordered", "nodes_per_user_hour": self.ordered, "normalized": self.ordered_normalized},
            {"workload": self.workload, "scenario": "lower-bound", "nodes_per_user_hour": self.lower_bound, "normalized": self.lower_bound_normalized},
        ]


def analyze_locality(
    trace: Trace,
    *,
    blocks_per_node: int = BLOCKS_PER_NODE,
) -> LocalityResult:
    """Run the Figure-3 analysis on one workload trace."""
    per_user = trace_block_accesses(trace)
    universe: Set[BlockName] = set()
    for entries in per_user.values():
        for _, block in entries:
            universe.add(block)
    n_blocks = len(universe)
    n_nodes = max(1, -(-n_blocks // blocks_per_node))

    ordered_assignment = _ordered_assignment(universe, blocks_per_node)

    trad_samples: List[int] = []
    ordered_samples: List[int] = []
    bound_samples: List[int] = []
    for user, entries in per_user.items():
        by_hour: Dict[int, Set[BlockName]] = defaultdict(set)
        for time, block in entries:
            by_hour[int(time // 3600.0)].add(block)
        for blocks in by_hour.values():
            trad_samples.append(
                len({_uniform_node(block, n_nodes) for block in blocks})
            )
            ordered_samples.append(
                len({ordered_assignment[block] for block in blocks})
            )
            bound_samples.append(max(1, -(-len(blocks) // blocks_per_node)))

    return LocalityResult(
        workload=trace.name,
        n_blocks=n_blocks,
        n_nodes=n_nodes,
        traditional=_mean(trad_samples),
        ordered=_mean(ordered_samples),
        lower_bound=_mean(bound_samples),
    )


def _ordered_assignment(
    universe: Iterable[BlockName], blocks_per_node: int
) -> Dict[BlockName, int]:
    """Chunk name-sorted blocks into equal-size nodes (paper's *ordered*)."""
    assignment: Dict[BlockName, int] = {}
    for index, block in enumerate(sorted(universe)):
        assignment[block] = index // blocks_per_node
    return assignment


def _uniform_node(block: BlockName, n_nodes: int) -> int:
    return hashed_key(f"{block[0]}#{block[1]}") % n_nodes


def _mean(values: Sequence[int]) -> float:
    return sum(values) / len(values) if values else 0.0
