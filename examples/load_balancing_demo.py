#!/usr/bin/env python3
"""Watch the Karger-Ruhl balancer absorb a hot insert — with and without
block pointers.

A large directory is inserted into a quiet D2 ring; all of its blocks
initially land on one node (that's what locality-preserving keys do).  The
balancer then splits the hot arc over successive probe rounds.  Without
pointers, blocks are copied at every split and can move several times
(Figure 6's cascade); with pointers, each block moves at most once, after
the dust settles.

Run:  python examples/load_balancing_demo.py
"""

import random

from repro.dht.consistent_hashing import random_node_ids
from repro.dht.load_balance import KargerRuhlBalancer, normalized_std_dev
from repro.dht.ring import Ring
from repro.fs.fslayer import DhtFileSystem, apply_ops
from repro.fs.keyschemes import make_scheme
from repro.sim.engine import Simulator
from repro.store.migration import StorageCoordinator

N_NODES = 24
FILES = 200
FILE_SIZE = 64_000


def run(use_pointers: bool) -> None:
    label = "WITH pointers" if use_pointers else "WITHOUT pointers (ablation)"
    print(f"\n== {label} ==")
    rng = random.Random(7)
    ring = Ring()
    for i, node_id in enumerate(random_node_ids(N_NODES, rng)):
        ring.join(f"n{i:02d}", node_id)
    sim = Simulator()
    store = StorageCoordinator(
        ring, sim, use_pointers=use_pointers, pointer_stabilization_time=3600.0
    )
    fs = DhtFileSystem(make_scheme("d2", "demo"))
    apply_ops(store, fs.format())
    apply_ops(store, fs.makedirs("/dataset"))
    for i in range(FILES):
        apply_ops(store, fs.create(f"/dataset/part{i:04d}.bin", size=FILE_SIZE))

    inserted = store.directory.total_bytes
    loads = list(store.primary_loads().values())
    print(f"   inserted {inserted / 1e6:.1f} MB; initial imbalance "
          f"nsd = {normalized_std_dev(loads):.1f} "
          f"(hot node holds {max(loads)} of {len(store.directory)} blocks)")

    balancer = KargerRuhlBalancer(ring, store, rng=random.Random(1))
    for round_number in range(1, 100):
        moves = balancer.probe_round(now=sim.now)
        loads = list(store.primary_loads().values())
        if round_number <= 5 or moves:
            print(f"   round {round_number:2d}: {len(moves)} ID change(s), "
                  f"nsd = {normalized_std_dev(loads):.2f}, "
                  f"pointers pending = {store.pointer_block_count()}")
        if not moves and round_number > 5:
            break
    sim.run()  # fire pointer stabilizations
    print(f"   converged after {balancer.stats.probes} probes, "
          f"{len(balancer.stats.moves)} moves")
    print(f"   data migrated: {store.ledger.total_migrated / 1e6:.1f} MB for "
          f"{inserted / 1e6:.1f} MB inserted "
          f"(ratio {store.ledger.total_migrated / inserted:.2f})")


def main() -> None:
    print("Inserting one hot dataset and letting the balancer spread it.")
    run(use_pointers=True)
    run(use_pointers=False)
    print("\nPointers do not change the final placement; they change how many"
          "\ntimes each byte crosses the network to get there.")


if __name__ == "__main__":
    main()
