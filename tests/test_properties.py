"""Cross-cutting property-based tests on system invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dht.keyspace import KEY_SPACE
from repro.dht.load_balance import KargerRuhlBalancer
from repro.dht.ring import Ring
from repro.fs.fslayer import DhtFileSystem, apply_ops
from repro.fs.keyschemes import D2KeyScheme, make_scheme
from repro.sim.engine import Simulator
from repro.store.migration import StorageCoordinator
from tests.oracles import owns

# ----------------------------------------------------------------------
# Ring invariants under arbitrary membership churn


class RingOps:
    """Interpreter for a random join/leave/move program."""

    def __init__(self):
        self.ring = Ring()
        self.counter = 0

    def apply(self, op, value):
        names = list(self.ring.names())
        if op == "join" or not names:
            name = f"n{self.counter}"
            self.counter += 1
            if not self.ring.occupied(value):
                self.ring.join(name, value)
        elif op == "leave" and len(names) > 1:
            self.ring.leave(names[value % len(names)])
        elif op == "move" and names:
            mover = names[value % len(names)]
            target = self.ring.free_position_at((value * 7919) % KEY_SPACE)
            if target != self.ring.position_of(mover):
                self.ring.change_position(mover, target)


@given(
    st.lists(
        st.tuples(st.sampled_from(["join", "leave", "move"]),
                  st.integers(min_value=0, max_value=KEY_SPACE - 1)),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=0, max_value=KEY_SPACE - 1),
)
@settings(deadline=None)
def test_ring_ownership_total_after_churn(program, probe):
    """After any churn sequence every key has exactly one owner, and the
    owner's arc actually covers the key."""
    machine = RingOps()
    machine.apply("join", 0)
    for op, value in program:
        machine.apply(op, value)
    ring = machine.ring
    owner = ring.successor(probe)
    assert owns(ring, owner, probe)
    owners = [name for name in ring.names() if owns(ring, name, probe)]
    if len(ring) > 1:
        assert owners == [owner]


# ----------------------------------------------------------------------
# FS/store end-to-end invariant: no blocks leak or dangle


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(["create", "write", "delete", "rename"]),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_store_consistent_with_namespace(ops, pyrandom):
    """After arbitrary FS activity and balancing, physical placement covers
    exactly the live directory, and every owner-derived holder exists."""
    ring = Ring()
    rng = random.Random(pyrandom.randint(0, 10**9))
    positions = set()
    while len(positions) < 8:
        positions.add(rng.randrange(KEY_SPACE))
    for i, position in enumerate(sorted(positions)):
        ring.join(f"n{i}", position)
    sim = Simulator()
    store = StorageCoordinator(ring, sim, removal_delay=0.0)
    fs = DhtFileSystem(make_scheme("d2", "vol"))
    apply_ops(store, fs.format())
    balancer = KargerRuhlBalancer(ring, store, rng=rng)

    counter = 0
    live_files = []
    for op in ops:
        if op == "create" or not live_files:
            path = f"/f{counter}"
            counter += 1
            apply_ops(store, fs.create(path, size=rng.randrange(0, 40000)))
            live_files.append(path)
        elif op == "write":
            path = rng.choice(live_files)
            apply_ops(store, fs.write(path, 0, rng.randrange(1, 20000)))
        elif op == "delete":
            path = live_files.pop(rng.randrange(len(live_files)))
            apply_ops(store, fs.remove(path))
        elif op == "rename":
            src = rng.choice(live_files)
            dst = f"/r{counter}"
            counter += 1
            apply_ops(store, fs.rename(src, dst))
            live_files[live_files.index(src)] = dst
        if rng.random() < 0.3:
            balancer.probe_round()
    sim.run()  # drain removals and stabilizations

    # Every live block has a physical holder that is a real node.
    names = set(ring.names())
    for key in store.directory.keys():
        assert store.physical_at.get(key) in names
    # Loads derived from ranges partition the directory.
    assert sum(store.primary_loads().values()) == len(store.directory)
    # No dangling physical entries for removed blocks.
    for key in store.physical_at:
        assert key in store.directory


# ----------------------------------------------------------------------
# Preorder-key ordering for random directory trees


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=25))
def test_random_tree_preorder_matches_key_order(moves):
    """Creating a random tree, the walk order of creation-ordered children
    agrees with key order (preorder traversal <=> sorted keys)."""
    fs = DhtFileSystem(D2KeyScheme("vol"))
    fs.format()
    dirs = ["/"]
    created = []
    counter = 0
    for depth_choice, make_dir in moves:
        parent = dirs[depth_choice % len(dirs)]
        base = parent.rstrip("/")
        counter += 1
        if make_dir:
            path = f"{base}/d{counter}"
            fs.mkdir(path)
            dirs.append(path)
        else:
            path = f"{base}/f{counter}"
            fs.create(path, size=1000)
            created.append(path)

    # Keys of files, in namespace preorder (children in slot order).
    def preorder(directory, out):
        for name in sorted(directory.children,
                           key=lambda n: directory.child_slots[n]):
            child = directory.children[name]
            if hasattr(child, "children"):
                preorder(child, out)
            else:
                out.append(fs.scheme.file_block_key(child, 0, child.version))

    keys = []
    preorder(fs.namespace.root, keys)
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Balancer bound under random key distributions


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from([0.0001, 0.01, 0.5]))
def test_balancer_bound_for_arbitrary_distributions(seed, concentration):
    """Whatever the key distribution (from near-point-mass to spread),
    converged primary loads respect the t-factor bound."""
    rng = random.Random(seed)
    ring = Ring()
    positions = set()
    while len(positions) < 10:
        positions.add(rng.randrange(KEY_SPACE))
    for i, position in enumerate(sorted(positions)):
        ring.join(f"n{i}", position)
    sim = Simulator()
    store = StorageCoordinator(ring, sim)
    width = max(1, int(KEY_SPACE * concentration))
    base = rng.randrange(KEY_SPACE)
    for _ in range(300):
        store.write((base + rng.randrange(width)) % KEY_SPACE, 1)
    balancer = KargerRuhlBalancer(ring, store, rng=rng)
    balancer.balance_until_stable(max_rounds=250)
    loads = list(store.primary_loads().values())
    mean = sum(loads) / len(loads)
    assert max(loads) <= 4.0 * mean + 1  # t = 4, the balancer's default
