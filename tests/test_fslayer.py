"""Tests for the FS layer: op emission, versioning, metadata discipline."""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.core import system as system_module
from repro.core.system import build_deployment
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.fs.blocks import BLOCK_SIZE, INLINE_DATA_THRESHOLD, BlockKind
from repro.fs.fslayer import DhtFileSystem, apply_ops
from repro.fs.keyschemes import make_scheme
from repro.fs.namespace import NamespaceError
from repro.obs.spans import Tracer
from repro.sim.engine import Simulator
from repro.store.block_store import BlockDirectoryError
from repro.store.migration import StorageCoordinator
from repro.workloads.harvard import HarvardConfig, generate_harvard
from repro.workloads.trace import READ
from tests.oracles import store_state


@pytest.fixture
def fs():
    return DhtFileSystem(make_scheme("d2", "vol"))


def puts(ops):
    return [op for op in ops if op.action == "put"]


def removes(ops):
    return [op for op in ops if op.action == "remove"]


def gets(ops):
    return [op for op in ops if op.action == "get"]


class TestFormat:
    def test_format_writes_root_and_rootdir(self, fs):
        ops = fs.format()
        kinds = [op.kind for op in ops]
        assert BlockKind.ROOT in kinds
        assert BlockKind.DIRECTORY in kinds
        assert all(op.action == "put" for op in ops)


class TestCreate:
    def test_create_emits_data_inode_metadata(self, fs):
        fs.format()
        fs.makedirs("/home")
        ops = fs.create("/home/f.dat", size=3 * BLOCK_SIZE)
        put_kinds = [op.kind for op in puts(ops)]
        assert put_kinds.count(BlockKind.DATA) == 3
        assert put_kinds.count(BlockKind.INODE) == 1
        assert BlockKind.DIRECTORY in put_kinds
        assert BlockKind.ROOT in put_kinds

    def test_small_file_inlined(self, fs):
        fs.format()
        ops = fs.create("/tiny", size=INLINE_DATA_THRESHOLD)
        put_kinds = [op.kind for op in puts(ops)]
        assert BlockKind.DATA not in put_kinds
        assert put_kinds.count(BlockKind.INODE) == 1

    def test_metadata_path_reversioned_to_root(self, fs):
        """Every create rewrites the full directory chain (Section 3)."""
        fs.format()
        fs.makedirs("/a/b/c")
        ops = fs.create("/a/b/c/f", size=1000)
        dir_puts = [op for op in puts(ops) if op.kind is BlockKind.DIRECTORY]
        # Chain: /, /a, /a/b, /a/b/c.
        assert len({op.ident for op in dir_puts}) == 4

    def test_data_put_sizes_sum_to_file(self, fs):
        fs.format()
        size = 2 * BLOCK_SIZE + 123
        ops = fs.create("/f", size=size)
        data = [op for op in puts(ops) if op.kind is BlockKind.DATA]
        assert sum(op.size for op in data) == size


class TestWrite:
    def test_write_touches_covered_blocks_only(self, fs):
        fs.format()
        fs.create("/f", size=4 * BLOCK_SIZE)
        ops = fs.write("/f", offset=BLOCK_SIZE, length=10)
        data_puts = [op for op in puts(ops) if op.kind is BlockKind.DATA]
        assert len(data_puts) == 1

    def test_write_bumps_version_and_removes_old(self, fs):
        fs.format()
        fs.create("/f", size=BLOCK_SIZE)
        node = fs.namespace.resolve_file("/f")
        v_before = node.version
        ops = fs.write("/f", offset=0, length=10)
        assert node.version == v_before + 1
        removed_kinds = [op.kind for op in removes(ops)]
        assert BlockKind.DATA in removed_kinds
        assert BlockKind.INODE in removed_kinds

    def test_append_extends_file(self, fs):
        fs.format()
        fs.create("/f", size=BLOCK_SIZE)
        fs.write("/f", offset=BLOCK_SIZE, length=BLOCK_SIZE)
        assert fs.namespace.resolve_file("/f").size == 2 * BLOCK_SIZE

    def test_inline_to_blocks_transition(self, fs):
        """Growing past the inline threshold materializes every block."""
        fs.format()
        fs.create("/f", size=100)
        ops = fs.write("/f", offset=100, length=BLOCK_SIZE)
        data_puts = [op for op in puts(ops) if op.kind is BlockKind.DATA]
        assert len(data_puts) == 2  # new size 100+8192 spans two blocks

    def test_zero_length_write_noop(self, fs):
        fs.format()
        fs.create("/f", size=100)
        assert fs.write("/f", offset=0, length=0) == []

    def test_unchanged_blocks_keep_old_version_on_read(self, fs):
        fs.format()
        fs.create("/f", size=3 * BLOCK_SIZE)
        keys_before = fs.file_data_keys("/f")
        fs.write("/f", offset=0, length=10)  # touches block 1 only
        keys_after = fs.file_data_keys("/f")
        assert keys_after[0] != keys_before[0]
        assert keys_after[1:] == keys_before[1:]


class TestRead:
    def test_read_emits_metadata_then_data(self, fs):
        fs.format()
        fs.makedirs("/d")
        fs.create("/d/f", size=2 * BLOCK_SIZE)
        ops = fs.read("/d/f")
        kinds = [op.kind for op in ops]
        assert kinds[0] is BlockKind.ROOT
        assert kinds.count(BlockKind.DATA) == 2
        assert all(op.action == "get" for op in ops)

    def test_partial_read(self, fs):
        fs.format()
        fs.create("/f", size=4 * BLOCK_SIZE)
        ops = fs.read("/f", offset=0, length=10)
        assert sum(1 for op in ops if op.kind is BlockKind.DATA) == 1

    def test_inline_read_has_no_data_ops(self, fs):
        fs.format()
        fs.create("/tiny", size=100)
        ops = fs.read("/tiny")
        assert all(op.kind is not BlockKind.DATA for op in ops)

    def test_read_missing_raises(self, fs):
        fs.format()
        with pytest.raises(NamespaceError):
            fs.read("/ghost")

    def test_read_fetches_live_versions(self, fs):
        fs.format()
        fs.create("/f", size=2 * BLOCK_SIZE)
        fs.write("/f", offset=0, length=10)
        ops = fs.read("/f")
        data_keys = [op.key for op in ops if op.kind is BlockKind.DATA]
        assert data_keys == fs.file_data_keys("/f")


class TestRemove:
    def test_remove_retires_all_blocks(self, fs):
        fs.format()
        fs.create("/f", size=2 * BLOCK_SIZE)
        ops = fs.remove("/f")
        removed = removes(ops)
        kinds = [op.kind for op in removed]
        assert kinds.count(BlockKind.DATA) == 2
        assert kinds.count(BlockKind.INODE) == 1
        assert not fs.namespace.exists("/f")

    def test_remove_empty_directory(self, fs):
        fs.format()
        fs.mkdir("/d")
        ops = fs.remove("/d")
        assert any(op.kind is BlockKind.DIRECTORY for op in removes(ops))


class TestRename:
    def test_rename_emits_no_data_ops(self, fs):
        """Renames rewrite only directory metadata (Section 4.2)."""
        fs.format()
        fs.makedirs("/a")
        fs.makedirs("/b")
        fs.create("/a/f", size=10 * BLOCK_SIZE)
        ops = fs.rename("/a/f", "/b/g")
        assert all(op.kind in (BlockKind.DIRECTORY, BlockKind.ROOT) for op in ops)

    def test_rename_keeps_data_keys(self, fs):
        fs.format()
        fs.makedirs("/a")
        fs.makedirs("/b")
        fs.create("/a/f", size=2 * BLOCK_SIZE)
        before = fs.file_data_keys("/a/f")
        fs.rename("/a/f", "/b/g")
        assert fs.file_data_keys("/b/g") == before


class TestApplyOps:
    def test_apply_to_store(self):
        ring = Ring()
        for i in range(4):
            ring.join(f"n{i}", (i + 1) * 10**150)
        store = StorageCoordinator(ring, Simulator())
        fs = DhtFileSystem(make_scheme("d2", "vol"))
        apply_ops(store, fs.format())
        apply_ops(store, fs.create("/f", size=2 * BLOCK_SIZE))
        assert len(store.directory) >= 4  # root + rootdir + inode + 2 data

    def test_traditional_file_puts_coalesce(self):
        ring = Ring()
        for i in range(4):
            ring.join(f"n{i}", (i + 1) * 10**150)
        store = StorageCoordinator(ring, Simulator())
        fs = DhtFileSystem(make_scheme("traditional-file", "vol"))
        apply_ops(store, fs.format())
        ops = fs.create("/f", size=3 * BLOCK_SIZE)
        apply_ops(store, ops)
        node = fs.namespace.resolve_file("/f")
        file_key = fs.scheme.file_block_key(node, 1, node.version)
        # All data blocks and the inode share the file key; the entry holds
        # the combined size.
        assert store.directory.size_of(file_key) > 3 * BLOCK_SIZE

    def test_apply_counters(self, fs):
        ring = Ring()
        ring.join("solo", 123)
        store = StorageCoordinator(ring, Simulator())
        counters = apply_ops(store, fs.format())
        assert counters["put"] > 0
        assert counters["remove"] == 0

    @pytest.mark.parametrize("field, value, error", [
        ("key", -1, ValueError), ("key", KEY_SPACE, ValueError),
        ("key", "7", TypeError), ("size", -5, BlockDirectoryError),
    ])
    def test_bad_op_in_the_middle_applies_nothing(self, fs, field, value, error):
        """A flush is checked whole before it changes anything: it used to
        leave the writes before the bad one applied, and its span open."""
        ring = Ring()
        for i in range(4):
            ring.join(f"n{i}", (i + 1) * 10**150)
        store = StorageCoordinator(ring, Simulator(), spans=Tracer(capacity=16))
        apply_ops(store, fs.format())
        apply_ops(store, fs.create("/f", size=3 * BLOCK_SIZE))
        ops = fs.write("/f", 0, 2 * BLOCK_SIZE)
        middle = next(i for i, op in enumerate(ops) if i >= len(ops) // 2 and op.action == "put")
        assert puts(ops[:middle]) and removes(ops[:middle]) and puts(ops[middle + 1:])
        ops[middle] = ops[middle]._replace(**{field: value})

        before = store_state(store)
        with pytest.raises(error):
            apply_ops(store, ops)
        assert store_state(store) == before


class TestDirectoryBlockBoundaryPinned:
    """Known plan bug, pinned not fixed (ROADMAP, first open item): the
    retiring version of a directory is sized by the directory's *current*
    entry count.  Fixing it moves committed rows, like the sparse-write plan
    pinned in ``BlockPlanMachine.write``; when that PR lands, the expected
    values here change to the ones the comments give."""

    PER_BLOCK = BLOCK_SIZE // 64  # directory entries per block

    def loaded(self, fs, files):
        ring = Ring()
        for i in range(4):
            ring.join(f"n{i}", (i + 1) * 10**150)
        store = StorageCoordinator(ring, Simulator(), removal_delay=30.0)
        apply_ops(store, fs.format())
        apply_ops(store, fs.mkdir("/m"))
        for index in range(files):
            apply_ops(store, fs.create(f"/m/f{index:03d}", size=0))
        store.sim.run()
        return store

    def test_shrinking_across_a_block_boundary_leaks_the_old_last_block(self, fs):
        store = self.loaded(fs, self.PER_BLOCK + 1)
        assert len(store.directory) == 1 + 1 + 2 + (self.PER_BLOCK + 1)
        directory = fs.namespace.resolve_dir("/m")
        leaked = fs.scheme.directory_block_key(directory, 1, directory.version)
        ops = fs.remove("/m/f000")
        assert [op.ident for op in removes(ops) if op.kind is BlockKind.DIRECTORY
                and op.ident.startswith(directory.ident)] == [f"{directory.ident}:d0"]  # fixed: d0, d1
        apply_ops(store, ops)
        store.sim.run()
        assert leaked in store.directory
        assert len(store.directory) == 1 + 1 + 1 + self.PER_BLOCK + 1  # fixed: no + 1 (131)

    def test_growing_across_a_block_boundary_removes_a_key_nothing_put(self, fs):
        store = self.loaded(fs, self.PER_BLOCK)
        directory = fs.namespace.resolve_dir("/m")
        phantom = fs.scheme.directory_block_key(directory, 1, directory.version)
        ops = fs.create("/m/one-more", size=0)
        unknown = [op for op in removes(ops) if op.key not in store.directory]
        assert [(op.key, op.ident) for op in unknown] == [(phantom, f"{directory.ident}:d1")]  # fixed: []
        apply_ops(store, ops)  # skipped in silence
        store.sim.run()
        assert len(store.directory) == 1 + 1 + 2 + (self.PER_BLOCK + 1)  # right, by luck


class TestReaddirStat:
    def test_readdir_fetches_dir_blocks(self, fs):
        fs.format()
        fs.makedirs("/a/b")
        fs.create("/a/b/f", size=100)
        ops = fs.readdir("/a/b")
        assert all(op.action == "get" for op in ops)
        kinds = [op.kind for op in ops]
        assert kinds[0] is BlockKind.ROOT
        assert kinds.count(BlockKind.DIRECTORY) >= 3  # /, /a, /a/b

    def test_readdir_root(self, fs):
        fs.format()
        ops = fs.readdir("/")
        assert any(op.kind is BlockKind.DIRECTORY for op in ops)

    def test_readdir_of_file_rejected(self, fs):
        fs.format()
        fs.create("/f", size=10)
        with pytest.raises(NamespaceError):
            fs.readdir("/f")

    def test_stat_file(self, fs):
        fs.format()
        fs.create("/f", size=2 * BLOCK_SIZE)
        info = fs.stat("/f")
        assert info["type"] == "file"
        assert info["size"] == 2 * BLOCK_SIZE
        assert info["blocks"] == 2
        assert info["inline"] is False

    def test_stat_inline_file(self, fs):
        fs.format()
        fs.create("/tiny", size=64)
        assert fs.stat("/tiny")["inline"] is True

    def test_stat_directory(self, fs):
        fs.format()
        fs.makedirs("/d")
        fs.create("/d/f", size=10)
        info = fs.stat("/d")
        assert info["type"] == "directory"
        assert info["entries"] == 1

    def test_stat_missing_rejected(self, fs):
        fs.format()
        with pytest.raises(NamespaceError):
            fs.stat("/ghost")


# ----------------------------------------------------------------------
# golden: the whole BlockOp stream of one replayed trace, per key scheme

GOLDEN_STREAMS = Path(__file__).parent / "data" / "blockop_streams.json"


def replay_op_stream(system):
    """``(op count, sha256 of the op reprs)`` of one fixed Harvard replay.

    Every ``BlockOp`` the layer emits, in order: the ops ``load_initial_image``
    and each mutation record hand to ``apply_ops``, ``fs.read`` of each read
    record, and a final ``fs.readdir`` of every initial directory still there.
    """
    trace = generate_harvard(HarvardConfig(users=4, days=1.0, seed=7, rename_fraction=0.02))
    deployment = build_deployment(system, n_nodes=8, seed=3)
    fs = deployment.fs
    digest = hashlib.sha256()
    count = 0

    def record(ops):
        nonlocal count
        for op in ops:
            digest.update(repr(op).encode() + b"\n")
            count += 1

    def recording_apply_ops(store, ops):
        ops = list(ops)
        record(ops)
        return apply_ops(store, ops)

    with mock.patch.object(system_module, "apply_ops", recording_apply_ops):
        deployment.load_initial_image(trace)
        for rec in trace.records:
            if rec.op != READ:
                deployment.replay_record(rec)
            elif fs.namespace.exists(rec.path):
                record(fs.read(rec.path, rec.offset, rec.length or None))
    for directory in trace.initial_dirs:
        if fs.namespace.exists(directory):
            record(fs.readdir(directory))
    return count, digest.hexdigest()


@pytest.mark.parametrize("system", ["d2", "traditional", "traditional-file"])
def test_block_op_stream_golden(system):
    """Pins op order, keys, sizes, idents and versions of every fs call.

    ``tests/data/blockop_streams.json`` was exported by running
    :func:`replay_op_stream` against the commit before the block plan
    (PR 14, 20 hand-written ``BlockOp(...)`` sites).
    """
    golden = json.loads(GOLDEN_STREAMS.read_text())[system]
    count, sha256 = replay_op_stream(system)
    assert (count, sha256) == (golden["ops"], golden["sha256"])
