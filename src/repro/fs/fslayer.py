"""D2-FS: translating file-system operations into keyed block operations.

This layer owns the namespace, per-file versioning, and the CFS-like
metadata discipline of Section 3:

* all blocks except the root are immutable — every flushed change writes
  *new versions* (new keys) of the changed data blocks, the file's inode,
  and every directory block on the path up to the root;
* the root block is updated in place and (conceptually) signed, which
  transitively signs all metadata via stored content hashes;
* superseded block versions are removed after a grace period so stale
  (≤ 30 s) readers can still finish.

The layer is *scheme-parameterized*: the same code drives D2 and both
consistent-hashing baselines, differing only in the
:class:`repro.fs.keyschemes.KeyScheme` used — exactly how the paper built
its comparison systems from one code base.

Operations return the list of :class:`BlockOp` they imply; callers replay
those against a :class:`repro.store.migration.StorageCoordinator` (see
:func:`apply_ops`), feed them to the latency harness, or pass them through
the write-back cache.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.fs.blocks import (
    BLOCK_SIZE,
    INLINE_DATA_THRESHOLD,
    BlockKind,
    blocks_covering,
    data_block_count,
    data_block_sizes,
    directory_block_sizes,
    inode_size,
)
from repro.fs.keyschemes import KeyScheme, storage_identity
from repro.fs.namespace import Directory, FileNode, Namespace

ROOT_BLOCK_SIZE = 256


@dataclass(frozen=True)
class BlockOp:
    """One block-level operation implied by a file-system call.

    ``ident`` is the block's version-independent logical identity (used by
    the write-back cache to coalesce rewrites); ``key`` is the ring key of
    this specific version under the active scheme.
    """

    action: str  # 'put' | 'get' | 'remove'
    key: int
    size: int
    kind: BlockKind
    ident: str
    version: int = 0

    @property
    def is_metadata(self) -> bool:
        return self.kind is not BlockKind.DATA


class DhtFileSystem:
    """One writer's view of a D2 (or baseline) file-system volume."""

    def __init__(self, scheme: KeyScheme, publisher: str = "publisher") -> None:
        self.scheme = scheme
        self.namespace = Namespace()
        self.publisher = publisher
        self.root_version = 0

    # ------------------------------------------------------------------
    # helpers

    def _ident(self, slot_path: Tuple[int, ...], overflow: Tuple[str, ...], tag: str) -> str:
        return f"{storage_identity(slot_path, overflow)}:{tag}"

    def _file_ident(self, node: FileNode, block_number: int) -> str:
        return self._ident(node.slot_path, node.overflow, f"b{block_number}")

    def _dir_ident(self, directory: Directory, block_number: int) -> str:
        return self._ident(directory.slot_path, directory.overflow, f"d{block_number}")

    def _root_op(self) -> BlockOp:
        """In-place root update (same key every time)."""
        self.root_version += 1
        return BlockOp(
            action="put",
            key=self.scheme.root_key(),
            size=ROOT_BLOCK_SIZE,
            kind=BlockKind.ROOT,
            ident="<root>",
            version=0,
        )

    def _reversion_directory(self, directory: Directory) -> List[BlockOp]:
        """Write new versions of a directory's metadata blocks, retire old.

        Returns puts of every metadata block at the bumped version plus
        removes of the previous version's blocks.
        """
        old_version = directory.version
        old_sizes = directory_block_sizes(directory.entry_count)
        directory.version += 1
        ops: List[BlockOp] = []
        for number, size in enumerate(directory_block_sizes(directory.entry_count)):
            ops.append(
                BlockOp(
                    action="put",
                    key=self.scheme.directory_block_key(directory, number, directory.version),
                    size=size,
                    kind=BlockKind.DIRECTORY,
                    ident=self._dir_ident(directory, number),
                    version=directory.version,
                )
            )
        if old_version > 0:  # version 0 means the directory was never flushed
            for number, size in enumerate(old_sizes):
                ops.append(
                    BlockOp(
                        action="remove",
                        key=self.scheme.directory_block_key(directory, number, old_version),
                        size=size,
                        kind=BlockKind.DIRECTORY,
                        ident=self._dir_ident(directory, number),
                        version=old_version,
                    )
                )
        return ops

    def _reversion_path(self, path: str) -> List[BlockOp]:
        """Re-version every directory from the root to *path*'s parent."""
        ops: List[BlockOp] = []
        for directory in reversed(self.namespace.ancestors_of(path)):
            ops.extend(self._reversion_directory(directory))
        ops.append(self._root_op())
        return ops

    def _inode_put(self, node: FileNode) -> BlockOp:
        return BlockOp(
            action="put",
            key=self.scheme.file_block_key(node, 0, node.version),
            size=inode_size(node.size),
            kind=BlockKind.INODE,
            ident=self._file_ident(node, 0),
            version=node.version,
        )

    def _inode_remove(self, node: FileNode, version: int, size_at_version: int) -> BlockOp:
        return BlockOp(
            action="remove",
            key=self.scheme.file_block_key(node, 0, version),
            size=inode_size(size_at_version),
            kind=BlockKind.INODE,
            ident=self._file_ident(node, 0),
            version=version,
        )

    # ------------------------------------------------------------------
    # volume lifecycle

    def format(self) -> List[BlockOp]:
        """Initialize an empty volume: root block plus empty root directory."""
        ops = [
            BlockOp(
                action="put",
                key=self.scheme.root_key(),
                size=ROOT_BLOCK_SIZE,
                kind=BlockKind.ROOT,
                ident="<root>",
                version=0,
            )
        ]
        root_dir = self.namespace.root
        root_dir.version = 1
        for number, size in enumerate(directory_block_sizes(0)):
            ops.append(
                BlockOp(
                    action="put",
                    key=self.scheme.directory_block_key(root_dir, number, root_dir.version),
                    size=size,
                    kind=BlockKind.DIRECTORY,
                    ident=self._dir_ident(root_dir, number),
                    version=root_dir.version,
                )
            )
        return ops

    # ------------------------------------------------------------------
    # namespace operations

    def mkdir(self, path: str) -> List[BlockOp]:
        directory = self.namespace.mkdir(path)
        directory.version = 1
        ops: List[BlockOp] = []
        for number, size in enumerate(directory_block_sizes(0)):
            ops.append(
                BlockOp(
                    action="put",
                    key=self.scheme.directory_block_key(directory, number, directory.version),
                    size=size,
                    kind=BlockKind.DIRECTORY,
                    ident=self._dir_ident(directory, number),
                    version=directory.version,
                )
            )
        ops.extend(self._reversion_path(path))
        return ops

    def makedirs(self, path: str) -> List[BlockOp]:
        """mkdir -p; emits ops only for directories actually created."""
        ops: List[BlockOp] = []
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if not self.namespace.exists(current):
                ops.extend(self.mkdir(current))
        return ops

    def create(self, path: str, size: int = 0) -> List[BlockOp]:
        """Create a file of *size* bytes (contents written immediately)."""
        node = self.namespace.create_file(path, size)
        node.version = 1
        ops: List[BlockOp] = []
        for number, block_size in enumerate(data_block_sizes(size), start=1):
            node.block_versions[number] = node.version
            ops.append(
                BlockOp(
                    action="put",
                    key=self.scheme.file_block_key(node, number, node.version),
                    size=block_size,
                    kind=BlockKind.DATA,
                    ident=self._file_ident(node, number),
                    version=node.version,
                )
            )
        ops.append(self._inode_put(node))
        ops.extend(self._reversion_path(path))
        return ops

    def write(self, path: str, offset: int, length: int) -> List[BlockOp]:
        """Overwrite/extend ``[offset, offset+length)`` of an existing file.

        Emits new versions of the touched data blocks and the inode, plus
        removes of the superseded versions and the metadata path rewrite.
        """
        if length <= 0:
            return []
        node = self.namespace.resolve_file(path)
        old_size = node.size
        old_version = node.version
        new_size = max(old_size, offset + length)
        node.version += 1
        ops: List[BlockOp] = []

        was_inline = old_size <= INLINE_DATA_THRESHOLD
        now_inline = new_size <= INLINE_DATA_THRESHOLD
        node.size = new_size
        if not now_inline:
            sizes = data_block_sizes(new_size)
            touched = set(blocks_covering(offset, length, new_size))
            if was_inline and old_size > 0:
                # Data leaves the inode: every block of the file is new.
                touched.update(range(1, data_block_count(new_size) + 1))
            for number in sorted(touched):
                previous = node.block_versions.get(number)
                node.block_versions[number] = node.version
                block_size = sizes[number - 1]
                ops.append(
                    BlockOp(
                        action="put",
                        key=self.scheme.file_block_key(node, number, node.version),
                        size=block_size,
                        kind=BlockKind.DATA,
                        ident=self._file_ident(node, number),
                        version=node.version,
                    )
                )
                if previous is not None:
                    ops.append(
                        BlockOp(
                            action="remove",
                            key=self.scheme.file_block_key(node, number, previous),
                            size=min(block_size, BLOCK_SIZE),
                            kind=BlockKind.DATA,
                            ident=self._file_ident(node, number),
                            version=previous,
                        )
                    )
        ops.append(self._inode_put(node))
        ops.append(self._inode_remove(node, old_version, old_size))
        ops.extend(self._reversion_path(path))
        return ops

    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> List[BlockOp]:
        """Blocks a reader must fetch for ``[offset, offset+length)``.

        Emits the metadata path (root, directories, inode) followed by the
        covered data blocks; callers apply their buffer cache to absorb
        repeated metadata fetches, as real clients do.
        """
        node = self.namespace.resolve_file(path)
        if length is None:
            length = max(node.size - offset, 0)
        ops: List[BlockOp] = [
            BlockOp(
                action="get",
                key=self.scheme.root_key(),
                size=ROOT_BLOCK_SIZE,
                kind=BlockKind.ROOT,
                ident="<root>",
                version=0,
            )
        ]
        for directory in self.namespace.ancestors_of(path):
            for number, size in enumerate(directory_block_sizes(directory.entry_count)):
                ops.append(
                    BlockOp(
                        action="get",
                        key=self.scheme.directory_block_key(directory, number, directory.version),
                        size=size,
                        kind=BlockKind.DIRECTORY,
                        ident=self._dir_ident(directory, number),
                        version=directory.version,
                    )
                )
        ops.append(
            BlockOp(
                action="get",
                key=self.scheme.file_block_key(node, 0, node.version),
                size=inode_size(node.size),
                kind=BlockKind.INODE,
                ident=self._file_ident(node, 0),
                version=node.version,
            )
        )
        if node.size > INLINE_DATA_THRESHOLD:
            sizes = data_block_sizes(node.size)
            for number in blocks_covering(offset, length, node.size):
                ops.append(
                    BlockOp(
                        action="get",
                        key=self.scheme.file_block_key(
                            node, number, node.block_versions.get(number, node.version)
                        ),
                        size=sizes[number - 1],
                        kind=BlockKind.DATA,
                        ident=self._file_ident(node, number),
                        version=node.block_versions.get(number, node.version),
                    )
                )
        return ops

    def remove(self, path: str) -> List[BlockOp]:
        """Delete a file (or empty directory) and retire all its blocks.

        Quick removal matters for locality: dead blocks left between live
        ones fragment active data over more nodes (Section 3).
        """
        node = self.namespace.resolve(path)
        ops: List[BlockOp] = []
        if isinstance(node, FileNode):
            if node.size > INLINE_DATA_THRESHOLD:
                sizes = data_block_sizes(node.size)
                for number in range(1, data_block_count(node.size) + 1):
                    version = node.block_versions.get(number, node.version)
                    ops.append(
                        BlockOp(
                            action="remove",
                            key=self.scheme.file_block_key(node, number, version),
                            size=sizes[number - 1],
                            kind=BlockKind.DATA,
                            ident=self._file_ident(node, number),
                            version=version,
                        )
                    )
            ops.append(self._inode_remove(node, node.version, node.size))
        else:
            for number, size in enumerate(directory_block_sizes(node.entry_count)):
                ops.append(
                    BlockOp(
                        action="remove",
                        key=self.scheme.directory_block_key(node, number, node.version),
                        size=size,
                        kind=BlockKind.DIRECTORY,
                        ident=self._dir_ident(node, number),
                        version=node.version,
                    )
                )
        self.namespace.remove(path)
        ops.extend(self._reversion_path(path))
        return ops

    def rename(self, src: str, dst: str) -> List[BlockOp]:
        """Move a file/directory; only the two parents' metadata changes.

        The object keeps its original keys (Section 4.2), so no data moves
        even for a large directory tree.
        """
        src_parents = self.namespace.ancestors_of(src)
        self.namespace.rename(src, dst)
        ops: List[BlockOp] = []
        touched = set()
        for directory in reversed(src_parents):
            if id(directory) not in touched:
                touched.add(id(directory))
                ops.extend(self._reversion_directory(directory))
        for directory in reversed(self.namespace.ancestors_of(dst)):
            if id(directory) not in touched:
                touched.add(id(directory))
                ops.extend(self._reversion_directory(directory))
        ops.append(self._root_op())
        return ops

    def readdir(self, path: str) -> List[BlockOp]:
        """Blocks a reader must fetch to list *path* (metadata path + the
        directory's own blocks) — the NFS READDIR equivalent."""
        directory = self.namespace.resolve_dir(path)
        ops: List[BlockOp] = [
            BlockOp(
                action="get",
                key=self.scheme.root_key(),
                size=ROOT_BLOCK_SIZE,
                kind=BlockKind.ROOT,
                ident="<root>",
                version=0,
            )
        ]
        chain = self.namespace.ancestors_of(path + "/.") if path != "/" else []
        for ancestor in chain:
            for number, size in enumerate(directory_block_sizes(ancestor.entry_count)):
                ops.append(
                    BlockOp(
                        action="get",
                        key=self.scheme.directory_block_key(ancestor, number, ancestor.version),
                        size=size,
                        kind=BlockKind.DIRECTORY,
                        ident=self._dir_ident(ancestor, number),
                        version=ancestor.version,
                    )
                )
        if not chain or chain[-1] is not directory:
            for number, size in enumerate(directory_block_sizes(directory.entry_count)):
                ops.append(
                    BlockOp(
                        action="get",
                        key=self.scheme.directory_block_key(directory, number, directory.version),
                        size=size,
                        kind=BlockKind.DIRECTORY,
                        ident=self._dir_ident(directory, number),
                        version=directory.version,
                    )
                )
        return ops

    def stat(self, path: str) -> Dict[str, object]:
        """File/directory attributes from the namespace (NFS GETATTR).

        Served from the client's metadata without extra block fetches
        beyond what :meth:`read`/:meth:`readdir` already pulled.
        """
        node = self.namespace.resolve(path)
        if isinstance(node, FileNode):
            return {
                "type": "file",
                "size": node.size,
                "version": node.version,
                "blocks": data_block_count(node.size),
                "inline": node.size <= INLINE_DATA_THRESHOLD,
            }
        return {
            "type": "directory",
            "entries": node.entry_count,
            "version": node.version,
            "blocks": len(directory_block_sizes(node.entry_count)),
        }

    # ------------------------------------------------------------------
    # introspection

    def file_data_keys(self, path: str) -> List[int]:
        """Current-version data-block keys of a file (inode excluded)."""
        node = self.namespace.resolve_file(path)
        return self.scheme.file_block_keys(node, range(1, data_block_count(node.size) + 1))

    def total_bytes(self) -> int:
        return self.namespace.total_file_bytes()


def apply_ops(store, ops: Iterable[BlockOp]) -> Dict[str, int]:
    """Replay block ops against a :class:`StorageCoordinator`.

    Under the traditional-file scheme many blocks share one key; their puts
    are grouped into a single directory entry whose size is the sum (the
    whole file is one storage object on its replica group).  Returns byte
    counters per action for assertions and traffic accounting.
    """
    put_sizes: Dict[int, int] = defaultdict(int)
    put_order: List[int] = []
    counters = {"put": 0, "get": 0, "remove": 0}
    removes: List[BlockOp] = []
    # One root span per BlockOp batch (coordinator-owned tracer; test fakes
    # without .spans/.sim simply skip tracing).
    spans = getattr(store, "spans", None)
    sim = getattr(store, "sim", None)
    root = None
    if spans and sim is not None:
        root = spans.start_trace("fs.apply_ops", sim.now)
    for op in ops:
        counters[op.action] += op.size
        if op.action == "put":
            if op.key not in put_sizes:
                put_order.append(op.key)
            put_sizes[op.key] += op.size
        elif op.action == "remove":
            removes.append(op)
    for key in put_order:
        store.write(key, put_sizes[key])
    seen_remove = set()
    for op in removes:
        if op.key in seen_remove:
            continue
        seen_remove.add(op.key)
        if op.key in put_sizes:
            continue  # same flush wrote this key (shared traditional-file key)
        if op.key in store.directory:
            store.remove(op.key)
    if root:
        root.annotate(
            put_bytes=counters["put"],
            get_bytes=counters["get"],
            remove_bytes=counters["remove"],
            puts=len(put_order),
            removes=len(seen_remove),
        )
        spans.finish(root, sim.now)
    return counters
