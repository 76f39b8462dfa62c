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

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.fs.blocks import (
    INLINE_DATA_THRESHOLD,
    BlockKind,
    blocks_covering,
    data_block_count,
    data_block_sizes_table,
    directory_block_sizes,
    inode_size,
)
from repro.fs.keyschemes import KeyScheme
from repro.fs.namespace import Directory, FileNode, Namespace

ROOT_BLOCK_SIZE = 256


class BlockOp(NamedTuple):
    """One block-level operation implied by a file-system call.

    ``ident`` is the block's version-independent logical identity (used by
    the write-back cache to coalesce rewrites); ``key`` is the ring key of
    this specific version under the active scheme.  A tuple because a flush
    builds ~22 of these and drops them: immutable and comparable, no more.
    """

    action: str  # 'put' | 'get' | 'remove'
    key: int
    size: int
    kind: BlockKind
    ident: str
    version: int = 0


def _read_blocks(node: FileNode, offset: int, length: Optional[int]) -> range:
    """Data blocks of *node* a read covers (``0``/``None``: to the end of the file)."""
    return blocks_covering(offset, length or node.size, node.size)


class DhtFileSystem:
    """One writer's view of a D2 (or baseline) file-system volume.

    The block plan — which blocks an object has, at which version, how big
    and under which identity — is stated once, in the four ``_*_op(s)``
    helpers.  Mutations and :meth:`read`/:meth:`readdir` compose them into
    :class:`BlockOp` lists; :meth:`read_fetches` is the same plan for a
    read, projected to the ``(key, nbytes)`` run the replay paths consume.
    """

    def __init__(self, scheme: KeyScheme, publisher: str = "publisher") -> None:
        self.scheme = scheme
        self.namespace = Namespace()
        self.publisher = publisher
        self.root_version = 0
        self._root_key = scheme.root_key()  # one key for the volume's life

    # ------------------------------------------------------------------
    # the block plan

    def _root_op(self, action: str) -> BlockOp:
        """The root block, updated in place."""
        return BlockOp(action, self._root_key, ROOT_BLOCK_SIZE, BlockKind.ROOT, "<root>")

    def _dir_ops(self, action: str, directory: Directory, version: int) -> List[BlockOp]:
        """Every metadata block of *directory* at *version*."""
        ident = directory.ident
        key = self.scheme.directory_block_key
        return [
            BlockOp(action, key(directory, number, version), size,
                    BlockKind.DIRECTORY, f"{ident}:d{number}", version)
            for number, size in enumerate(directory_block_sizes(directory.entry_count))
        ]

    def _inode_op(self, action: str, node: FileNode, version: int, size: int) -> BlockOp:
        """The inode (block 0) of *node* as of *version*, when it held *size* bytes."""
        return BlockOp(action, self.scheme.file_block_key(node, 0, version),
                       inode_size(size), BlockKind.INODE, f"{node.ident}:b0", version)

    def _data_ops(self, action: str, node: FileNode, blocks: range) -> List[BlockOp]:
        """The live versions of the run *blocks* of *node* at its current
        size, keyed as one run — the path :meth:`read_fetches` takes."""
        ident, current = node.ident, node.version
        sizes = data_block_sizes_table(node.size)
        version_of = node.block_versions.get
        return [
            BlockOp(action, key, sizes[number - 1], BlockKind.DATA,
                    f"{ident}:b{number}", version_of(number, current))
            for number, key in zip(blocks, self.scheme.file_block_keys(node, blocks))
        ]

    def _reversion_directory(self, directory: Directory) -> List[BlockOp]:
        """Write a directory's metadata blocks at the next version and
        retire the previous version's."""
        old_version = directory.version
        directory.version += 1
        ops = self._dir_ops("put", directory, directory.version)
        if old_version > 0:  # version 0 means the directory was never flushed
            ops += self._dir_ops("remove", directory, old_version)
        return ops

    def _reversion(self, directories: Iterable[Directory]) -> List[BlockOp]:
        """Re-version *directories* in the order given, then rewrite the root."""
        ops: List[BlockOp] = []
        for directory in directories:
            ops += self._reversion_directory(directory)
        self.root_version += 1
        ops.append(self._root_op("put"))
        return ops

    def _reversion_path(self, path: str) -> List[BlockOp]:
        """Re-version every directory from *path*'s parent up to the root."""
        return self._reversion(reversed(self.namespace.ancestors_of(path)))

    def _read_path(self, path: str) -> List[BlockOp]:
        """Gets of the root and of every directory down to *path*'s parent."""
        ops = [self._root_op("get")]
        for directory in self.namespace.ancestors_of(path):
            ops += self._dir_ops("get", directory, directory.version)
        return ops

    # ------------------------------------------------------------------
    # volume lifecycle

    def format(self) -> List[BlockOp]:
        """Initialize an empty volume: root block plus empty root directory."""
        root_dir = self.namespace.root
        root_dir.version = 1
        return [self._root_op("put")] + self._dir_ops("put", root_dir, 1)

    # ------------------------------------------------------------------
    # namespace operations

    def mkdir(self, path: str) -> List[BlockOp]:
        directory = self.namespace.mkdir(path)
        directory.version = 1
        return self._dir_ops("put", directory, 1) + self._reversion_path(path)

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
        blocks = range(1, data_block_count(size) + 1)
        node.block_versions.update(dict.fromkeys(blocks, 1))
        ops = self._data_ops("put", node, blocks)
        ops.append(self._inode_op("put", node, 1, size))
        return ops + self._reversion_path(path)

    def write(self, path: str, offset: int, length: int) -> List[BlockOp]:
        """Overwrite/extend ``[offset, offset+length)`` of an existing file.

        Emits new versions of the touched data blocks and the inode, plus
        removes of the superseded versions and the metadata path rewrite.
        """
        if length <= 0:
            return []
        node = self.namespace.resolve_file(path)
        old_size, old_version = node.size, node.version
        node.size = max(old_size, offset + length)
        touched = blocks_covering(offset, length, node.size)
        if 0 < old_size <= INLINE_DATA_THRESHOLD < node.size:
            # Data leaves the inode: every block of the file is new.
            touched = range(1, data_block_count(node.size) + 1)
        # Planned before the bump, so these name the versions being retired
        # (at the block's new size, as the store accounts them); a touched
        # block that was never put retires nothing.
        retired = {
            number: op for number, op in zip(touched, self._data_ops("remove", node, touched))
            if number in node.block_versions
        }
        node.version += 1
        node.block_versions.update(dict.fromkeys(touched, node.version))
        ops: List[BlockOp] = []
        for number, put in zip(touched, self._data_ops("put", node, touched)):
            ops.append(put)
            if number in retired:
                ops.append(retired[number])
        ops.append(self._inode_op("put", node, node.version, node.size))
        ops.append(self._inode_op("remove", node, old_version, old_size))
        return ops + self._reversion_path(path)

    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> List[BlockOp]:
        """Blocks a reader must fetch for ``[offset, offset+length)``.

        Emits the metadata path (root, directories, inode) followed by the
        covered data blocks; callers apply their buffer cache to absorb
        repeated metadata fetches, as real clients do.  *length* is read as
        by :meth:`read_fetches`, whose pairs are this list's inode and data
        ops.
        """
        node = self.namespace.resolve_file(path)
        ops = self._read_path(path)
        ops.append(self._inode_op("get", node, node.version, node.size))
        return ops + self._data_ops("get", node, _read_blocks(node, offset, length))

    def read_fetches(self, node: FileNode, offset: int = 0,
                     length: Optional[int] = None) -> List[Tuple[int, int]]:
        """``(key, nbytes)`` the DHT must serve to read a resolved file.

        The inode, then the covered data blocks keyed as one run.  A
        *length* of ``0`` or ``None`` reads to the end of the file; a
        negative *offset* or *length* raises :class:`ValueError` before any
        key is made, whatever the file's size.
        """
        blocks = _read_blocks(node, offset, length)
        scheme = self.scheme
        fetches = [(scheme.file_block_key(node, 0, node.version), inode_size(node.size))]
        if blocks:
            sizes = data_block_sizes_table(node.size)[blocks[0] - 1:blocks[-1]]
            fetches.extend(zip(scheme.file_block_keys(node, blocks), sizes))
        return fetches

    def remove(self, path: str) -> List[BlockOp]:
        """Delete a file (or empty directory) and retire all its blocks.

        Quick removal matters for locality: dead blocks left between live
        ones fragment active data over more nodes (Section 3).
        """
        node = self.namespace.resolve(path)
        if isinstance(node, FileNode):
            ops = self._data_ops("remove", node, range(1, data_block_count(node.size) + 1))
            ops.append(self._inode_op("remove", node, node.version, node.size))
        else:
            ops = self._dir_ops("remove", node, node.version)
        self.namespace.remove(path)
        return ops + self._reversion_path(path)

    def rename(self, src: str, dst: str) -> List[BlockOp]:
        """Move a file/directory; only the two parents' metadata changes.

        The object keeps its original keys (Section 4.2), so no data moves
        even for a large directory tree.
        """
        src_parents = self.namespace.ancestors_of(src)
        self.namespace.rename(src, dst)
        chain = [*reversed(src_parents), *reversed(self.namespace.ancestors_of(dst))]
        # Each directory once, at its first place in the two chains.
        return self._reversion({id(directory): directory for directory in chain}.values())

    def readdir(self, path: str) -> List[BlockOp]:
        """Blocks a reader must fetch to list *path* (metadata path + the
        directory's own blocks) — the NFS READDIR equivalent."""
        self.namespace.resolve_dir(path)
        return self._read_path(path + "/.")

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
    """Replay one flush of block ops against a :class:`StorageCoordinator`.

    Under the traditional-file scheme many blocks share one key; their puts
    are grouped into a single directory entry whose size is the sum (the
    whole file is one storage object on its replica group).  A remove of a
    key this flush wrote, or that the directory does not hold, is skipped.
    What is left goes to the store as one :meth:`StorageCoordinator.commit`,
    which refuses the whole flush — before anything changed — if any op is
    invalid.  Returns byte counters per action for assertions and traffic
    accounting.
    """
    put_sizes: Dict[int, int] = {}
    removes: Dict[int, None] = {}  # distinct keys, in op order
    counters = {"put": 0, "get": 0, "remove": 0}
    for action, key, size, _kind, _ident, _version in ops:
        counters[action] += size
        if action == "put":
            put_sizes[key] = put_sizes.get(key, 0) + size
        elif action == "remove":
            removes[key] = None
    directory = store.directory
    store.commit(
        list(put_sizes.items()),
        [key for key in removes if key not in put_sizes and key in directory],
    )
    # One root span per flush, made once it is known to have gone through.
    if store.spans:
        now = store.sim.now
        store.spans.finish(store.spans.start_trace(
            "fs.apply_ops", now,
            put_bytes=counters["put"],
            get_bytes=counters["get"],
            remove_bytes=counters["remove"],
            puts=len(put_sizes),
            removes=len(removes),
        ), now)
    return counters
