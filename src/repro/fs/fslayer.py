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
:func:`apply_ops`).  Writes reach the store at once: the paper's 30 s
client write-back cache is not modelled (see :mod:`repro.core.config`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

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
from repro.fs.namespace import Directory, FileNode, Namespace, NamespaceError

ROOT_BLOCK_SIZE = 256


class BlockOp(NamedTuple):
    """One block-level operation implied by a file-system call.

    ``key`` is the ring key of one version of the block under the active
    scheme.  A tuple because a flush builds ~22 of these and drops them:
    immutable and comparable, no more.
    """

    action: str  # 'put' | 'get' | 'remove'
    key: int
    size: int
    kind: BlockKind


def _read_blocks(node: FileNode, offset: int, length: Optional[int]) -> range:
    """Data blocks of *node* a read covers (``0``/``None``: to the end of the file)."""
    return blocks_covering(offset, length or node.size, node.size)


#: A :class:`BlockOp` from its 4-tuple, without the generated ``__new__``'s
#: Python frame: the read replay's image load makes ~94 000.
_op = tuple.__new__
ROOT, DIRECTORY, INODE, DATA = BlockKind.ROOT, BlockKind.DIRECTORY, BlockKind.INODE, BlockKind.DATA


class DhtFileSystem:
    """One writer's view of a D2 (or baseline) file-system volume.

    The block plan — which blocks an object has, at which version and how
    big — is stated once, in the ``_*_op(s)`` helpers and the re-versioning
    loop of :meth:`_reversion`.  Mutations walk the parent chain once and
    compose them into :class:`BlockOp` lists; :meth:`read_fetches` is the
    same plan for a read, projected to the ``(key, nbytes)`` run the replay
    paths consume.
    """

    def __init__(self, scheme: KeyScheme) -> None:
        self.scheme = scheme
        self.namespace = Namespace()
        self.root_version = 0
        self._root_key = scheme.root_key()  # one key for the volume's life

    # ------------------------------------------------------------------
    # the block plan

    def _root_op(self, action: str) -> BlockOp:
        """The root block, updated in place."""
        return _op(BlockOp, (action, self._root_key, ROOT_BLOCK_SIZE, ROOT))

    def _dir_ops(self, action: str, directory: Directory, version: int) -> List[BlockOp]:
        """Every metadata block of *directory* at *version*."""
        sizes = directory_block_sizes(len(directory.children))
        keys = self.scheme.directory_block_keys(directory, version, len(sizes))
        return [_op(BlockOp, (action, key, size, DIRECTORY)) for key, size in zip(keys, sizes)]

    def _inode_op(self, action: str, node: FileNode, version: int, size: int) -> BlockOp:
        """The inode (block 0) of *node* as of *version*, when it held *size* bytes."""
        return _op(BlockOp, (action, self.scheme.file_block_key(node, 0, version),
                             inode_size(size), INODE))

    def _data_ops(self, action: str, node: FileNode, blocks: range) -> List[BlockOp]:
        """The live versions of the run *blocks* of *node* at its current
        size, keyed as one run — the path :meth:`read_fetches` takes."""
        sizes = data_block_sizes_table(node.size)[blocks.start - 1:blocks.stop - 1]
        keys = self.scheme.file_block_keys(node, blocks)
        return [_op(BlockOp, (action, key, size, DATA)) for key, size in zip(keys, sizes)]

    def _reversion(self, chain: Iterable[Directory]) -> List[BlockOp]:
        """Re-version *chain* in the order given, then rewrite the root: each
        directory's blocks at its next version, then the previous version's
        retired (0: never flushed), both at its current size."""
        ops: List[BlockOp] = []
        append = ops.append
        keys_of = self.scheme.directory_block_keys
        for directory in chain:
            sizes = directory_block_sizes(len(directory.children))
            old = directory.version
            directory.version = new = old + 1
            for key, size in zip(keys_of(directory, new, len(sizes)), sizes):
                append(_op(BlockOp, ("put", key, size, DIRECTORY)))
            if old > 0:
                for key, size in zip(keys_of(directory, old, len(sizes)), sizes):
                    append(_op(BlockOp, ("remove", key, size, DIRECTORY)))
        self.root_version += 1
        append(self._root_op("put"))
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
        chain, name = self.namespace.parent_chain(path)
        directory = self.namespace.add(chain[-1], name, Directory)
        self.scheme.place(directory, chain[-1])
        directory.version = 1
        return self._dir_ops("put", directory, 1) + self._reversion(reversed(chain))

    def makedirs(self, path: str) -> List[BlockOp]:
        """mkdir -p; emits ops only for directories actually created, walking
        the directories that exist once."""
        ops: List[BlockOp] = []
        node: Union[Directory, FileNode] = self.namespace.root
        current = ""
        for part in [part for part in path.split("/") if part]:
            if not isinstance(node, Directory):
                raise NamespaceError(f"{path!r}: not a directory at {part!r}")
            current += "/" + part
            if part not in node.children:
                ops += self.mkdir(current)
            node = node.children[part]
        return ops

    def create(self, path: str, size: int = 0) -> List[BlockOp]:
        """Create a file of *size* bytes (contents written immediately)."""
        chain, name = self.namespace.parent_chain(path)
        node = self.namespace.add(chain[-1], name, FileNode, size=size)
        self.scheme.place(node, chain[-1])
        node.version = 1
        blocks = range(1, data_block_count(size) + 1)
        node.block_versions.update(dict.fromkeys(blocks, 1))
        ops = self._data_ops("put", node, blocks)
        ops.append(self._inode_op("put", node, 1, size))
        return ops + self._reversion(reversed(chain))

    def write(self, path: str, offset: int, length: int) -> List[BlockOp]:
        """Overwrite/extend ``[offset, offset+length)`` of an existing file.

        Emits new versions of the touched data blocks and the inode, plus
        removes of the superseded versions and the metadata path rewrite.
        """
        if length <= 0:
            return []
        chain, name = self.namespace.parent_chain(path)
        node = chain[-1].children.get(name)
        if not isinstance(node, FileNode):
            raise NamespaceError(f"{path!r} is not a file")
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
        return ops + self._reversion(reversed(chain))

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
        chain, name = self.namespace.parent_chain(path)
        node = self.namespace.unlink(chain[-1], name)
        if isinstance(node, FileNode):
            ops = self._data_ops("remove", node, range(1, data_block_count(node.size) + 1))
            ops.append(self._inode_op("remove", node, node.version, node.size))
        else:
            ops = self._dir_ops("remove", node, node.version)
        return ops + self._reversion(reversed(chain))

    def rename(self, src: str, dst: str) -> List[BlockOp]:
        """Move a file/directory; only the two parents' metadata changes.

        The object keeps its original keys (Section 4.2), so no data moves
        even for a large directory tree.
        """
        src_chain, src_name = self.namespace.parent_chain(src)
        dst_chain, dst_name = self.namespace.parent_chain(dst)
        self.namespace.move(src_chain[-1], src_name, dst_chain, dst_name)
        # Each directory once, at its first place in the two chains.
        chain = [*reversed(src_chain), *reversed(dst_chain)]
        return self._reversion({id(directory): directory for directory in chain}.values())


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
    put_bytes = get_bytes = remove_bytes = 0
    for action, key, size, _kind in ops:
        if action == "put":
            put_bytes += size
            put_sizes[key] = put_sizes.get(key, 0) + size
        elif action == "remove":
            remove_bytes += size
            removes[key] = None
        elif action == "get":
            get_bytes += size
        else:
            raise KeyError(action)
    directory = store.directory
    store.commit(
        put_sizes,
        [key for key in removes if key not in put_sizes and key in directory],
    )
    # One root per flush, made once it is known to have gone through; its
    # attrs are built only when the span is kept.
    span = None if store.spans is None else store.spans.instant("fs.apply_ops", store.sim.now)
    if span is not None:
        span.attrs = {"put_bytes": put_bytes, "get_bytes": get_bytes,
                      "remove_bytes": remove_bytes, "puts": len(put_sizes),
                      "removes": len(removes)}
    return {"put": put_bytes, "get": get_bytes, "remove": remove_bytes}
