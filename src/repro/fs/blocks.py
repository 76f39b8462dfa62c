"""D2-FS block model (Figure 2 of the paper).

D2-FS maintains four kinds of blocks, all at most 8 KB:

* the **root block** of a volume (mutable, updated in place, signed),
* **directory blocks** holding name → (key, content-hash) entries,
* **file inodes** holding per-file metadata and data-block references,
* **data blocks**.

All blocks except the root are immutable — an update writes new versions
under new keys (the 4-byte version field of the key encoding) and the
metadata path up to the root is re-written so readers always see an
internally consistent volume.

This reproduction never materializes payload bytes: blocks carry sizes,
which is all the traffic accounting needs.  Content hashes and the root
signature are counted in those sizes but never computed.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import List, Tuple

BLOCK_SIZE = 8192
# Files at or below this size are stored inline in their inode ("when the
# amount of file data in a data block is small enough, D2-FS stores the
# data directly in the parent metadata block").
INLINE_DATA_THRESHOLD = 512
# Bytes a directory entry occupies in a directory block (name, slot, key,
# content hash, flags) — sets how many entries fit per 8 KB block.
DIRECTORY_ENTRY_BYTES = 64
INODE_BASE_BYTES = 256
# Each data-block reference in an inode: 64-byte key + 20-byte hash + size.
BLOCK_REF_BYTES = 96


class BlockKind(enum.Enum):
    ROOT = "root"
    DIRECTORY = "directory"
    INODE = "inode"
    DATA = "data"


def data_block_count(file_size: int) -> int:
    """Number of data blocks for a file of *file_size* bytes.

    Small files are inlined into the inode and use zero data blocks.
    """
    if file_size < 0:
        raise ValueError(f"negative file size {file_size}")
    if file_size <= INLINE_DATA_THRESHOLD:
        return 0
    return -(-file_size // BLOCK_SIZE)  # ceil division


@lru_cache(maxsize=8192)
def data_block_sizes_table(file_size: int) -> Tuple[int, ...]:
    """Sizes of each data block; the last block may be partial.

    Replay hot paths size the same file populations millions of times; the
    tuple is computed once per distinct file size and shared, eliminating a
    per-read list allocation.
    """
    count = data_block_count(file_size)
    if count == 0:
        return ()
    return (BLOCK_SIZE,) * (count - 1) + (file_size - BLOCK_SIZE * (count - 1),)


def blocks_covering(offset: int, length: int, file_size: int) -> range:
    """1-based data-block numbers a byte range ``[offset, offset+length)`` touches.

    Returns an empty range for inlined files (the inode carries the data).
    """
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be non-negative")
    if file_size <= INLINE_DATA_THRESHOLD or length == 0 or offset >= file_size:
        return range(0)
    end = min(offset + length, file_size)
    first = offset // BLOCK_SIZE + 1
    last = (end - 1) // BLOCK_SIZE + 1
    return range(first, last + 1)


def inode_size(file_size: int) -> int:
    """On-DHT size of an inode block, including inlined data if small."""
    if file_size <= INLINE_DATA_THRESHOLD:
        return min(BLOCK_SIZE, INODE_BASE_BYTES + file_size)
    refs = data_block_count(file_size) * BLOCK_REF_BYTES
    return min(BLOCK_SIZE, INODE_BASE_BYTES + refs)


def directory_block_count(n_entries: int) -> int:
    """Number of 8 KB blocks a directory's entry table occupies."""
    if n_entries <= 0:
        return 1
    per_block = BLOCK_SIZE // DIRECTORY_ENTRY_BYTES
    return -(-n_entries // per_block)


def directory_block_sizes(n_entries: int) -> List[int]:
    """Sizes of a directory's metadata blocks."""
    count = directory_block_count(n_entries)
    total = max(DIRECTORY_ENTRY_BYTES, n_entries * DIRECTORY_ENTRY_BYTES)
    sizes = [BLOCK_SIZE] * (count - 1)
    sizes.append(total - BLOCK_SIZE * (count - 1))
    return sizes
