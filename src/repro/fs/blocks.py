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

This reproduction never materializes payload bytes; blocks carry sizes and
synthetic content hashes (sufficient for all traffic accounting; root
signing itself is not simulated).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

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


def synthetic_content_hash(identity: str, version: int) -> int:
    """Deterministic stand-in for a block's content hash.

    Real D2 hashes the 8 KB payload; hashing the logical identity plus the
    version preserves the property the integrity chain needs — the hash
    changes exactly when the content does.
    """
    digest = hashlib.sha256(f"{identity}#{version}".encode("utf-8")).digest()
    return int.from_bytes(digest[:20], "big")


@dataclass(frozen=True)
class BlockRef:
    """A pointer stored in a metadata block: child key + integrity hash.

    Keys in D2 are not content hashes (they encode name-space position), so
    every metadata block keeps the content hash of each block it points to;
    signing the root then transitively signs all metadata (Section 3).
    """

    key: int
    content_hash: int
    size: int


def data_block_count(file_size: int) -> int:
    """Number of data blocks for a file of *file_size* bytes.

    Small files are inlined into the inode and use zero data blocks.
    """
    if file_size < 0:
        raise ValueError(f"negative file size {file_size}")
    if file_size <= INLINE_DATA_THRESHOLD:
        return 0
    return -(-file_size // BLOCK_SIZE)  # ceil division


def data_block_sizes(file_size: int) -> List[int]:
    """Sizes of each data block; the last block may be partial."""
    count = data_block_count(file_size)
    if count == 0:
        return []
    sizes = [BLOCK_SIZE] * (count - 1)
    last = file_size - BLOCK_SIZE * (count - 1)
    sizes.append(last)
    return sizes


@lru_cache(maxsize=8192)
def data_block_sizes_table(file_size: int) -> Tuple[int, ...]:
    """Immutable, process-cached form of :func:`data_block_sizes`.

    Replay hot paths size the same file populations millions of times; the
    tuple is computed once per distinct file size and shared, eliminating a
    per-read list allocation.  Values are identical to
    ``tuple(data_block_sizes(file_size))``.
    """
    return tuple(data_block_sizes(file_size))


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


@dataclass
class RootBlock:
    """A volume's mutable, signed root block (updated in place)."""

    volume: bytes
    version: int = 0
    directory_ref: Optional[BlockRef] = None
    signature: Optional[int] = None

    def sign(self, publisher: str) -> None:
        """Simulated publisher signature over (volume, version, root ref)."""
        payload = f"{self.volume.hex()}:{self.version}:{self.directory_ref}"
        digest = hashlib.sha256(f"{publisher}|{payload}".encode("utf-8")).digest()
        self.signature = int.from_bytes(digest[:20], "big")

    def verify(self, publisher: str) -> bool:
        if self.signature is None:
            return False
        payload = f"{self.volume.hex()}:{self.version}:{self.directory_ref}"
        digest = hashlib.sha256(f"{publisher}|{payload}".encode("utf-8")).digest()
        return self.signature == int.from_bytes(digest[:20], "big")
