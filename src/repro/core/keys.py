"""Locality-preserving key encoding (Figure 4 of the paper).

This is the heart of D2: instead of hashing a block's content or name, each
block's 64-byte DHT key encodes its *position in the file-system name
space*, so that a preorder traversal of the directory tree visits blocks in
key order.  Blocks of one file — and files in one directory — therefore
occupy contiguous arcs of the DHT ring and land on few nodes.

Layout (64 bytes total, big-endian, most-significant field first)::

    | vol id | slot_1 | ... | slot_12 | H(path remainder) | block # | version |
    |   20   |   2    | ... |    2    |         8         |    8    |    4    |

* **vol id** — 20-byte identifier of the file-system volume (hash of the
  volume name / publisher public key).  Distinct volumes occupy disjoint
  arcs of the ring.
* **slot_i** — a 2-byte value naming the *i*-th path component.  When a file
  or directory is created, its parent directory assigns it an unused 2-byte
  slot (see :class:`repro.fs.namespace.Directory`); applications without
  access to parent state (e.g. a web cache) may instead use
  :func:`hash_slot`, losing a little locality to collisions.  Slot 0 is
  reserved to mean "no component": the metadata block of ``/a`` has slots
  ``[s_a, 0, ..., 0]`` and so sorts immediately before everything inside
  ``/a``.
* **H(path remainder)** — for paths deeper than 12 levels, an 8-byte hash of
  the remaining components (locality is not preserved past level 12; the
  paper measures such paths at <1% of files).
* **block #** — 8 bytes: 0 for the file's inode / a directory's metadata
  block, 1..N for data blocks, so a file's inode directly precedes its data.
* **version** — 4 bytes distinguishing versions of an overwritten block so
  that slightly stale readers can still fetch old versions (as in CFS).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.dht.keyspace import KEY_BYTES, key_from_bytes, key_to_bytes

VOLUME_ID_BYTES = 20
SLOT_BYTES = 2
MAX_PATH_LEVELS = 12
REMAINDER_BYTES = 8
BLOCK_NUMBER_BYTES = 8
VERSION_BYTES = 4

SLOT_SPACE = 1 << (8 * SLOT_BYTES)          # 65536 names per directory
MAX_BLOCK_NUMBER = (1 << (8 * BLOCK_NUMBER_BYTES)) - 1
MAX_VERSION = (1 << (8 * VERSION_BYTES)) - 1

# Slot value 0 is reserved: it marks "path ends here", which makes a
# directory's own metadata block sort before all of its children.
FIRST_USABLE_SLOT = 1

_LAYOUT_BYTES = (
    VOLUME_ID_BYTES
    + MAX_PATH_LEVELS * SLOT_BYTES
    + REMAINDER_BYTES
    + BLOCK_NUMBER_BYTES
    + VERSION_BYTES
)
assert _LAYOUT_BYTES == KEY_BYTES, "Figure-4 layout must fill the 64-byte key exactly"


class KeyEncodingError(ValueError):
    """Raised when a field does not fit the Figure-4 layout."""


def volume_id(name: str) -> bytes:
    """Derive a 20-byte volume identifier from a volume name.

    The paper derives it from the publisher's public key; a SHA-1 of the
    volume name gives the same uniform 20-byte identifier.
    """
    return hashlib.sha1(name.encode("utf-8")).digest()


def hash_slot(component: str) -> int:
    """2-byte hash slot for a path component (web-cache style naming).

    Used when the writer cannot consult the parent directory's slot table
    (footnote 2 in the paper).  Collisions merely interleave two names'
    blocks; they never cause incorrect lookups because the full key still
    differs in deeper fields.  Never returns the reserved slot 0.
    """
    digest = hashlib.sha256(component.encode("utf-8")).digest()
    value = int.from_bytes(digest[:SLOT_BYTES], "big")
    return max(FIRST_USABLE_SLOT, value)


def _remainder_hash(components: Sequence[str]) -> int:
    if not components:
        return 0
    joined = "/".join(components).encode("utf-8")
    return int.from_bytes(hashlib.sha256(joined).digest()[:REMAINDER_BYTES], "big")


@dataclass(frozen=True)
class BlockKey:
    """Decoded view of a D2 block key.

    ``slots`` always has exactly :data:`MAX_PATH_LEVELS` entries (padded
    with 0).  ``encode()`` round-trips through the canonical 64-byte form.
    """

    volume: bytes
    slots: Tuple[int, ...]
    remainder: int
    block_number: int
    version: int

    def __post_init__(self) -> None:
        if len(self.volume) != VOLUME_ID_BYTES:
            raise KeyEncodingError(
                f"volume id must be {VOLUME_ID_BYTES} bytes, got {len(self.volume)}"
            )
        if len(self.slots) != MAX_PATH_LEVELS:
            raise KeyEncodingError(
                f"slots must have {MAX_PATH_LEVELS} entries, got {len(self.slots)}"
            )
        for slot in self.slots:
            if not 0 <= slot < SLOT_SPACE:
                raise KeyEncodingError(f"slot {slot} out of range")
        if not 0 <= self.remainder < (1 << (8 * REMAINDER_BYTES)):
            raise KeyEncodingError("remainder hash out of range")
        if not 0 <= self.block_number <= MAX_BLOCK_NUMBER:
            raise KeyEncodingError(f"block number {self.block_number} out of range")
        if not 0 <= self.version <= MAX_VERSION:
            raise KeyEncodingError(f"version {self.version} out of range")

    def encode(self) -> int:
        """Pack into the canonical 64-byte key (as a ring integer)."""
        parts = [self.volume]
        parts.extend(slot.to_bytes(SLOT_BYTES, "big") for slot in self.slots)
        parts.append(self.remainder.to_bytes(REMAINDER_BYTES, "big"))
        parts.append(self.block_number.to_bytes(BLOCK_NUMBER_BYTES, "big"))
        parts.append(self.version.to_bytes(VERSION_BYTES, "big"))
        return key_from_bytes(b"".join(parts))

    @property
    def depth(self) -> int:
        """Number of encoded path levels (trailing zero slots excluded)."""
        depth = MAX_PATH_LEVELS
        while depth > 0 and self.slots[depth - 1] == 0:
            depth -= 1
        return depth

    def child(self, slot: int, block_number: int = 0, version: int = 0) -> "BlockKey":
        """Key of a child named by *slot* one level below this key's path."""
        depth = self.depth
        if depth >= MAX_PATH_LEVELS:
            raise KeyEncodingError("cannot extend a fully deep slot path")
        if not FIRST_USABLE_SLOT <= slot < SLOT_SPACE:
            raise KeyEncodingError(f"child slot {slot} invalid")
        slots = list(self.slots)
        slots[depth] = slot
        return BlockKey(self.volume, tuple(slots), 0, block_number, version)


def decode_key(key: int) -> BlockKey:
    """Decode a 64-byte ring key into its Figure-4 fields."""
    raw = key_to_bytes(key)
    offset = 0
    volume = raw[offset : offset + VOLUME_ID_BYTES]
    offset += VOLUME_ID_BYTES
    slots = []
    for _ in range(MAX_PATH_LEVELS):
        slots.append(int.from_bytes(raw[offset : offset + SLOT_BYTES], "big"))
        offset += SLOT_BYTES
    remainder = int.from_bytes(raw[offset : offset + REMAINDER_BYTES], "big")
    offset += REMAINDER_BYTES
    block_number = int.from_bytes(raw[offset : offset + BLOCK_NUMBER_BYTES], "big")
    offset += BLOCK_NUMBER_BYTES
    version = int.from_bytes(raw[offset : offset + VERSION_BYTES], "big")
    return BlockKey(volume, tuple(slots), remainder, block_number, version)


def encode_path_key(
    volume: bytes,
    slot_path: Sequence[int],
    *,
    overflow_components: Iterable[str] = (),
    block_number: int = 0,
    version: int = 0,
) -> int:
    """Encode the key for a block of the file at *slot_path* in *volume*.

    *slot_path* is the sequence of 2-byte slots assigned by each ancestor
    directory, root first.  Paths deeper than :data:`MAX_PATH_LEVELS` must
    pass the extra (string) components via *overflow_components*; their hash
    fills the 8-byte remainder field, sacrificing locality past level 12.
    """
    slot_path = list(slot_path)
    overflow = list(overflow_components)
    if len(slot_path) > MAX_PATH_LEVELS:
        raise KeyEncodingError(
            f"slot path too deep ({len(slot_path)} > {MAX_PATH_LEVELS}); "
            "pass extra components via overflow_components"
        )
    for slot in slot_path:
        if not FIRST_USABLE_SLOT <= slot < SLOT_SPACE:
            raise KeyEncodingError(f"slot {slot} out of range for a path component")
    if overflow and len(slot_path) < MAX_PATH_LEVELS:
        raise KeyEncodingError("overflow components given but slot path is not full")
    padded = tuple(slot_path) + (0,) * (MAX_PATH_LEVELS - len(slot_path))
    return BlockKey(
        volume=volume,
        slots=padded,
        remainder=_remainder_hash(overflow),
        block_number=block_number,
        version=version,
    ).encode()


@lru_cache(maxsize=65536)
def version_hash(content_version: int) -> int:
    """4-byte version field for the *content_version*-th write of a block.

    The paper stores a hash here so stale readers can address the exact
    version they saw; we hash a monotonically increasing counter, which
    preserves that property while keeping tests deterministic.  Memoized:
    replay keys millions of blocks whose versions repeat heavily.
    """
    digest = hashlib.sha256(content_version.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:VERSION_BYTES], "big")


_BLOCK_SHIFT = 8 * VERSION_BYTES
_TRAILING_MASK = (1 << (8 * (BLOCK_NUMBER_BYTES + VERSION_BYTES))) - 1


def compose_block_key(prefix_key: int, block_number: int, version: int) -> int:
    """Fill the block-number/version fields of an already-encoded key.

    *prefix_key* must be an :func:`encode_path_key` result built with
    ``block_number=0, version=0`` (zeroed trailing fields); *version* is the
    already-hashed 4-byte field value.  The result is bit-identical to
    re-encoding the full 64-byte key, without redoing the volume/slot/
    remainder packing — key schemes memoise the prefix per file or directory.
    """
    if prefix_key & _TRAILING_MASK:
        raise KeyEncodingError("prefix key must have zero block/version fields")
    if not 0 <= block_number <= MAX_BLOCK_NUMBER:
        raise KeyEncodingError(f"block number {block_number} out of range")
    if not 0 <= version <= MAX_VERSION:
        raise KeyEncodingError(f"version {version} out of range")
    return prefix_key | (block_number << _BLOCK_SHIFT) | version


def compose_block_run(
    prefix_key: int, blocks: range, block_versions: Mapping[int, int], version: int
) -> List[int]:
    """Keys of the contiguous run *blocks* of one file, in block order.

    A file's blocks are one run of keys under its prefix (Figure 4), so a
    read keys them together: block ``n`` gets exactly
    ``compose_block_key(prefix_key, n, version_hash(block_versions.get(n,
    version)))``, with the prefix and the ends of the range checked once
    for the run.  *block_versions* / *version* are content versions; the
    field needs no check because :func:`version_hash` always fits it.
    """
    if not isinstance(blocks, range):
        raise TypeError(f"blocks must be a range, got {type(blocks).__name__}")
    if prefix_key & _TRAILING_MASK:
        raise KeyEncodingError("prefix key must have zero block/version fields")
    if blocks and not (
        0 <= blocks[0] <= MAX_BLOCK_NUMBER and 0 <= blocks[-1] <= MAX_BLOCK_NUMBER
    ):
        raise KeyEncodingError(f"block numbers {blocks[0]}..{blocks[-1]} out of range")
    version_of = block_versions.get
    return [
        prefix_key | (number << _BLOCK_SHIFT) | version_hash(version_of(number, version))
        for number in blocks
    ]
