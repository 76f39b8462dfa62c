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
from functools import lru_cache
from typing import Iterable, List, Mapping, Sequence

from repro.dht.keyspace import KEY_BYTES

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

# Bit offsets of the fields in the ring integer, least significant first.
_BLOCK_SHIFT = 8 * VERSION_BYTES
_REMAINDER_SHIFT = _BLOCK_SHIFT + 8 * BLOCK_NUMBER_BYTES
_TRAILING_MASK = (1 << _REMAINDER_SHIFT) - 1  # the block-number and version fields
_SLOT_SHIFTS = tuple(  # slot_1 (level 0) is the most significant
    _REMAINDER_SHIFT + 8 * (REMAINDER_BYTES + SLOT_BYTES * (MAX_PATH_LEVELS - 1 - level))
    for level in range(MAX_PATH_LEVELS))
_VOLUME_SHIFT = _REMAINDER_SHIFT + 8 * (REMAINDER_BYTES + SLOT_BYTES * MAX_PATH_LEVELS)
# Every field from slot level i down: zero in a prefix of depth i.
_BELOW_LEVEL = tuple((1 << (shift + 8 * SLOT_BYTES)) - 1 for shift in _SLOT_SHIFTS)


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
    slot_path = tuple(slot_path)
    overflow = list(overflow_components)
    if len(volume) != VOLUME_ID_BYTES:
        raise KeyEncodingError(f"volume id must be {VOLUME_ID_BYTES} bytes, got {len(volume)}")
    if len(slot_path) > MAX_PATH_LEVELS:
        raise KeyEncodingError(
            f"slot path too deep ({len(slot_path)} > {MAX_PATH_LEVELS}); "
            "pass extra components via overflow_components"
        )
    key = int.from_bytes(volume, "big") << _VOLUME_SHIFT
    for slot, shift in zip(slot_path, _SLOT_SHIFTS):
        if not FIRST_USABLE_SLOT <= slot < SLOT_SPACE:
            raise KeyEncodingError(f"slot {slot} out of range for a path component")
        key |= slot << shift
    if overflow:
        if len(slot_path) < MAX_PATH_LEVELS:
            raise KeyEncodingError("overflow components given but slot path is not full")
        digest = hashlib.sha256("/".join(overflow).encode("utf-8")).digest()
        key |= int.from_bytes(digest[:REMAINDER_BYTES], "big") << _REMAINDER_SHIFT
    if not 0 <= block_number <= MAX_BLOCK_NUMBER:
        raise KeyEncodingError(f"block number {block_number} out of range")
    if not 0 <= version <= MAX_VERSION:
        raise KeyEncodingError(f"version {version} out of range")
    return key | (block_number << _BLOCK_SHIFT) | version


def child_prefix(parent_prefix: int, depth: int, slot: int) -> int:
    """The prefix of the child named by *slot* under *parent_prefix*, an
    :func:`encode_path_key` prefix of *depth* levels (every field from level
    *depth* down zero): *slot* OR-ed in at level *depth*, bit-identical to
    encoding the child's slot path.  Past level 12 a path is hashed instead."""
    if not 0 <= depth < MAX_PATH_LEVELS:
        raise KeyEncodingError("cannot extend a fully deep slot path")
    if not FIRST_USABLE_SLOT <= slot < SLOT_SPACE:
        raise KeyEncodingError(f"child slot {slot} invalid")
    if parent_prefix & _BELOW_LEVEL[depth]:
        raise KeyEncodingError(f"prefix has fields set below level {depth}")
    return parent_prefix | (slot << _SLOT_SHIFTS[depth])


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


def compose_version_run(prefix_key: int, count: int, version: int) -> List[int]:
    """``compose_block_run(prefix_key, range(count), {}, version)`` — a
    directory's metadata blocks — checked once: with one version field for
    the run, block ``n``'s key is the first key plus ``n`` block steps."""
    if prefix_key & _TRAILING_MASK:
        raise KeyEncodingError("prefix key must have zero block/version fields")
    first = prefix_key | version_hash(version)
    if count == 1:  # a directory of up to 128 entries
        return [first]
    if not 0 <= count <= MAX_BLOCK_NUMBER + 1:
        raise KeyEncodingError(f"block count {count} out of range")
    return [first + (number << _BLOCK_SHIFT) for number in range(count)]
