"""Circular 512-bit key-space arithmetic.

D2 keys are 64 bytes (Figure 4 of the paper), so the DHT identifier space is
the ring of integers modulo ``2**512``.  Node IDs live in the same space.
This module centralizes all modular arithmetic so the rest of the code never
reasons about wrap-around directly.

Keys are plain Python ints in ``[0, KEY_SPACE)``; helpers convert to and
from 64-byte big-endian representations.
"""

from __future__ import annotations

import hashlib
from typing import Union

KEY_BYTES = 64
KEY_BITS = KEY_BYTES * 8
KEY_SPACE = 1 << KEY_BITS
MAX_KEY = KEY_SPACE - 1


def validate_key(key: int) -> int:
    """Return *key* unchanged if it is a valid ring position, else raise."""
    if not isinstance(key, int):
        raise TypeError(f"key must be int, got {type(key).__name__}")
    if not 0 <= key < KEY_SPACE:
        raise ValueError(f"key {key:#x} outside [0, 2**{KEY_BITS})")
    return key


def key_to_bytes(key: int) -> bytes:
    """Encode a ring position as its canonical 64-byte big-endian form."""
    return validate_key(key).to_bytes(KEY_BYTES, "big")


def key_from_bytes(raw: bytes) -> int:
    """Decode a 64-byte big-endian key."""
    if len(raw) != KEY_BYTES:
        raise ValueError(f"key must be exactly {KEY_BYTES} bytes, got {len(raw)}")
    return int.from_bytes(raw, "big")


def hash_to_key(data: Union[bytes, str]) -> int:
    """Map arbitrary bytes (or a name, as its UTF-8 bytes) onto the key space.

    Used for consistent hashing (traditional DHT keys and random node IDs).
    SHA-512 output is exactly 64 bytes, matching the key width.  A name is
    hashed here rather than encoded by the caller, so a traditional key per
    block costs one Python call.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.sha512(data).digest(), "big")


def distance(a: int, b: int) -> int:
    """Clockwise distance from *a* to *b* on the ring.

    ``distance(a, a) == 0`` and ``distance(a, b) + distance(b, a) ==
    KEY_SPACE`` for ``a != b``.
    """
    return (b - a) % KEY_SPACE


def in_interval(key: int, lo: int, hi: int) -> bool:
    """True when *key* lies in the half-open circular interval ``(lo, hi]``.

    This is the ownership test used throughout the DHT: the node with ID
    ``hi`` whose predecessor has ID ``lo`` owns exactly the keys in
    ``(lo, hi]``.  When ``lo == hi`` the interval is the full ring (a
    single-node system owns everything).
    """
    if lo == hi:
        return True
    if lo < hi:
        return lo < key <= hi
    return key > lo or key <= hi


def interval_width(lo: int, hi: int) -> int:
    """Width of the clockwise arc ``(lo, hi]``; full ring when ``lo == hi``."""
    if lo == hi:
        return KEY_SPACE
    return distance(lo, hi)
