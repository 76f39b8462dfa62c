"""Consistent hashing: the traditional DHT's key and node-ID assignment.

In the baseline systems (the paper's *traditional* and *traditional-file*
DHTs) node IDs are uniform-random ring positions and block keys are secure
hashes of block names, so keys spread uniformly and consistent hashing
balances storage without any active mechanism.  D2 keeps the random node
IDs only at bootstrap; its keys come from
:mod:`repro.core.keys` instead.
"""

from __future__ import annotations

import random
from typing import List

from repro.dht.keyspace import KEY_SPACE, hash_to_key, key_to_bytes


# Uniform ring key for a named object (block or file): the SHA-512 of its
# UTF-8 name, in one Python call per key.
hashed_key = hash_to_key


def salted_key(salt: str, key: int) -> int:
    """Independent uniform re-hash of an existing ring *key* under *salt*.

    The sanctioned way to derive secondary positions from a key (e.g.
    hybrid replica placement): each distinct salt yields an independent
    uniform position, so correlated failures of one ring region cost at
    most one replica.
    """
    return hash_to_key(salt.encode("utf-8") + key_to_bytes(key))


def random_node_ids(count: int, rng: random.Random) -> List[int]:
    """*count* distinct uniform-random ring positions."""
    ids = set()
    while len(ids) < count:
        ids.add(rng.randrange(KEY_SPACE))
    return sorted(ids)
