"""Workload-shift request streams for the acceleration experiments.

The paper's replays hold the key popularity distribution fixed, which is
exactly the regime a static-TTL, fixed-capacity lookup cache is sized
for.  This module generates the three shift shapes the ``accel`` matrix
measures recovery under — each a deterministic ``(time, client, key)``
stream with a single phase boundary:

``hotspot``
    A flash crowd: the pre-phase Zipf working set keeps a background
    share of traffic while most post-phase requests pile onto the
    (previously cold) post key population — the ``hotspot`` extension's regime.
``migrate``
    Task-set migration: the client population switches wholesale from
    the pre key set to a disjoint post set (a batch job finishing and
    the next one starting on different files).
``churn``
    The key stream never shifts; the *ring* does.  The stream keeps
    serving the pre keys and the harness crashes/joins nodes at the
    boundary (dynamic membership, PR 6), so every cached range crossing
    the dead arcs goes stale at once.

Everything derives from one seeded RNG — same seed, same stream — so
accelerated replays stay inside the determinism contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Sequence

SCENARIOS = ("hotspot", "migrate", "churn")

#: Fraction of post-phase requests a flash crowd sends to the new keys.
FLASH_FRACTION = 0.75


@dataclass(frozen=True)
class ShiftRequest:
    """One request of a shift stream (``phase`` is ``"pre"`` or ``"post"``)."""

    now: float
    client: str
    key: int
    phase: str


def zipf_weights(count: int, s: float = 1.2) -> List[float]:
    """Normalized Zipf(s) popularity weights over *count* ranks."""
    weights = [1.0 / (rank + 1) ** s for rank in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


def shift_stream(
    scenario: str,
    pre_keys: Sequence[int],
    post_keys: Sequence[int],
    clients: Sequence[str],
    *,
    pre_ops: int,
    post_ops: int,
    zipf_s: float = 1.2,
    rate: float = 10.0,
    flash_fraction: float = FLASH_FRACTION,
    seed: int = 0,
) -> Iterator[ShiftRequest]:
    """Yield ``pre_ops`` then ``post_ops`` requests around one shift.

    Keys are drawn Zipf-by-rank from the key populations (rank order =
    list order, so callers control which keys are hot).  For ``churn``
    the post phase keeps drawing from *pre_keys* — the membership change
    is the caller's job; for ``migrate`` it switches entirely to
    *post_keys*; for ``hotspot`` a *flash_fraction* share stampedes onto
    *post_keys* while the rest continues as before.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"expected one of {SCENARIOS}")
    if not pre_keys or not clients:
        raise ValueError("need at least one pre key and one client")
    if scenario in ("hotspot", "migrate") and not post_keys:
        raise ValueError(f"scenario {scenario!r} needs post keys")
    rng = random.Random(seed)
    # Accumulated once: ``choices(weights=...)`` re-accumulates on every draw.
    pre_ranks = range(len(pre_keys))
    pre_cum = list(accumulate(zipf_weights(len(pre_keys), zipf_s)))
    post_ranks = range(len(post_keys))
    post_cum = list(accumulate(zipf_weights(len(post_keys), zipf_s)))
    now = 0.0
    for index in range(pre_ops + post_ops):
        now += rng.expovariate(rate)
        client = clients[rng.randrange(len(clients))]
        phase = "pre" if index < pre_ops else "post"
        if phase == "pre" or scenario == "churn":
            key = pre_keys[rng.choices(pre_ranks, cum_weights=pre_cum, k=1)[0]]
        elif scenario == "migrate":
            key = post_keys[rng.choices(post_ranks, cum_weights=post_cum, k=1)[0]]
        else:  # hotspot: flash crowd on the new keys, background on the old
            if rng.random() < flash_fraction:
                key = post_keys[rng.choices(post_ranks, cum_weights=post_cum, k=1)[0]]
            else:
                key = pre_keys[rng.choices(pre_ranks, cum_weights=pre_cum, k=1)[0]]
        yield ShiftRequest(now=now, client=client, key=key, phase=phase)
