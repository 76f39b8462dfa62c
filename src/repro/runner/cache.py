"""Content-addressed on-disk cache for experiment grid cells.

Every cell of an experiment run matrix (one ``(system, mode, n_nodes,
bandwidth)`` performance run, one balance replay, one availability
replay) is a deterministic function of its parameter bundle, so its result can be
cached by content address: the key is a stable hash of the full parameter
tuple plus a schema version, the payload is the pickled result.

Layout::

    $REPRO_RUN_CACHE/
      v3/                      # SCHEMA_VERSION — bump to orphan old entries
        harvard/
          <sha256 of (version, kind, params)>.pkl
        webcache-balance/
          ...

The cache is *disabled* unless ``$REPRO_RUN_CACHE`` names a directory (a
conventional choice is ``~/.cache/repro``; ``~`` is expanded) or a
:class:`RunCache` is constructed with an explicit root — when unset, every
``get`` is a miss and results live only in the per-process memo
(:func:`repro.experiments.common.cached`), exactly the pre-runner
behavior.  All I/O degrades cleanly: corrupted or truncated entries are
deleted and recomputed, write failures are counted and ignored.

Writes are atomic (temp file + ``os.replace``) so concurrent runs sharing
one cache directory never observe partial payloads.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Mapping, Optional, Tuple

#: Environment variable naming the cache root directory.
CACHE_ENV = "REPRO_RUN_CACHE"

#: Bump whenever a cached result type changes shape (new dataclass fields,
#: renamed metrics the analyses rely on, changed simulation semantics):
#: old entries become unreachable instead of silently wrong.
#: v2: PerformanceResult grew ``trace`` (exported span dicts); histogram
#: snapshots may carry reservoirs.
#:
#: Deliberately NOT bumped for the static-analysis PR: the lint fixes
#: (sanctioned key helpers, sorted() insertions, perf_counter swaps) were
#: verified bit-identical to the code they replaced, so every cached
#: result stays valid.  Bumping here invalidates every user's cache — do
#: it only when result *content* changes.
#:
#: v3: churn rows grew alert counts plus the ``health`` payload
#: (per-window time-series and SLO-alert export), and accel results
#: grew ``trace``; health monitoring also advances membership runs'
#: ``events_fired``, so pre-v3 churn rows are stale in content.
#:
#: Not bumped when four kinds became the one ``harvard`` kind (an
#: availability cell now caches its replay log): the kind and ``measure``
#: are hashed, so no new key reaches an old entry.
SCHEMA_VERSION = 3

#: Ambient environment variables whose value shapes cached result
#: *content* and therefore participates in the cache fingerprint.
#: ``$REPRO_TRACE_SAMPLE`` reaches cells through ``Tracer.from_env``
#: (Deployment construction) and decides which spans land in
#: ``result.trace`` — two runs with different sample rates must not
#: share an entry.  Variables that are unset (or empty) are omitted, so
#: default-environment keys are byte-identical to the pre-fingerprint
#: scheme and existing caches stay warm.  The flow linter's CACHE001
#: pass cross-checks this list against the env reads actually reachable
#: from cached cell bodies.
AMBIENT_ENV_KEYS: Tuple[str, ...] = ("REPRO_TRACE_SAMPLE",)


def ambient_fingerprint() -> Tuple[Tuple[str, str], ...]:
    """The (name, value) pairs of set ambient env vars, fingerprint-ready."""
    return tuple(
        (name, os.environ[name])
        for name in AMBIENT_ENV_KEYS
        if os.environ.get(name)
    )


def cache_key(kind: str, params: Mapping[str, Any]) -> str:
    """Stable content address of one grid cell.

    Parameter order does not matter; values must have deterministic
    ``repr`` (ints, floats, strings, bools, tuples thereof — what the cell
    builders use).  Set ambient env vars (:data:`AMBIENT_ENV_KEYS`) are
    appended so environment-shaped results address distinct entries.
    """
    canonical: Tuple[Any, ...] = (
        SCHEMA_VERSION, kind, tuple(sorted(params.items()))
    )
    ambient = ambient_fingerprint()
    if ambient:
        canonical = canonical + (ambient,)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


class RunCache:
    """Pickled cell results under a root directory; no-op when disabled."""

    def __init__(self, root: Optional[str]) -> None:
        self.root = root or None
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.write_errors = 0

    @classmethod
    def from_env(cls) -> "RunCache":
        """Cache rooted at ``$REPRO_RUN_CACHE``; disabled when unset/empty."""
        return cls(os.environ.get(CACHE_ENV) or None)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, kind: str, params: Mapping[str, Any]) -> str:
        if self.root is None:
            raise ValueError("cache is disabled (no root directory)")
        safe_kind = "".join(c if c.isalnum() or c in "-_" else "_" for c in kind)
        return os.path.join(
            os.path.expanduser(self.root),
            f"v{SCHEMA_VERSION}",
            safe_kind,
            f"{cache_key(kind, params)}.pkl",
        )

    def get(self, kind: str, params: Mapping[str, Any]) -> Tuple[bool, Any]:
        """``(hit, value)`` for one cell; corrupted entries become misses."""
        if self.root is None:
            self.misses += 1
            return False, None
        path = self.path_for(kind, params)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if payload["schema"] != SCHEMA_VERSION:
                raise ValueError(f"schema mismatch: {payload['schema']!r}")
            value = payload["value"]
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            # Truncated write, foreign file, stale schema: drop and recompute.
            self.corrupt += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return False, None
        self.hits += 1
        return True, value

    def put(self, kind: str, params: Mapping[str, Any], value: Any) -> Optional[str]:
        """Store one cell result; returns its path (None if disabled/failed)."""
        if self.root is None:
            return None
        path = self.path_for(kind, params)
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "params": dict(params),  # kept for debugging/inspection
            "value": value,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            # The cache is an optimization; never fail the run over it.
            self.write_errors += 1
            try:
                os.remove(tmp)
            except OSError:
                pass
            return None
        return path
