"""Top-level grid-cell functions, importable by worker processes.

Each *cell kind* maps a plain-dict parameter bundle to one picklable
result.  The functions live at module top level (and take only picklable
arguments) so :class:`concurrent.futures.ProcessPoolExecutor` can ship
them to workers under any start method.  This module is the only place
the runner names experiment code, and it does so inside the function
bodies: :mod:`repro.experiments` imports :mod:`repro.runner` at top
level, never the other way round, and importing the runner does not
pull in the simulator.

Determinism contract: a cell derives *everything* — trace, deployment,
RNG streams — from its own parameter bundle, so running it in a worker
process produces bit-identical results to running it inline.  That is
what lets the executor mix disk-cache hits, serial execution, and
parallel workers freely without changing any emitted row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

#: kind name -> cell function; populated by the :func:`cell_kind` decorator.
CELL_KINDS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def cell_kind(name: str) -> Callable[[Callable[[Dict[str, Any]], Any]], Callable[[Dict[str, Any]], Any]]:
    """Register a cell function under *name* (the disk-cache namespace)."""

    def register(fn: Callable[[Dict[str, Any]], Any]) -> Callable[[Dict[str, Any]], Any]:
        CELL_KINDS[name] = fn
        return fn

    return register


def execute_cell(kind: str, params: Mapping[str, Any]) -> Any:
    """Run one cell in this process — the worker entry point.

    Under ``$REPRO_DETSAN=1`` the cell body runs inside the determinism
    sanitizer (:mod:`repro.lint.detsan`): any wall-clock read or unseeded
    entropy draw raises instead of silently poisoning the result cache.
    The wrapper sits *here*, not around the pool, so process-pool plumbing
    (which legitimately uses OS entropy for auth keys) stays untouched in
    both the parent and the workers.
    """
    from repro.lint.detsan import maybe_sanitize

    try:
        fn = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {kind!r}; expected one of {sorted(CELL_KINDS)}"
        ) from None
    with maybe_sanitize():
        return fn(dict(params))


def scaled_harvard_trace(
    *, users: int, days: float, seed: int, base_size: int, n_nodes: int,
    scale_with_size: bool,
) -> Any:
    """The Harvard trace, replicated per Section 9.1, memoized per process."""
    from repro.experiments import common
    from repro.experiments.workload_cache import harvard_trace
    from repro.workloads.scale import copies_for_size, replicate_filesystem

    trace = harvard_trace(users=users, days=days, seed=seed)
    if not scale_with_size:
        return trace
    copies = copies_for_size(base_size, n_nodes)
    if copies == 0:
        return trace
    return common.cached(
        ("harvard-replicated", users, days, seed, copies),
        lambda: replicate_filesystem(trace, copies),
    )


@cell_kind("performance")
def performance_cell(params: Dict[str, Any]) -> Any:
    """One (system, mode, n_nodes, bandwidth) cell of the Figures 9–15 grid."""
    from repro.analysis.performance import run_performance

    return run_performance(
        scaled_harvard_trace(
            users=params["users"],
            days=params["days"],
            seed=params["seed"],
            base_size=params["base_size"],
            n_nodes=params["n_nodes"],
            scale_with_size=params["scale_with_size"],
        ),
        params["system"],
        mode=params["mode"],
        n_nodes=params["n_nodes"],
        bandwidth_kbps=params["bandwidth_kbps"],
        n_windows=params["n_windows"],
        seed=params["seed"],
    )


@cell_kind("harvard-balance")
def harvard_balance_cell(params: Dict[str, Any]) -> Any:
    """One system of the Harvard balance comparison (Fig 16, Tables 3–4)."""
    from repro.analysis.balance import run_harvard_balance
    from repro.experiments.workload_cache import harvard_trace

    trace = harvard_trace(
        users=params["users"], days=params["days"], seed=params["seed"]
    )
    return run_harvard_balance(
        trace, params["system"], n_nodes=params["n_nodes"], seed=params["seed"]
    )


@cell_kind("webcache-balance")
def webcache_balance_cell(params: Dict[str, Any]) -> Any:
    """One system of the webcache balance comparison (Fig 17, Table 3)."""
    from repro.analysis.balance import run_webcache_balance
    from repro.experiments.workload_cache import web_trace

    trace = web_trace(days=params["days"], seed=params["seed"])
    return run_webcache_balance(
        trace, params["system"], n_nodes=params["n_nodes"], seed=params["seed"]
    )


@cell_kind("scale")
def scale_cell(params: Dict[str, Any]) -> Any:
    """One cell of the million-user scale matrix (``python -m repro scale``).

    ``params["cell"]`` selects the shape: ``"routing"`` (bare ring,
    batched vs cold lookup throughput) or ``"read"`` (full deployment,
    cloned read stream through the batched read path).  These cells time
    themselves, so the driver runs them with the disk cache disabled —
    a cached wall-clock number would be a lie.
    """
    from repro.analysis.scale import run_scale_read, run_scale_routing

    if params["cell"] == "routing":
        return run_scale_routing(
            n_nodes=params["n_nodes"],
            ops=params["ops"],
            batch=params["batch"],
            cold_ops=params["cold_ops"],
            seed=params["seed"],
        )
    from repro.core.system import build_deployment
    from repro.workloads.scale import copies_for_size

    trace = scaled_harvard_trace(
        users=params["base_users"],
        days=params["days"],
        seed=params["seed"],
        base_size=params["base_size"],
        n_nodes=params["n_nodes"],
        scale_with_size=True,
    )
    import contextlib
    import os

    from repro.obs.stream import JsonlWriter

    deployment = build_deployment(
        params["system"], params["n_nodes"], seed=params["seed"]
    )
    deployment.load_initial_image(trace)
    # Sim-time health series at the replay cadence (one window per sim
    # second); node-level series are off — 10^3+ per-node series would
    # swamp the export without changing the cluster-level story.
    deployment.enable_health_monitoring(window=1.0, node_level=False)
    export_dir = os.environ.get("REPRO_SCALE_EXPORT_DIR", "").strip()
    with contextlib.ExitStack() as stack:
        span_writer = metrics_writer = health_writer = None
        if export_dir:
            stem = f"scale_read_{params['n_nodes']}x{params['users']}"
            span_writer = stack.enter_context(
                JsonlWriter(os.path.join(export_dir, f"{stem}_spans.jsonl"))
            )
            metrics_writer = stack.enter_context(
                JsonlWriter(os.path.join(export_dir, f"{stem}_metrics.jsonl"))
            )
            health_writer = stack.enter_context(
                JsonlWriter(os.path.join(export_dir, f"{stem}_health.jsonl"))
            )
        return run_scale_read(
            deployment,
            trace,
            copies=copies_for_size(params["base_size"], params["n_nodes"]),
            users=params["users"],
            ops_per_user=params["ops_per_user"],
            window=params["window"],
            seed=params["seed"],
            span_writer=span_writer,
            metrics_writer=metrics_writer,
            health_writer=health_writer,
        )


@cell_kind("accel")
def accel_cell(params: Dict[str, Any]) -> Any:
    """One (acceleration mode × shift scenario) cell of the accel matrix.

    Self-timing like the scale cells — the driver disables the disk
    cache — but the deterministic fingerprint in each result row is still
    byte-identical between serial and parallel runs.
    """
    from repro.analysis.accel import run_accel_cell

    return run_accel_cell(params)


@cell_kind("churn")
def churn_cell(params: Dict[str, Any]) -> Any:
    """One (storm level, correlated, trial) cell of the churn-storm matrix."""
    from repro.experiments.churn_storm import run_churn_cell

    return run_churn_cell(params)


@cell_kind("availability")
def availability_cell(params: Dict[str, Any]) -> Dict[float, Any]:
    """One (system, trial) availability replay, evaluated at every *inter*.

    The expensive replay runs once; the task-gap sweep reuses its log, so
    the cell returns ``{inter: AvailabilityResult}`` — mirroring the serial
    loop's structure and keeping one replay per cache entry.
    """
    import random

    from repro.analysis.availability import (
        evaluate_tasks,
        matching_failure_trace,
        run_availability_replay,
    )
    from repro.experiments.availability import harsh_failure_config
    from repro.experiments.workload_cache import harvard_trace

    trace = harvard_trace(
        users=params["users"], days=params["days"], seed=params["seed"]
    )
    failures = matching_failure_trace(
        params["n_nodes"],
        random.Random(params["seed"] + 100 * params["trial"]),
        harsh_failure_config(params["days"]),
    )
    log = run_availability_replay(
        trace,
        failures,
        params["system"],
        trial=params["trial"],
        regeneration_delay=params["regeneration_delay"],
    )
    return {
        inter: evaluate_tasks(trace, log, inter) for inter in params["inters"]
    }
