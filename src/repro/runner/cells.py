"""Top-level grid-cell functions, importable by worker processes.

Each *cell kind* maps a plain-dict parameter bundle to one picklable
result.  There are four, named by what they build: ``harvard`` (a Harvard
replay; its ``measure`` names what is measured), ``webcache-balance``,
``scale`` and ``accel``.  A cell body hands its bundle, as keyword
arguments, to the experiment function that owns it, so the bundle *is*
that function's signature and nothing unpacks it by hand.  The functions
live at module top level (and take only picklable arguments) so
:class:`concurrent.futures.ProcessPoolExecutor` can ship them to workers
under any start method.  This module is the only place the runner names
experiment code, and it does so inside the function bodies:
:mod:`repro.experiments` imports :mod:`repro.runner` at top level, never
the other way round, and importing the runner does not pull in the
simulator.

Determinism contract: a cell derives *everything* — trace, deployment,
RNG streams — from its own parameter bundle, so running it in a worker
process produces bit-identical results to running it inline.  That is
what lets the runner mix process-memo hits, serial execution, and
parallel workers freely without changing any emitted row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

#: kind name -> cell function; populated by the :func:`cell_kind` decorator.
CELL_KINDS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def cell_kind(name: str) -> Callable[[Callable[[Dict[str, Any]], Any]], Callable[[Dict[str, Any]], Any]]:
    """Register a cell function under *name* (the memo-key namespace)."""

    def register(fn: Callable[[Dict[str, Any]], Any]) -> Callable[[Dict[str, Any]], Any]:
        CELL_KINDS[name] = fn
        return fn

    return register


def execute_cell(kind: str, params: Mapping[str, Any]) -> Any:
    """Run one cell in this process — the worker entry point."""
    try:
        fn = CELL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {kind!r}; expected one of {sorted(CELL_KINDS)}"
        ) from None
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


@cell_kind("harvard")
def harvard_cell(params: Dict[str, Any]) -> Any:
    """One Harvard replay (Section 9.1) and the quantity it measures."""
    return measure_harvard(**params)


def measure_harvard(measure: str, **params: Any) -> Any:
    """Run a ``harvard`` bundle: *measure* names the experiment's cell
    function (each builds through :mod:`repro.analysis.harness`), the
    rest of the bundle is its keywords.  Each imports only its own
    experiment module, so a worker loads what its cell needs."""
    if measure == "performance":
        from repro.experiments.performance import performance_cell
        return performance_cell(**params)
    if measure == "harvard-balance":
        from repro.experiments.balance import harvard_balance_cell
        return harvard_balance_cell(**params)
    if measure == "availability":
        from repro.experiments.availability import availability_cell
        return availability_cell(**params)
    if measure == "churn":
        from repro.experiments.churn_storm import churn_cell
        return churn_cell(**params)
    if measure == "dynamic-churn":
        from repro.experiments.balance import dynamic_churn_cell
        return dynamic_churn_cell(**params)
    raise ValueError(f"unknown Harvard measurement {measure!r}")


def report_name(kind: str, params: Mapping[str, Any]) -> str:
    """The runner report (``<name>.json``) of a grid of *kind* cells
    like *params*: ``runner_<measure>`` for a ``harvard`` grid, else
    ``runner_<kind>`` — the file names CI and the docs read."""
    name = params["measure"] if kind == "harvard" else kind
    return "runner_" + name.replace("-", "_")


def churn_cell(params: Dict[str, Any]) -> Any:
    """One (storm level, correlated, trial) cell of the churn-storm matrix."""
    return measure_harvard("churn", **params)


@cell_kind("webcache-balance")
def webcache_balance_cell(params: Dict[str, Any]) -> Any:
    """One system of the webcache balance comparison (Fig 17, Table 3)."""
    from repro.experiments.balance import webcache_balance_cell

    return webcache_balance_cell(**params)


@cell_kind("scale")
def scale_cell(params: Dict[str, Any]) -> Any:
    """One cell of the million-user scale matrix (``python -m repro scale``).

    These cells time themselves, so they always run fresh, never from
    the process memo — a memoised wall-clock number would be a lie.
    """
    from repro.experiments.scale_matrix import scale_cell

    return scale_cell(**params)


@cell_kind("accel")
def accel_cell(params: Dict[str, Any]) -> Any:
    """One (acceleration mode × shift scenario) cell of the accel matrix.

    Self-timing like the scale cells — the driver bypasses the process
    memo — but the deterministic fingerprint in each result row is still
    byte-identical between serial and parallel runs.
    """
    from repro.analysis.accel import run_accel_cell

    return run_accel_cell(**params)
