"""Layer seams: time the program's layers from outside, for the traced pass.

One table (:data:`SEAMS`) maps each layer to the public callables through
which the rest of the program enters it.  :func:`install` wraps every one of
them with a stack-based recorder, so that a layer's *self time* is the time
spent inside its seams minus the part covered by seams called from there —
the usual span arithmetic, kept as a running partition of the timeline so
that the layer times add up to the wall time by construction.  Simulator
callbacks are attributed to the layer of the module that defined them, by
wrapping the callables handed to ``Simulator.schedule*``; whatever runs
outside every seam is the ``harness`` (``analysis.*`` / ``core.system`` glue).

The same wrappers are the oracles and the boundary counters: every routed
or accelerated lookup answer is compared with ``Ring.successor(key)`` the
moment it is returned, and work counts (block ops, fetch keys, hops, export
rows) are taken where the work crosses the seam.

Nothing here runs inside the timed part of the untraced rounds that
produce the end-to-end metrics.  Those rounds use :func:`check_seams`
(before anything is timed apart from set-up, where it costs well under a
millisecond) and :class:`Patcher`, which also places the worker's two
untimed hooks (deployment capture and the first-op marker).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

HARNESS = "harness"
CHECK = "check"

#: Recorder phases: a cell's setup, its replay, and everything outside cells.
SETUP, REPLAY, OUTSIDE = 0, 1, 2

#: Module prefix -> layer, first match wins.  Used for simulator callbacks.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads", "workloads"),
    ("repro.fs", "fs"),
    ("repro.dht.routing", "dht.routing"),
    ("repro.dht.fingers", "dht.routing"),
    ("repro.core.lookup_cache", "core.lookup_cache"),
    ("repro.core.accel", "core.accel"),
    ("repro.dht.learned", "dht.learned"),
    ("repro.dht.membership", "dht.membership"),
    ("repro.dht.load_balance", "dht.load_balance"),
    ("repro.store.repair", "store.repair"),
    ("repro.store", "store.migration"),
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.net"),
    ("repro.sim.transport", "sim.net"),
    ("repro.obs.spans", "obs.spans"),
    ("repro.obs.events", "obs.events"),
    ("repro.obs.health", "obs.health"),
    ("repro.obs.timeseries", "obs.health"),
    ("repro.obs", "obs.export"),
)

#: Every layer that gets a ``<layer>.self_s`` metric, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS))
OBS_LAYERS: Tuple[str, ...] = tuple(l for l in LAYERS if l.startswith("obs."))


class SeamError(RuntimeError):
    """A seam named in the table does not resolve to a plain function."""


@functools.lru_cache(maxsize=None)  # asked once per scheduled callback
def layer_of_module(module: Optional[str]) -> str:
    name = module or ""
    for prefix, layer in MODULE_LAYERS:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return HARNESS


# ----------------------------------------------------------------------
# boundary counters and oracles: ``after(counters, args, kwargs, result)``

After = Callable[[Dict[str, int], tuple, dict, Any], None]


def _trace_records(c, args, kwargs, trace) -> None:
    c["workloads.records"] += len(trace.records)


def _block_ops(c, args, kwargs, result) -> None:
    ops = args[1] if len(args) > 1 else kwargs["ops"]
    c["fs.block_ops"] += len(ops)


def _fetch_keys(c, args, kwargs, fetches) -> None:
    c["fs.fetch_keys"] += len(fetches)


def _fetch_keys_many(c, args, kwargs, fetch_lists) -> None:
    c["fs.fetch_keys"] += sum(map(len, fetch_lists))


def _tally_routes(c, ring, results) -> None:
    successor = ring.successor
    hops = wrong = 0
    for result in results:
        hops += len(result.path) - 1
        if result.owner != successor(result.key):
            wrong += 1
    c["dht.routing.lookups"] += len(results)
    c["dht.routing.hops"] += hops
    c["check.oracle_checks"] += len(results)
    c["check.oracle_mismatches"] += wrong


def _check_route(c, args, kwargs, result) -> None:
    _tally_routes(c, args[0] if args else kwargs["ring"], (result,))


def _check_route_many(c, args, kwargs, results) -> None:
    _tally_routes(c, args[0] if args else kwargs["ring"], results)


def _check_accel(c, args, kwargs, outcome) -> None:
    c[f"core.accel.{outcome.tier}_tier"] += 1
    c["check.oracle_checks"] += 1
    if outcome.owner != args[0].ring.successor(outcome.key):
        c["check.oracle_mismatches"] += 1


def _export_rows(c, args, kwargs, rows) -> None:
    c["obs.export.rows"] += len(rows)


def _drained_spans(c, args, kwargs, rows) -> None:
    # Drained spans left the buffer by export, not by rotation.
    c["obs.export.rows"] += len(rows)
    c["obs.spans.drained"] += len(rows)


class Seam(NamedTuple):
    layer: str
    module: str
    qualname: str
    after: Optional[After] = None
    #: "call" (plain function/method), "gen" (generator function: each
    #: ``next`` is one span) or "schedule" (wraps the callbacks it is given).
    kind: str = "call"

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def _seams(layer: str, module: str, *qualnames: str, kind: str = "call") -> List[Seam]:
    return [Seam(layer, module, qualname, None, kind) for qualname in qualnames]


SEAMS: Tuple[Seam, ...] = (
    Seam("workloads", "repro.workloads.harvard", "generate_harvard", _trace_records),
    *_seams("workloads", "repro.workloads.scale", "replicate_filesystem"),
    *_seams("workloads", "repro.workloads.scale", "scaled_read_stream", kind="gen"),
    *_seams("workloads", "repro.workloads.shift", "shift_stream", kind="gen"),
    *_seams("workloads", "repro.workloads.tasks", "segment_access_groups"),
    *_seams(
        "fs", "repro.fs.fslayer",
        "DhtFileSystem.format", "DhtFileSystem.mkdir", "DhtFileSystem.makedirs",
        "DhtFileSystem.create", "DhtFileSystem.write", "DhtFileSystem.remove",
        "DhtFileSystem.rename",
    ),
    Seam("fs", "repro.fs.fslayer", "apply_ops", _block_ops),
    *_seams("fs", "repro.fs.namespace", "Namespace.resolve_file"),
    Seam("fs", "repro.core.system", "Deployment.read_fetches", _fetch_keys),
    Seam("fs", "repro.core.system", "Deployment.read_fetches_many", _fetch_keys_many),
    Seam("dht.routing", "repro.dht.routing", "route", _check_route),
    Seam("dht.routing", "repro.dht.routing", "route_many", _check_route_many),
    *_seams("dht.routing", "repro.dht.routing", "finger_table_for"),
    *_seams(
        "core.lookup_cache", "repro.core.lookup_cache",
        "LookupCache.probe", "LookupCache.insert", "AdaptiveSizer.record",
    ),
    Seam("core.accel", "repro.core.accel", "LookupAccelerator.lookup", _check_accel),
    *_seams("dht.learned", "repro.dht.learned", "LearnedIndex.lookup"),
    *_seams(
        "dht.membership", "repro.dht.membership",
        "MembershipService.join", "MembershipService.leave",
        "MembershipService.crash", "MembershipService.schedule_failure_trace",
        "MembershipService.schedule_churn_storm",
    ),
    *_seams(
        "dht.load_balance", "repro.dht.load_balance",
        "KargerRuhlBalancer.probe_round", "KargerRuhlBalancer.balance_until_stable",
        "normalized_std_dev", "max_over_mean",
    ),
    *_seams(
        "store.repair", "repro.store.repair",
        "RepairScheduler.on_node_crashed", "RepairScheduler.on_node_left",
        "RepairScheduler.on_node_joined", "RepairScheduler.reconcile_range",
        "RepairScheduler.reconcile", "RepairScheduler.backlog",
        "RepairScheduler.seed_from_directory", "RepairScheduler.attach_timeseries",
    ),
    *_seams(
        "store.migration", "repro.store.migration",
        "StorageCoordinator.write", "StorageCoordinator.remove",
        "StorageCoordinator.execute_move", "StorageCoordinator.flush_all_pointers",
        "StorageCoordinator.hand_off", "StorageCoordinator.drop_pointer_records_of",
        "StorageCoordinator.reassign_physical", "StorageCoordinator.primary_load",
        "StorageCoordinator.primary_keys", "StorageCoordinator.total_loads",
        "StorageCoordinator.total_bytes_per_node",
    ),
    *_seams("sim.engine", "repro.sim.engine", "Simulator.run"),
    *_seams(
        "sim.engine", "repro.sim.engine",
        "Simulator.schedule", "Simulator.schedule_batch",
        "Simulator.schedule_periodic", kind="schedule",
    ),
    *_seams(
        "sim.net", "repro.sim.network",
        "LatencyModel.rtt", "LatencyModel.one_way", "LatencyModel.path_latency",
    ),
    *_seams("sim.net", "repro.sim.transport", "TcpTransport.transfer"),
    *_seams(
        "obs.spans", "repro.obs.spans",
        "Tracer.start_trace", "Tracer.start_span", "Tracer.finish",
    ),
    *_seams("obs.events", "repro.obs.events", "EventTracer.emit"),
    *_seams(
        "obs.health", "repro.obs.health",
        "HealthMonitor.start", "HealthMonitor.sample",
    ),
    *_seams(
        "obs.health", "repro.obs.timeseries",
        "TimeSeriesBank.sample", "TimeSeries.sample",
    ),
    *_seams("obs.export", "repro.core.system", "Deployment.observability_snapshot"),
    Seam("obs.export", "repro.obs.spans", "Tracer.to_dicts", _export_rows),
    Seam("obs.export", "repro.obs.spans", "Tracer.drain", _drained_spans),
    *_seams("obs.export", "repro.obs.stream", "stream_spans"),
    Seam("obs.export", "repro.obs.health", "HealthMonitor.drain", _export_rows),
    *_seams("obs.export", "repro.obs.health", "HealthMonitor.finish"),
)


# ----------------------------------------------------------------------
# resolving and patching


def resolve(module_name: str, qualname: str) -> Tuple[Any, str, Callable[..., Any]]:
    """``(owner, attribute, function)`` for one seam, or :class:`SeamError`."""
    try:
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise SeamError(f"seam {module_name}:{qualname} does not resolve: {exc}") from exc
    if not inspect.isfunction(original):
        raise SeamError(
            f"seam {module_name}:{qualname} is a {type(original).__name__}, "
            "not a plain function"
        )
    return owner, attr, original


def check_seams() -> None:
    """Resolve every seam; raises naming the first that is missing.

    Each worker calls this before it runs anything, so the first round of a
    run finds a renamed symbol.
    """
    for seam in SEAMS:
        resolve(seam.module, seam.qualname)


class Patcher:
    """Replace callables on modules and classes, undoably.

    Module-level functions are also rebound in every loaded ``repro.*``
    module whose globals hold the original (``analysis.performance`` does
    ``from repro.dht.routing import route``); modules imported later pick
    the replacement up from the defining module.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self._moved: Dict[int, Tuple[Any, Any]] = {}

    def replace(self, module_name: str, qualname: str,
                factory: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        owner, attr, original = resolve(module_name, qualname)
        replacement = factory(original)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))
        if inspect.ismodule(owner):
            self._moved[id(original)] = (original, replacement)

    def rebind_loaded(self) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                moved = self._moved.get(id(value))
                if moved is not None and moved[0] is value:
                    setattr(module, attr, moved[1])
                    self._undo.append((module, attr, value))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._moved.clear()


# ----------------------------------------------------------------------
# the recorder


class Recorder:
    """Running partition of host time over layers, plus optional spans.

    ``self_s[phase][layer]`` is exclusive time: entering a seam charges the
    time since the last boundary to the layer that was running and switches
    to the seam's layer; leaving switches back.  With *keep_spans* every
    seam call is also kept as ``[layer, name, start, end, parent]`` for the
    JSONL export.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.self_s: Tuple[Dict[str, float], ...] = tuple(
            defaultdict(float) for _ in (SETUP, REPLAY, OUTSIDE)
        )
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.spans: Optional[List[list]] = [] if keep_spans else None
        self._acc = self.self_s[OUTSIDE]
        self._layer = HARNESS
        self._open = -1
        self._stack: List[Tuple[str, int]] = []
        self._last = perf_counter()

    def enter(self, layer: str, name: str) -> None:
        now = perf_counter()
        self._acc[self._layer] += now - self._last
        self._stack.append((self._layer, self._open))
        self._layer = layer
        self.calls[name] += 1
        spans = self.spans
        if spans is not None:
            spans.append([layer, name, now, None, self._open])
            self._open = len(spans) - 1
        self._last = now

    def leave(self) -> None:
        now = perf_counter()
        self._acc[self._layer] += now - self._last
        if self.spans is not None:
            self.spans[self._open][3] = now
        self._layer, self._open = self._stack.pop()
        self._last = now

    def phase(self, phase: int) -> None:
        """Switch the phase that self time is charged to from now on."""
        now = perf_counter()
        self._acc[self._layer] += now - self._last
        self._last = now
        self._acc = self.self_s[phase]

    def attribute(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap a simulator callback so it runs in its defining module's layer."""
        module = getattr(callback, "__module__", None)
        if module is None:  # functools.partial
            module = getattr(getattr(callback, "func", None), "__module__", None)
        layer = layer_of_module(module)
        name = f"callback:{layer}"
        enter, leave = self.enter, self.leave

        def fire() -> Any:
            enter(layer, name)
            try:
                return callback()
            finally:
                leave()

        return fire

    def write_jsonl(self, path: str, round_id: str) -> int:
        """Write kept spans, one JSON object a line; returns the row count."""
        spans = self.spans or []
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, name, start, end, parent) in enumerate(spans):
                handle.write(json.dumps({
                    "round": round_id, "id": index,
                    "parent": parent if parent >= 0 else None,
                    "layer": layer, "name": name, "start": start, "end": end,
                }))
                handle.write("\n")
        return len(spans)


def _call_wrapper(rec: Recorder, seam: Seam, fn: Callable[..., Any]) -> Callable[..., Any]:
    enter, leave, counters = rec.enter, rec.leave, rec.counters
    layer, name, after = seam.layer, seam.name, seam.after
    check = f"check:{name}"  # its own span name: seam call counts stay exact
    if after is None:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    else:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            enter(CHECK, check)
            try:
                after(counters, args, kwargs, result)
            finally:
                leave()
            return result
    return functools.wraps(fn)(wrapper)


def _gen_wrapper(rec: Recorder, seam: Seam, fn: Callable[..., Any]) -> Callable[..., Any]:
    enter, leave, counters = rec.enter, rec.leave, rec.counters
    layer, name = seam.layer, seam.name

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        iterator = fn(*args, **kwargs)
        while True:
            enter(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                leave()
            counters["workloads.records"] += 1
            yield item

    return functools.wraps(fn)(wrapper)


def _schedule_wrapper(rec: Recorder, seam: Seam, fn: Callable[..., Any]) -> Callable[..., Any]:
    enter, leave, attribute = rec.enter, rec.leave, rec.attribute
    layer, name = seam.layer, seam.name
    if seam.qualname.endswith("schedule_batch"):
        def wrapper(self: Any, events: Any) -> Any:
            enter(layer, name)
            try:
                return fn(self, [(delay, attribute(cb)) for delay, cb in events])
            finally:
                leave()
    else:
        # schedule(delay, callback) and schedule_periodic(interval, callback, **kw)
        def wrapper(self: Any, delay: float, callback: Any, **kwargs: Any) -> Any:
            enter(layer, name)
            try:
                return fn(self, delay, attribute(callback), **kwargs)
            finally:
                leave()
    return functools.wraps(fn)(wrapper)


_WRAPPERS = {"call": _call_wrapper, "gen": _gen_wrapper, "schedule": _schedule_wrapper}


def install(patcher: Patcher, recorder: Recorder) -> None:
    """Wrap every seam.

    The caller finishes with ``patcher.rebind_loaded()`` once all its
    replacements are placed.
    """
    for seam in SEAMS:
        patcher.replace(
            seam.module, seam.qualname,
            functools.partial(_WRAPPERS[seam.kind], recorder, seam),
        )
