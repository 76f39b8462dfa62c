"""Causal span tracing: Tracer lifecycle, trace CLI, end-to-end wiring."""

import json
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.performance import PerformanceHarness
from repro.core.system import build_deployment
from repro.obs.events import EventTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    DEFAULT_SAMPLE,
    SAMPLE_ENV,
    SampleRateError,
    SpanError,
    Tracer,
    sample_rate_from_env,
    validate_span_dict,
)
from repro.obs.tracecli import (
    SpanRec,
    attribution,
    build_forest,
    complete_critical_paths,
    critical_chain,
    critical_path,
    critical_segments,
    main as trace_main,
    phase_of,
    render_flamegraph,
)
from repro.obs.stream import JsonlWriter
from repro.sim.network import LatencyModel
from tests.oracles import EmittingTracer, span_counts


_ATTRS = st.dictionaries(st.sampled_from("abc"), st.integers(0, 9), max_size=2)
_OPEN = st.tuples(st.sampled_from(("op", "hop")), st.integers(0, 9).map(float), _ATTRS,
                  st.integers(0, 40))
TRACER_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("start_trace", "instant", "span"))).flatmap(
        lambda kind: _OPEN.map(lambda args: kind + args)),
    st.tuples(st.just("finish"), st.integers(0, 40), st.integers(0, 9).map(float)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("emit"), st.integers(1, 3)),
), max_size=60)


def export(tracer, path):
    """Write *tracer*'s buffered spans to *path* as JSONL; returns the path."""
    with JsonlWriter(str(path)) as writer:
        for payload in tracer.to_dicts():
            writer.write(payload)
    return str(path)


def root_span(start, **attrs):
    """A tracer and the root span it just opened at *start*."""
    tracer = Tracer(sample=1.0)
    return tracer, tracer.start_trace("op", start, **attrs)


def exported_span(start, end, **attrs):
    """The export of one root span closed at *end*."""
    tracer, span = root_span(start, **attrs)
    tracer.finish(span, end)
    return tracer.to_dicts()[0]


class TestSpanLifecycle:
    def test_finish_and_duration(self):
        tracer, span = root_span(10.0)
        assert span.end is None
        tracer.finish(span, 12.5)
        assert span.end - span.start == 2.5

    def test_double_finish_rejected(self):
        tracer, span = root_span(0.0)
        tracer.finish(span, 1.0)
        with pytest.raises(SpanError):
            tracer.finish(span, 2.0)
        assert tracer.finished == 1

    def test_end_before_start_rejected(self):
        tracer, span = root_span(5.0)
        with pytest.raises(SpanError):
            tracer.finish(span, 4.0)

    def test_annotate_merges_attrs(self):
        _, span = root_span(0.0, a=1)
        span.annotate(b=2).annotate(a=3)
        assert span.attrs == {"a": 3, "b": 2}

    def test_to_dict_shape_is_schema_valid(self):
        assert validate_span_dict(exported_span(0.0, 1.0, node="n1")) == []


class TestTracer:
    def test_parent_child_share_trace_id(self):
        tracer = Tracer(sample=1.0)
        root = tracer.start_trace("fetch", 0.0)
        tracer.start_span("lookup", 0.0, root)
        root, child = tracer.to_dicts()
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]

    def test_sampling_zero_yields_null_spans(self):
        # An unsampled span is None, and so is every child of one; the
        # root is counted all the same.
        tracer = Tracer(sample=0.0)
        root = tracer.start_trace("fetch", 0.0)
        assert root is None
        assert tracer.start_span("lookup", 0.0, root) is None
        assert tracer.finish(root, 1.0) is None
        assert (tracer.roots_started, tracer.roots_finished, tracer.started) == (1, 1, 0)
        assert len(tracer) == 0

    def test_sampling_one_keeps_everything(self):
        tracer = Tracer(sample=1.0)
        for i in range(20):
            tracer.finish(tracer.start_trace("op", float(i)), float(i))
        assert tracer.started == tracer.roots_started == 20
        assert span_counts(tracer) == {"op": 20}

    def test_instant_records_what_start_then_finish_records(self):
        def run(instant):
            tracer = Tracer(capacity=3, sample=0.5)
            events = EventTracer(MetricsRegistry(), tracer)
            for i in range(12):
                if instant:
                    tracer.instant("copy", float(i), key=i)
                else:
                    tracer.finish(tracer.start_trace("copy", float(i), key=i), float(i))
            return (tracer.started, tracer.finished, tracer.roots_started, span_counts(tracer),
                    tracer.to_dicts(), events.counts())

        assert run(True) == run(False)
        assert run(True)[0] == 6 < run(True)[2] == 12  # half were sampled out

    @settings(max_examples=120, deadline=None)
    @given(ops=TRACER_OPS, sample=st.sampled_from((0.0, 0.3, 0.5, DEFAULT_SAMPLE, 1.0)),
           capacity=st.sampled_from((3, 64)))
    def test_matches_the_emitting_tracer(self, ops, sample, capacity):
        # The one-frame tracer against the one it replaced (tests/oracles.py),
        # which counts its root spans' finishes in code of its own: the same
        # calls give the same answers, errors, counts, event counts and exports.
        sides = []
        for cls in (Tracer, EmittingTracer):
            tracer = cls(capacity, sample=sample)
            sides.append((tracer, EventTracer(MetricsRegistry(), tracer), []))

        def apply(tracer, events, opened, op):
            kind, *args = op
            if kind == "drain":
                return tracer.drain()
            if kind == "emit":
                return events.emit("node.join", args[0])
            if kind == "finish":
                if not opened:
                    return None
                try:
                    return bool(tracer.finish(opened[args[0] % len(opened)], args[1]))
                except SpanError as error:
                    return str(error)
            name, at, attrs, parent = args
            if kind == "span":
                span = tracer.start_span(name, at, opened[parent % len(opened)] if opened
                                         else None, **attrs)
            else:
                span = getattr(tracer, kind)(name, at, **attrs)
            opened.append(span)
            return span is None

        for op in ops:
            got, expected = (apply(*side, op) for side in sides)
            assert got == expected, op
            (tracer, events, _), (oracle, oracle_events, _) = sides
            assert events.counts() == oracle_events.counts()
            assert events.emitted == oracle_events.emitted == sum(events.counts().values())
            assert span_counts(tracer) == span_counts(oracle)
            assert (tracer.started, tracer.finished, tracer.roots_started,
                    tracer.roots_finished) == (oracle.started, oracle.finished,
                                               oracle.roots_started, oracle.roots_finished)
            assert tracer.to_dicts() == oracle.to_dicts()

    def test_sampling_is_deterministic_across_runs(self):
        # The head sample is the root's ordinal alone: the first root, then
        # one in 1/rate, the same ones on every run, whichever way the
        # roots are made.
        def kept(rate, roots=200):
            tracer = Tracer(sample=rate)
            picks = []
            for n in range(1, roots + 1):
                make = tracer.instant if n % 3 else tracer.start_trace
                if make("op", float(n)) is not None:
                    picks.append(n)
            return picks

        assert kept(DEFAULT_SAMPLE) == list(range(1, 201, 16)) == kept(DEFAULT_SAMPLE)
        assert kept(0.5) == list(range(1, 201, 2))
        assert kept(0.0) == [] and kept(1.0) == list(range(1, 201))
        for rate in (0.1, 0.3, 1 / 3, 0.7, 0.999):
            assert kept(rate, 1000) == [
                n for n in range(1, 1001) if math.ceil(n * rate) > math.ceil((n - 1) * rate)
            ], rate

    def test_bounded_retention_keeps_exact_counts(self):
        tracer = Tracer(capacity=4, sample=0.5)
        events = EventTracer(MetricsRegistry(), tracer)
        for i in range(20):
            tracer.finish(tracer.start_trace("op", float(i)), float(i))
        assert len(tracer) == 4 and span_counts(tracer) == {"op": 4}
        assert tracer.started - len(tracer) == 6  # rotated out unexported
        assert events.counts() == {"span.finish": 20, "span.start": 20}  # exact

    def test_env_sample_rate_parsing(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "0.25")
        assert sample_rate_from_env() == 0.25
        monkeypatch.setenv(SAMPLE_ENV, "7")  # clamped
        assert sample_rate_from_env() == 1.0
        monkeypatch.setenv(SAMPLE_ENV, "-3")  # clamped
        assert sample_rate_from_env() == 0.0
        for bad in ("junk", "nan", "NaN"):  # no number: refused, not read as 1 or 0
            monkeypatch.setenv(SAMPLE_ENV, bad)
            with pytest.raises(SampleRateError, match=repr(bad)):
                sample_rate_from_env()
            with pytest.raises(SampleRateError, match=SAMPLE_ENV):
                Tracer()
        monkeypatch.delenv(SAMPLE_ENV)
        assert sample_rate_from_env() == DEFAULT_SAMPLE == 1 / 16

    def test_sample_argument_must_be_a_number(self):
        for bad in (math.nan, "junk", object()):
            with pytest.raises(SampleRateError, match="Tracer"):
                Tracer(sample=bad)
        assert Tracer(sample=-1).sample == 0.0 and Tracer(sample=math.inf).sample == 1.0

    def test_env_zero_keeps_no_span_but_counts_roots(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "0")
        tracer = Tracer()
        assert tracer.start_trace("fetch", 0.0) is None and tracer.roots_started == 1

    def test_drained_spans_are_not_dropped(self):
        tracer = Tracer(sample=1.0)
        for i in range(3):
            tracer.finish(tracer.start_trace("op", float(i)), float(i))
        assert len(tracer.drain()) == 3 == tracer.started
        assert len(tracer) == 0  # exported, not lost
        # Rotation still counts: ten spans through a 4-deep buffer,
        # drained twice on the way.
        tracer = Tracer(capacity=4, sample=1.0)
        exported = 0
        for i in range(10):
            tracer.finish(tracer.start_trace("op", float(i)), float(i))
            if i in (1, 9):
                exported += len(tracer.drain())
        assert exported == 2 + 4
        assert tracer.started == 10 and len(tracer) == 0  # 4 rotated out unexported

    def test_children_of_null_span_stay_null_and_hold_no_reference(self):
        tracer = Tracer(sample=1.0)
        child = tracer.start_span("lookup", 0.0, None)
        assert child is None
        assert tracer.start_span("hop", 0.0, child) is None
        assert len(tracer) == 0 and tracer.started == 0
        # A live span holds ids only, no reference to its parent object.
        assert not any(name.startswith("_") for name in type(root_span(0.0)[1]).__slots__)

    def test_start_and_finish_never_walk_the_buffer(self):
        # Bookkeeping is O(1): ids and counts, not a buffer search.  A buffer
        # that refuses iteration makes a reintroduced scan fail loudly.
        class NoScanDeque(deque):
            def __iter__(self):
                raise AssertionError("span bookkeeping iterated the buffer")

            def __reversed__(self):
                raise AssertionError("span bookkeeping scanned the buffer")

        tracer = Tracer(capacity=8, sample=1.0)
        tracer._buffer = NoScanDeque(maxlen=8)
        for i in range(20):  # roots, rotating the buffer
            tracer.finish(tracer.start_trace("repair.copy", float(i)), float(i))
        root = tracer.start_trace("fetch", 20.0)
        lookup = tracer.start_span("lookup", 20.0, root)
        tracer.finish(tracer.start_span("dht.hop", 20.0, lookup), 21.0)
        tracer.finish(lookup, 21.0)
        tracer.finish(tracer.start_span("transfer", 21.0, root), 23.0)
        tracer.finish(root, 23.0)
        assert tracer.started == tracer.finished == 24 and len(tracer) == 8

    def test_root_boundaries_mirrored_to_event_tracer(self):
        tracer = Tracer(sample=1.0)
        events = EventTracer(MetricsRegistry(), tracer)
        root = tracer.start_trace("fetch", 0.0)
        child = tracer.start_span("lookup", 0.0, root)
        tracer.finish(child, 1.0)
        tracer.finish(root, 1.0)
        counts = events.counts()
        assert counts.get("span.start") == 1  # roots only
        assert counts.get("span.finish") == 1

    def test_jsonl_export_round_trip(self, tmp_path):
        tracer = Tracer(sample=1.0)
        root = tracer.start_trace("fetch", 0.0, user="u1")
        tracer.finish(tracer.start_span("lookup", 0.0, root), 0.2)
        tracer.finish(root, 0.2)
        path = export(tracer, tmp_path / "t.jsonl")
        lines = [json.loads(l) for l in open(path, encoding="utf-8")]
        assert len(lines) == 2
        assert all(validate_span_dict(p) == [] for p in lines)

    def test_zero_rate_tracer_keeps_nothing_and_stays_truthy(self):
        # Truthy at every rate (it still counts), though its buffer is empty.
        tracer = Tracer(sample=0.0)
        assert tracer and len(tracer) == 0
        assert tracer.instant("copy", 0.0) is None
        assert tracer.to_dicts() == [] and tracer.drain() == []
        assert (tracer.roots_started, tracer.roots_finished) == (1, 1)


class TestTraceCli:
    def _make_trace(self):
        """fetch root tiled by lookup [0, .2] + transfer [.2, .5]."""
        tracer = Tracer(sample=1.0)
        root = tracer.start_trace("fetch", 0.0)
        tracer.finish(tracer.start_span("lookup", 0.0, root), 0.2)
        transfer = tracer.start_span("transfer", 0.2, root)
        tracer.finish(tracer.start_span("tcp.transfer", 0.25, transfer), 0.5)
        tracer.finish(transfer, 0.5)
        tracer.finish(root, 0.5)
        return tracer

    def _forest(self, tracer):
        return build_forest([SpanRec.from_dict(p) for p in tracer.to_dicts()])

    def test_tree_reconstruction(self):
        forest = self._forest(self._make_trace())
        assert len(forest.roots) == 1 and not forest.orphans
        root = forest.roots[0]
        assert [c.name for c in root.children] == ["lookup", "transfer"]

    def test_critical_path_and_segments(self):
        root = self._forest(self._make_trace()).roots[0]
        assert [s.name for s in critical_path(root)] == [
            "fetch", "lookup", "transfer", "tcp.transfer",
        ]
        covered = sum(hi - lo for _, lo, hi in critical_segments(root))
        assert covered == pytest.approx(root.duration)

    def test_root_duration_equals_sum_of_critical_children(self):
        root = self._forest(self._make_trace()).roots[0]
        chain = critical_chain(root)
        assert sum(c.duration for c in chain) == pytest.approx(root.duration)

    def test_attribution_buckets(self):
        forest = self._forest(self._make_trace())
        totals = attribution(forest.roots)
        assert totals["cache"] == pytest.approx(0.2)
        # transfer's own [0.2, 0.25] gap plus tcp.transfer [0.25, 0.5]
        assert totals["transfer"] == pytest.approx(0.3)
        assert totals["route"] == totals["queue"] == totals["other"] == 0.0

    def test_phase_mapping(self):
        assert phase_of("dht.hop") == "route"
        assert phase_of("lookup.stale_probe") == "cache"
        assert phase_of("net.request") == phase_of("tcp.transfer") == "transfer"
        assert phase_of("queue.wait") == "queue"
        assert phase_of("fs.apply_ops") == "other"

    def test_orphaned_span_promoted_to_root(self):
        rec = SpanRec("t1", "s2", "missing-parent", "lookup", 0.0, 1.0, {})
        forest = build_forest([rec])
        assert forest.roots == [rec] and forest.orphans == [rec]
        assert rec.orphaned

    def test_open_span_excluded_from_critical_path(self):
        recs = [
            SpanRec("t1", "s1", None, "fetch", 0.0, 1.0, {}),
            SpanRec("t1", "s2", "s1", "lookup", 0.0, None, {}),  # unclosed
        ]
        forest = build_forest(recs)
        assert forest.open_spans == [recs[1]]
        assert critical_path(forest.roots[0]) == [forest.roots[0]]
        assert complete_critical_paths(forest.roots) == 0

    def test_flamegraph_renders_positioned_bars(self):
        root = self._forest(self._make_trace()).roots[0]
        lines = render_flamegraph(root, width=40)
        assert "flamegraph" in lines[0]
        assert any("tcp.transfer" in l and "#" in l for l in lines)

    def test_cli_happy_path(self, tmp_path, capsys):
        path = export(self._make_trace(), tmp_path / "t.jsonl")
        assert trace_main([path, "--require-complete"]) == 0
        out = capsys.readouterr().out
        assert "per-phase critical-path attribution" in out
        assert "slowest" in out and "flamegraph" in out
        assert "complete critical paths: 1" in out

    def test_cli_rejects_invalid_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"span_id": "s1"}\n')
        assert trace_main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_cli_require_complete_fails_on_leafless_roots(self, tmp_path, capsys):
        tracer = Tracer(sample=1.0)
        tracer.finish(tracer.start_trace("fetch", 0.0), 1.0)  # no children
        path = export(tracer, tmp_path / "t.jsonl")
        assert trace_main([path]) == 0
        assert trace_main([path, "--require-complete"]) == 1


class TestEndToEndWiring:
    """The acceptance criterion: one traced read produces a coherent tree."""

    def _traced_read(self):
        deployment = build_deployment("d2", 16, seed=1)
        # Force a real (non-env-dependent) tracer for this deployment.
        deployment.spans = Tracer(sample=1.0)
        deployment.store.spans = deployment.spans
        deployment.bootstrap_volume()
        deployment.apply_fs_ops(deployment.fs.makedirs("/home/u"))
        deployment.apply_fs_ops(deployment.fs.create("/home/u/f.dat", size=64_000))
        latency = LatencyModel.random(deployment.node_names, random.Random(7))
        harness = PerformanceHarness(
            deployment, latency, bandwidth_bps=187_500.0, rng=random.Random(13)
        )
        total = 0.0
        now = 100.0
        for i, (key, nbytes) in enumerate(deployment.read_fetches("/home/u/f.dat")):
            total += harness.fetch_latency("u", key, nbytes, f"b{i}", now + total)
        return deployment, total

    def test_fetch_root_duration_equals_critical_children(self):
        deployment, _ = self._traced_read()
        forest = build_forest(
            [SpanRec.from_dict(p) for p in deployment.spans.to_dicts()]
        )
        fetch_roots = [r for r in forest.roots if r.name == "fetch"]
        assert fetch_roots and not forest.open_spans
        for root in fetch_roots:
            chain = critical_chain(root)
            assert chain, "fetch root must have critical-path children"
            assert sum(c.duration for c in chain) == pytest.approx(root.duration)

    def test_route_hops_and_transfer_spans_present(self):
        deployment, _ = self._traced_read()
        counts = span_counts(deployment.spans)
        assert counts.get("dht.hop", 0) >= 1
        assert counts.get("dht.route", 0) >= 1
        assert counts["tcp.transfer"] == counts["transfer"]
        assert counts["lookup"] == counts["fetch"]

    def test_exported_trace_satisfies_cli(self, tmp_path, capsys):
        deployment, _ = self._traced_read()
        path = export(deployment.spans, tmp_path / "run.jsonl")
        assert trace_main([path, "--require-complete"]) == 0
        out = capsys.readouterr().out
        assert "flamegraph" in out

    def test_sampling_zero_deployment_emits_nothing(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "0")
        deployment = build_deployment("d2", 8, seed=2)
        deployment.bootstrap_volume()
        deployment.apply_fs_ops(deployment.fs.create("/f", size=10_000))
        assert deployment.spans.to_dicts() == []
        assert deployment.tracer.counts()["span.start"] == deployment.spans.roots_started > 0

    def test_balancer_move_produces_pointer_children(self):
        deployment = build_deployment("d2", 12, seed=3)
        deployment.spans = Tracer(sample=1.0)
        deployment.store.spans = deployment.spans
        deployment.balancer._spans = deployment.spans
        deployment.bootstrap_volume()
        for i in range(120):
            deployment.apply_fs_ops(
                deployment.fs.create(f"/f{i}.dat", size=16_000)
            )
        deployment.stabilize()
        counts = span_counts(deployment.spans)
        assert counts.get("balance.move", 0) >= 1
        assert counts.get("pointer.adopt", 0) >= 1
        spans = deployment.spans.to_dicts()
        move_ids = {s["span_id"] for s in spans if s["name"] == "balance.move"}
        assert any(s["parent_id"] in move_ids for s in spans if s["name"] == "pointer.adopt")


class TestRunnerTraceAttachment:
    def test_report_lists_trace_files(self, tmp_path, monkeypatch):
        from repro.runner.cells import CELL_KINDS, cell_kind
        from repro.runner.executor import run_cells

        @cell_kind("trace-fake")
        def _fake(params):
            class Result:
                trace = [exported_span(0.0, 1.0)]
                metrics = None
            return Result()

        try:
            monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
            run_cells(
                "trace-fake", [{"x": 1}, {"x": 2}], jobs=1,
                metrics_name="runner_trace_fake",
            )
            report = json.loads(
                (tmp_path / "runner_trace_fake.json").read_text()
            )
            traces = report["params"]["traces"]
            assert len(traces) == 2
            for name in traces:
                spans, problems = [], []
                for line in (tmp_path / name).read_text().splitlines():
                    payload = json.loads(line)
                    problems.extend(validate_span_dict(payload))
                assert problems == []
        finally:
            CELL_KINDS.pop("trace-fake", None)

    def test_worker_histograms_merge_into_report(self, tmp_path, monkeypatch):
        from repro.obs.metrics import Histogram
        from repro.runner.cells import CELL_KINDS, cell_kind
        from repro.runner.executor import run_cells

        @cell_kind("histo-fake")
        def _fake(params):
            histo = Histogram("fetch.latency_seconds")
            for v in range(params["lo"], params["hi"]):
                histo.observe(float(v))
            class Result:
                trace = None
                metrics = {
                    "histograms": {
                        histo.name: histo.snapshot(include_reservoir=True)
                    }
                }
            return Result()

        try:
            monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
            run_cells(
                "histo-fake",
                [{"lo": 0, "hi": 100}, {"lo": 100, "hi": 200}],
                jobs=1,
                metrics_name="runner_histo_fake",
            )
            report = json.loads(
                (tmp_path / "runner_histo_fake.json").read_text()
            )
            merged = report["runs"][0]["histograms"]["fetch.latency_seconds"]
            assert merged["count"] == 200
            assert merged["min"] == 0.0 and merged["max"] == 199.0
            assert 80 <= merged["p50"] <= 120
        finally:
            CELL_KINDS.pop("histo-fake", None)


class TestWorkloadPhaseGrouping:
    """accel.lookup roots carry their workload-phase tag into the export."""

    def test_accelerator_tags_spans_with_phase(self):
        from repro.core.accel import LookupAccelerator
        from repro.dht.keyspace import KEY_SPACE
        from repro.dht.ring import Ring

        ring = Ring()
        for i in range(8):
            ring.join(f"n{i}", (i + 1) * (KEY_SPACE // 9))
        tracer = Tracer(sample=1.0)
        accel = LookupAccelerator(ring, mode="none", spans=tracer)
        accel.lookup("c0", "n0", KEY_SPACE // 3, now=1.0, phase="shift")
        accel.lookup("c0", "n0", KEY_SPACE // 2, now=2.0)
        roots = [s for s in tracer.to_dicts() if s["name"] == "accel.lookup"]
        assert [s["attrs"].get("phase") for s in roots] == ["shift", None]
