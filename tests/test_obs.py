"""Tests for the observability spine: metrics, events, reports, CLI."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.events import KINDS, NODE_JOIN, SPAN_KINDS, EventError, EventTracer
from repro.obs.metrics import MetricsError, MetricsRegistry
from repro.obs.report import (
    build_report,
    load_report,
    snapshot_run,
    summarize,
    totals,
    validate_report,
    write_report,
)
from repro.obs.spans import Tracer

LOOKUP_HIT, LOOKUP_MISS = "lookup.hit", "lookup.miss"


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_exact_stats(self):
        histo = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            histo.observe(v)
        assert histo.count == 4
        assert histo.total == 10.0
        assert histo.mean == 2.5
        assert histo.min == 1.0
        assert histo.max == 4.0

    def test_reservoir_is_bounded(self):
        histo = MetricsRegistry().histogram("h", reservoir_size=16)
        for v in range(10_000):
            histo.observe(v)
        assert histo.count == 10_000
        assert len(histo._reservoir) == 16

    def test_percentiles_on_small_sample(self):
        histo = MetricsRegistry().histogram("h")
        for v in range(101):
            histo.observe(v)
        assert histo.percentile(0) == 0
        assert histo.percentile(50) == 50
        assert histo.percentile(100) == 100
        with pytest.raises(MetricsError):
            histo.percentile(101)

    def test_reservoir_percentiles_roughly_uniform(self):
        histo = MetricsRegistry().histogram("h", reservoir_size=256)
        for v in range(100_000):
            histo.observe(float(v))
        # Reservoir sampling keeps quantile estimates near the truth.
        assert abs(histo.percentile(50) - 50_000) < 15_000

    def test_deterministic_given_name(self):
        a = MetricsRegistry().histogram("same-name")
        b = MetricsRegistry().histogram("same-name")
        for v in range(5_000):
            a.observe(v)
            b.observe(v)
        assert a.snapshot() == b.snapshot()


class TestRegistrySnapshot:
    def test_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # JSON-ready


def event_tracer(registry=None):
    """An event tracer over *registry* (a fresh one by default) and a span tracer."""
    return EventTracer(registry if registry is not None else MetricsRegistry(),
                       Tracer(sample=1.0))


class TestEventTracer:
    def test_emit_and_counts(self):
        tracer = event_tracer()
        tracer.emit(LOOKUP_MISS)
        tracer.emit(LOOKUP_HIT)
        tracer.emit(LOOKUP_HIT)
        assert tracer.counts() == {LOOKUP_HIT: 2, LOOKUP_MISS: 1}
        assert list(tracer.counts()) == [LOOKUP_HIT, LOOKUP_MISS]  # sorted by kind
        assert tracer.emitted == 3

    def test_counted_emit(self):
        tracer = event_tracer()
        tracer.emit(LOOKUP_HIT, 3)
        assert tracer.counts() == {LOOKUP_HIT: 3} and tracer.emitted == 3
        for count in (0, -2):
            with pytest.raises(EventError):
                tracer.emit(LOOKUP_HIT, count)
        assert tracer.counts() == {LOOKUP_HIT: 3} and tracer.emitted == 3

    def test_unknown_kind_rejected(self):
        tracer = event_tracer()
        with pytest.raises(EventError):
            tracer.emit("no.such.kind")
        assert tracer.emitted == 0 and tracer.counts() == {}

    def test_derived_count_read_once_and_added(self):
        registry = MetricsRegistry()
        tracer = event_tracer(registry)
        tracer.emit(NODE_JOIN, 4)  # founding nodes: no counter keeps them
        assert tracer.counts() == {NODE_JOIN: 4} and tracer.emitted == 4
        assert registry.snapshot()["counters"] == {}  # reading created no counter
        registry.counter("membership.joins").inc(2)
        registry.counter("membership.crashes").inc()
        registry.counter("membership.leaves").inc(0)  # a 0 count is absent
        assert tracer.counts() == {
            "membership.crash": 1, "membership.join": 2, NODE_JOIN: 6, "node.leave": 1,
        }
        assert tracer.emitted == 10

    def test_each_kind_reads_its_own_counts(self):
        registry = MetricsRegistry()
        spans = Tracer(sample=1.0)
        tracer = EventTracer(registry, spans)
        spans.finish(spans.start_trace("fetch", 0.0), 1.0)
        spans.start_trace("open", 1.0)  # started, never finished
        assert tracer.counts() == {"span.finish": 1, "span.start": 2}
        counters = {name for kind, names in KINDS.items() if kind not in SPAN_KINDS
                    for name in names}
        for name in counters:
            registry.counter(name).inc()
        counts = tracer.counts()
        for kind, names in KINDS.items():
            expected = {"span.start": 2, "span.finish": 1}.get(kind, len(names))
            assert counts[kind] == expected, kind


class TestReport:
    def _sample_report(self):
        registry = MetricsRegistry()
        registry.counter("lookup.hits").inc(3)
        registry.gauge("store.blocks").set(10)
        registry.histogram("fetch.latency_seconds").observe(0.25)
        tracer = event_tracer(registry)
        run = snapshot_run({"system": "d2", "n_nodes": 8}, registry, tracer)
        return build_report("demo", [run], params={"seed": 1, "sizes": (8, 16)})

    def test_build_is_valid_and_json_safe(self):
        report = self._sample_report()
        assert validate_report(report) == []
        assert report["params"]["sizes"] == [8, 16]  # tuple coerced
        json.dumps(report)

    def test_totals_and_summary(self):
        report = self._sample_report()
        agg = totals(report)
        assert agg["counters"]["lookup.hits"] == 3
        assert agg["events"][LOOKUP_HIT] == 3
        text = summarize(report)
        assert "lookup.hits" in text and "system=d2" in text

    def test_validate_flags_problems(self):
        assert validate_report([]) != []
        assert validate_report({"schema": "wrong"})
        report = self._sample_report()
        report["runs"][0]["counters"]["bad"] = "not-a-number"
        assert any("counters" in p for p in validate_report(report))

    def test_round_trip(self, tmp_path):
        report = self._sample_report()
        path = write_report(report, str(tmp_path / "r.json"))
        assert load_report(path) == report


class TestCli:
    def _write(self, tmp_path, name="r.json"):
        registry = MetricsRegistry()
        registry.counter("lookup.misses").inc(2)
        report = build_report("cli-demo", [snapshot_run({"k": 1}, registry)])
        return write_report(report, str(tmp_path / name))

    def test_summary_ok(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert obs_main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out and "lookup.misses" in out

    def test_bare_path_defaults_to_summary(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert obs_main([path]) == 0
        assert "cli-demo" in capsys.readouterr().out

    def test_validate_ok_and_invalid(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert obs_main(["validate", path]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert obs_main(["validate", str(bad)]) == 1

    def test_no_files_is_usage_error(self):
        assert obs_main(["summary"]) == 2


class TestSystemWiring:
    """The deployment's registry/tracer see real activity end to end."""

    def test_deployment_snapshot_counts_work(self):
        from repro.core.system import build_deployment

        deployment = build_deployment("d2", n_nodes=16, seed=3)
        deployment.bootstrap_volume()
        deployment.apply_fs_ops(deployment.fs.makedirs("/home/u"))
        deployment.apply_fs_ops(deployment.fs.create("/home/u/f", size=100_000))
        deployment.stabilize()
        snap = deployment.observability_snapshot()
        assert validate_report(
            build_report("t", [{"labels": {}, **snap}])
        ) == []
        assert snap["counters"]["store.writes"] > 0
        assert snap["events"]["node.join"] == 16
        assert snap["gauges"]["store.blocks"] > 0
        # balancing ran during stabilize
        assert snap["counters"]["balance.probes"] > 0

    def test_lookup_cache_shared_registry_aggregates(self):
        from repro.core.lookup_cache import LookupCache

        registry = MetricsRegistry()
        tracer = event_tracer(registry)
        a = LookupCache(ttl=10.0, registry=registry)
        b = LookupCache(ttl=10.0, registry=registry)
        a.insert(0, 100, "n", now=0.0)
        assert a.probe(50, now=1.0) == "n"
        assert b.probe(50, now=1.0) is None
        # per-cache stats stay separate, shared registry aggregates
        assert a.stats.hits == 1 and b.stats.misses == 1
        assert registry.counter("lookup.hits").value == 1
        assert registry.counter("lookup.misses").value == 1
        assert tracer.counts() == {LOOKUP_HIT: 1, LOOKUP_MISS: 1}

    def test_balancer_stats_view_backed_by_registry(self):
        from repro.dht.load_balance import BalancerStats

        registry = MetricsRegistry()
        stats = BalancerStats(registry)
        stats._counters["probes"].inc(3)
        assert stats.probes == 3
        assert registry.counter("balance.probes").value == 3


class TestExperimentEmission:
    def test_fig13_emits_valid_report(self, tmp_path):
        from repro.experiments.common import clear_cache
        from repro.experiments.figures import FIGURES

        clear_cache()
        try:
            (rows,) = FIGURES["fig13"].rows(
                metrics_dir=str(tmp_path),
                users=2,
                days=0.25,
                node_sizes=(8,),
                n_windows=1,
                seed=5,
            )
        finally:
            clear_cache()
        assert rows
        path = tmp_path / "fig13.json"
        assert path.exists()
        report = load_report(str(path))
        assert validate_report(report) == []
        agg = totals(report)
        # the acceptance counters: lookup hit/miss, balancer, pointers
        assert "lookup.hits" in agg["counters"]
        assert "lookup.misses" in agg["counters"]
        assert "lookup.stale_hits" in agg["counters"]
        assert "balance.probes" in agg["counters"]
        assert "balance.moves" in agg["counters"]
        assert "pointer.adopted" in agg["counters"]
        # and it round-trips through the CLI
        assert obs_main(["summary", str(path)]) == 0


class TestEventKindRegistration:
    """A kind is a row of the table in :mod:`repro.obs.events`; nothing
    registers one at run time."""

    def test_unregistered_kind_still_rejected(self):
        with pytest.raises(EventError):
            event_tracer().emit("never.registered.kind")


class TestHistogramPercentileEdges:
    def test_empty_histogram(self):
        histo = MetricsRegistry().histogram("h")
        assert histo.percentile(0) == 0.0
        assert histo.percentile(50) == 0.0
        assert histo.percentile(100) == 0.0

    def test_single_observation(self):
        histo = MetricsRegistry().histogram("h")
        histo.observe(42.0)
        assert histo.percentile(0) == 42.0
        assert histo.percentile(50) == 42.0
        assert histo.percentile(100) == 42.0

    def test_p0_and_p100_hit_extremes(self):
        histo = MetricsRegistry().histogram("h")
        for v in range(100):
            histo.observe(float(v))
        assert histo.percentile(0) == 0.0
        assert histo.percentile(100) == 99.0

    def test_out_of_range_rejected(self):
        histo = MetricsRegistry().histogram("h")
        with pytest.raises(MetricsError):
            histo.percentile(-0.1)
        with pytest.raises(MetricsError):
            histo.percentile(100.1)

    def test_reservoir_determinism_under_overflow(self):
        def build():
            histo = MetricsRegistry().histogram("h", reservoir_size=32)
            for v in range(1000):
                histo.observe(float(v))
            return histo.snapshot(include_reservoir=True)

        assert build() == build()


class TestHistogramMerge:
    def _histo(self, name, values, reservoir_size=512):
        from repro.obs.metrics import Histogram

        histo = Histogram(name, reservoir_size)
        for v in values:
            histo.observe(float(v))
        return histo

    def test_exact_fields_combine(self):
        a = self._histo("h", range(100))
        b = self._histo("h", range(100, 200))
        a.merge(b)
        assert a.count == 200
        assert a.total == sum(range(200))
        assert a.min == 0.0 and a.max == 199.0

    def test_merge_empty_is_noop(self):
        a = self._histo("h", [1.0, 2.0])
        before = a.snapshot(include_reservoir=True)
        a.merge(self._histo("h", []))
        assert a.snapshot(include_reservoir=True) == before

    def test_merge_into_empty_adopts_other(self):
        a = self._histo("h", [])
        a.merge(self._histo("h", [5.0, 7.0]))
        assert a.count == 2 and a.min == 5.0 and a.max == 7.0
        assert a.percentile(50) in (5.0, 7.0)

    def test_overflowing_merge_is_deterministic_and_bounded(self):
        def merged():
            a = self._histo("h", range(500), reservoir_size=64)
            b = self._histo("h", range(500, 1000), reservoir_size=64)
            a.merge(b)
            return a.snapshot(include_reservoir=True)

        first, second = merged(), merged()
        assert first == second
        assert len(first["reservoir"]) <= 64

    def test_merged_percentiles_track_union(self):
        a = self._histo("h", range(100))
        b = self._histo("h", range(100, 200))
        a.merge(b)
        assert 80 <= a.percentile(50) <= 120
        assert a.percentile(99) > 150

    def test_from_snapshot_round_trip(self):
        from repro.obs.metrics import Histogram

        a = self._histo("h", range(50))
        snap = a.snapshot(include_reservoir=True)
        restored = Histogram.from_snapshot("h", snap)
        assert restored.count == a.count
        assert restored.total == a.total
        assert restored.snapshot(include_reservoir=True) == snap

    def test_registry_register_adopts_and_conflicts(self):
        from repro.obs.metrics import Histogram

        registry = MetricsRegistry()
        merged = self._histo("fetch.latency_seconds", [1.0])
        registry.register(merged)
        assert registry.get("fetch.latency_seconds") is merged
        registry.register(merged)  # same object: idempotent
        with pytest.raises(MetricsError):
            registry.register(Histogram("fetch.latency_seconds"))
