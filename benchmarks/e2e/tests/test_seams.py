"""The seam table resolves, binds through from-imports, and adds up."""

import types
from collections import defaultdict

import pytest

from benchmarks.e2e import seams


def test_every_seam_resolves():
    seams.check_seams()


@pytest.mark.parametrize("module, qualname, fragment", [
    ("repro.dht.routing", "no_such_function", "repro.dht.routing:no_such_function"),
    ("repro.no_such_module", "route", "repro.no_such_module:route"),
    ("repro.sim.network", "LatencyModel.random", "not a plain function"),
])
def test_bad_seam_fails_loudly(module, qualname, fragment):
    with pytest.raises(seams.SeamError, match=fragment):
        seams.resolve(module, qualname)


def test_patcher_rebinds_from_imports_and_undoes():
    import repro.analysis.performance as performance
    import repro.dht.routing as routing

    original = routing.route
    assert performance.route is original
    patcher = seams.Patcher()
    patcher.replace("repro.dht.routing", "route", lambda fn: lambda *a, **k: fn(*a, **k))
    patcher.rebind_loaded()
    try:
        assert routing.route is not original
        assert performance.route is routing.route
    finally:
        patcher.undo()
    assert routing.route is original and performance.route is original


def test_self_time_is_a_partition_of_the_timeline():
    recorder = seams.Recorder(keep_spans=True)
    recorder.phase(seams.REPLAY)
    recorder.enter("fs", "outer")
    recorder.enter("store.migration", "inner")
    recorder.leave()
    recorder.enter("fs", "same-layer")
    recorder.leave()
    recorder.leave()
    recorder.phase(seams.OUTSIDE)
    replay = recorder.self_s[seams.REPLAY]
    assert set(replay) == {seams.HARNESS, "fs", "store.migration"}
    first, last = recorder.spans[0], recorder.spans[-1]
    assert [span[4] for span in recorder.spans] == [-1, 0, 0]  # parents
    # Children are covered by the outer span; layer times sum to the wall.
    assert first[2] <= recorder.spans[1][2] <= recorder.spans[1][3] <= first[3]
    outer = first[3] - first[2]
    assert replay["fs"] + replay["store.migration"] == pytest.approx(outer, rel=1e-6)
    assert last[0] == "fs"


def test_installed_seams_time_count_and_check():
    from repro.dht.consistent_hashing import random_node_ids
    from repro.dht.ring import Ring
    from random import Random

    ring = Ring()
    for index, node_id in enumerate(random_node_ids(16, Random(3))):
        ring.join(f"n{index:02d}", node_id)
    recorder, patcher = seams.Recorder(), seams.Patcher()
    seams.install(patcher, recorder)
    try:
        import repro.dht.routing as routing
        import repro.workloads.scale as scale

        results = routing.route_many(ring, "n00", [1, 2 ** 100, 2 ** 150])
        stream = list(scale.scaled_read_stream(
            [("u", "/a", 0, 1)], clones=3, ops_per_clone=1))
    finally:
        patcher.undo()
    assert len(results) == 3 and len(stream) == 3
    assert recorder.counters["dht.routing.lookups"] == 3
    assert recorder.counters["check.oracle_checks"] == 3
    assert recorder.counters["check.oracle_mismatches"] == 0
    assert recorder.counters["workloads.records"] == 3
    assert recorder.calls["repro.dht.routing:route_many"] == 1
    assert recorder.self_s[seams.OUTSIDE]["dht.routing"] > 0.0


def test_oracle_flags_a_wrong_owner():
    counters = defaultdict(int)
    ring = types.SimpleNamespace(successor=lambda key: "right")
    answer = types.SimpleNamespace(key=7, owner="wrong", path=["a", "b"])
    seams._check_route(counters, (ring, "a", 7), {}, answer)
    assert counters["check.oracle_mismatches"] == 1
    assert counters["dht.routing.hops"] == 1


def test_callbacks_run_in_their_defining_layer():
    recorder = seams.Recorder()

    def callback():
        return recorder._layer

    callback.__module__ = "repro.store.repair"
    assert recorder.attribute(callback)() == "store.repair"
    assert seams.layer_of_module("repro.analysis.balance") == seams.HARNESS
    assert seams.layer_of_module("repro.store.block_store") == "store.migration"


def test_a_missing_seam_stops_even_an_untraced_round_before_it_runs(monkeypatch):
    from benchmarks.e2e import worker
    from benchmarks.e2e.workloads import WORKLOADS

    missing = seams.Seam("fs", "repro.fs.fslayer", "DhtFileSystem.no_such_method")
    monkeypatch.setattr(seams, "SEAMS", (*seams.SEAMS, missing))
    with pytest.raises(seams.SeamError, match="fslayer:DhtFileSystem.no_such_method"):
        worker.run_round(WORKLOADS["accel-shift"], 11, quick=True, traced=False)


def test_a_failed_worker_reaches_the_caller_with_its_last_word():
    from benchmarks.e2e import suite

    with pytest.raises(suite.BenchError, match="invalid choice: 'no-such-workload'"):
        suite.run_worker("no-such-workload", 11)
