"""The whole suite at ``--quick`` sizes: names, determinism, seam coverage."""

from benchmarks.e2e import seams, suite
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS


def test_output_matches_the_contract(quick_runs, contract):
    report, stdout = quick_runs[0]
    assert list(report)[-1] == "claim" and report["claim"] is None
    assert list(report["workloads"]) == [w["name"] for w in contract["workloads"]]
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    driver = {m["name"]: m for m in contract["end_to_end"]}
    for name, entry in report["workloads"].items():
        assert entry["correct"], entry["problems"]
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        printed = entry["end_to_end"]
        assert list(printed) == [m.name for m in END_TO_END if name in m.workloads]
        for metric, spec in driver.items():
            assert printed[metric]["unit"] == spec["unit"]
            assert printed[metric]["bound"] == spec["bound"]
            assert printed[metric]["median"] > 0
        assert list(entry["per_layer"]) == list(per_layer)
        for metric in (*printed, *per_layer):
            assert metric in stdout  # printed by name
    meta = report["meta"]
    assert {"git_sha", "python", "nproc", "seed", "rounds"} <= set(meta)
    assert all(entry["sizes"] for entry in report["workloads"].values())


def test_two_runs_agree_on_everything_simulated(quick_runs):
    (first, _), (second, _) = quick_runs
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["fingerprint"] == b["fingerprint"]
        assert (a["attempted"], a["failed"], a["ops"]) == (b["attempted"], b["failed"], b["ops"])
        for metric, entry in a["end_to_end"].items():
            if entry["kind"] == "sim":
                assert entry["median"] == b["end_to_end"][metric]["median"], metric
        for metric in PER_LAYER:
            if metric.unit in ("count", "B") or metric.name.startswith("outcome."):
                assert a["per_layer"][metric.name] == b["per_layer"][metric.name], metric


def test_every_seam_is_called_by_some_workload():
    called = set()
    for name in WORKLOADS:
        calls = suite.run_worker(name, 11, quick=True, traced=True)["seam_calls"]
        called.update(seam for seam, count in calls.items() if count)
    idle = [seam.name for seam in seams.SEAMS if seam.name not in called]
    assert not idle, f"seams no workload reaches: {idle}"


def test_layer_times_add_up_to_the_replay_wall(quick_runs):
    report, _ = quick_runs[0]
    for name, entry in report["workloads"].items():
        layers = entry["per_layer"]
        total = layers["check.oracle_s"] + sum(
            value for key, value in layers.items()
            if key.endswith(".self_s") and not key.endswith(".setup_self_s")
        )
        assert abs(total - layers["trace.replay_s"]) <= 0.02 * layers["trace.replay_s"], name
        assert layers["check.oracle_mismatches"] == 0
        assert layers["check.fingerprint_mismatches"] == 0
        assert layers["trace.overhead_ratio"] > 0


def test_layer_shares_separate_the_workloads(quick_runs):
    report, _ = quick_runs[0]

    def shares(name):
        layers = report["workloads"][name]["per_layer"]
        replay = layers["trace.replay_s"]
        return lambda *names: sum(layers[f"{n}.self_s"] for n in names) / replay

    churn = shares("churn-storm")
    assert churn("store.repair", "obs.spans", "sim.engine") >= 0.40
    assert churn("dht.routing") <= 0.05
    accel = report["workloads"]["accel-shift"]["per_layer"]
    assert accel["core.accel.lookups"] > 0
    assert report["workloads"]["read-replay"]["per_layer"]["core.accel.lookups"] == 0
