"""``BENCHMARK.json`` against the driver's schema and the benchmark's tables."""

import re

from benchmarks.e2e import seams
from benchmarks.e2e.metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_and_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"][0] == "python3"
    assert contract["command"][1].startswith("benchmarks/e2e/")
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_setup_metric_has_largest_bound(contract):
    bounds = {entry["name"]: entry for entry in contract["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in contract["end_to_end"])


def test_matches_the_metric_tables(contract):
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in DRIVER_END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_tables_are_consistent():
    assert len(END_TO_END) == 15
    self_time = [m.name[: -len(".self_s")] for m in PER_LAYER
                 if m.name.endswith(".self_s")]
    assert self_time == [*seams.LAYERS, seams.HARNESS]
    assert {seam.layer for seam in seams.SEAMS} == set(seams.LAYERS)
    assert {w for m in END_TO_END for w in m.workloads} == set(WORKLOADS)
