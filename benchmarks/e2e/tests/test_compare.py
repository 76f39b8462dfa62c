"""``python -m benchmarks.e2e compare``: verdicts and exit status."""

import copy
import json

from benchmarks.e2e import compare
from benchmarks.e2e.__main__ import main
from benchmarks.e2e.suite import spread


def _host(values, unit="s", better="lower", bound=0.10):
    return dict(spread(values), unit=unit, better=better, bound=bound, kind="host")


def _report(wall, ops, msgs=4.0, failed=0.0):
    return {"workloads": {"read-replay": {"end_to_end": {
        "wall_s": _host(wall),
        "ops_per_s": _host(ops, unit="1/s", better="higher"),
        "failed_share": {"median": failed, "n": 3, "unit": "ratio",
                         "better": "lower", "bound": 0.0, "kind": "sim"},
        "lookup_msgs_per_op": {"median": msgs, "n": 3, "unit": "count",
                               "better": "lower", "bound": 0.0, "kind": "sim"},
    }}}, "claim": None}


BASE = _report([5.00, 5.02, 5.04], [1000.0, 1004.0, 1008.0])


def _verdicts(b):
    rows, regressed = compare.compare(BASE, b)
    return {row[1]: row[5] for row in rows}, regressed


def test_same_report_is_unchanged():
    verdicts, regressed = _verdicts(copy.deepcopy(BASE))
    assert set(verdicts.values()) == {"unchanged"} and not regressed


def test_host_metrics_against_their_bounds():
    verdicts, regressed = _verdicts(_report([5.9, 5.92, 5.94], [1200.0, 1204.0, 1208.0]))
    assert verdicts["wall_s"] == "regressed" and verdicts["ops_per_s"] == "improved"
    assert regressed
    verdicts, regressed = _verdicts(_report([5.2, 5.22, 5.24], [990.0, 1001.0, 1003.0]))
    assert verdicts["wall_s"] == "unchanged" and verdicts["ops_per_s"] == "unchanged"
    assert not regressed


def test_wide_spread_is_unresolved_not_unchanged():
    verdicts, regressed = _verdicts(_report([4.2, 5.1, 6.0], [1000.0, 1004.0, 1008.0]))
    assert verdicts["wall_s"] == "unresolved" and not regressed
    # ... unless every round of B beats every round of A.
    verdicts, _ = _verdicts(_report([3.0, 3.9, 4.8], [1000.0, 1004.0, 1008.0]))
    assert verdicts["wall_s"] == "improved"


def test_simulated_metrics_are_exact():
    verdicts, regressed = _verdicts(
        _report([5.0, 5.02, 5.04], [1000.0, 1004.0, 1008.0], msgs=4.0001))
    assert verdicts["lookup_msgs_per_op"] == "regressed" and regressed
    verdicts, regressed = _verdicts(
        _report([5.0, 5.02, 5.04], [1000.0, 1004.0, 1008.0], failed=0.01))
    assert verdicts["failed_share"] == "regressed" and regressed


def test_cli_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BASE))
    b.write_text(json.dumps(_report([6.0, 6.02, 6.04], [1000.0, 1004.0, 1008.0])))
    assert main(["compare", str(a), str(a)]) == 0
    assert main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "wall_s" in out and "regressed" in out and "verdict" in out
