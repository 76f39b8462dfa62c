"""The driver's entry point and the full-size reference fingerprint."""

import json
import shutil
import subprocess

from benchmarks.e2e import suite


def _run(contract, cwd, workload, trace):
    return subprocess.run(
        contract["command"] + ["--workload", workload, "--seed", "11",
                               "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False,
    )


def test_result_line_per_trace_mode(contract):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(contract, suite.ROOT, "write-balance", trace)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in contract[key]
        }
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_the_program(contract, tmp_path):
    shutil.copy(suite.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(suite.ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(contract, tmp_path, "read-replay", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert "program source not found" in done.stderr


def test_full_size_read_replay_matches_the_committed_pr7_row():
    with open(suite.ROOT / "BENCH_scale.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    pr7 = next(run for run in bench["runs"] if run["label"] == "pr7")
    committed = next(cell for cell in pr7["cells"] if cell["cell"] == "read")
    row = suite.run_worker("read-replay", 11)["fingerprint"]
    for field in ("checksum", "hops", "messages", "fetches", "ops", "users", "windows"):
        assert row[field] == committed[field], field
    assert (row["checksum"], row["hops"], row["fetches"]) == (
        "e053857577af43ed", 844372, 1674118)
