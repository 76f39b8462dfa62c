"""Fixtures for the benchmark's own tests (``pytest benchmarks/e2e/tests``).

Not part of tier-1: ``pyproject.toml`` collects ``tests/`` only.
"""

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import suite

if str(suite.SOURCE) not in sys.path:  # the seam tests import repro in-process
    sys.path.insert(0, str(suite.SOURCE))


def run_quick_suite(out_path):
    """``python -m benchmarks.e2e --quick --rounds 1``; returns the JSON report."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick", "--rounds", "1",
         "--out", str(out_path)],
        cwd=suite.ROOT, env=suite.worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


@pytest.fixture(scope="session")
def quick_runs(tmp_path_factory):
    """Two independent quick runs of the whole suite: ``[(report, stdout), ...]``."""
    base = tmp_path_factory.mktemp("e2e")
    return [run_quick_suite(base / f"quick{index}.json") for index in range(2)]


@pytest.fixture(scope="session")
def contract():
    with open(suite.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
