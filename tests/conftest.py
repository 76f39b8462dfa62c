"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.system import build_deployment
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.ring import Ring
from repro.lint.cli import run_lint
from repro.lint.walker import parse_tree
from repro.sim.engine import Simulator
from repro.store.migration import StorageCoordinator
from repro.workloads.harvard import HarvardConfig, generate_harvard

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "repro")


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def small_ring(rng):
    """A 16-node ring with reproducible random positions."""
    ring = Ring()
    for i, node_id in enumerate(random_node_ids(16, rng)):
        ring.join(f"n{i}", node_id)
    return ring


@pytest.fixture
def coordinator(small_ring, sim):
    return StorageCoordinator(small_ring, sim)


@pytest.fixture(scope="session")
def tiny_trace():
    """A small Harvard-like trace reused across analysis tests."""
    return generate_harvard(HarvardConfig(users=4, days=0.5, seed=99))


@pytest.fixture
def d2_deployment():
    return build_deployment("d2", 24, seed=5)


@pytest.fixture(scope="session")
def repo_lint_run():
    """One lint run over the shipped tree — every rule, then the allow
    audit — shared by the tests that assert on the whole tree."""
    return run_lint(parse_tree([REPO_SRC]))
