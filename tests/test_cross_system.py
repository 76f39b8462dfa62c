"""Cross-system integration tests: one trace, four systems, shared invariants.

The paper's comparisons are meaningful only because all systems replay the
*same* logical workload; these tests pin the conservation properties that
guarantee it in this code base.
"""

import pytest

from repro.core.system import SYSTEMS, build_deployment
from repro.fs.namespace import FileNode
from repro.workloads.harvard import HarvardConfig, generate_harvard
from repro.workloads.trace import READ
from tests.oracles import walk


def files(deployment):
    return [node for _, node in walk(deployment.fs.namespace) if isinstance(node, FileNode)]


@pytest.fixture(scope="module")
def trace():
    return generate_harvard(HarvardConfig(users=3, days=0.5, seed=31))


@pytest.fixture(scope="module")
def deployments(trace):
    result = {}
    for system in SYSTEMS:
        d = build_deployment(system, 20, seed=2)
        d.load_initial_image(trace)
        d.stabilize()
        for record in trace.records:
            d.advance_to(record.time)
            d.replay_record(record)
        d.advance_to(trace.duration + 120.0)  # drain delayed removals
        result[system] = d
    return result


class TestConservation:
    def test_same_file_bytes_everywhere(self, deployments):
        """The logical file system is identical across systems."""
        totals = {
            system: sum(node.size for node in files(d))
            for system, d in deployments.items()
        }
        assert len(set(totals.values())) == 1, totals

    def test_same_file_count_everywhere(self, deployments):
        counts = {
            system: len(files(d))
            for system, d in deployments.items()
        }
        assert len(set(counts.values())) == 1, counts

    def test_stored_bytes_close_across_block_systems(self, deployments):
        """Per-block systems (d2, traditional, traditional+merc) store the
        same block set, so directory volumes must agree closely (removal
        timing may leave tiny grace-period differences)."""
        volumes = {
            system: deployments[system].store.directory.total_bytes
            for system in ("d2", "traditional", "traditional+merc")
        }
        reference = volumes["traditional"]
        for system, volume in volumes.items():
            assert volume == pytest.approx(reference, rel=0.02), (system, volumes)

    def test_primary_loads_partition_directory(self, deployments):
        for system, d in deployments.items():
            assert sum(d.store.primary_loads().values()) == len(d.store.directory)

    def test_write_traffic_identical_for_block_systems(self, deployments):
        """Same blocks written in d2 and traditional: ledgers must agree."""
        d2 = deployments["d2"].store.ledger.total_written
        trad = deployments["traditional"].store.ledger.total_written
        assert d2 == trad

    def test_only_balancing_systems_migrate(self, deployments):
        for system, d in deployments.items():
            migrated = d.store.ledger.total_migrated
            if system in ("traditional", "traditional-file"):
                assert migrated == 0
            # (balancing systems may or may not have migrated at this scale)

    def test_no_dangling_physical_entries(self, deployments):
        for system, d in deployments.items():
            for key in d.store.physical_at:
                assert key in d.store.directory, system


class TestSpreadOrdering:
    def test_locality_ordering_holds(self, deployments, trace):
        """A random sample of reads touches the fewest nodes under D2."""
        spreads = {}
        reads = [r for r in trace.records if r.op == READ][:50]
        for system, d in deployments.items():
            nodes = set()
            for record in reads:
                try:
                    for key, _ in d.read_fetches(record.path, record.offset,
                                                 record.length or None):
                        nodes.add(d.ring.successor(key))
                except Exception:
                    continue
            spreads[system] = len(nodes)
        assert spreads["d2"] <= spreads["traditional-file"]
        assert spreads["traditional-file"] <= spreads["traditional"]
