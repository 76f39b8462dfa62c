"""Tests for the synthetic workload generators (Harvard / HP / Web)."""

import pytest

from repro.workloads.harvard import HarvardConfig, generate_harvard
from repro.workloads.hp import HPConfig, block_name, generate_hp
from repro.workloads.shift import SCENARIOS, shift_stream
from repro.workloads.trace import CREATE, DELETE, READ, RENAME, WRITE
from repro.workloads.web import WebConfig, WebUniverse, generate_web, reversed_domain
import random
from tests.oracles import fs_read


@pytest.fixture(scope="module")
def harvard():
    return generate_harvard(HarvardConfig(users=4, days=1.0, seed=7))


@pytest.fixture(scope="module")
def hp():
    return generate_hp(HPConfig(applications=4, days=0.5, seed=7))


@pytest.fixture(scope="module")
def web():
    return generate_web(WebConfig(users=6, days=0.5, sites=10, seed=7))


class TestHarvard:
    def test_deterministic(self):
        a = generate_harvard(HarvardConfig(users=2, days=0.25, seed=1))
        b = generate_harvard(HarvardConfig(users=2, days=0.25, seed=1))
        assert len(a.records) == len(b.records)
        assert a.records[0] == b.records[0]

    def test_has_initial_image(self, harvard):
        assert harvard.initial_files
        assert harvard.initial_dirs
        assert "/home" in harvard.initial_dirs

    def test_all_op_kinds_present(self, harvard):
        ops = {r.op for r in harvard.records}
        assert {READ, WRITE, CREATE, DELETE} <= ops

    def test_renames_rare(self, harvard):
        renames = sum(1 for r in harvard.records if r.op == RENAME)
        assert renames / len(harvard.records) < 0.01  # paper: 0.05% of operations

    def test_reads_dominate(self, harvard):
        reads = sum(1 for r in harvard.records if r.op == READ)
        assert reads / len(harvard.records) > 0.5

    def test_replayable(self, harvard):
        """Every record must apply cleanly against the evolving namespace."""
        from repro.fs.fslayer import DhtFileSystem
        from repro.fs.keyschemes import make_scheme
        from repro.fs.namespace import NamespaceError

        fs = DhtFileSystem(make_scheme("d2", "v"))
        fs.format()
        for d in harvard.initial_dirs:
            if not fs.namespace.exists(d):
                fs.makedirs(d)
        for path, size in harvard.initial_files:
            fs.create(path, size=size)
        skipped = 0
        for record in harvard.records:
            try:
                if record.op == READ:
                    fs_read(fs, record.path, record.offset, record.length or None)
                elif record.op == WRITE:
                    if fs.namespace.exists(record.path):
                        fs.write(record.path, record.offset, record.length)
                    else:
                        fs.create(record.path, size=record.offset + record.length)
                elif record.op == CREATE:
                    fs.create(record.path, size=record.size)
                elif record.op == DELETE:
                    fs.remove(record.path)
                elif record.op == RENAME:
                    fs.rename(record.path, record.dst_path)
            except NamespaceError:
                skipped += 1
        assert skipped / len(harvard.records) < 0.06

    def test_namespace_locality_of_tasks(self, harvard):
        """Consecutive same-user accesses mostly share a directory."""
        by_user = harvard.per_user()
        same_dir = total = 0
        for records in by_user.values():
            reads = [r for r in records if r.op == READ]
            for a, b in zip(reads, reads[1:]):
                if b.time - a.time < 1.0:
                    total += 1
                    if a.path.rsplit("/", 1)[0] == b.path.rsplit("/", 1)[0]:
                        same_dir += 1
        assert total > 0
        assert same_dir / total > 0.6

    def test_diurnal_pattern(self, harvard):
        work = sum(1 for r in harvard.records if 9 <= (r.time % 86400) / 3600 < 18)
        assert work / len(harvard.records) > 0.6

    def test_heavy_tailed_sizes(self, harvard):
        sizes = sorted(size for _, size in harvard.initial_files)
        assert sizes[-1] / max(1, sizes[len(sizes) // 2]) > 50


class TestHP:
    def test_block_names_sort_numerically(self):
        assert block_name(5) < block_name(10) < block_name(100)

    def test_reads_and_writes_only(self, hp):
        assert {r.op for r in hp.records} <= {READ, WRITE}

    def test_sequential_runs_present(self, hp):
        """Many consecutive accesses hit numerically adjacent blocks."""
        by_user = hp.per_user()
        adjacent = total = 0
        for records in by_user.values():
            for a, b in zip(records, records[1:]):
                if b.time - a.time < 0.5:
                    total += 1
                    na = int(a.path.rsplit("/", 1)[1])
                    nb = int(b.path.rsplit("/", 1)[1])
                    if abs(nb - na) <= 1:
                        adjacent += 1
        assert total > 0
        assert adjacent / total > 0.5

    def test_addresses_in_disk_range(self, hp):
        config = HPConfig(applications=4, days=0.5, seed=7)
        for record in hp.records[:200]:
            number = int(record.path.rsplit("/", 1)[1])
            assert 0 <= number < config.disk_blocks


class TestWeb:
    def test_reversed_domain(self):
        assert reversed_domain("www.yahoo.com") == "com.yahoo.www"

    def test_urls_are_reversed_names(self, web):
        for record in web.records[:50]:
            assert record.path.startswith("/com.")

    def test_read_only(self, web):
        assert {r.op for r in web.records} == {READ}

    def test_sizes_positive(self, web):
        assert all(r.length > 0 for r in web.records)

    def test_zipf_popularity(self, web):
        """Site popularity is heavy-tailed: head dwarfs tail."""
        from collections import Counter

        sites = Counter(r.path.split("/")[1] for r in web.records)
        counts = sorted(sites.values(), reverse=True)
        assert counts[0] >= 3 * counts[-1]
        assert counts[0] >= 1.5 * counts[len(counts) // 2]

    def test_page_views_cluster_in_page_directory(self, web):
        by_user = web.per_user()
        same_page = total = 0
        for records in by_user.values():
            for a, b in zip(records, records[1:]):
                if b.time - a.time < 1.0:
                    total += 1
                    if a.path.rsplit("/", 1)[0] == b.path.rsplit("/", 1)[0]:
                        same_page += 1
        assert total > 0
        assert same_page / total > 0.5

    def test_universe_reconstructible(self):
        config = WebConfig(users=2, days=0.1, sites=5, seed=3)
        u1 = WebUniverse(config, rng=random.Random(3))
        u2 = WebUniverse(config, rng=random.Random(3))
        def urls(universe):
            return [o.url for pages in universe.pages.values() for page in pages for o in page]

        assert urls(u1) == urls(u2)


class TestShiftStream:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_draws_equal_the_weights_form(self, scenario):
        """Zipf weights accumulated once draw what ``choices(weights=...)``
        drew: same floats, same bisect, same requests across the shift."""
        from tests.oracles import shift_stream_reweighing

        pre, post = list(range(1000, 1320)), list(range(5000, 5160))
        clients = [f"c{index}" for index in range(12)]
        for seed in (0, 11):
            kwargs = dict(pre_ops=300, post_ops=300, seed=seed)
            assert list(shift_stream(scenario, pre, post, clients, **kwargs)) == list(
                shift_stream_reweighing(scenario, pre, post, clients, **kwargs)
            )

    def test_churn_needs_no_post_keys(self):
        stream = list(shift_stream("churn", [1, 2, 3], [], ["c"], pre_ops=5, post_ops=5))
        assert len(stream) == 10 and {r.key for r in stream} <= {1, 2, 3}
        with pytest.raises(ValueError, match="needs post keys"):
            next(shift_stream("migrate", [1], [], ["c"], pre_ops=1, post_ops=1))
