"""Tests for workload scaling: replication, read streams, scale harness."""

import tracemalloc
from itertools import islice

import pytest

from repro.workloads.scale import (
    copies_for_size,
    replica_path,
    replicate_filesystem,
    scaled_read_stream,
)
from repro.workloads.trace import READ, Trace, TraceRecord


def base_trace():
    return Trace(
        "base",
        [TraceRecord(0.0, "u", READ, "/home/u/f")],
        initial_dirs=["/home", "/home/u"],
        initial_files=[("/home/u/f", 100)],
    )


class TestReplicate:
    def test_zero_copies_identity(self):
        trace = base_trace()
        assert replicate_filesystem(trace, 0) is trace

    def test_copies_multiply_storage(self):
        scaled = replicate_filesystem(base_trace(), 3)
        assert len(scaled.initial_files) == 4
        assert sum(s for _, s in scaled.initial_files) == 400

    def test_copies_under_prefixes(self):
        scaled = replicate_filesystem(base_trace(), 2)
        paths = [p for p, _ in scaled.initial_files]
        assert "/replica1/home/u/f" in paths
        assert "/replica2/home/u/f" in paths

    def test_access_stream_unchanged(self):
        trace = base_trace()
        scaled = replicate_filesystem(trace, 4)
        assert scaled.records == trace.records

    def test_replica_dirs_created(self):
        scaled = replicate_filesystem(base_trace(), 1)
        assert "/replica1" in scaled.initial_dirs
        assert "/replica1/home/u" in scaled.initial_dirs

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            replicate_filesystem(base_trace(), -1)

    def test_name_records_scaling(self):
        assert replicate_filesystem(base_trace(), 2).name == "base+2copies"

    def test_clone_mutation_does_not_alias_source(self):
        """The replicated trace owns its lists — mutating it must never
        reach back into the source trace."""
        trace = base_trace()
        scaled = replicate_filesystem(trace, 1)
        scaled.initial_files.append(("/injected", 1))
        scaled.initial_dirs.append("/injected-dir")
        scaled.records.append(TraceRecord(1.0, "u", READ, "/injected"))
        assert trace.initial_files == [("/home/u/f", 100)]
        assert trace.initial_dirs == ["/home", "/home/u"]
        assert len(trace.records) == 1


class TestCopiesForSize:
    def test_paper_example(self):
        assert copies_for_size(200, 1000) == 4

    def test_same_size_no_copies(self):
        assert copies_for_size(200, 200) == 0

    def test_rounding(self):
        assert copies_for_size(60, 240) == 3
        assert copies_for_size(60, 120) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            copies_for_size(0, 100)
        with pytest.raises(ValueError):
            copies_for_size(100, -1)

    def test_base_larger_than_target(self):
        """Shrinking never asks for negative copies."""
        assert copies_for_size(1000, 200) == 0
        assert copies_for_size(1000, 1) == 0

    def test_exact_multiples(self):
        assert copies_for_size(250, 1000) == 3
        assert copies_for_size(100, 100000) == 999

    def test_rounds_to_nearest(self):
        # 1.4x rounds down (no copies), 1.6x rounds up (one copy).
        assert copies_for_size(100, 140) == 0
        assert copies_for_size(100, 160) == 1


class TestReplayability:
    def test_scaled_image_loads(self):
        from repro.core.system import build_deployment

        scaled = replicate_filesystem(base_trace(), 2)
        d = build_deployment("d2", 8, seed=1)
        d.load_initial_image(scaled)
        assert d.fs.namespace.exists("/replica2/home/u/f")


class TestScaledReadStream:
    TEMPLATE = [
        ("alice", "/a", 0, 10),
        ("bob", "/b", 5, 20),
        ("carol", "/c", 0, 30),
    ]
    REQUESTS = [("/a", 0, 10), ("/b", 5, 20), ("/c", 0, 30)]

    def test_clone_zero_is_verbatim(self):
        out = list(scaled_read_stream(self.TEMPLATE, clones=1, ops_per_clone=3))
        assert out == self.REQUESTS  # the template's requests, users dropped

    def test_clones_strided(self):
        out = list(scaled_read_stream(self.TEMPLATE, clones=2, ops_per_clone=3))
        assert out[:3] == self.REQUESTS
        # clone 1 starts one record later and wraps round the template
        assert out[3:] == self.REQUESTS[1:] + self.REQUESTS[:1]

    def test_replica_round_robin(self):
        out = list(
            scaled_read_stream(self.TEMPLATE, clones=3, ops_per_clone=1, copies=1)
        )
        assert [path for path, _, _ in out] == ["/a", "/replica1/b", "/c"]

    def test_replica_path_helper(self):
        assert replica_path("/x/y", 0) == "/x/y"
        assert replica_path("/x/y", 4) == "/replica4/x/y"

    def test_ops_capped_at_template_size(self):
        out = list(scaled_read_stream(self.TEMPLATE, clones=2, ops_per_clone=99))
        assert len(out) == 6  # no within-clone repeats

    def test_lazy_and_empty(self):
        assert list(scaled_read_stream([], clones=5, ops_per_clone=3)) == []
        tracemalloc.start()
        try:
            stream = scaled_read_stream(self.TEMPLATE, clones=10**9, ops_per_clone=3)
            assert next(stream) == ("/a", 0, 10)  # returned at once: no materialization
            taken = list(islice(stream, 30_000))
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 30 000 ops are the same three tuples: the list's pointers and a
        # memo of three blocks, nothing per clone.
        assert len(set(map(id, taken))) == 3
        assert held < 30_000 * 8 + 16_384

    def test_equal_requests_share_one_tuple(self):
        """One ``(path, offset, length)`` per (replica image, template read)
        and at most ``(copies + 1) * len(reads)`` blocks, whatever *clones*."""
        out = list(scaled_read_stream(self.TEMPLATE, clones=500, ops_per_clone=2, copies=1))
        assert len(out) == 1000
        assert len(set(map(id, out))) == len(set(out)) == 2 * 3

    def test_invalid_args(self):
        """Refused at the call, not at the first ``next()``."""
        for kwargs in (
            {"clones": 0, "ops_per_clone": 1},
            {"clones": 1, "ops_per_clone": 0},
            {"clones": 1, "ops_per_clone": 1, "copies": -1},
        ):
            with pytest.raises(ValueError):
                scaled_read_stream(self.TEMPLATE, **kwargs)  # not iterated
            with pytest.raises(ValueError):
                scaled_read_stream([], **kwargs)

    @pytest.mark.parametrize("size", [1, 3, 12])
    def test_equals_the_per_op_generator(self, size):
        """Item for item (minus the user) the generator it replaced, whole
        and cut into windows that split a clone's block in two."""
        from tests.oracles import read_stream_per_op

        reads = [(f"u{i % 4}", f"/d{i % 3}/f{i}", 100 * i, 10 + i) for i in range(size)]
        for clones in (1, 2, 7, 50):
            for copies in (0, 1, 3):
                for ops_per_clone in (1, 3, 99):  # 99 > every template size
                    kwargs = dict(clones=clones, ops_per_clone=ops_per_clone, copies=copies)
                    expected = [item[1:] for item in read_stream_per_op(reads, **kwargs)]
                    assert list(scaled_read_stream(reads, **kwargs)) == expected, kwargs
                    stream = scaled_read_stream(reads, **kwargs)
                    windows = iter(lambda: list(islice(stream, 5)), [])
                    assert [r for window in windows for r in window] == expected, kwargs


class TestScaleHarness:
    def test_routing_cell_deterministic_and_fast_path(self):
        from repro.analysis.scale import run_scale_routing

        a = run_scale_routing(n_nodes=64, ops=400, batch=128, cold_ops=50, seed=4)
        b = run_scale_routing(n_nodes=64, ops=400, batch=128, cold_ops=50, seed=4)
        assert a.deterministic_row() == b.deterministic_row()
        assert a.ops == 400 and a.windows == 4
        assert a.cold_ops == 50 and a.cold_wall_seconds > 0
        assert a.hops > 0 and a.messages == a.hops + a.ops

    def test_deterministic_routing_work_golden(self, monkeypatch):
        """Routing work of the CI-sized cells, recorded at the commit before
        routing moved to index space (PR 13): hop, message and fetch totals
        and the owner-sequence checksum must never move for these bundles."""
        from repro.analysis.scale import run_scale_routing
        from repro.experiments.scale_matrix import scale_cells
        from repro.runner.cells import scale_cell

        # Ambient knobs that change what the read cell streams.
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        monkeypatch.delenv("REPRO_SCALE_EXPORT_DIR", raising=False)
        routing = run_scale_routing(
            n_nodes=400, ops=4000, batch=512, cold_ops=0, seed=11
        )
        assert routing.deterministic_row() == {
            "cell": "routing", "n_nodes": 400, "users": 0, "ops": 4000,
            "hops": 20895, "messages": 24895, "fetches": 0, "skipped": 0,
            "windows": 8, "checksum": "ac6e81043199b31a",
            "streamed_rows": 0, "streamed_spans": 0, "streamed_health": 0,
        }
        (read_params,) = scale_cells(
            routing_nodes=(), read_cells=((32, 400),), read_base_size=16,
            read_ops_per_user=4, read_window=256, users=2, days=0.25,
        )
        assert scale_cell(read_params).deterministic_row() == {
            "cell": "read", "n_nodes": 32, "users": 400, "ops": 800,
            "hops": 2400, "messages": 3200, "fetches": 24281, "skipped": 7,
            "windows": 4, "checksum": "b89810c2e4996c48",
            "streamed_rows": 4, "streamed_spans": 592, "streamed_health": 12,
        }

    def test_read_cell_smoke(self):
        from repro.analysis.scale import run_scale_read
        from repro.core.system import build_deployment
        from repro.obs.stream import NullJsonlWriter

        trace = replicate_filesystem(
            Trace(
                "t",
                [
                    TraceRecord(0.0, "u", READ, "/home/u/f", offset=0, length=50),
                    TraceRecord(1.0, "u", READ, "/missing", offset=0, length=1),
                ],
                initial_dirs=["/home", "/home/u"],
                initial_files=[("/home/u/f", 40000)],
            ),
            1,
        )
        d = build_deployment("d2", 8, seed=1)
        d.load_initial_image(trace)
        metrics = NullJsonlWriter()
        result = run_scale_read(
            d, trace, copies=1, users=6, ops_per_user=1, window=2,
            metrics_writer=metrics,
        )
        assert result.cell == "read"
        assert result.skipped == 1          # the /missing read
        assert result.users == 6 and result.ops == 6
        assert result.windows == 3 == metrics.rows == result.streamed_rows
        assert result.fetches >= result.ops  # inode + data blocks
        assert len(result.rss_curve_kb) == 3

    def test_read_cell_replays_replica_images(self):
        """Clones beyond the first replica land on /replicaN paths and
        still resolve, producing the same per-op fetch counts."""
        from repro.analysis.scale import run_scale_read
        from repro.core.system import build_deployment

        trace = replicate_filesystem(
            Trace(
                "t",
                [TraceRecord(0.0, "u", READ, "/home/u/f", offset=0, length=100)],
                initial_dirs=["/home", "/home/u"],
                initial_files=[("/home/u/f", 100)],
            ),
            2,
        )
        d = build_deployment("d2", 4, seed=2)
        d.load_initial_image(trace)
        result = run_scale_read(d, trace, copies=2, users=3, ops_per_user=1)
        assert result.ops == 3 and result.skipped == 0


def _read_image(records, copies=2):
    return replicate_filesystem(
        Trace(
            "fold",
            records,
            initial_dirs=["/home", "/home/a", "/home/b", "/shared"],
            initial_files=[
                ("/home/a/f1", 40000), ("/home/a/f2", 100), ("/home/b/g", 9000),
                ("/home/b/empty", 0), ("/shared/big", 200000),
            ],
        ),
        copies,
    )


def _loaded(trace, seed, system="traditional"):
    """Hashed keys by default: D2 keeps an image this small on one owner,
    and a checksum over one repeated name cannot tell two orders apart."""
    from repro.core.system import build_deployment

    deployment = build_deployment(system, 12, seed=seed)
    deployment.load_initial_image(trace)
    deployment.enable_health_monitoring(window=1.0, node_level=False)
    return deployment


def _read(time, user, path, offset=0, length=0):
    return TraceRecord(time, user, READ, path, offset=offset, length=length)


class TestReadFoldAgainstPerOpOracle:
    """``run_scale_read`` counts a window, routes and folds each distinct
    request once and plans it once a run; the per-op replay it replaced
    (over the per-op stream) lives on as ``tests.oracles.fold_reads_per_op``
    and must report the same row."""

    #: 3 base users, 12 resolving reads over 9 distinct requests (repeats by
    #: the same and by other users), a missing path, a directory, a write.
    RECORDS = [
        _read(0.0, "alice", "/home/a/f1", 0, 100),
        _read(1.0, "bob", "/home/a/f1", 0, 100),
        _read(2.0, "alice", "/home/a/f1", 8192, 20000),
        _read(3.0, "carol", "/shared/big"),
        _read(4.0, "bob", "/home/b/g", 100, 0),
        _read(5.0, "carol", "/missing"),
        _read(6.0, "alice", "/home/a/f2", 0, 100),
        _read(7.0, "alice", "/home/a/f1", 0, 100),
        _read(8.0, "bob", "/home/b/empty"),
        _read(9.0, "carol", "/home"),
        TraceRecord(10.0, "bob", "write", "/home/b/g", offset=0, length=10),
        _read(11.0, "carol", "/shared/big", 150000, 60000),
        _read(12.0, "carol", "/shared/big"),
        _read(13.0, "bob", "/home/a/f1", 0, 101),
        _read(14.0, "alice", "/home/b/g", 0, 9000),
    ]

    @staticmethod
    def both(trace, seed, system="traditional", **kwargs):
        from repro.analysis.scale import run_scale_read
        from tests.oracles import fold_reads_per_op

        folded = run_scale_read(_loaded(trace, seed, system), trace, seed=seed, **kwargs)
        return folded.deterministic_row(), fold_reads_per_op(
            _loaded(trace, seed, system), trace, seed=seed, **kwargs
        )

    @pytest.mark.parametrize("system, seed", [("d2", 1), ("traditional", 5), ("traditional", 11)])
    @pytest.mark.parametrize("copies", [0, 1, 2])
    def test_row_equals_per_op_replay(self, system, seed, copies):
        trace = _read_image(self.RECORDS)
        for window in (1, 2, 7, 256, 10**6):
            for ops_per_user in (5, 50):  # below and above the 12-read template
                for users in (2, 3, 40):  # below, at and above the base population
                    folded, per_op = self.both(
                        trace, seed, system, copies=copies, users=users,
                        ops_per_user=ops_per_user, window=window,
                    )
                    assert folded == per_op, (window, ops_per_user, users)
                    assert folded["skipped"] == 2 and folded["ops"] > 0

    def test_all_distinct_and_all_same_windows(self):
        distinct = [_read(float(i), "alice", "/shared/big", 1000 * i, 500) for i in range(9)]
        same = [_read(float(i), f"u{i}", "/home/a/f1", 0, 100) for i in range(9)]
        for records, kinds in ((distinct, 9), (same, 1)):
            trace = _read_image(records, copies=0)
            folded, per_op = self.both(
                trace, 3, copies=0, users=1, ops_per_user=9, window=16
            )
            assert folded == per_op and folded["windows"] == 1 and folded["ops"] == 9
            assert len({(r.path, r.offset, r.length) for r in records}) == kinds

    @pytest.mark.parametrize("mutant", ["forgets-multiplicity", "distinct-order"])
    def test_oracle_catches_seeded_mutants(self, monkeypatch, mutant):
        """A fold that counts each distinct request once, and one that hashes
        owners grouped by distinct request instead of in op order."""
        from itertools import repeat

        from repro.analysis import scale

        fold = scale._fold_routes

        def forgets_multiplicity(digest, results, times, owners):
            return fold(digest, results, repeat(1), owners)

        def distinct_order(digest, results, times, owners):
            grouped = [r.owner for r, n in zip(results, times) for _ in range(n)]
            return fold(digest, results, times, grouped)

        monkeypatch.setattr(
            scale, "_fold_routes",
            forgets_multiplicity if mutant == "forgets-multiplicity" else distinct_order,
        )
        folded, per_op = self.both(
            _read_image(self.RECORDS), 11, copies=2, users=40, ops_per_user=5, window=64
        )
        differing = {name for name in per_op if folded[name] != per_op[name]}
        assert differing == (
            {"hops", "messages"} if mutant == "forgets-multiplicity" else {"checksum"}
        )

    @pytest.mark.parametrize("system, seed", [("d2", 1), ("d2", 11), ("traditional", 5)])
    def test_plan_reused_across_windows_meets_a_new_source(self, monkeypatch, system, seed):
        """15 clones of a 12-read template in windows of 7: every request
        recurs in several windows, is planned in the first only, and is
        routed there and later from differently drawn sources."""
        from repro.analysis import scale
        from repro.core.system import Deployment

        planned, sources = [], []
        plan, route_many = Deployment.read_fetches_many, scale.route_many

        def counted_plan(self, requests):
            planned.extend(requests)
            return plan(self, requests)

        def counted_route(ring, source, keys):
            sources.append(source)
            return route_many(ring, source, keys)

        trace = _read_image(self.RECORDS)
        kwargs = dict(copies=2, users=45, ops_per_user=12, window=7)
        with monkeypatch.context() as patch:
            patch.setattr(Deployment, "read_fetches_many", counted_plan)
            patch.setattr(scale, "route_many", counted_route)
            folded = scale.run_scale_read(
                _loaded(trace, seed, system), trace, seed=seed, **kwargs
            ).deterministic_row()
        _, per_op = self.both(trace, seed, system, **kwargs)
        assert folded == per_op
        assert folded["ops"] == 180 and len(sources) == folded["windows"] == 26
        assert len(set(sources)) > 1
        # 9 distinct requests on each of 3 images, each planned once a run.
        assert len(planned) == len(set(planned)) == 27

    @pytest.mark.parametrize("system", ["d2", "traditional"])
    @pytest.mark.parametrize("hidden", [False, True], ids=["write", "mutant-unseen-write"])
    def test_write_between_windows_replans(self, system, hidden):
        """A callback grows a file between windows 1 and 2.  The flush moved
        ``fs.root_version``, so the plans are dropped and the row is still
        the per-op replay's; the seeded mutant puts the version back — the
        reuse a replay that did not look would make — and the row is wrong."""
        from repro.analysis.scale import run_scale_read
        from tests.oracles import fold_reads_per_op

        trace = _read_image(self.RECORDS, copies=0)
        kwargs = dict(copies=0, users=45, ops_per_user=12, window=60, seed=5)

        def loaded(hide):
            deployment = _loaded(trace, 5, system)
            fs = deployment.fs

            def grow():
                version = fs.root_version
                deployment.apply_fs_ops(fs.write("/shared/big", 200000, 50000))
                if hide:
                    fs.root_version = version

            deployment.sim.schedule(1.5, grow)
            return deployment

        folded = run_scale_read(loaded(hidden), trace, **kwargs).deterministic_row()
        per_op = fold_reads_per_op(loaded(False), trace, **kwargs)
        assert per_op["windows"] == 3
        differing = {name for name in per_op if folded[name] != per_op[name]}
        if hidden:
            assert "fetches" in differing
        else:
            assert not differing

    def test_edge_inputs_fail_before_anything_is_scheduled(self):
        from repro.analysis.scale import run_scale_read

        trace = _read_image(self.RECORDS)
        deployment = _loaded(trace, 1)
        pending = deployment.sim.pending()
        for users in (0, -5):
            with pytest.raises(ValueError, match=f"users must be positive, got {users}"):
                run_scale_read(deployment, trace, copies=2, users=users)
        for copies in (-1, 3, 5):
            with pytest.raises(ValueError, match=rf"copies must be in \[0, 2\].*got {copies}"):
                run_scale_read(deployment, trace, copies=copies, users=3)
        assert deployment.sim.pending() == pending


class TestBenchTrajectorySchema:
    """BENCH_scale.json run entries carry an explicit per-entry schema."""

    def _result(self):
        from repro.analysis.scale import ScaleCellResult

        return ScaleCellResult(
            cell="routing", n_nodes=8, users=0, ops=10, windows=1,
            hops=20, messages=30, fetches=0, skipped=0, checksum="ab",
            streamed_rows=0, streamed_spans=0,
        )

    def test_unversioned_entries_are_refused(self):
        """Every committed run carries ``schema``; the in-place migration
        that stamped the pre-versioning pr7/pr8 entries is gone."""
        from repro.experiments.scale_matrix import validate_run

        legacy = {"label": "pr7", "cells": [{"cell": "routing"}]}
        assert validate_run(legacy, 0) == [
            "runs[0]: schema None not an int in [1, 2]"
        ]

    def test_validate_run_reports_problems(self):
        from repro.experiments.scale_matrix import RUN_SCHEMA, validate_run

        good = {"label": "x", "schema": RUN_SCHEMA,
                "cells": [{"cell": "read"}]}
        assert validate_run(good, 0) == []
        problems = validate_run(
            {"label": "", "schema": RUN_SCHEMA + 1, "cells": "nope"}, 3
        )
        assert len(problems) == 3
        assert all(p.startswith("runs[3]") for p in problems)
        assert validate_run("garbage", 0) == ["runs[0]: not an object"]

    def test_record_appends_versioned_and_refuses_unversioned(self, tmp_path):
        import json

        import pytest as _pytest

        from repro.experiments.scale_matrix import (
            BENCH_SCHEMA,
            RUN_SCHEMA,
            load_trajectory,
            record_trajectory,
        )

        target = tmp_path / "BENCH_scale.json"
        seeded = {"label": "pr7", "schema": 1, "cells": [{"cell": "routing"}]}
        target.write_text(json.dumps({"schema": BENCH_SCHEMA, "runs": [seeded]}))
        record_trajectory([self._result()], path=str(target), label="pr9")
        document = load_trajectory(str(target))
        assert [(r["label"], r["schema"]) for r in document["runs"]] == [
            ("pr7", 1), ("pr9", RUN_SCHEMA),
        ]
        # A pre-versioning document (the shape pr7 was first committed in)
        # is an error, and recording onto it leaves the file as it was.
        del seeded["schema"]
        unversioned = json.dumps({"schema": BENCH_SCHEMA, "runs": [seeded]})
        target.write_text(unversioned)
        with _pytest.raises(ValueError, match=r"runs\[0\]: schema None"):
            record_trajectory([self._result()], path=str(target), label="pr9")
        assert target.read_text() == unversioned

    def test_load_rejects_corrupt_documents(self, tmp_path):
        import json

        import pytest as _pytest

        from repro.experiments.scale_matrix import load_trajectory

        target = tmp_path / "BENCH_scale.json"
        target.write_text(json.dumps({"schema": 99, "runs": []}))
        with _pytest.raises(ValueError):
            load_trajectory(str(target))
        target.write_text(json.dumps({
            "schema": 1,
            "runs": [{"label": "", "schema": 1, "cells": []}],
        }))
        with _pytest.raises(ValueError):
            load_trajectory(str(target))

    def test_committed_trajectory_validates(self):
        import os

        from repro.experiments.scale_matrix import load_trajectory

        committed = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_scale.json",
        )
        document = load_trajectory(committed)
        assert all("schema" in run for run in document["runs"])
