"""Tests for the trace model and serialization."""

import pytest

from repro.workloads.trace import (
    CREATE,
    DELETE,
    READ,
    RENAME,
    Trace,
    TraceRecord,
    WRITE,
)


def rec(t, user="u", op=READ, path="/f", **kwargs):
    return TraceRecord(t, user, op, path, **kwargs)


class TestRecord:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(0.0, "u", "chmod", "/f")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rec(-1.0)

    def test_frozen(self):
        record = rec(0.0)
        with pytest.raises(Exception):
            record.time = 5.0


class TestTrace:
    def test_records_sorted_on_construction(self):
        trace = Trace("t", [rec(5.0), rec(1.0), rec(3.0)])
        assert [r.time for r in trace] == [1.0, 3.0, 5.0]

    def test_duration(self):
        trace = Trace("t", [rec(1.0), rec(11.0)])
        assert trace.duration == 10.0
        assert Trace("e", []).duration == 0.0

    def test_users_sorted_unique(self):
        trace = Trace("t", [rec(0, user="b"), rec(1, user="a"), rec(2, user="b")])
        assert trace.users() == ["a", "b"]

    def test_slice_half_open(self):
        trace = Trace("t", [rec(0.0), rec(5.0), rec(10.0)])
        part = trace.slice(0.0, 10.0)
        assert len(part) == 2
        assert part.initial_files == trace.initial_files

    def test_per_user_preserves_order(self):
        trace = Trace("t", [rec(0, user="a"), rec(1, user="b"), rec(2, user="a")])
        by_user = trace.per_user()
        assert [r.time for r in by_user["a"]] == [0, 2]


class TestStats:
    def test_counts(self):
        trace = Trace(
            "t",
            [
                rec(0.0, op=READ, path="/a", length=100),
                rec(1.0, op=WRITE, path="/a", offset=0, length=50),
                rec(2.0, op=CREATE, path="/b", size=500),
                rec(3.0, op=DELETE, path="/b"),
            ],
            initial_files=[("/a", 100)],
        )
        stats = trace.stats()
        assert stats["accesses"] == 2
        assert stats["operations"] == 4
        assert stats["active_files"] == 2
        assert stats["active_bytes"] == 600

    def test_sizes_inferred_from_reads(self):
        trace = Trace("t", [rec(0.0, path="/obj", length=4096)])
        assert trace.stats()["active_bytes"] == 4096


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        trace = Trace(
            "demo",
            [rec(0.0), rec(1.0, op=RENAME, path="/f", dst_path="/g")],
            initial_dirs=["/home"],
            initial_files=[("/f", 123)],
        )
        path = str(tmp_path / "trace.jsonl")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "demo"
        assert len(loaded) == 2
        assert loaded.records[1].dst_path == "/g"
        assert loaded.initial_files == [("/f", 123)]
        assert loaded.initial_dirs == ["/home"]
