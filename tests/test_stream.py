"""Tests for streaming export: JsonlWriter, read_jsonl, Tracer.drain, stream_spans."""

import json

import pytest

from repro.obs.spans import Tracer, validate_span_dict
from repro.obs.stream import JsonlWriter, NullJsonlWriter, read_jsonl, stream_spans


class TestJsonlWriter:
    def test_writes_one_object_per_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with JsonlWriter(str(path)) as writer:
            writer.write({"b": 2, "a": 1})
            writer.write({"x": [1, 2]})
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"a": 1, "b": 2},
            {"x": [1, 2]},
        ]
        # deterministic serialization: keys sorted
        assert lines[0] == '{"a": 1, "b": 2}'

    def test_counts_rows(self, tmp_path):
        with JsonlWriter(str(tmp_path / "r.jsonl")) as writer:
            assert writer.rows == 0
            writer.write({})
            writer.write({})
            assert writer.rows == 2

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "r.jsonl"
        with JsonlWriter(str(path)) as writer:
            writer.write({"ok": True})
        assert path.exists()

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlWriter(str(tmp_path / "r.jsonl"))
        writer.close()
        with pytest.raises(ValueError):
            writer.write({})
        writer.close()  # idempotent

    def test_null_writer_counts_only(self):
        writer = NullJsonlWriter()
        writer.write({"a": 1})
        writer.write({"a": 2})
        assert writer.rows == 2
        assert writer.path is None


class TestDrain:
    def test_drain_pops_only_finished(self):
        tracer = Tracer(sample=1.0, seed=1)
        root = tracer.start_trace("root", 0.0)
        child = tracer.start_span("child", 0.5, root)
        tracer.finish(child, 1.0)
        drained = tracer.drain()
        assert [d["name"] for d in drained] == ["child"]
        assert [d["name"] for d in tracer.to_dicts()] == ["root"]  # open root stays buffered
        tracer.finish(root, 2.0)
        assert [d["name"] for d in tracer.drain()] == ["root"]

    def test_repeated_drains_see_each_span_once(self):
        tracer = Tracer(sample=1.0, seed=1)
        seen = []
        for i in range(5):
            root = tracer.start_trace(f"t{i}", float(i))
            tracer.finish(root, float(i) + 0.5)
            seen.extend(d["name"] for d in tracer.drain())
        assert seen == [f"t{i}" for i in range(5)]
        assert tracer.drain() == []
        assert tracer.finished == 5  # cumulative stats survive draining

    def test_drained_payloads_validate(self):
        tracer = Tracer(sample=1.0, seed=1)
        root = tracer.start_trace("op", 0.0, kind="test")
        tracer.finish(root, 1.0)
        for payload in tracer.drain():
            assert validate_span_dict(payload) == []


class TestStreamSpans:
    def test_streams_to_writer(self, tmp_path):
        tracer = Tracer(sample=1.0, seed=1)
        path = tmp_path / "spans.jsonl"
        with JsonlWriter(str(path)) as writer:
            for i in range(3):
                root = tracer.start_trace(f"t{i}", float(i))
                tracer.finish(root, float(i) + 1.0)
                assert stream_spans(tracer, writer) == 1
            assert stream_spans(tracer, writer) == 0
        assert len(path.read_text().splitlines()) == 3

    def test_null_tracer_is_noop(self):
        writer = NullJsonlWriter()
        assert stream_spans(Tracer(sample=0.0), writer) == 0
        assert writer.rows == 0

    def test_bounded_memory(self):
        """Draining every window keeps the buffer from accumulating."""
        tracer = Tracer(capacity=64, sample=1.0, seed=1)
        writer = NullJsonlWriter()
        for i in range(500):
            root = tracer.start_trace("op", float(i))
            tracer.finish(root, float(i) + 0.1)
            stream_spans(tracer, writer)
        assert writer.rows == 500
        assert len(tracer) == 0  # drained, not lost: all 500 exported


class TestReadJsonl:
    """One line loop behind both CLI loaders: bad lines are named, never returned."""

    def test_truncated_and_off_schema_lines_are_reported(self, tmp_path):
        from repro.obs.healthcli import load_rows
        from repro.obs.tracecli import load_spans

        tracer = Tracer(sample=1.0)
        tracer.finish(tracer.start_trace("fetch", 0.0), 1.0)
        good_span = json.dumps(tracer.to_dicts()[0], sort_keys=True)
        good_row = json.dumps({
            "type": "series", "name": "ring.nodes", "kind": "gauge", "labels": {},
            "window": 0, "start": 0.0, "end": 900.0, "count": 1, "value": 8,
        })
        for good, load, off_schema in (
            (good_span, load_spans, '{"span_id": "s1"}'),
            (good_row, load_rows, '{"type": "series", "name": "x"}'),
        ):
            path = tmp_path / "cut.jsonl"
            # good, blank, off-schema, not an object, cut mid-write
            path.write_text(f"{good}\n\n{off_schema}\n[1]\n{good[:25]}")
            loaded, problems = load(str(path))
            assert len(loaded) == 1
            assert [p.split(":")[0] for p in problems][-2:] == ["line 4", "line 5"]
            assert any(p.startswith("line 3: ") for p in problems)
            assert "not JSON" in problems[-1]

    @pytest.mark.parametrize("command", ["trace", "health"])
    def test_a_line_that_is_not_utf8_is_reported(self, tmp_path, capsys, command):
        """Both CLIs name the undecodable line, go on to the next, and exit 1."""
        from repro.obs.__main__ import main

        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b'{"a": 1}\n\xff\n{"a": 2}\n')
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: INVALID" in err
        assert "line 2: not UTF-8" in err
        assert "line 3: " in err
        assert "Traceback" not in err

    def test_check_sees_every_decoded_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        seen = []
        payloads, problems = read_jsonl(
            str(path), lambda p: seen.append(p) or (["odd"] if p["a"] % 2 else [])
        )
        assert seen == [{"a": 1}, {"a": 2}]
        assert (payloads, problems) == ([{"a": 2}], ["line 1: odd"])


class TestDrainComposesWithTraceCli:
    """Satellite acceptance: a run exported as several drained JSONL
    segments must analyze identically to the same run exported whole."""

    def _run_workload(self, tracer):
        """Three fetch traces with lookup/transfer children."""
        for i in range(3):
            base = float(i)
            root = tracer.start_trace("fetch", base, op=i)
            tracer.finish(tracer.start_span("lookup", base, root), base + 0.2)
            transfer = tracer.start_span("transfer", base + 0.2, root)
            tracer.finish(
                tracer.start_span("tcp.transfer", base + 0.25, transfer),
                base + 0.5,
            )
            tracer.finish(transfer, base + 0.5)
            tracer.finish(root, base + 0.5)
            yield  # segment boundary: the caller may drain here

    def _cli_body(self, path, capsys):
        from repro.obs.tracecli import main as trace_main

        assert trace_main([path, "--require-complete"]) == 0
        out = capsys.readouterr().out
        # Everything below the "== <path>" header must match across runs.
        return out.split("\n", 1)[1]

    def test_segmented_export_matches_undrained_run(self, tmp_path, capsys):
        from repro.obs.tracecli import build_forest, load_spans

        # Run A: drain after every trace into numbered segment files.
        tracer = Tracer(sample=1.0, seed=7)
        segments = []
        for index, _ in enumerate(self._run_workload(tracer)):
            path = tmp_path / f"segment{index}.jsonl"
            with JsonlWriter(str(path)) as writer:
                stream_spans(tracer, writer)
            segments.append(path)
        assert len(segments) == 3 and all(p.exists() for p in segments)
        assert not tracer.drain()  # everything exported

        # Run B: identical workload, exported whole at the end.
        control = Tracer(sample=1.0, seed=7)
        for _ in self._run_workload(control):
            pass
        whole = str(tmp_path / "whole.jsonl")
        with JsonlWriter(whole) as writer:
            for payload in control.to_dicts():
                writer.write(payload)

        # Concatenating the segments reconstructs one valid trace file...
        combined = tmp_path / "combined.jsonl"
        combined.write_text(
            "".join(p.read_text() for p in segments), encoding="utf-8"
        )
        spans_combined, problems = load_spans(str(combined))
        assert not problems
        forest_combined = build_forest(spans_combined)
        forest_whole = build_forest(load_spans(whole)[0])
        assert len(forest_combined.roots) == len(forest_whole.roots) == 3
        assert not forest_combined.orphans and not forest_combined.open_spans

        def shape(forest):
            return sorted(
                (r.name, r.start, r.end, [c.name for c in r.children])
                for r in forest.roots
            )

        assert shape(forest_combined) == shape(forest_whole)

        # ...and the CLI's full analysis (attribution, critical paths,
        # slowest traces, flamegraph) is identical to the undrained run.
        assert self._cli_body(str(combined), capsys) == self._cli_body(
            whole, capsys
        )
