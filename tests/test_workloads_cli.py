"""Tests for the workload-generation CLI."""

import re

import pytest

from repro.workloads.__main__ import main
from repro.workloads.trace import Trace


class TestGenerate:
    def test_harvard_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "h.jsonl")
        assert main(["harvard", "--users", "2", "--days", "0.2", "-o", out]) == 0
        assert "wrote" in capsys.readouterr().out
        trace = Trace.load(out)
        assert trace.name == "harvard-synth"
        assert len(trace.records) > 0

    def test_web_generate(self, tmp_path):
        out = str(tmp_path / "w.jsonl")
        assert main(["web", "--users", "2", "--sites", "4",
                     "--days", "0.1", "-o", out]) == 0
        assert Trace.load(out).users()

    def test_hp_generate(self, tmp_path):
        out = str(tmp_path / "b.jsonl")
        assert main(["hp", "--apps", "2", "--days", "0.1", "-o", out]) == 0
        assert len(Trace.load(out).records) > 0

    def test_stats_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "h.jsonl")
        main(["harvard", "--users", "2", "--days", "0.1", "-o", out])
        capsys.readouterr()
        assert main(["stats", out]) == 0
        text = capsys.readouterr().out
        assert "accesses:" in text
        assert "active_bytes:" in text

    def test_seed_reproducible(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        main(["harvard", "--users", "2", "--days", "0.1", "--seed", "5", "-o", a])
        main(["harvard", "--users", "2", "--days", "0.1", "--seed", "5", "-o", b])
        assert open(a).read() == open(b).read()

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCorruptTrace:
    """``stats`` on a damaged saved trace: one error naming the file and the
    line, exit 1, no traceback."""

    @pytest.fixture
    def saved(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        main(["harvard", "--users", "2", "--days", "1", "-o", str(path)])
        capsys.readouterr()
        return path

    def rewrite_line(self, path, number, edit):
        lines = path.read_text().splitlines(keepends=True)
        lines[number - 1] = edit(lines[number - 1])
        path.write_text("".join(lines))

    def stats_error(self, path, capsys):
        assert main(["stats", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_line_cut_off(self, saved, capsys):
        self.rewrite_line(saved, 51, lambda line: line[:37] + "\n")
        err = self.stats_error(saved, capsys)
        assert f"{saved}: line 51: not JSON" in err

    def test_record_without_user(self, saved, capsys):
        self.rewrite_line(saved, 51, lambda line: line.replace('"user": ', '"who": '))
        err = self.stats_error(saved, capsys)
        assert f"{saved}: line 51: record has no user" in err

    def test_unknown_op(self, saved, capsys):
        self.rewrite_line(saved, 51, lambda line: re.sub(r'"op": "\w+"', '"op": "chmod"', line))
        err = self.stats_error(saved, capsys)
        assert f"{saved}: line 51: unknown op 'chmod'" in err

    def test_cut_at_a_line_boundary_still_loads(self, saved):
        lines = saved.read_text().splitlines(keepends=True)
        saved.write_text("".join(lines[:51]))
        assert len(Trace.load(str(saved)).records) == 50
