"""Tests for the `python -m repro` command-line interface."""


from repro.__main__ import main
from repro.experiments.figures import Figure, Table


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table4" in out and "hybrid" in out

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "finished in" in out

    def test_runs_multiple(self, capsys):
        assert main(["table1", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "hot spot" in out.lower()

    def test_all_combines_and_duplicates_run_once(self, capsys, monkeypatch):
        ran = []

        def stub(name, in_all=True):
            table = Table(f"table of {name}", ("x",), lambda: ran.append(name) or [{"x": 1}])
            return Figure(name, name.upper(), "stub", table, in_all=in_all)

        monkeypatch.setattr(
            "repro.__main__.FIGURES",
            {"a": stub("a"), "b": stub("b"), "slow": stub("slow", in_all=False)},
        )
        assert main(["b", "all", "list", "b"]) == 0
        assert ran == ["b", "a"]  # `all` leaves out `slow`; nothing runs twice
        out = capsys.readouterr().out
        assert out.index("table of b") < out.index("table of a") < out.index("available")
        assert main(["all", "fig99"]) == 2
        assert "unknown experiment(s): fig99" in capsys.readouterr().err
