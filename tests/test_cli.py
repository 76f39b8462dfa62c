"""Tests for the `python -m repro` command-line interface."""


from repro.__main__ import main
from repro.experiments.claims import Claim
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
            return Figure(name, name.upper(), (), table, in_all=in_all)

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

    def test_claims_set_the_exit_code(self, capsys, monkeypatch):
        """0 when every claim holds or a gap still fails; 1, naming the
        claim on stderr, when a held claim fails or a gap's claim holds.
        Stdout is the report either way."""
        one = Claim("v is 1", lambda rows: rows[0]["v"] == 1)
        two = Claim("v is 2", lambda rows: rows[0]["v"] == 2)
        one_gap = Claim("v is 1", one.predicate, gap="it is")
        two_gap = Claim("v is 2", two.predicate, gap="it is 1")
        cases = [
            ((one,), 0, []),
            ((one, two_gap), 0, ["[x] gap: v is 2 -- it is 1"]),
            ((one, two), 1, ["[x] claim failed: v is 2"]),
            ((one_gap,), 1, ["[x] gap now holds, mark it held: v is 1"]),
        ]
        for claims, code, err in cases:
            table = Table("table x", ("v",), lambda: [{"v": 1}])
            monkeypatch.setattr("repro.__main__.FIGURES", {"x": Figure("x", "X", claims, table)})
            assert main(["x"]) == code
            out, got = capsys.readouterr()
            assert out.startswith("table x\n") and "[x finished in" in out
            assert got.splitlines() == err
