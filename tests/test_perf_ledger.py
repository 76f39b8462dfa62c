"""The performance PR table of docs/performance.md against ``BENCH_calls.json``.

Each row of the table that names a ledger run must name one that exists,
and its call count — ``cell N`` or ``cell N → M`` — must be that cell's
total in the run (``M``) and in the run before it (``N``), so the docs
cannot drift from the ledger.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
DOC = ROOT / "docs" / "performance.md"

#: ``1 020 421`` — digits grouped by spaces, as the docs write counts.
_COUNT = r"\d{1,3}(?: \d{3})*"
_CALLS = re.compile(rf"^`(?P<cell>[^`]+)` (?P<first>{_COUNT})(?: → (?P<after>{_COUNT}))?$")


def _table_rows():
    """``(ledger, calls)`` cells of every row of the PR table."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("## The performance PRs", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if re.match(r"^\| \d+ \|", line)]
    assert rows, "the PR table has no rows"
    for line in rows:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert len(cells) == 5, line
        yield cells[2], cells[3]


def _count(text):
    return int(text.replace(" ", ""))


def test_table_cites_the_ledger_as_it_is():
    runs = json.loads((ROOT / "BENCH_calls.json").read_text())["runs"]
    totals = [(run["label"], {row["cell"]: row["total"] for row in run["cells"]})
              for run in runs]
    index = {label: at for at, (label, _) in enumerate(totals)}
    cited = []
    for ledger, calls in _table_rows():
        if ledger == "unledgered":
            assert calls == "—", calls
            continue
        label = ledger.strip("`")
        assert label in index, f"{label} is not a run of BENCH_calls.json"
        match = _CALLS.match(calls)
        assert match, calls
        cell, at = match["cell"], index[label]
        if match["after"] is None:
            assert _count(match["first"]) == totals[at][1][cell], (label, cell)
        else:
            assert at > 0, f"{label} has no run before it"
            assert _count(match["first"]) == totals[at - 1][1][cell], (label, cell)
            assert _count(match["after"]) == totals[at][1][cell], (label, cell)
        cited.append(label)
    assert cited, "no row cites the ledger"
    assert len(cited) == len(set(cited)), cited
