"""The mutant catalogue cannot rot silently.

Every mutant in ``tests/mutants/catalogue.py`` names text in one source
file.  A refactor that moves or rewrites that text would leave the mutant
scoring nothing; here it fails instead: each hunk's ``old`` must occur
exactly once, and the patched file must still compile.  The current
matrix of ``docs/static-analysis.md`` must name the catalogue as it is.
"""

import re
from pathlib import Path

import pytest

from tests.mutants.catalogue import MUTANTS, RETIRED, apply

ROOT = Path(__file__).parent.parent
DOC = ROOT / "docs" / "static-analysis.md"


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids)) >= 30


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_applies_once_and_compiles(mutant):
    source = (ROOT / mutant.path).read_text()
    patched = apply(mutant, source)
    assert patched != source
    compile(patched, mutant.path, "exec")


def test_current_matrix_names_each_live_mutant_once():
    text = DOC.read_text(encoding="utf-8")
    section = text.split("### The current matrix", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (\d+) \| `([\w-]+)` \|", section, re.M)
    assert [name for _, name in rows] == [m.id for m in MUTANTS]
    assert [int(number) for number, _ in rows] == list(range(1, len(MUTANTS) + 1))
    assert not set(RETIRED) & set(re.findall(r"`([\w-]+)`", section))
    assert not set(RETIRED) & {m.id for m in MUTANTS}
