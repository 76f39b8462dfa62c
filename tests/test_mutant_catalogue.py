"""The mutant catalogue cannot rot silently.

Every mutant in ``tests/mutants/catalogue.py`` names text in one source
file.  A refactor that moves or rewrites that text would leave the mutant
scoring nothing; here it fails instead: each hunk's ``old`` must occur
exactly once, and the patched file must still compile.
"""

from pathlib import Path

import pytest

from tests.mutants.catalogue import MUTANTS, apply

ROOT = Path(__file__).parent.parent


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids)) >= 30


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_applies_once_and_compiles(mutant):
    source = (ROOT / mutant.path).read_text()
    patched = apply(mutant, source)
    assert patched != source
    compile(patched, mutant.path, "exec")
