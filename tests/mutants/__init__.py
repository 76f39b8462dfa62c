"""Seeded mutants and the runner that scores every guard against them.

``python -m tests.mutants`` patches a copy of the tree with each mutant of
:mod:`tests.mutants.catalogue` in turn, runs every guard once, and prints
the caught/missed matrix with each guard's cost.  Tier-1 does not collect
this package; ``tests/test_mutant_catalogue.py`` only checks that the
catalogue still applies.
"""
