"""End-to-end benchmark of the D2 reproduction (``python -m benchmarks.e2e``).

Five fixed workloads, each replayed in fresh worker processes; host time and
memory are measured around the program's public cell functions, simulated
outcomes are taken from their results and must repeat exactly, and a
separate traced pass attributes host time to layers by wrapping the layers'
public callables from outside (:mod:`benchmarks.e2e.seams`).  See
``README.md`` in this directory for the metric glossary.
"""
