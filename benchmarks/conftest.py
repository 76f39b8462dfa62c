"""Benchmark-suite configuration."""


def run_once(benchmark, fn):
    """Time one full experiment run (no warmup repetitions — these are
    minutes-long simulations, not microbenchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
