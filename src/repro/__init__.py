"""repro: a reproduction of "Defragmenting DHT-based Distributed File
Systems" (Pang et al., ICDCS 2007) — the D2 system.

The package is organized by subsystem:

- :mod:`repro.core`  — D2's contribution: locality-preserving keys, lookup
  caches, configuration, and system facades;
- :mod:`repro.dht`   — ring, routing, consistent hashing, active balancing;
- :mod:`repro.store` — block directory, pointers, migration accounting;
- :mod:`repro.fs`    — the CFS-like file-system layer and write-back cache;
- :mod:`repro.sim`   — event engine, network/TCP models, failure traces;
- :mod:`repro.workloads` — synthetic Harvard/HP/Web trace generators;
- :mod:`repro.analysis`  — the paper's evaluation metrics;
- :mod:`repro.experiments` — the figure table (one entry per table,
  figure, matrix, ablation and extension) and the run grids it projects;
- :mod:`repro.runner` — grid cells, process-parallel execution, disk cache;
- :mod:`repro.obs`, :mod:`repro.lint` — metrics/traces/health reports and
  the determinism linter.
"""

__version__ = "1.0.0"
