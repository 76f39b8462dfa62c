"""The Harvard harness: one builder and one replay loop (Section 9.1).

Every Harvard measurement — Figures 7–16, Tables 2–4, the churn storm,
the erasure extension and the scale read cell — sets up the same way:
load the trace's initial image (replicated per node count by the caller,
when Section 9.1's methodology asks for it) onto a fresh deployment and
let the balancer stabilize node positions.  :func:`harvard_deployment`
is that set-up and :func:`replay` the trace replay that follows it; a
measurement is what a caller schedules on the deployment in between and
the ``measure`` callback it hands the loop.

Set-up never advances the simulator clock, so the first
``Deployment.advance_to`` of a cell is always its first replayed record.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import D2Config
from repro.core.system import Deployment, ReplayOutcome, build_deployment
from repro.workloads.trace import READ, Trace, TraceRecord

Measure = Callable[[TraceRecord, ReplayOutcome], None]


def harvard_deployment(
    trace: Trace,
    system: str,
    n_nodes: int,
    *,
    seed: int,
    config: Optional[D2Config] = None,
    stabilize: bool = True,
) -> Deployment:
    """A *system* deployment holding *trace*'s initial image.

    With ``stabilize`` the balancer runs to convergence first (the
    paper's "simulated for 3 days so that node positions stabilize").
    The traffic ledger is reset afterwards, so it counts the replay only.
    """
    deployment = build_deployment(system, n_nodes, config=config, seed=seed)
    deployment.load_initial_image(trace)
    if stabilize:
        deployment.stabilize()
    deployment.store.ledger = type(deployment.store.ledger)()
    return deployment


def replay(
    deployment: Deployment,
    trace: Trace,
    measure: Optional[Measure] = None,
    *,
    reads: bool = True,
) -> None:
    """Advance *deployment* to each record of *trace* and replay it.

    ``measure(record, outcome)`` sees every replayed record in trace
    order.  With ``reads=False`` the clock still advances to each read,
    but reads are not replayed (they do not change where data lives).
    """
    for record in trace.records:
        deployment.advance_to(record.time)
        if reads or record.op != READ:
            outcome = deployment.replay_record(record)
            if measure is not None:
                measure(record, outcome)
