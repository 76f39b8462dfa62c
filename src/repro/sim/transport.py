"""TCP transfer-time model with slow-start and idle restart (Section 9.3).

The paper's parallel-performance results hinge on a TCP detail: a
connection idle for more than one retransmit timeout (RTO) collapses its
window and re-enters slow start, so in a big traditional DHT — where
successive blocks come from ever-different nodes — *every* 8 KB block fetch
pays ≥ 2 RTTs and the sender's access link is never filled.  In D2 most
requests hit the same 4 replica nodes, connections stay warm, and transfers
run at the full link rate.

We model each (client, server) pair's connection with two pieces of state:
the congestion window and the time it was last used.  A transfer of ``S``
bytes proceeds in slow-start rounds (window doubling per RTT, starting at 2
segments = 2920 bytes as in Linux) until the window covers either the
remaining bytes or the bandwidth-delay product, after which the residue
streams at the available rate.  Connection setup is free: the paper
pre-establishes all-pairs TCP connections to emulate an optimized DHT
transport, and so do we.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.network import LatencyModel

MSS_BYTES = 1460
INITIAL_WINDOW_BYTES = 2 * MSS_BYTES  # Linux initial cwnd of 2 segments
MIN_RTO = 0.2  # Linux TCP_RTO_MIN


@dataclass
class _Connection:
    cwnd: int = INITIAL_WINDOW_BYTES
    last_used: float = float("-inf")


@dataclass
class TransferResult:
    duration: float
    slow_start_rounds: int
    restarted: bool


class TcpTransport:
    """Transfer-time oracle for block downloads between named nodes.

    With a span *tracer* (:class:`repro.obs.spans.Tracer`), each transfer
    performed under a live parent span records a ``tcp.transfer`` child
    annotated warm (window preserved) or cold (slow-start restart) — the
    distinction the paper's parallel-performance results hinge on.
    """

    def __init__(self, latency: LatencyModel, *, spans=None) -> None:
        self._latency = latency
        self._connections: Dict[Tuple[str, str], _Connection] = {}
        self._spans = spans
        self.transfers = 0
        self.slow_start_restarts = 0

    def rto(self, rtt: float) -> float:
        """Retransmit timeout: srtt + 4*rttvar floored at the Linux minimum."""
        return max(MIN_RTO, 2.0 * rtt)

    def transfer(
        self,
        server: str,
        client: str,
        nbytes: int,
        now: float,
        *,
        rate_bytes_per_sec: float,
        parent=None,
    ) -> TransferResult:
        """Time for *server* to deliver *nbytes* to *client* starting *now*.

        ``rate_bytes_per_sec`` is the sender's currently available share of
        its access link.  Updates connection state (window growth, last-use
        time) so back-to-back transfers on a warm connection skip slow
        start.  *parent* is an optional span the transfer is recorded
        under.
        """
        if nbytes < 0:
            raise ValueError("cannot transfer negative bytes")
        self.transfers += 1
        rtt = self._latency.rtt(server, client)
        conn = self._connections.get((server, client))
        if conn is None:
            conn = self._connections[server, client] = _Connection()
        restarted = False
        if now - conn.last_used > self.rto(rtt):
            if conn.last_used != float("-inf"):
                self.slow_start_restarts += 1
                restarted = True
            conn.cwnd = INITIAL_WINDOW_BYTES

        if rtt <= 0.0:
            # Local transfer: pure serialization delay.
            duration = nbytes / rate_bytes_per_sec if rate_bytes_per_sec > 0 else 0.0
            conn.last_used = now + duration
            self._record_span(server, client, nbytes, now, duration, 0, restarted, parent)
            return TransferResult(duration, 0, restarted)

        bdp = max(INITIAL_WINDOW_BYTES, int(rate_bytes_per_sec * rtt))
        remaining = nbytes
        # Baseline: the request leg plus the final data leg — even a
        # one-window transfer costs a full round trip.
        duration = rtt
        rounds = 0
        cwnd = conn.cwnd
        # Slow-start rounds: each window that doesn't cover the residue
        # costs one extra RTT (ack cycle) while the window doubles toward
        # the bandwidth-delay product.
        while remaining > cwnd and cwnd < bdp:
            remaining -= cwnd
            duration += rtt
            cwnd = min(cwnd * 2, bdp)
            rounds += 1
        if remaining > 0 and rate_bytes_per_sec > 0:
            duration += remaining / rate_bytes_per_sec
        conn.cwnd = cwnd
        conn.last_used = now + duration
        self._record_span(server, client, nbytes, now, duration, rounds, restarted, parent)
        return TransferResult(duration, rounds, restarted)

    def _record_span(self, server: str, client: str, nbytes: int, now: float,
                     duration: float, rounds: int, restarted: bool, parent) -> None:
        if self._spans and parent:
            span = self._spans.start_span(
                "tcp.transfer", now, parent,
                server=server, client=client, bytes=nbytes,
                warm=not restarted, restarted=restarted,
                slow_start_rounds=rounds,
            )
            self._spans.finish(span, now + duration)
