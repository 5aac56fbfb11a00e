"""Observability: message-lifecycle tracing and a metrics registry.

The paper's entire contribution is closing the gap between "delivered to
a queue" and "received/processed by the recipient"; this package makes
that gap *visible*.  Two instruments:

* :mod:`repro.obs.trace` — a structured event tracer (a "flight
  recorder") that stamps every hop of a conditional message — send
  fan-out, transmission-queue parking, arrival, get/commit, the implicit
  acknowledgment, each evaluation pass, the decided outcome, compensation
  release — with sim-clock timestamps and a monotonic sequence number,
  keyed by the conditional message id;
* :mod:`repro.obs.registry` — counters, gauges (per-queue depth), and
  histograms (ack latency, decision latency) with percentile summaries.

Both default off: every component holds the no-op :data:`NULL_TRACER`
(``enabled`` is false, so hot paths pay one attribute check) and a
``metrics`` of ``None``.  Enable by passing a :class:`FlightRecorder`
and/or :class:`MetricsRegistry` to the queue managers and network — or to
:class:`~repro.workloads.scenarios.Testbed`, which wires them everywhere.
"""

from repro.obs.registry import LatencyStats, MetricsRegistry, percentile
from repro.obs.trace import (
    NULL_TRACER,
    STAGE_ACK,
    STAGE_ARRIVAL,
    STAGE_COMMIT,
    STAGE_COMPENSATION,
    STAGE_DEAD_LETTER,
    STAGE_EVALUATE,
    STAGE_EXPIRED,
    STAGE_GET,
    STAGE_OUTCOME,
    STAGE_ROLLBACK,
    STAGE_SEND,
    STAGE_XMIT,
    FlightRecorder,
    TraceEvent,
    Tracer,
    cmid_of,
)

__all__ = [
    "Tracer",
    "FlightRecorder",
    "TraceEvent",
    "NULL_TRACER",
    "MetricsRegistry",
    "LatencyStats",
    "percentile",
    "cmid_of",
    "STAGE_SEND",
    "STAGE_XMIT",
    "STAGE_ARRIVAL",
    "STAGE_GET",
    "STAGE_COMMIT",
    "STAGE_ROLLBACK",
    "STAGE_ACK",
    "STAGE_EVALUATE",
    "STAGE_OUTCOME",
    "STAGE_COMPENSATION",
    "STAGE_DEAD_LETTER",
    "STAGE_EXPIRED",
]
