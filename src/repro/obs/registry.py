"""Counters, gauges, and histograms for benchmark instrumentation.

One :class:`MetricsRegistry` is shared by every instrumented component of
a deployment (the :class:`~repro.workloads.scenarios.Testbed` wires a
single instance through all queue managers).  Naming convention is
dotted paths, e.g.::

    depth.QM.R1.Q.R1          per-queue depth gauge (set on every mutation)
    puts.QM.SENDER            counter of successful puts on a manager
    dead_letters.QM.R1        counter of dead-lettered messages
    ack_latency_ms            histogram: send -> ack processed at sender
    decision_latency_ms       histogram: send -> outcome decided

Histogram summaries are :class:`LatencyStats`, built on the linearly
interpolated :func:`percentile`; the benchmarks print the same summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class LatencyStats:
    """Summary statistics over a sample of latencies (milliseconds)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, samples: List[float]) -> "LatencyStats":
        """Compute summary stats; raises on an empty sample."""
        if not samples:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 50),
            p95=percentile(ordered, 95),
            p99=percentile(ordered, 99),
        )


def percentile(ordered: List[float], pct: float) -> float:
    """Linearly interpolated percentile of a pre-sorted sample.

    Uses the "linear" method (NumPy's default): the rank is
    ``pct/100 * (n - 1)`` and a fractional rank interpolates between the
    two closest order statistics.  So ``percentile([10, 20, 30, 40], 25)``
    is ``17.5`` — *not* the nearest-rank answer ``20``.  ``pct=0`` and
    ``pct=100`` return the minimum and maximum exactly.
    """
    if not ordered:
        raise ValueError("cannot take a percentile of an empty sample")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


class MetricsRegistry:
    """Named counters, gauges, and histogram samples."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- counters -----------------------------------------------------------

    def incr(self, name: str, by: int = 1) -> int:
        """Add ``by`` to a counter; returns the new value."""
        value = self._counters.get(name, 0) + by
        self._counters[name] = value
        return value

    def counter(self, name: str) -> int:
        """Current counter value (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """All counters, by name."""
        return dict(self._counters)

    # -- gauges -------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to an absolute value."""
        self._gauges[name] = float(value)

    def gauge(self, name: str) -> Optional[float]:
        """Current gauge value, or ``None`` if never set."""
        return self._gauges.get(name)

    def gauges(self) -> Dict[str, float]:
        """All gauges, by name."""
        return dict(self._gauges)

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Append one sample to a histogram."""
        self._histograms.setdefault(name, []).append(float(value))

    def histogram(self, name: str) -> List[float]:
        """Raw samples of a histogram (empty list if absent)."""
        return list(self._histograms.get(name, []))

    def histogram_stats(self, name: str) -> Optional[LatencyStats]:
        """Percentile summary of a histogram, or ``None`` if empty."""
        samples = self._histograms.get(name)
        if not samples:
            return None
        return LatencyStats.from_samples(samples)

    def histograms(self) -> List[str]:
        """Names of all histograms."""
        return list(self._histograms)

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Reset every counter, gauge, and histogram."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)},"
            f" gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
