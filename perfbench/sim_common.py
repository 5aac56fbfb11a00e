"""Helpers shared by the simulated (virtual-clock) workloads."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

from perfbench.common import CLOCK

JOURNAL_COUNTERS = ("records", "bytes", "flushes")


class OutcomeLog:
    """Observes DS.OUTCOME.Q the way an application does: one callback
    per outcome notification put on the sender's outcome queue."""

    def __init__(self) -> None:
        #: cmid -> [(outcome, decided virtual ms, observed clock s), ...]
        self.decided: Dict[str, List[Tuple[str, int, float]]] = {}

    def watch(self, queue) -> None:
        queue.subscribe(self._on_outcome)

    def _on_outcome(self, message) -> None:
        body = message.body
        self.decided.setdefault(body["cmid"], []).append(
            (body["outcome"], int(body["decided_at_ms"]), CLOCK.now())
        )

    def outcome_of(self, cmid: str) -> Optional[str]:
        """The single outcome of ``cmid``; None if undecided or decided twice."""
        seen = self.decided.get(cmid, [])
        return seen[0][0] if len(seen) == 1 else None

    def wall_ms_since(self, sent: Dict[str, Tuple[float, int]]) -> List[float]:
        return [
            (seen[0][2] - sent[cmid][0]) * 1e3
            for cmid, seen in self.decided.items()
            if cmid in sent
        ]

    def virtual_ms_since(self, sent: Dict[str, Tuple[float, int]]) -> List[float]:
        return [
            float(seen[0][1] - sent[cmid][1])
            for cmid, seen in self.decided.items()
            if cmid in sent
        ]


def journal_totals(
    metrics: MetricsRegistry, since: Optional[Dict[str, int]] = None
) -> Dict[str, int]:
    """The ``journal.*`` counters (minus ``since``), plus the batch count."""
    totals = {key: metrics.counter(f"journal.{key}") for key in JOURNAL_COUNTERS}
    totals["batches"] = len(metrics.histogram("journal.batch_records"))
    if since is not None:
        totals = {key: value - since.get(key, 0) for key, value in totals.items()}
    return totals
