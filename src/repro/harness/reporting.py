"""Fixed-width table rendering for benchmark output.

Benchmarks print the rows EXPERIMENTS.md records; keeping the renderer in
the library (rather than each bench) makes the output uniform and lets
tests assert on the structure.  Also renders the observability layer's
artifacts: per-message trace timelines (:func:`render_trace_timeline`)
and metric registry breakdowns (:func:`render_metrics`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceEvent


class Table:
    """A simple fixed-width text table.

    Example::

        table = Table("FIG6: send overhead", ["fan-out", "raw put", "conditional"])
        table.add_row([1, "12.1us", "31.9us"])
        print(table.render())
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self._rows: List[List[str]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        """Append a row; values are stringified (floats to 3 decimals)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self._rows.append([_format_cell(value) for value in values])

    @property
    def rows(self) -> List[List[str]]:
        """Rendered cell values (for assertions)."""
        return [list(row) for row in self._rows]

    def render(self) -> str:
        """Render the table as a fixed-width string block."""
        widths = [len(column) for column in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * max(len(self.title), 1)]
        header = "  ".join(
            column.ljust(widths[i]) for i, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self._rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table with surrounding blank lines."""
        print()
        print(self.render())
        print()


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# Observability rendering
# ---------------------------------------------------------------------------


def render_trace_timeline(
    events: Sequence[TraceEvent], title: Optional[str] = None
) -> str:
    """Render a message trace as a fixed-width stage-by-stage timeline.

    ``events`` is typically one conditional message's trace
    (``recorder.events_for(cmid)``); the rows appear in emission order
    with the virtual timestamp, the delta since the previous stage, and
    the hop's location.  Example::

        trace cm-42
        ===========
        t (ms)  +dt   stage    manager    queue   message       detail
        ------------------------------------------------------------...
        0       +0    send     QM.R       Q.IN    01HVX3K9…     priority=4
        10      +10   arrival  QM.R       Q.IN    01HVX3K9…     persistent=yes
    """
    if title is None:
        cmids = {e.cmid for e in events if e.cmid is not None}
        title = f"trace {next(iter(cmids))}" if len(cmids) == 1 else "trace"
    table = Table(
        title, ["t (ms)", "+dt", "stage", "manager", "queue", "message", "detail"]
    )
    previous_ms: Optional[int] = None
    for event in events:
        delta = 0 if previous_ms is None else event.at_ms - previous_ms
        previous_ms = event.at_ms
        detail = " ".join(
            f"{key}={_format_cell(value)}" for key, value in event.detail.items()
        )
        table.add_row(
            [
                event.at_ms,
                f"+{delta}",
                event.stage,
                event.manager or "-",
                event.queue or "-",
                _short_id(event.message_id),
                detail or "-",
            ]
        )
    return table.render()


def render_metrics(registry: MetricsRegistry, title: str = "metrics") -> str:
    """Render a registry's counters, gauges, and histogram summaries.

    Histograms show count/mean/p50/p95/p99 via
    :class:`~repro.obs.registry.LatencyStats` (one row per histogram);
    counters and gauges are one row each, sorted by name.
    """
    blocks: List[str] = []
    counters = registry.counters()
    gauges = registry.gauges()
    if counters or gauges:
        table = Table(f"{title}: counters & gauges", ["name", "kind", "value"])
        for name in sorted(counters):
            table.add_row([name, "counter", counters[name]])
        for name in sorted(gauges):
            table.add_row([name, "gauge", gauges[name]])
        blocks.append(table.render())
    histograms = sorted(registry.histograms())
    if histograms:
        table = Table(
            f"{title}: histograms",
            ["name", "count", "mean", "min", "p50", "p95", "p99", "max"],
        )
        for name in histograms:
            stats = registry.histogram_stats(name)
            if stats is None:
                continue
            table.add_row(
                [
                    name,
                    stats.count,
                    stats.mean,
                    stats.minimum,
                    stats.p50,
                    stats.p95,
                    stats.p99,
                    stats.maximum,
                ]
            )
        blocks.append(table.render())
    if not blocks:
        return f"{title}: (no metrics recorded)"
    return "\n\n".join(blocks)


def _short_id(message_id: Optional[str]) -> str:
    if message_id is None:
        return "-"
    return message_id if len(message_id) <= 10 else message_id[:10] + "…"
