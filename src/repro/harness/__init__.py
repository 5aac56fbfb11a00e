"""Experiment harness: runners and table reporting.

The paper reports no numeric tables; EXPERIMENTS.md defines the scenario
and characterization experiments this reproduction runs for each figure.
This package provides the shared machinery: experiment runners that
assemble testbeds and sweeps, and fixed-width table rendering for the
benchmark output.  Percentile summaries (:class:`LatencyStats`) live in
:mod:`repro.obs` with the metrics registry and are re-exported here.
"""

from repro.harness.inspect import format_snapshot, snapshot_manager, snapshot_service
from repro.harness.reporting import Table, render_metrics, render_trace_timeline
from repro.harness.runner import (
    ExperimentResult,
    run_chaos_corpus,
    run_example1,
    run_example2,
)
from repro.obs import LatencyStats

__all__ = [
    "LatencyStats",
    "Table",
    "render_trace_timeline",
    "render_metrics",
    "ExperimentResult",
    "run_example1",
    "run_example2",
    "run_chaos_corpus",
    "snapshot_manager",
    "snapshot_service",
    "format_snapshot",
]
