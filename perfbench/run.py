"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fanout8 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs each round twice on the same seed, untraced and then
with every layer's entry points wrapped by :mod:`perfbench.spans`, and
reports the per-layer metrics, the tracing overhead and (on the
simulated workloads) the exact per-send cost table.  Untraced runs of
the simulated workloads read every time on the reference-speed clock
(:class:`perfbench.common.RefClock`); traced runs and ``wire_open``
read wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the run completed, whether or not its correctness checks passed;
it is 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("fanout8", "deadline_mix", "fleet_churn", "wire_open")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_us_p50", "us"),
    ("call_us_p90", "us"),
    ("outcome_ms_p50", "ms"),
    ("outcome_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Rounds per untraced run: at least MIN, then more until the time is up.
MIN_ROUNDS = 3
MAX_ROUNDS = 200


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _one_round(module, seed: int, workdir: str, seconds: float):
    from perfbench.common import CLOCK

    # Collect the previous round's garbage outside every timed region.
    gc.collect()
    started = CLOCK.sync()
    state = module.setup(seed, workdir, seconds)
    setup_s = CLOCK.now() - started
    try:
        result = module.run(state)
        module.check(state, result)
    finally:
        module.close(state)
    return setup_s, result


def run_untraced(module, seed: int, seconds: float, workdir: str) -> Dict:
    from perfbench.common import (
        CLOCK,
        median,
        metric,
        peak_rss_mb,
        percentile,
        round_seed,
    )

    CLOCK.calibrate(module.CALIBRATED)
    min_rounds = getattr(module, "MIN_ROUNDS", MIN_ROUNDS)
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    rounds = []
    while len(rounds) < min_rounds or (
        time.perf_counter() < deadline and len(rounds) < MAX_ROUNDS
    ):
        setup_s, result = _one_round(
            module, round_seed(seed, len(rounds)), workdir, seconds
        )
        setups.append(setup_s)
        rounds.append(result)
    call_us = [v for r in rounds for v in r.call_us]
    outcome_ms = [v for r in rounds for v in r.outcome_ms]
    values = {
        "setup_s": median(setups),
        "ops_per_s": median([r.ops / r.wall_s for r in rounds]),
        "call_us_p50": percentile(call_us, 50),
        "call_us_p90": percentile(call_us, 90),
        "outcome_ms_p50": percentile(outcome_ms, 50),
        "outcome_ms_p90": percentile(outcome_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"rounds={len(rounds)} setups={len(setups)}"
        f" call_samples={len(call_us)} outcome_samples={len(outcome_ms)}"
        f" ops={sum(r.ops for r in rounds)}"
    )
    print("tails: " + " ".join(
        f"{name}_p{pct}={percentile(samples, pct):.4f}"
        for name, samples in (("call_us", call_us), ("outcome_ms", outcome_ms))
        for pct in (50, 90, 99)
    ))
    return _result(rounds, {n: metric(values[n], u) for n, u in END_TO_END})


def run_traced(module, seed: int, seconds: float, workdir: str) -> Dict:
    from perfbench.common import CLOCK, round_seed
    from perfbench.layers import layer_metrics, print_cost_table
    from perfbench.spans import SpanRecorder

    # Span times and the overhead ratio are plain wall time.
    CLOCK.calibrate(False)
    recorder = SpanRecorder()
    deadline = time.perf_counter() + seconds
    plain, traced, snapshots = [], [], []
    while not traced or (
        time.perf_counter() < deadline and len(traced) < MAX_ROUNDS
    ):
        seed_r = round_seed(seed, len(traced))
        plain.append(_one_round(module, seed_r, workdir, seconds / 2)[1])
        recorder.install()
        gc.collect()
        try:
            state = module.setup(seed_r, workdir, seconds / 2)
            try:
                recorder.reset()
                result = module.run(state)
                snapshots.append(module.counts(state, result, recorder))
            finally:
                recorder.uninstall()
            module.check(state, result)
        finally:
            module.close(state)
        traced.append(result)
        if len(traced) == 1:
            first_log = recorder.span_log()
    path = first_log.write(
        os.path.join(workdir, "spans"), f"{module.NAME}-seed{seed}"
    )
    print(f"spans of the first traced round: {first_log.count} written to"
          f" {os.path.relpath(path, ROOT)}")
    metrics = layer_metrics(plain, traced, snapshots)
    print(f"rounds={len(traced)} (each run untraced, then traced)")
    print_cost_table(module.NAME, snapshots[0])
    return _result(plain + traced, metrics)


def _result(rounds, metrics: Dict) -> Dict:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program source (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.chdir(ROOT)
    from perfbench.common import WORK_DIR

    workdir = os.path.join(ROOT, WORK_DIR)
    os.makedirs(workdir, exist_ok=True)
    module = importlib.import_module(f"perfbench.{args.workload}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}")
    for line in getattr(module, "describe", lambda d: [])(workdir):
        print(line)
    runner = run_traced if args.trace else run_untraced
    result = runner(module, args.seed, args.seconds, workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
