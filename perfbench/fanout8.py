"""``fanout8``: the conditional-send hot path.

Eight receivers; every conditional message goes to all eight with a
one-minute pick-up deadline, and every receiver drains its inbox from an
arrival-triggered event, so every message decides SUCCESS.  Sends go out
in seeded bursts on the virtual clock.  Every manager journals to a
memory journal with the binary codec and adaptive flush (the
configuration of the throughput benchmark's lifecycle run), so the mq
substrate and persistence do most of the work: message copies, queue
puts and journal records per send are what this workload moves.
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from typing import Dict, List, Tuple

from repro.core.builder import destination, destination_set
from repro.core.logqueues import OUTCOME_QUEUE
from repro.mq.persistence import journal_factory_for
from repro.obs.registry import MetricsRegistry
from repro.sim.determinism import deterministic_ids
from repro.workloads.scenarios import Testbed

from perfbench.common import CLOCK, RoundResult
from perfbench.layers import generic_counts, service_totals
from perfbench.sim_common import OutcomeLog, journal_totals

NAME = "fanout8"
#: Times are read on the reference-speed clock (``common.RefClock``).
CALIBRATED = True
RECEIVERS = [f"R{i}" for i in range(8)]
#: Conditional messages per round.
MESSAGES = 400
PICK_UP_MS = 60_000


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.stack = ExitStack()
        self.stack.enter_context(deterministic_ids(seed))
        self.metrics = MetricsRegistry()
        self.testbed = Testbed(
            RECEIVERS,
            latency_ms=5,
            jitter_ms=3,
            seed=seed,
            journaled=True,
            journal_factory=journal_factory_for("memory", codec="binary"),
            metrics=self.metrics,
            adaptive_flush=True,
            pump_coalesce_ms=1,
        )
        self.condition = destination_set(
            *[
                destination(
                    self.testbed.queue_of(name), manager=f"QM.{name}", recipient=name
                )
                for name in RECEIVERS
            ],
            msg_pick_up_time=PICK_UP_MS,
        )
        self.outcomes = OutcomeLog()
        self.outcomes.watch(self.testbed.sender_manager.queue(OUTCOME_QUEUE))
        self.sent: Dict[str, Tuple[float, int]] = {}
        self.call_us: List[float] = []
        for name in RECEIVERS:
            self._attach_push_receiver(name)

    def _attach_push_receiver(self, name: str) -> None:
        """Drain the inbox 1 virtual ms after the first arrival of a burst."""
        testbed = self.testbed
        queue_name = testbed.queue_of(name)
        pending = {"scheduled": False}

        def drain() -> None:
            pending["scheduled"] = False
            testbed.receiver(name).read_all(queue_name)

        def on_arrival(_message) -> None:
            if not pending["scheduled"]:
                pending["scheduled"] = True
                testbed.scheduler.call_later(1, drain)

        testbed.manager_of(name).ensure_queue(queue_name).subscribe(on_arrival)

    def schedule_sends(self) -> None:
        """Seeded bursts: 8-24 sends 1 ms apart, bursts 20-60 ms apart."""
        rng = random.Random(self.seed)
        at_ms = 0
        sent = 0
        while sent < MESSAGES:
            burst = min(rng.randint(8, 24), MESSAGES - sent)
            for i in range(burst):
                self.testbed.at(at_ms + i, lambda n=sent + i: self._send(n))
            sent += burst
            at_ms += burst + rng.randint(20, 60)

    def _send(self, n: int) -> None:
        service = self.testbed.service
        now_ms = self.testbed.clock.now_ms()
        started = CLOCK.now()
        cmid = service.send_message({"n": n}, self.condition)
        ended = CLOCK.now()
        self.call_us.append((ended - started) * 1e6)
        self.sent[cmid] = (started, now_ms)


def describe(workdir: str) -> List[str]:
    return [f"fanout8: {MESSAGES} messages/round to {len(RECEIVERS)} receivers,"
            " memory journal (binary codec, adaptive flush)"]


def setup(seed: int, workdir: str, seconds: float) -> State:
    return State(seed)


def run(state: State) -> RoundResult:
    state.schedule_sends()
    events0 = state.testbed.scheduler.events_fired
    journal0 = journal_totals(state.metrics)
    started = CLOCK.now()
    state.testbed.run_all()
    wall = CLOCK.now() - started
    result = RoundResult(wall_s=wall, ops=len(state.outcomes.decided))
    result.call_us = list(state.call_us)
    result.outcome_ms = state.outcomes.wall_ms_since(state.sent)
    result.layer["decision_vms"] = state.outcomes.virtual_ms_since(state.sent)
    result.layer["messages"] = MESSAGES
    result.layer["events"] = state.testbed.scheduler.events_fired - events0
    result.layer["journal"] = journal_totals(state.metrics, since=journal0)
    return result


def check(state: State, result: RoundResult) -> None:
    """Every message decides SUCCESS, exactly once."""
    result.attempted = len(state.sent)
    result.failed = sum(
        1 for cmid in state.sent if state.outcomes.outcome_of(cmid) != "success"
    )


def counts(state: State, result: RoundResult, recorder) -> Dict[str, float]:
    return generic_counts(
        recorder, result, service_totals([state.testbed.service])
    )


def close(state: State) -> None:
    state.stack.close()
