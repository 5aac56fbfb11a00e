"""``deadline_mix``: the failure, compensation and restart path.

Each conditional message goes to 4 of 8 receivers under an Example-1
shaped condition: all four must pick it up within a window, the first
must process it within its own deadline, and at least two of the other
three must process it within a subset deadline.  Each receiver reacts
to each delivery in a seeded way (reads on time, reads late, or
processes in a transaction that commits or aborts), so a large share of
messages fail, their compensations are released, and the receivers
cancel or deliver them.  Late readers let the inboxes grow deep.  A
receiver takes any compensation ahead of its next original on the way;
a transactional one commits each compensation in a transaction of its
own, so only originals are ever rolled back.

Every manager journals to its own ``binfile`` journal (binary codec,
sync policy ``batch``) in a fresh directory under the checkout, and the
sender is restarted at fixed virtual instants with the crash procedure
of the chaos harness: recover the manager from its journal, reattach it
to the network, build a new service and resume evaluation from the
sender log.

Correctness, checked outside the timed region: every conditional
message decides exactly once, and the chaos invariant suite passes over
a ledger filled from this workload's own sends, reads and restarts.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from contextlib import ExitStack
from typing import Dict, List, Tuple

from repro.chaos.invariants import (
    ChaosContext,
    EpisodeLedger,
    InvariantSuite,
    SendRecord,
)
from repro.core import control
from repro.core.builder import destination, destination_set
from repro.core.logqueues import OUTCOME_QUEUE
from repro.core.receiver import ReceivedMessage
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import QueueManager
from repro.mq.persistence import journal_factory_for
from repro.obs.registry import MetricsRegistry
from repro.sim.determinism import deterministic_ids
from repro.workloads.receivers import ReceiverMode
from repro.workloads.scenarios import Testbed

from perfbench.common import (
    CLOCK,
    WORK_DIR,
    RoundResult,
    filesystem_of,
    ratio,
)
from perfbench.layers import generic_counts, service_totals
from perfbench.sim_common import OutcomeLog, journal_totals

NAME = "deadline_mix"
#: Times are read on the reference-speed clock (``common.RefClock``).
CALIBRATED = True
RECEIVERS = [f"R{i}" for i in range(8)]
FAN_OUT = 4
#: Conditional messages per round.
MESSAGES = 240
JOURNAL = "binfile"
SYNC = "batch"
PICK_UP_MS = 1_500
LEAD_PROCESSING_MS = 4_000
SUBSET_PROCESSING_MS = 6_000
#: Sender restarts at these fractions of the send window.
RESTART_AT = (0.25, 0.5, 0.75)
#: Reaction mix of the leaf that must process, and of the subset leaves:
#: (mode, late, weight).  A late reaction comes after the pick-up window.
LEAD_MIX = (
    (ReceiverMode.PROCESS_COMMIT, False, 8),
    (ReceiverMode.PROCESS_ABORT, False, 1),
    (ReceiverMode.PROCESS_COMMIT, True, 1),
)
SUBSET_MIX = (
    (ReceiverMode.PROCESS_COMMIT, False, 6),
    (ReceiverMode.READ, False, 2),
    (ReceiverMode.PROCESS_ABORT, False, 1),
    (ReceiverMode.READ, True, 1),
)
#: Application sweeps of every inbox after the last reaction: enough
#: for compensations released by a sweep's own reads to be seen.
FINAL_SWEEPS = 3


class State:
    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.stack = ExitStack()
        self.stack.enter_context(deterministic_ids(seed))
        parent = os.path.join(workdir, "journals")
        os.makedirs(parent, exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(prefix=f"{NAME}-", dir=parent)
        self.metrics = MetricsRegistry()
        self.testbed = Testbed(
            RECEIVERS,
            latency_ms=5,
            jitter_ms=2,
            seed=seed,
            journaled=True,
            journal_factory=journal_factory_for(JOURNAL, self.journal_dir, sync=SYNC),
            metrics=self.metrics,
        )
        self.scheduler = self.testbed.scheduler
        self.ledger = EpisodeLedger()
        self.outcomes = OutcomeLog()
        self.outcomes.watch(self.testbed.sender_manager.queue(OUTCOME_QUEUE))
        self.services = [self.testbed.service]
        self.sent: Dict[str, Tuple[float, int]] = {}
        self.call_us: List[float] = []
        self.restart_s: List[float] = []
        self.recover_records: List[int] = []

    # -- workload --------------------------------------------------------------

    def schedule(self) -> None:
        rng = self.rng
        at_ms = 0
        for n in range(MESSAGES):
            chosen = rng.sample(RECEIVERS, FAN_OUT)
            reactions = [
                self._draw(rng, LEAD_MIX if i == 0 else SUBSET_MIX)
                for i in range(FAN_OUT)
            ]
            self.scheduler.call_later(
                at_ms,
                lambda n=n, chosen=chosen, reactions=reactions: self._send(
                    n, chosen, reactions
                ),
                label="bench-send",
            )
            at_ms += rng.randint(40, 120)
        for fraction in RESTART_AT:
            self.scheduler.call_later(
                int(at_ms * fraction), self.restart_sender, label="bench-restart"
            )

    @staticmethod
    def _draw(rng: random.Random, mix) -> Tuple[ReceiverMode, int, int]:
        mode, late, _ = rng.choices(mix, weights=[w for *_, w in mix])[0]
        react = PICK_UP_MS * 2 if late else rng.randint(1, PICK_UP_MS // 2)
        return mode, react, rng.randint(5, 60)

    def _condition(self, chosen: List[str]):
        def leaf(name: str, **kwargs):
            return destination(
                self.testbed.queue_of(name), manager=f"QM.{name}",
                recipient=name, **kwargs,
            )

        return destination_set(
            leaf(chosen[0], msg_processing_time=LEAD_PROCESSING_MS),
            destination_set(
                *[leaf(name) for name in chosen[1:]],
                msg_processing_time=SUBSET_PROCESSING_MS,
                min_nr_processing=2,
            ),
            msg_pick_up_time=PICK_UP_MS,
        )

    def _send(self, n: int, chosen: List[str], reactions) -> None:
        condition = self._condition(chosen)
        service = self.testbed.service
        now_ms = self.testbed.clock.now_ms()
        started = CLOCK.now()
        cmid = service.send_message({"n": n}, condition, compensation={"undo": n})
        ended = CLOCK.now()
        self.call_us.append((ended - started) * 1e6)
        self.sent[cmid] = (started, now_ms)
        self.ledger.record_send(
            SendRecord(
                cmid=cmid,
                destinations=[
                    (f"QM.{name}", self.testbed.queue_of(name)) for name in chosen
                ],
            )
        )
        for name, (mode, react, process_ms) in zip(chosen, reactions):
            self.scheduler.call_later(
                react,
                lambda name=name, mode=mode, process_ms=process_ms: self._react(
                    name, mode, process_ms
                ),
                label="bench-react",
            )

    def _react(self, name: str, mode: ReceiverMode, process_ms: int) -> None:
        receiver = self.testbed.receiver(name)
        queue_name = self.testbed.queue_of(name)
        if receiver.in_transaction:
            # One transaction at a time per receiver; a plain read now
            # would join the open transaction, so every mode waits.
            self.scheduler.call_later(
                process_ms,
                lambda: self._react(name, mode, process_ms),
                label="bench-react",
            )
            return
        if mode is ReceiverMode.READ:
            self._record(name, self._read_original(receiver, queue_name))
            return
        # One message per transaction: a compensation ahead of the
        # original is handled and committed on its own, so a later abort
        # never rolls it back.
        while True:
            receiver.begin_tx()
            received = receiver.read_message(queue_name)
            if received is None:
                receiver.abort_tx()
                return
            if received.kind != control.KIND_COMPENSATION:
                break
            receiver.commit_tx()
            self._record(name, [received])

        def complete() -> None:
            if mode is ReceiverMode.PROCESS_COMMIT:
                receiver.commit_tx()
                self._record(name, [received])
            else:
                receiver.abort_tx()

        self.scheduler.call_later(process_ms, complete, label="bench-process")

    @staticmethod
    def _read_original(receiver, queue_name: str) -> List[ReceivedMessage]:
        """Read from the head until an original arrives: compensations
        ahead of it are taken (and handled) on the way."""
        received: List[ReceivedMessage] = []
        while True:
            message = receiver.read_message(queue_name)
            if message is None:
                return received
            received.append(message)
            if message.kind != control.KIND_COMPENSATION:
                return received

    def _record(self, name: str, received: List[ReceivedMessage]) -> None:
        for message in received:
            if message.cmid is None:
                continue
            if message.kind == control.KIND_ORIGINAL:
                self.ledger.record_read(message.cmid, f"QM.{name}")
            elif message.kind == control.KIND_COMPENSATION:
                self.ledger.record_compensation(message.cmid, f"QM.{name}")

    def sweep(self) -> None:
        """Every application reads whatever its inbox still holds."""
        for name in RECEIVERS:
            receiver = self.testbed.receiver(name)
            if receiver.in_transaction:
                receiver.abort_tx()
            self._record(name, receiver.read_all(self.testbed.queue_of(name)))

    # -- the sender restart ------------------------------------------------------

    def restart_sender(self) -> None:
        """Kill and recover the sender (the chaos harness's crash steps)."""
        testbed = self.testbed
        started = CLOCK.now()
        self.ledger.record_crash(testbed.clock.now_ms(), Testbed.SENDER)
        old = testbed.sender_manager
        old.journal = None
        old.store = None
        self.scheduler.cancel_matching(lambda label: label.startswith("eval-timeout"))
        journal = testbed.journals[Testbed.SENDER]
        recovered = QueueManager.recover(
            Testbed.SENDER, testbed.clock, journal, metrics=self.metrics
        )
        testbed.network.reattach_manager(recovered)
        testbed.sender_manager = recovered
        testbed.service = ConditionalMessagingService(
            recovered, scheduler=self.scheduler
        )
        self.outcomes.watch(recovered.queue(OUTCOME_QUEUE))
        testbed.service.recover_from_log()
        testbed.network.redrive()
        self.restart_s.append(CLOCK.now() - started)
        self.services.append(testbed.service)
        self.recover_records.append(
            sum(recovered.queue(q).total_depth() for q in recovered.queue_names())
        )

    # -- correctness -----------------------------------------------------------

    def context(self) -> ChaosContext:
        managers = {Testbed.SENDER: self.testbed.sender_manager}
        for node in self.testbed.receivers.values():
            managers[node.manager.name] = node.manager
        return ChaosContext(
            sender_name=Testbed.SENDER,
            managers=managers,
            journals=dict(self.testbed.journals),
            ledger=self.ledger,
        )


def describe(workdir: str) -> List[str]:
    journals = os.path.join(workdir, "journals")
    os.makedirs(journals, exist_ok=True)
    return [
        f"deadline_mix: {MESSAGES} messages/round, {FAN_OUT} of"
        f" {len(RECEIVERS)} receivers, {len(RESTART_AT)} sender restarts/round",
        f"journal={JOURNAL} sync={SYNC} dir={WORK_DIR}/journals"
        f" filesystem={filesystem_of(journals)}",
    ]


def setup(seed: int, workdir: str, seconds: float) -> State:
    return State(seed, workdir)


def run(state: State) -> RoundResult:
    state.schedule()
    events0 = state.scheduler.events_fired
    journal0 = journal_totals(state.metrics)
    started = CLOCK.now()
    state.testbed.run_all()
    for _ in range(FINAL_SWEEPS):
        state.sweep()
        state.testbed.run_all()
    wall = CLOCK.now() - started
    result = RoundResult(wall_s=wall, ops=len(state.outcomes.decided))
    result.call_us = list(state.call_us)
    result.outcome_ms = state.outcomes.wall_ms_since(state.sent)
    result.layer.update(
        decision_vms=state.outcomes.virtual_ms_since(state.sent),
        restart_s=list(state.restart_s),
        messages=MESSAGES,
        events=state.scheduler.events_fired - events0,
        journal=journal_totals(state.metrics, since=journal0),
    )
    return result


def check(state: State, result: RoundResult) -> None:
    """Every cmid decides exactly once; the invariant suite passes."""
    bad = {cmid for cmid in state.sent if state.outcomes.outcome_of(cmid) is None}
    violations = InvariantSuite().check(state.context())
    for violation in violations:
        print(f"deadline_mix seed={state.seed}: {violation}")
    bad |= {v.cmid for v in violations if v.cmid is not None}
    unattributed = sum(1 for v in violations if v.cmid is None)
    result.attempted = len(state.sent)
    result.failed = min(result.attempted, len(bad) + unattributed)
    failures = sum(
        1 for cmid in state.sent if state.outcomes.outcome_of(cmid) == "failure"
    )
    result.layer["core.evaluation.failure_share"] = ratio(failures, len(state.sent))


def counts(state: State, result: RoundResult, recorder) -> Dict[str, float]:
    out = generic_counts(recorder, result, service_totals(state.services))
    out["mq.persistence.recover_records"] = ratio(
        sum(state.recover_records), len(state.recover_records)
    )
    out["mq.persistence.recover_s"] = ratio(
        recorder.incl_s_of("Journal.recover"), recorder.calls_of("Journal.recover")
    )
    return out


def close(state: State) -> None:
    for journal in state.testbed.journals.values():
        journal.close()
    shutil.rmtree(state.journal_dir, ignore_errors=True)
    state.stack.close()
