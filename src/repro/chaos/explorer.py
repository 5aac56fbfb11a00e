"""Seeded random-walk chaos exploration with shrinking reproducers.

The :class:`ChaosExplorer` runs *episodes*: a full conditional-messaging
deployment (a :class:`~repro.workloads.scenarios.Testbed`) drives a
seeded workload while a :class:`~repro.chaos.faults.FaultInjector`
crashes managers at journal-flush boundaries, partitions channels, tears
journal tails, duplicates transfers, and delays channels — all from one
top-level seed, so every episode replays exactly.

After the workload and all faults play out, the episode heals every
partition, re-drives parked transfers, recovers any crashed manager,
sweeps every destination queue (delivering compensations, cancelling
original/compensation pairs), and hands the quiesced deployment to the
:class:`~repro.chaos.invariants.InvariantSuite`.

An episode's workload is a :class:`~repro.rules.RuleSet` (generated
from the seed by :meth:`~repro.workloads.generator.WorkloadSpec.to_ruleset`)
run by the late-bound :class:`~repro.rules.RuleDriver`, the same driver
the bounded checker uses, so application activity survives
crash/recover cycles and a random-walk reproducer is a rule set the
bounded checker can enumerate.

On a violation, :meth:`ChaosExplorer.shrink` greedily removes fault
events while the violation persists, producing a minimal reproducer that
:meth:`ChaosExplorer.replay` re-runs from its JSON form.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.faults import CrashPoint, FaultEvent, FaultInjector, FaultPlan
from repro.chaos.invariants import (
    ChaosContext,
    EpisodeLedger,
    InvariantSuite,
    SendRecord,
    Violation,
)
from repro.core import control
from repro.core.conditions import Condition
from repro.core.logqueues import SENDER_LOG_QUEUE, SenderLogEntry
from repro.core.receiver import ConditionalMessagingReceiver, ReceivedMessage
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import QueueManager
from repro.mq.persistence import (
    FileJournal,
    Journal,
    encode_frame,
    journal_factory_for,
)
from repro.obs.trace import FlightRecorder
from repro.rules import RuleDriver, RuleSet
from repro.sim.determinism import deterministic_ids
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import ReceiverNode, Testbed

__all__ = [
    "EpisodeSpec",
    "EpisodeResult",
    "ChaosHarness",
    "ChaosExplorer",
]

#: Queue-sweep rounds after the last drain; two suffice (a sweep can
#: itself release traffic — late acks, compensation deliveries — that
#: the next round must observe), one extra for margin.
FINAL_SWEEP_ROUNDS = 3

#: Scheduler budget per drain; generous, but bounds a runaway episode.
MAX_EVENTS_PER_DRAIN = 200_000


@dataclass
class EpisodeSpec:
    """Everything one chaos episode needs, derived from one seed.

    ``generate(seed)`` derives the topology, the workload rule set, and
    the fault plan from a single RNG, so the seed alone reproduces the
    episode; ``to_json``/``from_json`` serialize a (possibly shrunk)
    spec as a standalone reproducer.  The rule set names the receivers.
    """

    ruleset: RuleSet
    seed: int = 0
    latency_ms: int = 5
    jitter_ms: int = 0
    journal: str = "memory"  # "memory" | "file" | "sqlstore"
    plan: FaultPlan = field(default_factory=FaultPlan)

    @property
    def receiver_names(self) -> List[str]:
        return list(self.ruleset.receivers)

    @property
    def manager_names(self) -> List[str]:
        return [Testbed.SENDER] + [f"QM.{n}" for n in self.receiver_names]

    @classmethod
    def generate(cls, seed: int, journal: str = "memory") -> "EpisodeSpec":
        """Derive a full episode (topology + workload + faults) from a seed."""
        rng = random.Random(seed)
        receivers = rng.randint(3, 4)
        messages = rng.randint(5, 12)
        window = rng.randint(3_000, 9_000)
        gap = rng.randint(150, 600)
        workload = WorkloadSpec(
            messages=messages,
            fan_out=rng.randint(2, 3),
            pick_up_window_ms=window,
            processing_fraction=rng.choice([0.0, 0.5]),
            processing_window_ms=window * 3,
            on_time_probability=rng.uniform(0.75, 1.0),
            abort_probability=rng.choice([0.0, 0.2]),
            inter_send_gap_ms=gap,
            seed=seed,
        )
        spec = cls(
            ruleset=workload.to_ruleset(
                [f"R{i}" for i in range(1, receivers + 1)],
                body={"chaos": True},
                compensation={"undo": True},
            ),
            seed=seed,
            latency_ms=rng.randint(2, 25),
            jitter_ms=rng.randint(0, 8),
            journal=journal,
            plan=FaultPlan(seed=seed),
        )
        horizon = messages * gap + window
        kinds = ["crash", "crash", "partition", "duplicate", "delay"]
        if journal == "file":
            # Only file journals model torn writes; the SQL store's
            # engine transactions cannot tear.
            kinds.append("torn_tail")
        receiver_managers = [f"QM.{n}" for n in spec.receiver_names]
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(kinds)
            if kind in ("crash", "torn_tail"):
                event = FaultEvent(
                    kind=kind,
                    manager=rng.choice(spec.manager_names),
                    phase=rng.choice(["pre", "post"]),
                    **(
                        {"at_flush": rng.randint(2, 60)}
                        if rng.random() < 0.7
                        else {"at_ms": rng.randint(100, horizon)}
                    ),
                )
            elif kind == "partition":
                event = FaultEvent(
                    kind="partition",
                    source=Testbed.SENDER,
                    target=rng.choice(receiver_managers),
                    at_ms=rng.randint(100, horizon),
                    duration_ms=rng.randint(500, 4_000),
                )
            elif kind == "duplicate":
                event = FaultEvent(
                    kind="duplicate",
                    source=Testbed.SENDER,
                    target=rng.choice(receiver_managers),
                    at_ms=rng.randint(50, horizon),
                )
            else:
                event = FaultEvent(
                    kind="delay",
                    source=Testbed.SENDER,
                    target=rng.choice(receiver_managers),
                    at_ms=rng.randint(100, horizon),
                    delay_ms=rng.randint(50, 500),
                    duration_ms=rng.randint(500, 3_000),
                )
            spec.plan.events.append(event)
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "latency_ms": self.latency_ms,
            "jitter_ms": self.jitter_ms,
            "journal": self.journal,
            "ruleset": self.ruleset.to_dict(),
            "plan": self.plan.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EpisodeSpec":
        seed = int(data.get("seed", 0))
        if "ruleset" not in data:
            raise ValueError(
                "episode reproducer has no 'ruleset' (an old-format"
                " reproducer); regenerate it from its seed with"
                f" EpisodeSpec.generate({seed})"
            )
        return cls(
            ruleset=RuleSet.from_dict(data["ruleset"]),
            seed=seed,
            latency_ms=int(data.get("latency_ms", 5)),
            jitter_ms=int(data.get("jitter_ms", 0)),
            journal=str(data.get("journal", "memory")),
            plan=FaultPlan.from_dict(data.get("plan", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "EpisodeSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class EpisodeResult:
    """One episode's outcome."""

    spec: EpisodeSpec
    violations: List[Violation]
    sends: int = 0
    crashes: int = 0
    faults_fired: int = 0
    outcomes: int = 0
    #: SHA-256 of the episode's flight-recorder timeline.  Episodes run
    #: under deterministic ids, so replaying the same spec — in this
    #: process or a fresh one — must reproduce this hash byte-exactly.
    timeline_hash: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


class ChaosHarness:
    """One episode's deployment: testbed + injector + ledger + recovery.

    The harness owns the crash procedure — the one piece the injector
    deliberately does not implement.  ``crash(name)`` discards the named
    manager object and rebuilds it from its (surviving) journal, exactly
    the presumed-abort model :meth:`QueueManager.recover` implements,
    then re-wires the network, the sender-side service or the receiver
    endpoint, the fault hooks, and re-drives parked transfers.
    """

    def __init__(self, spec: EpisodeSpec, journal_dir: Optional[str] = None) -> None:
        self.spec = spec
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if spec.journal != "memory":
            # Always a fresh directory per harness: journal files must
            # never leak between episodes (or between the re-runs of one
            # seed that shrinking performs).  ``journal_dir`` only picks
            # where the per-episode directory lives.
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix=f"chaos-journal-seed{spec.seed}-", dir=journal_dir
            )
            journal_dir = self._tmpdir.name
        self.journal_dir = journal_dir
        self.recorder = FlightRecorder(capacity=50_000)
        self.recorder.metadata.update(
            {"seed": spec.seed, "plan": spec.plan.to_dict(), "journal": spec.journal}
        )
        self.testbed = Testbed(
            spec.receiver_names,
            latency_ms=max(1, spec.latency_ms),
            jitter_ms=spec.jitter_ms,
            seed=spec.seed,
            journaled=True,
            journal_factory=self._make_journal,
            tracer=self.recorder,
        )
        self.clock = self.testbed.clock
        self.scheduler = self.testbed.scheduler
        self.network = self.testbed.network
        self.journals: Dict[str, Journal] = self.testbed.journals
        self.sender_name = Testbed.SENDER
        self.managers: Dict[str, QueueManager] = {
            self.sender_name: self.testbed.sender_manager
        }
        for node in self.testbed.receivers.values():
            self.managers[node.manager.name] = node.manager
        self.service: ConditionalMessagingService = self.testbed.service
        self.receivers: Dict[str, ReceiverNode] = self.testbed.receivers
        self.ledger = EpisodeLedger()
        self.injector = FaultInjector(spec.plan, self.network, self.scheduler)

    def _make_journal(self, name: str) -> Journal:
        # sync="none": chaos cares about record ordering, atomicity, and
        # torn tails, not fsync cost; the tear is injected explicitly.
        factory = journal_factory_for(
            self.spec.journal, self.journal_dir, sync="none"
        )
        return factory(name)

    # -- episode lifecycle -------------------------------------------------------

    def install_faults(self) -> None:
        """Hook journals and schedule timed faults."""
        self.injector.install(self.journals)

    def schedule_workload(self) -> None:
        """Schedule the rule set's sends and reactions, ledgering both."""
        RuleDriver(
            self.testbed,
            self.spec.ruleset,
            on_send=self._record_send,
            on_observe=self._record,
        ).schedule()

    def _record_send(self, cmid: str, condition: Condition) -> None:
        self.ledger.record_send(
            SendRecord(
                cmid=cmid,
                destinations=[
                    (leaf.manager or self.sender_name, leaf.queue)
                    for leaf in condition.destinations()
                ],
                # The service stages a (possibly default-bodied)
                # compensation for every send; a rule's payload only
                # customizes its body.
                has_compensation=True,
            )
        )

    def _record(self, name: str, received: Optional[ReceivedMessage]) -> None:
        """Ledger the application-visible effect of one delivered message."""
        if received is None or received.cmid is None:
            return
        manager_name = f"QM.{name}"
        if received.kind == control.KIND_ORIGINAL:
            self.ledger.record_read(received.cmid, manager_name)
        elif received.kind == control.KIND_COMPENSATION:
            self.ledger.record_compensation(received.cmid, manager_name)

    def sweep(self) -> int:
        """Drain every destination queue once, recording what comes out.

        Sweeps model the application eventually reading its queues: they
        deliver pending compensations, cancel co-resident pairs, and
        consume late originals (whose acks the decided evaluations
        drop).  Returns the number of messages the applications saw.
        """
        seen = 0
        for name in list(self.receivers):
            node = self.receivers[name]
            if node.receiver.in_transaction:
                # A reaction whose completion never fired (e.g. scheduled
                # beyond the horizon) left a transaction open; the episode
                # is over, so presume abort — exactly what a process exit
                # would do — before the non-transactional sweep.
                node.receiver.abort_tx()
            for received in node.receiver.read_all(self.testbed.queue_of(name)):
                self._record(name, received)
                seen += 1
        return seen

    # -- the crash procedure -----------------------------------------------------

    def crash(self, manager_name: str, tear: bool = False) -> QueueManager:
        """Kill and recover one queue manager, rewiring everything above it."""
        self.ledger.record_crash(self.clock.now_ms(), manager_name)
        old = self.managers[manager_name]
        # The old incarnation must never write again: detach its journal
        # (belt) and cancel its pending evaluation timeouts (braces) —
        # those are the only scheduled events bound to dead objects that
        # could still fire; everything the harness schedules re-resolves
        # through self.receivers / self.service at fire time.
        old.journal = None
        old.store = None
        if manager_name == self.sender_name:
            self.scheduler.cancel_matching(
                lambda label: label.startswith("eval-timeout")
            )
        journal = self.journals[manager_name]
        if tear:
            journal = self._tear_journal(manager_name, journal)
        recovered = QueueManager.recover(
            manager_name,
            self.clock,
            journal,
            tracer=self.recorder,
        )
        self.managers[manager_name] = recovered
        self.network.reattach_manager(recovered)
        if manager_name == self.sender_name:
            self.testbed.sender_manager = recovered
            self.service = ConditionalMessagingService(
                recovered, scheduler=self.scheduler
            )
            self.testbed.service = self.service
            # Sends the crash interrupted mid-call never returned a cmid
            # to the application; the durable sender log knows them.
            for message in recovered.browse(SENDER_LOG_QUEUE):
                entry = SenderLogEntry.from_message(message)
                if entry.cmid not in self.ledger.sends:
                    self.ledger.record_send(
                        SendRecord(
                            cmid=entry.cmid,
                            destinations=[
                                (d["manager"], d["queue"])
                                for d in entry.destinations
                            ],
                            has_compensation=entry.has_compensation,
                            recovered=True,
                        )
                    )
            self.service.recover_from_log()
        else:
            short = manager_name[len("QM."):]
            node = ReceiverNode(
                name=short,
                manager=recovered,
                receiver=ConditionalMessagingReceiver(
                    recovered, recipient_id=short
                ),
            )
            self.receivers[short] = node
            self.testbed.receivers[short] = node
        # Flush ordinals continue across incarnations; only the hook
        # installation must be refreshed (the tear may have produced a
        # fresh journal object over the same file).
        self.injector.attach_journal(manager_name, journal)
        self.network.redrive()
        return recovered

    def _tear_journal(self, manager_name: str, journal: Journal) -> Journal:
        """Append a torn (truncated) record and reopen the journal.

        Only file journals model torn writes; reopening runs
        :class:`FileJournal`'s tail-healing, exactly what a real restart
        over a torn log does.  Memory journals crash cleanly; the SQL
        store's engine transactions cannot tear.  The tear is a frame cut
        short mid-payload.
        """
        if not isinstance(journal, FileJournal):
            return journal
        path = journal.path
        torn = encode_frame(
            {"op": "put", "queue": "TORN.Q", "message": {"torn": True}}
        )[:-5]
        journal.close()
        with open(path, "ab") as handle:
            handle.write(torn)
        fresh = FileJournal(path, sync="none")
        self.journals[manager_name] = fresh
        return fresh

    # -- inspection ---------------------------------------------------------------

    def context(self) -> ChaosContext:
        """The quiesced deployment, packaged for the invariant suite."""
        return ChaosContext(
            sender_name=self.sender_name,
            managers=dict(self.managers),
            journals=dict(self.journals),
            ledger=self.ledger,
            recorder=self.recorder,
        )

    def close(self) -> None:
        """Release journal store handles and any temporary directory."""
        for journal in self.journals.values():
            journal.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


class ChaosExplorer:
    """Runs seeded episodes, shrinks failures to minimal reproducers."""

    def __init__(
        self,
        journal_dir: Optional[str] = None,
        suite: Optional[InvariantSuite] = None,
        on_harness: Optional[Callable[[ChaosHarness], None]] = None,
    ) -> None:
        self.journal_dir = journal_dir
        self.suite = suite if suite is not None else InvariantSuite()
        self.on_harness = on_harness

    # -- running -----------------------------------------------------------------

    def run_episode(self, spec: EpisodeSpec) -> EpisodeResult:
        """One full episode: workload + faults, quiesce, check invariants.

        Runs under :func:`~repro.sim.determinism.deterministic_ids` keyed
        by the episode seed, so every id allocated — conditional message
        ids, standard message ids — is a pure function of the spec.  A
        reproducer therefore replays to a byte-identical flight-recorder
        timeline in a fresh process (``EpisodeResult.timeline_hash``).
        """
        with deterministic_ids(spec.seed):
            harness = ChaosHarness(spec, journal_dir=self.journal_dir)
            if self.on_harness is not None:
                self.on_harness(harness)
            try:
                harness.schedule_workload()
                harness.install_faults()
                self._drain(harness)
                # Faults played out; repair the world and let it settle.
                harness.injector.heal_all()
                harness.network.redrive()
                self._drain(harness)
                for _ in range(FINAL_SWEEP_ROUNDS):
                    harness.sweep()
                    self._drain(harness)
                context = harness.context()
                violations = self.suite.check(context)
                return EpisodeResult(
                    spec=spec,
                    violations=violations,
                    sends=len(harness.ledger.sends),
                    crashes=len(harness.ledger.crashes),
                    faults_fired=harness.injector.fired_count(),
                    outcomes=sum(
                        1 for _ in harness.managers[harness.sender_name].browse(
                            "DS.OUTCOME.Q"
                        )
                    ),
                    timeline_hash=harness.recorder.timeline_hash(),
                )
            finally:
                harness.close()

    def _drain(self, harness: ChaosHarness) -> None:
        """Run to quiescence, performing crash/recovery as faults fire.

        A :class:`CrashPoint` can escape the scheduler (a faulted flush)
        or the recovery procedure itself (a flush-armed fault landing on
        a post-recovery flush), so the recover step runs inside the same
        protected loop.
        """
        pending: Optional[CrashPoint] = None
        while True:
            try:
                if pending is not None:
                    crash, pending = pending, None
                    harness.crash(crash.manager, tear=crash.tear)
                harness.scheduler.run_all(max_events=MAX_EVENTS_PER_DRAIN)
                return
            except CrashPoint as crashed:
                pending = crashed

    def explore(
        self,
        episodes: int,
        base_seed: int = 0,
        journal: str = "memory",
    ) -> List[EpisodeResult]:
        """Run ``episodes`` seeded episodes; returns every result."""
        return [
            self.run_episode(EpisodeSpec.generate(base_seed + i, journal=journal))
            for i in range(episodes)
        ]

    # -- shrinking ----------------------------------------------------------------

    def shrink(self, spec: EpisodeSpec) -> EpisodeSpec:
        """Greedily minimize a failing episode while it still fails.

        Repeatedly tries dropping one fault event at a time, keeping any
        removal that preserves *some* invariant violation; then tries
        halving the rule set's messages (and their reactions) the same way.  The result replays from
        its JSON form via :meth:`replay`.
        """
        if self.run_episode(spec).ok:
            raise ValueError("cannot shrink a passing episode")
        current = spec
        shrunk = True
        while shrunk:
            shrunk = False
            for index in range(len(current.plan.events)):
                candidate = EpisodeSpec.from_dict(current.to_dict())
                candidate.plan = candidate.plan.without(index)
                if not self.run_episode(candidate).ok:
                    current = candidate
                    shrunk = True
                    break
        while len(current.ruleset.messages) > 1:
            candidate = EpisodeSpec.from_dict(current.to_dict())
            rules = candidate.ruleset
            kept = len(rules.messages) // 2
            # Reactions go with the messages they were generated for
            # (``fan_out`` per message, in message order).
            rules.reactions = rules.reactions[
                : len(rules.reactions) * kept // len(rules.messages)
            ]
            rules.messages = rules.messages[:kept]
            if self.run_episode(candidate).ok:
                break
            current = candidate
        return current

    # -- reproducers ----------------------------------------------------------------

    def replay(self, text: str) -> EpisodeResult:
        """Re-run an episode from its JSON reproducer."""
        return self.run_episode(EpisodeSpec.from_json(text))

    def write_repro(self, spec: EpisodeSpec, path: str) -> str:
        """Write a reproducer JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json())
            handle.write("\n")
        return path
