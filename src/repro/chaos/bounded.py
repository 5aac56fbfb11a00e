"""Bounded model checking: exhaustive small-scope protocol exploration.

The random-walk explorer (:mod:`repro.chaos.explorer`) samples fault
schedules; this module *enumerates* them.  For a tiny declarative
scenario (a :class:`~repro.rules.RuleSet`: one sender, a couple of
receivers, a few messages) the :class:`BoundedExplorer` walks **every**
interleaving of same-instant scheduler events and **every** crash point
within a crash budget, checking the full
:class:`~repro.chaos.invariants.InvariantSuite` at every terminal state.
Small-scope hypothesis, per the model-checking literature: most protocol
bugs already manifest in configurations this small, and there the state
space closes.

Execution model — *stateless* (replay-based) search:

The simulated world is a web of closures over live objects (queue
managers, receivers, the service); snapshotting it for backtracking is
not safely possible.  Instead every explored trajectory is identified by
its **script** — the sequence of choice indices taken at successive
decision points — and re-executed from scratch under
:func:`~repro.sim.determinism.deterministic_ids`, which makes replay
byte-exact.  A decision point is reached before each event firing:

* the *frontier* (:meth:`~repro.sim.scheduler.EventScheduler.frontier`)
  lists the same-instant events whose relative order a concurrent system
  would not fix — each is one choice, fired out of heap order via
  :meth:`~repro.sim.scheduler.EventScheduler.fire_specific`;
* while crash budget remains, each crashable manager adds one more
  choice: crash-and-recover it *now*, between event firings — the
  boundary crash points the random explorer only samples.

DFS: run a script, take default choice 0 past its end, and at every
**novel** multi-choice decision point push the sibling scripts; before
expanding a novel point, hash the canonical world state (journal
contents, queue contents with lock state, evaluation records, ledger,
scheduler future, remaining crash budget) and prune if an identical
state was already expanded — different event orders that commute
converge on one hash, which is what closes the state space.  A terminal
state (empty frontier) gets the deterministic quiesce epilogue (redrive,
drain, sweep) and a full invariant check; a failing script *is* the
reproducer, serialized to JSON alongside the rule set that drives it.

Soundness note: the hash is conservative — anything it misses only
costs duplicate exploration, never a skipped behaviour — except that
states are compared *per allocation history*, which deterministic ids
tie to the choice prefix; two semantically equal states with different
id allocations explore twice rather than merge.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.explorer import (
    FINAL_SWEEP_ROUNDS,
    MAX_EVENTS_PER_DRAIN,
    ChaosHarness,
    EpisodeSpec,
)
from repro.chaos.faults import FaultPlan
from repro.chaos.invariants import InvariantSuite, Violation
from repro.rules import (
    DestinationRule,
    GroupRule,
    MessageRule,
    ReactionRule,
    RuleSet,
)
from repro.sim.determinism import deterministic_ids
from repro.workloads.scenarios import Testbed

__all__ = [
    "BoundedExplorer",
    "BoundedResult",
    "BoundedViolation",
    "canonical_ruleset",
]


def canonical_ruleset() -> RuleSet:
    """The pinned small-scope configuration CI checks to fixpoint.

    Two receivers, two messages, every declarative feature in play: a
    quorum group (``min_pick_up=1``), a required leaf deadline, an
    evaluation timeout, compensation pairing on both sends, a guarded
    read, a transactional commit with a hold time, and a late read that
    lands after the pick-up window.  Small enough to close in seconds
    under a one-crash budget; rich enough that the terminal invariant
    check exercises every subsystem.
    """
    return RuleSet(
        receivers=["R1", "R2"],
        messages=[
            MessageRule(
                condition=GroupRule(
                    members=[
                        DestinationRule(receiver="R1"),
                        DestinationRule(receiver="R2"),
                    ],
                    pick_up_within_ms=400,
                    min_pick_up=1,
                ),
                send_at_ms=0,
                body={"kind": "rules", "msg": 0, "tag": "a"},
                evaluation_timeout_ms=1_200,
                compensation={"undo": 0},
            ),
            MessageRule(
                condition=GroupRule(
                    members=[
                        DestinationRule(receiver="R2", pick_up_within_ms=400)
                    ]
                ),
                send_at_ms=200,
                body={"kind": "rules", "msg": 1, "tag": "b"},
                compensation={"undo": 1},
            ),
        ],
        reactions=[
            ReactionRule(receiver="R1", at_ms=100, mode="read", guard="tag = 'a'"),
            ReactionRule(receiver="R2", at_ms=300, mode="commit", process_ms=50),
            ReactionRule(receiver="R2", at_ms=700, mode="read"),
        ],
        name="canonical",
        seed=2002,
    )


@dataclass(frozen=True)
class BoundedViolation:
    """One invariant breach plus the script that reproduces it."""

    script: List[int]
    violations: List[Violation]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "script": list(self.script),
            "violations": [str(v) for v in self.violations],
        }


@dataclass
class BoundedResult:
    """Outcome of one bounded exploration."""

    #: distinct expanded branch states (the dedup set's size)
    states: int = 0
    #: events fired + crashes injected, summed over every replayed run
    transitions: int = 0
    #: trajectories run to a terminal state and invariant-checked
    schedules: int = 0
    #: trajectories abandoned at an already-expanded state
    pruned: int = 0
    #: widest frontier seen (concurrency high-water mark)
    max_frontier: int = 0
    #: exploration closed (no caps hit; every reachable schedule covered)
    complete: bool = True
    crash_budget: int = 0
    violations: List[BoundedViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "schedules": self.schedules,
            "pruned": self.pruned,
            "max_frontier": self.max_frontier,
            "complete": self.complete,
            "crash_budget": self.crash_budget,
            "violations": [v.to_dict() for v in self.violations],
        }


class BoundedExplorer:
    """Exhaustive DFS over schedules and crash points of one rule set."""

    def __init__(
        self,
        ruleset: RuleSet,
        crash_budget: int = 1,
        crash_managers: Optional[List[str]] = None,
        suite: Optional[InvariantSuite] = None,
        max_states: int = 100_000,
        max_schedules: int = 50_000,
        max_depth: int = 5_000,
        on_harness: Optional[Callable[[ChaosHarness], None]] = None,
    ) -> None:
        ruleset.validate()
        if crash_budget < 0:
            raise ValueError("crash_budget must be >= 0")
        self.ruleset = ruleset
        self.crash_budget = crash_budget
        spec_managers = [Testbed.SENDER] + [
            f"QM.{name}" for name in ruleset.receivers
        ]
        if crash_managers is None:
            crash_managers = spec_managers if crash_budget else []
        for name in crash_managers:
            if name not in spec_managers:
                raise ValueError(f"unknown crash manager {name!r}")
        self.crash_managers = list(crash_managers)
        self.suite = suite if suite is not None else InvariantSuite()
        self.max_states = max_states
        self.max_schedules = max_schedules
        self.max_depth = max_depth
        self.on_harness = on_harness

    def harness(self) -> ChaosHarness:
        """A fresh deployment of the rule set, as one trajectory runs it.

        The chaos explorer's harness with a one-millisecond channel
        latency, no jitter, a memory journal and an empty fault plan:
        the explorer itself injects every crash.
        """
        return ChaosHarness(
            EpisodeSpec(
                ruleset=self.ruleset,
                seed=self.ruleset.seed,
                latency_ms=1,
                plan=FaultPlan(seed=self.ruleset.seed),
            )
        )

    # -- exploration -------------------------------------------------------------

    def run(self) -> BoundedResult:
        """Explore to fixpoint (or a cap); returns aggregate counts."""
        result = BoundedResult(crash_budget=self.crash_budget)
        visited: set = set()
        stack: List[List[int]] = [[]]
        while stack:
            if (
                len(visited) >= self.max_states
                or result.schedules >= self.max_schedules
            ):
                result.complete = False
                break
            script = stack.pop()
            self._execute(script, stack, visited, result)
        result.states = len(visited)
        return result

    def replay_script(self, script: List[int]) -> List[Violation]:
        """Re-run one script (e.g. from a reproducer); returns violations."""
        return self._execute(list(script), None, None, BoundedResult())

    def _execute(
        self,
        script: List[int],
        stack: Optional[List[List[int]]],
        visited: Optional[set],
        result: BoundedResult,
    ) -> Optional[List[Violation]]:
        """One trajectory: replay ``script``, then default-continue.

        With ``stack``/``visited`` set, novel multi-choice points push
        sibling scripts and dedup against expanded states; with both
        ``None`` this is a pure replay.  Returns the terminal invariant
        check's violations, or ``None`` if the trajectory was pruned.
        """
        with deterministic_ids(self.ruleset.seed):
            harness = self.harness()
            if self.on_harness is not None:
                self.on_harness(harness)
            try:
                harness.schedule_workload()
                budget = self.crash_budget
                path: List[int] = []
                while True:
                    if len(path) > self.max_depth:
                        raise RuntimeError(
                            f"trajectory exceeded max_depth={self.max_depth}"
                        )
                    frontier = harness.scheduler.frontier()
                    if not frontier:
                        break
                    crashes = self.crash_managers if budget > 0 else []
                    choices = len(frontier) + len(crashes)
                    result.max_frontier = max(result.max_frontier, len(frontier))
                    if len(path) < len(script):
                        choice = script[len(path)]
                        if choice >= choices:
                            raise ValueError(
                                f"script choice {choice} out of range at"
                                f" decision {len(path)} ({choices} choices)"
                            )
                    else:
                        if choices > 1 and visited is not None:
                            state = self._state_hash(harness, budget)
                            if state in visited:
                                result.pruned += 1
                                return None
                            visited.add(state)
                            for sibling in range(1, choices):
                                stack.append(path + [sibling])
                        choice = 0
                    path.append(choice)
                    if choice < len(frontier):
                        harness.scheduler.fire_specific(frontier[choice])
                    else:
                        harness.crash(crashes[choice - len(frontier)])
                        budget -= 1
                    result.transitions += 1
                # Terminal: deterministic quiesce epilogue (no choices —
                # its interleavings are the already-explored default
                # order), then the full invariant check.
                harness.network.redrive()
                harness.scheduler.run_all(max_events=MAX_EVENTS_PER_DRAIN)
                for _ in range(FINAL_SWEEP_ROUNDS):
                    harness.sweep()
                    harness.scheduler.run_all(max_events=MAX_EVENTS_PER_DRAIN)
                violations = self.suite.check(harness.context())
                result.schedules += 1
                if violations:
                    result.violations.append(
                        BoundedViolation(script=path, violations=violations)
                    )
                return violations
            finally:
                harness.close()

    # -- canonical state hashing ---------------------------------------------------

    def _state_hash(self, harness: ChaosHarness, budget: int) -> str:
        """SHA-256 of everything that determines the world's future.

        Conservative by construction: missing detail merely weakens
        dedup (duplicate work), while every included component is a pure
        function of the choice prefix under deterministic ids.
        """
        state: Dict[str, Any] = {
            "now": harness.clock.now_ms(),
            "budget": budget,
            "crashes": list(harness.ledger.crashes),
            "scheduler": harness.scheduler.live_events(),
            "managers": {},
            "journals": {},
            "evaluations": [],
            "reads": sorted(
                (cmid, manager, count)
                for (cmid, manager), count in harness.ledger.reads.items()
            ),
            "compensations": sorted(
                (cmid, manager, count)
                for (cmid, manager), count in harness.ledger.compensations.items()
            ),
            "in_tx": sorted(
                (name, node.receiver.in_transaction)
                for name, node in harness.receivers.items()
            ),
        }
        for name in sorted(harness.managers):
            manager = harness.managers[name]
            queues: Dict[str, List] = {}
            for queue_name in sorted(manager.queue_names()):
                queue = manager.queue(queue_name)
                # Entry order, ids, and lock state — locked (in-doubt)
                # messages are invisible to browse() but very much part
                # of the state a crash or commit acts on.
                queues[queue_name] = [
                    (entry.message.message_id, entry.locked_by is not None)
                    for entry in queue._entries
                ]
            state["managers"][name] = queues
        for name in sorted(harness.journals):
            defined, messages = harness.journals[name].recover()
            state["journals"][name] = {
                "queues": sorted(defined),
                "messages": {
                    queue_name: [m.message_id for m in queue_messages]
                    for queue_name, queue_messages in sorted(messages.items())
                },
            }
        evaluation = harness.service.evaluation
        for cmid in sorted(evaluation._records):
            record = evaluation._records[cmid]
            state["evaluations"].append(
                (
                    cmid,
                    record.decided.outcome.name if record.decided else None,
                    len(record.acks),
                )
            )
        encoded = json.dumps(
            state, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    # -- reproducers -----------------------------------------------------------------

    def reproducer(self, failure: BoundedViolation) -> Dict[str, Any]:
        """Self-contained JSON form of one failing trajectory."""
        return {
            "kind": "bounded",
            "ruleset": self.ruleset.to_dict(),
            "crash_budget": self.crash_budget,
            "crash_managers": list(self.crash_managers),
            "script": list(failure.script),
            "violations": [str(v) for v in failure.violations],
        }

    def write_repro(self, failure: BoundedViolation, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.reproducer(failure), handle, indent=2)
            handle.write("\n")
        return path

    @classmethod
    def replay_repro(cls, data: Dict[str, Any]) -> List[Violation]:
        """Re-run a reproducer dict; returns the violations it triggers."""
        explorer = cls(
            RuleSet.from_dict(data["ruleset"]),
            crash_budget=int(data.get("crash_budget", 0)),
            crash_managers=data.get("crash_managers"),
        )
        return explorer.replay_script(list(data.get("script", [])))
