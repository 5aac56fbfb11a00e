"""Seeded random workload generation for parameter sweeps.

A :class:`WorkloadSpec` expands, through one seeded RNG, into a
:class:`~repro.rules.RuleSet`: conditional sends with randomized
condition shapes and randomized (but reproducible) receiver reactions.
The chaos explorer's episodes are such rule sets; the
:class:`WorkloadGenerator` runs one on a testbed through the
:class:`~repro.rules.RuleDriver`, so benchmarks can exercise the
evaluation manager and the compensation path at scale without
hand-writing every scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.conditions import Condition
from repro.rules import (
    DestinationRule,
    GroupRule,
    MessageRule,
    ReactionRule,
    RuleDriver,
    RuleSet,
)
from repro.workloads.scenarios import Testbed


@dataclass
class WorkloadSpec:
    """Parameters for one generated workload.

    Attributes:
        messages: Number of conditional messages to send.
        fan_out: Destinations per message (cycled over the testbed's
            receivers).
        pick_up_window_ms: Deadline on every destination set.
        processing_fraction: Fraction of messages that additionally demand
            processing (min ``fan_out`` transactional commits).
        on_time_probability: Chance a receiver reacts inside the window.
        abort_probability: Chance a processing receiver rolls back.
        inter_send_gap_ms: Virtual time between sends.
        seed: Workload RNG seed (fully reproducible).
    """

    messages: int = 100
    fan_out: int = 3
    pick_up_window_ms: int = 10_000
    processing_fraction: float = 0.0
    processing_window_ms: int = 30_000
    on_time_probability: float = 1.0
    abort_probability: float = 0.0
    inter_send_gap_ms: int = 100
    seed: int = 0

    def to_ruleset(
        self,
        receivers: List[str],
        body: Dict[str, Any],
        compensation: Optional[Dict[str, Any]] = None,
    ) -> RuleSet:
        """Expand the spec into a rule set over ``receivers``.

        Message ``i`` goes to ``fan_out`` receivers cycled from
        ``receivers``, and the reactions list holds that message's
        ``fan_out`` reactions, in order, right after message ``i - 1``'s.
        Per message the RNG draws whether it demands processing, then per
        receiver whether it reacts on time, whether it aborts, and its
        reaction delay.
        """
        if self.fan_out > len(receivers):
            raise ValueError(
                f"fan_out {self.fan_out} exceeds the {len(receivers)} receivers"
            )
        rng = random.Random(self.seed)
        # Every reaction holds its transaction this long, and a reaction
        # that finds its receiver busy retries after the same delay.
        process_ms = min(1_000, self.processing_window_ms)
        ruleset = RuleSet(
            receivers=list(receivers), name=f"workload-{self.seed}", seed=self.seed
        )
        for index in range(self.messages):
            send_at = index * self.inter_send_gap_ms
            start = index * self.fan_out
            chosen = [
                receivers[(start + i) % len(receivers)] for i in range(self.fan_out)
            ]
            wants_processing = rng.random() < self.processing_fraction
            condition = GroupRule(
                members=[DestinationRule(receiver=name) for name in chosen],
                pick_up_within_ms=self.pick_up_window_ms,
                process_within_ms=(
                    self.processing_window_ms if wants_processing else None
                ),
            )
            ruleset.messages.append(
                MessageRule(
                    condition,
                    send_at_ms=send_at,
                    body=dict(body),
                    compensation=None if compensation is None else dict(compensation),
                )
            )
            for name in chosen:
                on_time = rng.random() < self.on_time_probability
                aborts = wants_processing and rng.random() < self.abort_probability
                # On-time reactions land inside the first half of the
                # window, leaving headroom for channel latency so the
                # *read timestamp* is reliably within the deadline.
                react = (
                    rng.randint(1, max(self.pick_up_window_ms // 2, 1))
                    if on_time
                    else self.pick_up_window_ms * 2
                )
                mode = "abort" if aborts else ("commit" if wants_processing else "read")
                ruleset.reactions.append(
                    ReactionRule(name, send_at + react, mode, process_ms)
                )
        return ruleset


@dataclass
class WorkloadResult:
    """What a generated workload produced.

    ``expected_success`` is a *naive* estimate assuming each receiver
    reads exactly the message its reaction was generated for.  Receivers
    shared across overlapping messages can legitimately pick up each
    other's messages from their queue (acknowledgments correlate by the
    consumed message's id), so the realized success count may differ;
    treat the estimate as a sanity anchor, not an exact expectation.
    """

    cmids: List[str] = field(default_factory=list)
    sent: int = 0
    expected_success: int = 0


class WorkloadGenerator:
    """Drives a testbed with a randomized conditional-messaging workload."""

    def __init__(self, testbed: Testbed, spec: WorkloadSpec) -> None:
        self.testbed = testbed
        self.spec = spec
        self.ruleset = spec.to_ruleset(
            list(testbed.receivers), body={"workload": True}
        )

    def run(self) -> WorkloadResult:
        """Schedule every send and receiver reaction; returns bookkeeping.

        The caller advances the testbed (``run_all``) afterwards and then
        inspects outcomes through the service.
        """
        result = WorkloadResult()

        def on_send(cmid: str, condition: Condition) -> None:
            result.cmids.append(cmid)
            result.sent += 1

        RuleDriver(self.testbed, self.ruleset, on_send=on_send).schedule()
        fan_out = self.spec.fan_out
        for index, message in enumerate(self.ruleset.messages):
            own = self.ruleset.reactions[index * fan_out:(index + 1) * fan_out]
            result.expected_success += all(
                r.mode != "abort"
                and r.at_ms - message.send_at_ms <= self.spec.pick_up_window_ms
                for r in own
            )
        return result
