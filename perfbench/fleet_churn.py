"""``fleet_churn``: pub/sub with more topics than the broker's match memo.

A device fleet (``repro.workloads.fleet``) of 1,400 devices with three
sensors each publishes telemetry on 4,200 distinct topics — more than
the broker's per-topic match-set memo holds (``DEFAULT_MATCH_CACHE_SIZE``,
4,096) — for three rounds.  Between rounds, churn waves drop every
non-durable monitor and subscribe hundreds of fresh ones, each of which
gets every matching topic's retained last value at subscribe time.  Two
availability checks (one satisfiable, one not) ride along.  The ``core``
layer barely runs; ``mq.pubsub`` does the work, so publishes and
subscribes are timed apart.

Correctness, checked outside the timed region: for a seeded sample of
publishes, the copies the broker delivered equal an independent count
of live subscriptions whose pattern ``topic_matches`` the topic; for a
sample of churn subscribes, the retained copies delivered equal the
retained topics that match; the broker's delivery total equals the sum
of what every publish and subscribe reported; and each availability
outcome equals its plan.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import ExitStack
from typing import Dict, List, Tuple

from repro.mq.pubsub import DEFAULT_MATCH_CACHE_SIZE, topic_matches
from repro.sim.determinism import deterministic_ids
from repro.workloads.fleet import FleetScenario, FleetSpec

from perfbench.common import CLOCK, RoundResult, ratio
from perfbench.layers import generic_counts, service_totals

NAME = "fleet_churn"
#: Times are read on the reference-speed clock (``common.RefClock``).
CALIBRATED = True
SPEC = dict(
    sites=4,
    devices_per_site=350,
    telemetry_rounds=3,
    churn_waves=2,
    churn_monitors=200,
)
#: Share of publishes and of churn subscribes checked against the oracle.
PUBLISH_SAMPLE = 0.02
SUBSCRIBE_SAMPLE = 0.04


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed ^ 0x5EED)
        self.stack = ExitStack()
        self.stack.enter_context(deterministic_ids(seed))
        self.scenario = FleetScenario(FleetSpec(seed=seed, **SPEC))
        broker = self.scenario.broker
        self.broker = broker
        #: independent model of the live subscriptions: name -> pattern
        self.live: Dict[str, Tuple[str, bool]] = {}
        self.patterns: Counter = Counter()
        self.retained: Dict[str, None] = {}
        self.timing = False
        self.publish_ms: List[float] = []
        self.subscribe_us: List[float] = []
        self.scanned: List[int] = []
        #: sampled publishes: (topic, delivered, live pattern counts)
        self.publish_checks: List[Tuple[str, int, Counter]] = []
        #: sampled subscribes: (pattern, retained copies, retained topics)
        self.subscribe_checks: List[Tuple[str, int, List[str]]] = []
        self.reported = 0
        self._wrap(broker)

    def _wrap(self, broker) -> None:
        publish, subscribe, drop = (
            broker.publish, broker.subscribe, broker.drop_nondurable
        )

        def timed_publish(topic, message):
            started = CLOCK.now()
            delivered = publish(topic, message)
            ended = CLOCK.now()
            self.publish_ms.append((ended - started) * 1e3)
            self.retained[topic] = None
            self.reported += delivered
            if self.rng.random() < PUBLISH_SAMPLE:
                self.publish_checks.append((topic, delivered, Counter(self.patterns)))
            return delivered

        def timed_subscribe(pattern, name, *args, durable=True, **kwargs):
            scanned = len(self.retained)
            before = broker.stats.retained_deliveries
            started = CLOCK.now()
            subscription = subscribe(pattern, name, *args, durable=durable, **kwargs)
            ended = CLOCK.now()
            copies = broker.stats.retained_deliveries - before
            self.reported += copies
            self.live[name] = (pattern, durable)
            self.patterns[pattern] += 1
            if self.timing:
                self.subscribe_us.append((ended - started) * 1e6)
                self.scanned.append(scanned)
                if self.rng.random() < SUBSCRIBE_SAMPLE:
                    self.subscribe_checks.append(
                        (pattern, copies, list(self.retained))
                    )
            return subscription

        def tracked_drop():
            dropped = drop()
            for name, (pattern, durable) in list(self.live.items()):
                if not durable:
                    del self.live[name]
                    self.patterns[pattern] -= 1
            return dropped

        broker.publish = timed_publish
        broker.subscribe = timed_subscribe
        broker.drop_nondurable = tracked_drop


def describe(workdir: str) -> List[str]:
    topics = SPEC["sites"] * SPEC["devices_per_site"] * 3
    return [
        f"fleet_churn: {topics} topics (match memo {DEFAULT_MATCH_CACHE_SIZE}),"
        f" {SPEC['telemetry_rounds']} telemetry rounds,"
        f" {SPEC['churn_waves']} churn waves x {SPEC['churn_monitors']} monitors"
    ]


def setup(seed: int, workdir: str, seconds: float) -> State:
    state = State(seed)
    scenario = state.scenario
    scenario.deploy()
    scenario.add_availability_check(
        site_index=0, quorum_fraction=0.5, on_time_fraction=0.9
    )
    scenario.add_availability_check(
        site_index=SPEC["sites"] - 1, quorum_fraction=0.5, on_time_fraction=0.2
    )
    return state


def run(state: State) -> RoundResult:
    deliveries0 = state.broker.stats.deliveries
    state.reported = 0
    state.timing = True
    events0 = state.scenario.scheduler.events_fired
    started = CLOCK.now()
    fleet = state.scenario.run()
    wall = CLOCK.now() - started
    state.fleet = fleet
    state.deliveries = state.broker.stats.deliveries - deliveries0
    publishes = len(state.publish_ms)
    result = RoundResult(
        wall_s=sum(state.publish_ms) / 1e3, ops=publishes, round_s=wall
    )
    result.call_us = list(state.subscribe_us)
    result.outcome_ms = list(state.publish_ms)
    result.layer.update(
        messages=publishes,
        events=state.scenario.scheduler.events_fired - events0,
        retained_scanned=ratio(sum(state.scanned), len(state.scanned)),
        deliveries_per_publish=ratio(
            state.deliveries - fleet.retained_deliveries, publishes
        ),
    )
    return result


def check(state: State, result: RoundResult) -> None:
    checks = failed = 0
    for topic, delivered, patterns in state.publish_checks:
        expected = sum(
            count for pattern, count in patterns.items()
            if count and topic_matches(pattern, topic)
        )
        checks += 1
        failed += expected != delivered
    for pattern, copies, retained in state.subscribe_checks:
        expected = sum(1 for topic in retained if topic_matches(pattern, topic))
        checks += 1
        failed += expected != copies
    checks += 1
    failed += state.deliveries != state.reported
    for outcome in state.fleet.availability:
        checks += 1
        failed += outcome.succeeded != outcome.expect_success
    result.attempted = checks
    result.failed = failed


def counts(state: State, result: RoundResult, recorder) -> Dict[str, float]:
    out = generic_counts(
        recorder, result, service_totals([state.scenario.service])
    )
    publishes = result.layer["messages"]
    out["mq.pubsub.match_per_publish"] = ratio(
        recorder.calls_of("SubscriptionTrie.match"), publishes
    )
    out["mq.pubsub.deliveries_per_publish"] = result.layer["deliveries_per_publish"]
    out["mq.pubsub.retained_scanned_per_subscribe"] = result.layer["retained_scanned"]
    return out


def close(state: State) -> None:
    state.stack.close()
