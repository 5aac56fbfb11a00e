"""PUBSUB — broker matching at fleet scale: trie vs the linear scan.

The device-fleet workload hinges on `TopicBroker.subscriptions_for`
staying cheap as subscriptions grow: the pre-trie broker evaluated every
pattern against every published topic (S pattern walks per publish),
which is quadratic-ish in fleet size once every device carries exact and
wildcard subscriptions.  The :class:`~repro.mq.pubsub.SubscriptionTrie`
walks the topic's segments instead, visiting only the literal path plus
live wildcard branches.

This bench builds fleet-shaped subscription populations (exact device
sensor topics, per-device ``*`` tails, per-sensor ``*.*`` cross-cuts,
per-site ``#`` monitors) at 100 / 1k / 10k subscriptions and measures:

* **matches/sec** — ``subscriptions_for`` with memoization off (every
  call walks the trie) vs ``subscriptions_for_linear`` (the differential
  reference, i.e. the old hot path), over a seeded topic mix;
* **publish latency** — p50/p95 of full ``publish`` calls through the
  broker (match cache on, selector-free), which adds copy fan-out and
  queue puts on top of matching.

Results land in ``BENCH_pubsub.json`` at the repo root; the CI
benchmark-smoke gate tracks ``speedup_10k_subs`` (trie vs linear at 10k
subscriptions).  Acceptance bar: >= 10x at 10k.  ``BENCH_SHORT=1`` cuts
the query/publish counts but keeps all three scales so the gated metric
exists on every run.
"""

import json
import os
import random
import time

from repro.obs import LatencyStats
from repro.harness.reporting import Table
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.pubsub import TopicBroker
from repro.sim.clock import SimulatedClock

SHORT = os.environ.get("BENCH_SHORT", "") not in ("", "0")
SCALES = (100, 1_000, 10_000)
#: Timed match queries per (scale, matcher).
MATCH_QUERIES = 60 if SHORT else 400
#: Timed full publishes per scale.
PUBLISHES = 100 if SHORT else 600
SEED = 20260808

RESULT_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_pubsub.json")
)

SENSORS = ("temperature", "humidity", "power", "vibration")


def build_fleet_broker(subscriptions: int, match_cache_size: int) -> tuple:
    """A broker with a fleet-shaped subscription population.

    Roughly 70% exact device-sensor subscriptions, 20% per-device ``*``
    tails, 8% per-sensor cross-cuts, 2% per-site ``#`` monitors — the
    shape the fleet workload produces.  Returns (broker, topics) where
    ``topics`` is the pool of publishable device topics (half subscribed
    devices, half strangers, so matching pays both hit and miss paths).
    """
    rng = random.Random(SEED + subscriptions)
    manager = QueueManager(f"QM.BENCH.{subscriptions}", SimulatedClock())
    broker = TopicBroker(manager, match_cache_size=match_cache_size)
    sites = [f"site{i:02d}" for i in range(max(2, subscriptions // 100))]

    def device_name(i: int) -> str:
        return f"dev{i:05d}"

    count = 0
    serial = 0
    while count < subscriptions:
        serial += 1
        kind = rng.random()
        site = rng.choice(sites)
        device = device_name(rng.randrange(subscriptions))
        if kind < 0.70:
            pattern = f"fleet.{site}.{device}.{rng.choice(SENSORS)}"
        elif kind < 0.90:
            pattern = f"fleet.{site}.{device}.*"
        elif kind < 0.98:
            pattern = f"fleet.*.*.{rng.choice(SENSORS)}"
        else:
            pattern = f"fleet.{site}.#"
        broker.subscribe(pattern, f"s{serial:06d}")
        count += 1

    topics = []
    for i in range(MATCH_QUERIES):
        site = rng.choice(sites)
        # Half the topics belong to devices the population subscribed to,
        # half to strangers (auto-discovered devices nobody watches yet).
        device = device_name(
            rng.randrange(subscriptions)
            if i % 2 == 0
            else subscriptions + rng.randrange(subscriptions)
        )
        topics.append(f"fleet.{site}.{device}.{rng.choice(SENSORS)}")
    return broker, topics


def timed_matching(matcher, topics) -> float:
    """Seconds per match query (matcher is a subscriptions_for variant)."""
    started = time.perf_counter()
    for topic in topics:
        matcher(topic)
    return (time.perf_counter() - started) / len(topics)


def test_trie_matching_vs_linear_scan(report):
    results = []
    for scale in SCALES:
        # Memoization off: every subscriptions_for call walks the trie,
        # so the comparison is matcher vs matcher, not dict-hit vs scan.
        broker, topics = build_fleet_broker(scale, match_cache_size=0)
        trie_s = timed_matching(broker.subscriptions_for, topics)
        linear_s = timed_matching(broker.subscriptions_for_linear, topics)

        # Full-publish latency on a fresh broker with the cache on (the
        # production configuration), publishing over a rotating topic set
        # so the cache serves repeats like a chatty sensor would.
        pub_broker, pub_topics = build_fleet_broker(
            scale, match_cache_size=4096
        )
        fanout = 0
        samples = []
        for i in range(PUBLISHES):
            topic = pub_topics[i % len(pub_topics)]
            message = Message(body={"n": i}, properties={"n": i})
            started = time.perf_counter()
            fanout += pub_broker.publish(topic, message)
            samples.append((time.perf_counter() - started) * 1e6)
        publish_stats = LatencyStats.from_samples(samples)

        results.append(
            {
                "subscriptions": scale,
                "match_queries": len(topics),
                "trie_us_per_match": trie_s * 1e6,
                "linear_us_per_match": linear_s * 1e6,
                "trie_matches_per_sec": 1.0 / trie_s if trie_s else float("inf"),
                "linear_matches_per_sec": (
                    1.0 / linear_s if linear_s else float("inf")
                ),
                "speedup": linear_s / trie_s if trie_s else float("inf"),
                "publishes": PUBLISHES,
                "publish_p50_us": publish_stats.p50,
                "publish_p95_us": publish_stats.p95,
                "avg_fanout": fanout / PUBLISHES,
            }
        )

    table = Table(
        f"PUBSUB: trie vs linear-scan matching ({MATCH_QUERIES} queries,"
        f" {PUBLISHES} publishes per scale)",
        [
            "subs",
            "trie us/match",
            "linear us/match",
            "speedup",
            "matches/sec (trie)",
            "publish p50 us",
            "publish p95 us",
        ],
    )
    for row in results:
        table.add_row(
            [
                row["subscriptions"],
                round(row["trie_us_per_match"], 2),
                round(row["linear_us_per_match"], 2),
                f"{row['speedup']:.1f}x",
                int(row["trie_matches_per_sec"]),
                round(row["publish_p50_us"], 1),
                round(row["publish_p95_us"], 1),
            ]
        )
    report.emit(table)

    speedup_10k_subs = next(
        row["speedup"] for row in results if row["subscriptions"] == 10_000
    )
    payload = {
        "short": SHORT,
        "match_queries": MATCH_QUERIES,
        "publishes": PUBLISHES,
        "scales": list(SCALES),
        "results": results,
        "speedup_10k_subs": speedup_10k_subs,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    # Acceptance bar: the trie beats the 10k-subscription linear scan by
    # at least an order of magnitude.
    assert speedup_10k_subs >= 10.0, results
