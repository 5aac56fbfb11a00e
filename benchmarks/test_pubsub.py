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

A second row times **retained catch-up** at 10k retained topics:
``subscribe`` of a narrow device pattern (``fleet.<site>.<device>.*``,
catch-up copies and queue puts included) against a linear
``topic_matches`` scan over ``retained_topics()`` — what catch-up cost
before the broker indexed retained topics by segment.

Results land in ``BENCH_pubsub.json`` at the repo root; the CI
benchmark-smoke gate tracks ``speedup_10k_subs`` (trie vs linear at 10k
subscriptions) and ``retained_speedup_10k`` (indexed catch-up vs the
scan at 10k retained topics).  Acceptance bar: >= 10x for both.
``BENCH_SHORT=1`` cuts the query/publish/subscribe counts but keeps all
scales so the gated metrics exist on every run.
"""

import json
import os
import random
import time

from repro.obs import LatencyStats
from repro.harness.reporting import Table
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.pubsub import TopicBroker, topic_matches
from repro.sim.clock import SimulatedClock

SHORT = os.environ.get("BENCH_SHORT", "") not in ("", "0")
SCALES = (100, 1_000, 10_000)
#: Timed match queries per (scale, matcher).
MATCH_QUERIES = 60 if SHORT else 400
#: Timed full publishes per scale.
PUBLISHES = 100 if SHORT else 600
#: Retained topics behind the catch-up row: sites x devices x sensors.
RETAINED_SITES = 25
RETAINED_DEVICES_PER_SITE = 100
#: Timed late subscribes (and reference scans) in the catch-up row.
RETAINED_SUBSCRIBES = 30 if SHORT else 200
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


def retained_catch_up_row() -> dict:
    """Indexed retained catch-up vs a linear scan at 10k retained topics."""
    rng = random.Random(SEED)
    manager = QueueManager("QM.BENCH.RETAINED", SimulatedClock())
    broker = TopicBroker(manager, retain_last=True)
    devices = [
        (f"site{site:02d}", f"dev{device:05d}")
        for site in range(RETAINED_SITES)
        for device in range(RETAINED_DEVICES_PER_SITE)
    ]
    for site, device in devices:
        for sensor in SENSORS:
            broker.publish(f"fleet.{site}.{device}.{sensor}", Message(body=0))
    retained = len(broker.retained_topics())
    patterns = [
        "fleet.{}.{}.*".format(*rng.choice(devices))
        for _ in range(RETAINED_SUBSCRIBES)
    ]

    copies = 0
    started = time.perf_counter()
    for index, pattern in enumerate(patterns):
        copies += broker.subscribe(pattern, f"late{index:05d}").delivered
    indexed_s = (time.perf_counter() - started) / len(patterns)

    scanned = 0
    started = time.perf_counter()
    for pattern in patterns:
        scanned += sum(
            1 for topic in broker.retained_topics() if topic_matches(pattern, topic)
        )
    linear_s = (time.perf_counter() - started) / len(patterns)

    # Both sides found the same topics: every device has every sensor.
    assert copies == scanned == len(patterns) * len(SENSORS)
    return {
        "retained_topics": retained,
        "subscribes": len(patterns),
        "indexed_us_per_subscribe": indexed_s * 1e6,
        "linear_us_per_scan": linear_s * 1e6,
        "speedup": linear_s / indexed_s if indexed_s else float("inf"),
    }


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

    retained = retained_catch_up_row()
    retained_table = Table(
        f"PUBSUB: retained catch-up, indexed subscribe vs linear scan"
        f" ({retained['subscribes']} late subscribes)",
        ["retained topics", "subscribe us", "linear scan us", "speedup"],
    )
    retained_table.add_row(
        [
            retained["retained_topics"],
            round(retained["indexed_us_per_subscribe"], 2),
            round(retained["linear_us_per_scan"], 2),
            f"{retained['speedup']:.1f}x",
        ]
    )
    report.emit(retained_table)

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
        "retained": retained,
        "retained_speedup_10k": retained["speedup"],
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    # Acceptance bar: the trie beats the 10k-subscription linear scan,
    # and indexed catch-up the 10k-topic retained scan, by at least an
    # order of magnitude.
    assert speedup_10k_subs >= 10.0, results
    assert retained["speedup"] >= 10.0, retained
