"""Property tests: the subscription trie against the reference matcher.

The broker's trie (:class:`repro.mq.pubsub.SubscriptionTrie`) is an
index over the same semantics :func:`repro.mq.pubsub.topic_matches`
defines pairwise.  These tests differentially check the two over
generated topic/pattern populations — including ``+``/``#`` wildcard
edges and malformed patterns — and drive seeded churn sequences
(subscribe / unsubscribe / drop-nondurable / publish) asserting the
memoized match cache never drops or duplicates a delivery.  Retained
catch-up, which walks its own segment index, is checked the same way
against a filter of ``retained_topics()`` through ``topic_matches``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

from repro.errors import MQError
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.pubsub import TopicBroker, topic_matches
from repro.sim.clock import SimulatedClock

#: Deliberately tiny segment alphabet so generated topics and patterns
#: collide often — matching properties are vacuous if nothing matches.
segments = st.sampled_from(["a", "b", "c", "dev1", "dev2"])
topics = st.lists(segments, min_size=1, max_size=4).map(".".join)
pattern_segments = st.sampled_from(
    ["a", "b", "c", "dev1", "dev2", "*", "+", "#"]
)
patterns = st.lists(pattern_segments, min_size=1, max_size=4).map(".".join)


def fresh_broker(match_cache_size=8):
    manager = QueueManager("QM.PROP", SimulatedClock())
    # A small cache so eviction paths run, not just hits.
    return TopicBroker(manager, match_cache_size=match_cache_size), manager


def reference_matches(broker, topic):
    """Names of subscriptions matching per the pairwise reference."""
    return {
        s.name
        for s in map(broker.subscription, broker_names(broker))
        if topic_matches(s.pattern, topic)
    }


def broker_names(broker):
    return [s.name for t in [broker] for s in t._subscriptions.values()]


@settings(max_examples=300, deadline=None)
@given(st.lists(patterns, min_size=0, max_size=12), st.lists(topics, min_size=1, max_size=6))
def test_trie_agrees_with_pairwise_reference(pattern_list, topic_list):
    broker, _manager = fresh_broker()
    for index, pattern in enumerate(pattern_list):
        # Invalid patterns (mid-pattern '#') must be rejected exactly
        # when the reference matcher rejects them, and must leave the
        # broker unpoisoned.
        mid_hash = "#" in pattern.split(".")[:-1]
        if mid_hash:
            with pytest.raises(MQError):
                broker.subscribe(pattern, f"s{index}")
            continue
        broker.subscribe(pattern, f"s{index}")
    for topic in topic_list:
        trie = {s.name for s in broker.subscriptions_for(topic)}
        linear = {s.name for s in broker.subscriptions_for_linear(topic)}
        pairwise = reference_matches(broker, topic)
        assert trie == linear == pairwise


@settings(max_examples=300, deadline=None)
@given(patterns, topics)
def test_single_pattern_trie_equals_topic_matches(pattern, topic):
    mid_hash = "#" in pattern.split(".")[:-1]
    broker, _manager = fresh_broker(match_cache_size=0)
    if mid_hash:
        with pytest.raises(MQError):
            topic_matches(pattern, topic)
        with pytest.raises(MQError):
            broker.subscribe(pattern, "only")
        return
    broker.subscribe(pattern, "only")
    expected = topic_matches(pattern, topic)
    assert bool(broker.subscriptions_for(topic)) is expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("subscribe"), patterns, st.booleans()),
            st.tuples(st.just("unsubscribe"), st.integers(0, 30), st.none()),
            st.tuples(st.just("drop"), st.none(), st.none()),
            st.tuples(st.just("publish"), topics, st.none()),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_churn_never_drops_or_duplicates_deliveries(ops):
    """Interleaved churn and publishes: every publish delivers exactly
    the reference match set, i.e. cache invalidation is airtight."""
    broker, manager = fresh_broker(match_cache_size=4)
    serial = 0
    expected_depth = {}
    for op, arg, flag in ops:
        if op == "subscribe":
            if "#" in arg.split(".")[:-1]:
                continue
            serial += 1
            subscription = broker.subscribe(
                arg, f"s{serial}", durable=bool(flag)
            )
            expected_depth.setdefault(subscription.queue_name, 0)
        elif op == "unsubscribe":
            name = f"s{arg}"
            try:
                broker.subscription(name)
            except MQError:
                continue
            broker.unsubscribe(name)
        elif op == "drop":
            broker.drop_nondurable()
        else:  # publish
            matched = reference_matches(broker, arg)
            delivered = broker.publish(arg, Message(body=arg))
            assert delivered == len(matched)
            for name in matched:
                expected_depth[broker.subscription(name).queue_name] += 1
        # The live trie tracks the subscription map exactly.
        assert len(broker._trie) == broker.subscription_count()
    for queue_name, depth in expected_depth.items():
        assert manager.depth(queue_name) == depth


@settings(max_examples=200, deadline=None)
@given(st.lists(patterns, min_size=1, max_size=10), topics)
def test_unsubscribe_all_empties_the_trie(pattern_list, topic):
    broker, _manager = fresh_broker()
    names = []
    for index, pattern in enumerate(pattern_list):
        if "#" in pattern.split(".")[:-1]:
            continue
        broker.subscribe(pattern, f"s{index}")
        names.append(f"s{index}")
    for name in names:
        broker.unsubscribe(name)
    assert len(broker._trie) == 0
    assert broker.subscriptions_for(topic) == []
    # Pruning left the root childless — no dead device patterns linger.
    root = broker._trie._root
    assert root.is_empty()


#: Populations with prefix topics (``a.b`` beside ``a.b.c``), so ``#``
#: and ``*`` edges land on nodes that are both retained and interior.
retained_segments = st.sampled_from(["a", "b", "c"])
retained_topic_pool = st.lists(retained_segments, min_size=1, max_size=4).map(
    ".".join
)
retained_patterns = st.builds(
    lambda head, tail: ".".join(head + tail),
    st.lists(st.one_of(retained_segments, st.sampled_from(["*", "+"])), max_size=4),
    st.sampled_from([[], ["#"]]),
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(retained_topic_pool, min_size=1, max_size=12),
    st.lists(
        st.tuples(
            st.sampled_from(["publish", "clear", "subscribe"]),
            st.integers(0, 11),
            retained_patterns,
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_retained_catch_up_equals_filtered_retained_topics(population, ops):
    """Catch-up copies equal, in order, the retained topics the pattern
    matches, each carrying that topic's last published value — through
    re-publishes and clears of topics that are prefixes of others."""
    manager = QueueManager("QM.PROP", SimulatedClock())
    broker = TopicBroker(manager, retain_last=True)
    for topic in population:
        broker.publish(topic, Message(body=(topic, -1)))
    for serial, (op, index, pattern) in enumerate(ops):
        topic = population[index % len(population)]
        if op == "publish":
            broker.publish(topic, Message(body=(topic, serial)))
        elif op == "clear":
            broker.clear_retained(topic)
        else:
            expected = [
                broker.retained(retained).body
                for retained in broker.retained_topics()
                if topic_matches(pattern, retained)
            ]
            subscription = broker.subscribe(pattern, f"s{serial}")
            copies = [m.body for m in manager.browse(subscription.queue_name)]
            assert copies == expected
            broker.unsubscribe(subscription.name)
