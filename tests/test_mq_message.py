"""Unit tests for messages and the message builder."""

import copy
import pickle

import pytest

from repro.errors import MQError
from repro.mq.message import (
    DEFAULT_PRIORITY,
    DeliveryMode,
    Message,
    MessageBuilder,
    new_message_id,
    validate_properties,
)


class TestMessageIds:
    def test_ids_are_unique(self):
        ids = {new_message_id() for _ in range(500)}
        assert len(ids) == 500

    def test_ids_sort_in_creation_order(self):
        first, second = new_message_id(), new_message_id()
        assert first < second


class TestProperties:
    def test_accepts_primitive_types(self):
        props = validate_properties({"s": "x", "i": 1, "f": 1.5, "b": True})
        assert props == {"s": "x", "i": 1, "f": 1.5, "b": True}

    def test_rejects_non_string_keys(self):
        with pytest.raises(MQError):
            validate_properties({1: "x"})

    def test_rejects_empty_key(self):
        with pytest.raises(MQError):
            validate_properties({"": "x"})

    def test_rejects_container_values(self):
        with pytest.raises(MQError):
            validate_properties({"k": [1, 2]})
        with pytest.raises(MQError):
            validate_properties({"k": {"nested": True}})
        with pytest.raises(MQError):
            validate_properties({"k": None})


class TestMessage:
    def test_defaults(self):
        message = Message(body="hello")
        assert message.priority == DEFAULT_PRIORITY
        assert message.delivery_mode is DeliveryMode.PERSISTENT
        assert message.is_persistent()
        assert message.expiry_ms is None
        assert message.backout_count == 0

    def test_priority_bounds(self):
        Message(body=None, priority=0)
        Message(body=None, priority=9)
        with pytest.raises(MQError):
            Message(body=None, priority=10)
        with pytest.raises(MQError):
            Message(body=None, priority=-1)

    def test_negative_expiry_rejected(self):
        with pytest.raises(MQError):
            Message(body=None, expiry_ms=-1)

    def test_is_expired(self):
        message = Message(body=None, expiry_ms=100)
        assert not message.is_expired(100)
        assert message.is_expired(101)
        assert not Message(body=None).is_expired(10**12)

    def test_property_helpers(self):
        message = Message(body=None, properties={"a": 1})
        assert message.get_property("a") == 1
        assert message.get_property("missing", "dft") == "dft"
        assert message.has_property("a")
        assert not message.has_property("b")

    def test_with_properties_returns_new_message(self):
        message = Message(body=None, properties={"a": 1})
        updated = message.with_properties(b=2)
        assert updated.properties == {"a": 1, "b": 2}
        assert message.properties == {"a": 1}
        assert updated.message_id == message.message_id

    def test_copy_preserves_identity_and_overrides(self):
        message = Message(body="data", priority=7)
        copied = message.copy(backout_count=3)
        assert copied.message_id == message.message_id
        assert copied.priority == 7
        assert copied.backout_count == 3
        assert message.backout_count == 0

    def test_copy_validates_overrides(self):
        with pytest.raises(MQError):
            Message(body=None).copy(priority=42)

    def test_copy_rejects_unknown_override(self):
        with pytest.raises(AttributeError):
            Message(body=None).copy(hop_count=1)

    def test_no_ad_hoc_attributes(self):
        with pytest.raises(AttributeError):
            Message(body=None).hop_count = 1

    @pytest.mark.parametrize(
        "round_trip", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy]
    )
    def test_round_trips(self, round_trip):
        message = Message(
            body={"n": [1, 2]},
            correlation_id="c-1",
            properties={"a": 1, "b": "x"},
            priority=6,
            delivery_mode=DeliveryMode.NON_PERSISTENT,
            expiry_ms=900,
            reply_to_manager="QM.A",
            reply_to_queue="ACK.Q",
            put_time_ms=12,
            backout_count=2,
            source_manager="QM.B",
        )
        assert round_trip(message) == message


class TestMessageBuilder:
    def test_full_build(self):
        message = (
            MessageBuilder({"k": "v"})
            .correlation("corr-1")
            .property("region", "EU")
            .properties({"hops": 0})
            .priority(8)
            .non_persistent()
            .expires_at(9_000)
            .reply_to("QM.X", "REPLY.Q")
            .build()
        )
        assert message.body == {"k": "v"}
        assert message.correlation_id == "corr-1"
        assert message.properties == {"region": "EU", "hops": 0}
        assert message.priority == 8
        assert not message.is_persistent()
        assert message.expiry_ms == 9_000
        assert message.reply_to_manager == "QM.X"
        assert message.reply_to_queue == "REPLY.Q"

    def test_persistent_is_default_and_restorable(self):
        assert MessageBuilder(None).build().is_persistent()
        assert MessageBuilder(None).non_persistent().persistent().build().is_persistent()

    def test_builder_validates_at_build(self):
        builder = MessageBuilder(None).priority(99)
        with pytest.raises(MQError):
            builder.build()
