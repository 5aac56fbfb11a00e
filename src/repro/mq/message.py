"""Message records: headers, typed properties, priority, persistence, expiry.

A :class:`Message` is the unit moved by the MOM substrate.  It mirrors the
JMS/MQSeries split between

* **headers** — fields the middleware itself reads and writes (message id,
  correlation id, priority, delivery mode, expiry, reply-to routing,
  timestamps, backout count), and
* **properties** — an application/extension key-value area.  The
  conditional messaging layer stores all of its control information
  (conditional message id, processing-required flag, ack routing) in
  properties, exactly as the paper attaches control information to the
  generated standard messages (paper section 2.3).

Property values are restricted to JMS-like primitive types so that
messages journal cleanly and selectors have well-defined comparisons.
"""

from __future__ import annotations

import itertools
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import MQError

PropertyValue = Union[str, int, float, bool]

_ALLOWED_PROPERTY_TYPES = (str, int, float, bool)

#: Priorities follow JMS: 0 (lowest) .. 9 (highest), default 4.
MIN_PRIORITY = 0
MAX_PRIORITY = 9
DEFAULT_PRIORITY = 4

_msg_seq = itertools.count(1)


class DeliveryMode(Enum):
    """Persistence of a message across queue-manager restarts."""

    NON_PERSISTENT = "non_persistent"
    PERSISTENT = "persistent"


def _default_message_id() -> str:
    return f"MSG-{next(_msg_seq):08d}-{os.urandom(6).hex()}"


#: The active generator; swapped by :func:`deterministic_message_ids`.
_id_generator: Callable[[], str] = _default_message_id


def new_message_id() -> str:
    """Return a unique message id (``MSG-<seq>-<uuid fragment>``).

    The monotonic sequence component makes interleaved ids sort in creation
    order, which keeps journals and test output readable; the random
    fragment (48 bits straight from the OS — ids are a hot path, and a
    full UUID object is overhead for a hex fragment) guarantees global
    uniqueness across queue managers.
    """
    return _id_generator()


@contextmanager
def deterministic_message_ids(seed: int) -> Iterator[None]:
    """Allocate seed-derived message ids inside the block.

    Sequence restarts at 1, random fragment drawn from
    ``random.Random(seed)`` — the same (deterministic) workload under the
    same seed allocates identical message ids in any process.  Needed by
    chaos replay and the bounded model checker, whose canonical state
    hashes contain message ids.  Scopes nest; not thread-safe.
    """
    global _id_generator
    rng = random.Random(seed ^ 0x5EED_3564)
    seq = itertools.count(1)

    def _deterministic() -> str:
        return f"MSG-{next(seq):08d}-{rng.getrandbits(48):012x}"

    previous = _id_generator
    _id_generator = _deterministic
    try:
        yield
    finally:
        _id_generator = previous


def validate_properties(properties: Mapping[str, Any]) -> Dict[str, PropertyValue]:
    """Validate and copy a property mapping.

    Raises :class:`MQError` for non-string keys or values outside the
    JMS-like primitive types.
    """
    if not properties:
        return {}
    validated: Dict[str, PropertyValue] = {}
    for key, value in properties.items():
        if not isinstance(key, str) or not key:
            raise MQError(f"property keys must be non-empty strings, got {key!r}")
        if not isinstance(value, _ALLOWED_PROPERTY_TYPES):
            raise MQError(
                f"property {key!r} has unsupported type {type(value).__name__};"
                " allowed: str, int, float, bool"
            )
        validated[key] = value
    return validated


@dataclass(slots=True)
class Message:
    """A MOM message.

    Messages are treated as immutable once put: the queue stores the object
    and hands it back on get.  Code that needs a variant (e.g. the network
    layer stamping hop information) uses :meth:`copy`.

    Instances are slotted: a message holds exactly the fields below and
    cannot carry ad-hoc attributes.  The broker and the queues keep one
    message object per stored delivery, so the slotted layout is what
    keeps deep queues and wide fan-outs small in memory.

    Attributes:
        message_id: Middleware-assigned unique id.
        correlation_id: Application correlation key (e.g. links a reply or
            an acknowledgment to the message it answers).
        body: Application payload.  Any Python object; persistent messages
            must have journal-serializable bodies (see ``repro.mq.persistence``).
        properties: Typed application/extension key-value pairs.
        priority: 0..9, higher first (JMS ordering).
        delivery_mode: persistent or non-persistent.
        expiry_ms: Absolute virtual time after which the message is dead,
            or ``None`` for no expiry.
        reply_to_manager / reply_to_queue: Routing hint for replies/acks.
        put_time_ms: Stamped by the queue at put time.
        backout_count: Number of times a transactional get of this message
            was rolled back (MQSeries "backout count").
        source_manager: Name of the queue manager that originated the
            message (stamped by the network layer on remote puts).
    """

    body: Any
    message_id: str = field(default_factory=new_message_id)
    correlation_id: Optional[str] = None
    properties: Dict[str, PropertyValue] = field(default_factory=dict)
    priority: int = DEFAULT_PRIORITY
    delivery_mode: DeliveryMode = DeliveryMode.PERSISTENT
    expiry_ms: Optional[int] = None
    reply_to_manager: Optional[str] = None
    reply_to_queue: Optional[str] = None
    put_time_ms: Optional[int] = None
    backout_count: int = 0
    source_manager: Optional[str] = None

    def __post_init__(self) -> None:
        if not MIN_PRIORITY <= self.priority <= MAX_PRIORITY:
            raise MQError(
                f"priority {self.priority} outside {MIN_PRIORITY}..{MAX_PRIORITY}"
            )
        self.properties = validate_properties(self.properties)
        if self.expiry_ms is not None and self.expiry_ms < 0:
            raise MQError("expiry_ms must be >= 0 or None")

    # -- property helpers ---------------------------------------------------

    def get_property(self, key: str, default: Optional[PropertyValue] = None) -> Optional[PropertyValue]:
        """Return a property value or ``default``."""
        return self.properties.get(key, default)

    def has_property(self, key: str) -> bool:
        """True if the property is present."""
        return key in self.properties

    def with_properties(self, **updates: PropertyValue) -> "Message":
        """Return a copy with additional/overridden properties."""
        merged = dict(self.properties)
        merged.update(validate_properties(updates))
        clone = self.copy()
        # Both halves of the merge were validated (existing properties at
        # construction, updates just now) — skip re-validating the union.
        clone.properties = merged
        return clone

    # -- lifecycle helpers ---------------------------------------------------

    def is_expired(self, now_ms: int) -> bool:
        """True if the message is past its expiry at virtual time ``now_ms``."""
        return self.expiry_ms is not None and now_ms > self.expiry_ms

    def is_persistent(self) -> bool:
        """True if the message survives queue-manager restart."""
        return self.delivery_mode is DeliveryMode.PERSISTENT

    def copy(self, **overrides: Any) -> "Message":
        """Return a field-wise copy with ``overrides`` applied.

        The copy keeps the same ``message_id`` unless overridden — it is
        the same logical message (used when a message crosses a channel).

        Copies are a hot path (every channel hop and queue put makes
        one), so unchanged fields skip re-validation — they were
        validated when this message was constructed.  Overridden fields
        get the same checks ``__post_init__`` would apply.  The
        properties dict is shared with the source: messages are
        immutable once built (every property change goes through
        :meth:`with_properties`, which builds a fresh dict).  An
        override naming no field raises :class:`AttributeError`.
        """
        clone = object.__new__(Message)
        clone.body = self.body
        clone.message_id = self.message_id
        clone.correlation_id = self.correlation_id
        clone.properties = self.properties
        clone.priority = self.priority
        clone.delivery_mode = self.delivery_mode
        clone.expiry_ms = self.expiry_ms
        clone.reply_to_manager = self.reply_to_manager
        clone.reply_to_queue = self.reply_to_queue
        clone.put_time_ms = self.put_time_ms
        clone.backout_count = self.backout_count
        clone.source_manager = self.source_manager
        if overrides:
            for name, value in overrides.items():
                setattr(clone, name, value)
            if "priority" in overrides and not (
                MIN_PRIORITY <= clone.priority <= MAX_PRIORITY
            ):
                raise MQError(
                    f"priority {clone.priority} outside"
                    f" {MIN_PRIORITY}..{MAX_PRIORITY}"
                )
            if "properties" in overrides:
                clone.properties = validate_properties(clone.properties)
            if "expiry_ms" in overrides and (
                clone.expiry_ms is not None and clone.expiry_ms < 0
            ):
                raise MQError("expiry_ms must be >= 0 or None")
        return clone

    def __repr__(self) -> str:  # keep logs short
        return (
            f"Message(id={self.message_id}, prio={self.priority}, "
            f"mode={self.delivery_mode.value}, props={len(self.properties)})"
        )


class MessageBuilder:
    """Fluent construction of :class:`Message` instances.

    Example::

        msg = (
            MessageBuilder("meeting notice")
            .priority(7)
            .persistent()
            .property("APP", "calendar")
            .reply_to("QM.SENDER", "DS.ACK.Q")
            .build()
        )
    """

    def __init__(self, body: Any) -> None:
        self._body = body
        self._correlation_id: Optional[str] = None
        self._properties: Dict[str, PropertyValue] = {}
        self._priority = DEFAULT_PRIORITY
        self._delivery_mode = DeliveryMode.PERSISTENT
        self._expiry_ms: Optional[int] = None
        self._reply_to: Tuple[Optional[str], Optional[str]] = (None, None)

    def correlation(self, correlation_id: str) -> "MessageBuilder":
        """Set the correlation id."""
        self._correlation_id = correlation_id
        return self

    def property(self, key: str, value: PropertyValue) -> "MessageBuilder":
        """Add one application property."""
        self._properties.update(validate_properties({key: value}))
        return self

    def properties(self, mapping: Mapping[str, PropertyValue]) -> "MessageBuilder":
        """Add several application properties."""
        self._properties.update(validate_properties(mapping))
        return self

    def priority(self, priority: int) -> "MessageBuilder":
        """Set the JMS priority (0..9)."""
        self._priority = priority
        return self

    def persistent(self) -> "MessageBuilder":
        """Mark the message persistent (the default)."""
        self._delivery_mode = DeliveryMode.PERSISTENT
        return self

    def non_persistent(self) -> "MessageBuilder":
        """Mark the message non-persistent."""
        self._delivery_mode = DeliveryMode.NON_PERSISTENT
        return self

    def expires_at(self, expiry_ms: int) -> "MessageBuilder":
        """Set an absolute expiry time in virtual milliseconds."""
        self._expiry_ms = expiry_ms
        return self

    def reply_to(self, manager: str, queue: str) -> "MessageBuilder":
        """Route replies/acknowledgments to ``queue`` on ``manager``."""
        self._reply_to = (manager, queue)
        return self

    def build(self) -> Message:
        """Construct the message (validates priority and properties)."""
        manager, queue = self._reply_to
        return Message(
            body=self._body,
            correlation_id=self._correlation_id,
            properties=dict(self._properties),
            priority=self._priority,
            delivery_mode=self._delivery_mode,
            expiry_ms=self._expiry_ms,
            reply_to_manager=manager,
            reply_to_queue=queue,
        )
