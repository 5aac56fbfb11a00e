"""Network of queue managers: store-and-forward channels with latency/loss.

MQSeries connects queue managers with *channels*: a remote put lands on a
local transmission queue, and a channel agent forwards it to the target
manager.  Delivery is reliable (the message stays on the transmission
queue until the transfer succeeds) but takes time and may need retries.

This module reproduces that model over the simulation scheduler:

* :meth:`MessageNetwork.connect` defines a unidirectional channel with
  configurable latency, jitter, and loss rate (loss models a failed
  transfer attempt, which is retried — messages are never silently
  dropped, matching "reliable messaging");
* remote puts go through a per-manager handler installed with
  :meth:`QueueManager.attach_network`; the message is wrapped with a
  routing envelope and parked on ``SYSTEM.XMIT.<target>``;
* a scheduled event per message performs the transfer after the sampled
  delay, auto-creating the destination queue if the target manager allows
  it (otherwise the message dead-letters on the target).

Without a scheduler the network delivers synchronously (zero latency),
which the unit tests of higher layers use for brevity.
"""

from __future__ import annotations

import abc
import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ChannelError, MQError, QueueManagerNotFoundError
from repro.mq.manager import DEAD_LETTER_QUEUE, XMIT_PREFIX, QueueManager
from repro.mq.message import Message
from repro.net.rtt import RttEstimator
from repro.obs.trace import NULL_TRACER, STAGE_XMIT, Tracer, cmid_of
from repro.sim.scheduler import EventScheduler

__all__ = [
    "Transport",
    "MessageNetwork",
    "Channel",
    "ChannelStats",
    # Re-exported for back-compat; the constant lives in repro.mq.manager.
    "XMIT_PREFIX",
    "PROP_ROUTE_TARGET_MANAGER",
    "PROP_ROUTE_TARGET_QUEUE",
]

#: Routing-envelope property names.
PROP_ROUTE_TARGET_MANAGER = "SYS_ROUTE_TO_QM"
PROP_ROUTE_TARGET_QUEUE = "SYS_ROUTE_TO_Q"


class Transport(abc.ABC):
    """Abstract store-and-forward transport between queue managers.

    A transport owns the path a remote put takes from one manager toward
    another.  Two implementations exist:

    * :class:`MessageNetwork` — the in-process implementation: every
      manager lives in this interpreter and channels are simulated
      (latency/jitter/loss over :class:`EventScheduler`).  The chaos and
      sim layers drive this one.
    * :class:`repro.net.wire.WireHost` — the multi-process
      implementation: the local manager's channels are real TCP or
      unix-domain socket connections to peer host processes, with the
      sans-IO protocol engine providing sequencing, retransmission and
      credit flow control.

    Both park outbound messages on durable ``SYSTEM.XMIT.<peer>``
    transmission queues before anything crosses the channel, so a crash
    on either side leaves an in-doubt journaled copy rather than a lost
    or duplicated message.
    """

    @abc.abstractmethod
    def send(
        self, source: str, target: str, queue_name: str, message: Message
    ) -> None:
        """Route ``message`` from ``source`` to ``queue_name`` on ``target``."""

    def attach(self, manager: QueueManager) -> QueueManager:
        """Install this transport as ``manager``'s remote-put handler."""

        def handler(target: str, queue_name: str, message: Message) -> None:
            self.send(manager.name, target, queue_name, message)

        manager.attach_network(handler)
        return manager


@dataclass
class ChannelStats:
    """Per-channel transfer counters."""

    sent: int = 0
    delivered: int = 0
    failed_attempts: int = 0
    dead_lettered: int = 0
    #: redeliveries suppressed by the exactly-once resolution check (a
    #: crashed source resurrecting an already-transferred parked message,
    #: or an injected duplicate transfer)
    duplicates_suppressed: int = 0


@dataclass
class Channel:
    """A unidirectional transfer path between two queue managers.

    Attributes:
        latency_ms: Base one-way transfer time.
        jitter_ms: Uniform extra delay in ``[0, jitter_ms]`` per attempt.
        loss_rate: Probability that a transfer attempt fails and is
            retried after that transfer's retransmission timeout.
        retry_interval_ms: *Initial* retransmission timeout.  Retries
            are timed from the channel's RFC 6298 estimator
            (:attr:`rtt`): successful transfer times feed the smoothed
            RTT, and — Karn's rule — retried or re-driven transfers
            never produce samples.  A transfer's first retry waits the
            channel's current RTO; each further failure of *that*
            transfer doubles its own timeout (clamped at the estimator's
            ``max_rto``), so one lossy transfer never inflates the
            timeout of the others in flight.
        stopped: A stopped channel parks messages on the transmission
            queue until restarted (models a network partition).
    """

    source: str
    target: str
    latency_ms: int = 0
    jitter_ms: int = 0
    loss_rate: float = 0.0
    retry_interval_ms: int = 100
    stopped: bool = False
    stats: ChannelStats = field(default_factory=ChannelStats)
    rtt: Optional[RttEstimator] = None
    #: message_id -> [first_attempt_ms, ambiguous, retry_ms] for
    #: in-flight transfers; ``ambiguous`` marks retried/re-driven
    #: messages whose completion must not be sampled (Karn's rule), and
    #: ``retry_ms`` is the transfer's next backed-off retry timeout
    #: (``None`` until its first failed attempt).
    inflight: Dict[str, List] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ChannelError("latency/jitter must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ChannelError("loss_rate must be in [0, 1)")
        if self.retry_interval_ms <= 0:
            raise ChannelError("retry_interval_ms must be positive")
        if self.rtt is None:
            self.rtt = RttEstimator(initial_rto=float(self.retry_interval_ms))


class MessageNetwork(Transport):
    """Connects queue managers; resolves remote puts via channels.

    Args:
        scheduler: Simulation scheduler.  ``None`` means synchronous
            zero-latency delivery (latency settings are then rejected).
        seed: Seed for the jitter/loss random source (deterministic runs).
        auto_create_queues: When True (default), a transfer to a queue the
            target manager has not defined creates it; when False such
            messages go to the target's dead-letter queue.
        tracer: Lifecycle tracer stamping ``xmit`` events when messages
            park on transmission queues (no-op by default).
        exactly_once: When True (default), final delivery records every
            transferred ``(target, queue, message_id)`` and suppresses
            redeliveries — the simulation analogue of MQ channel
            sequence-number resynchronisation.  A crashed source manager
            resurrects already-transferred parked messages from its
            journal (the transfer-time removal is deliberately not
            journaled: the parked copy is the channel's in-doubt record);
            re-driving them must not deliver twice.  Disable only for
            ablation runs that want to observe the duplicates.
    """

    def __init__(
        self,
        scheduler: Optional[EventScheduler] = None,
        seed: int = 0,
        auto_create_queues: bool = True,
        tracer: Tracer = NULL_TRACER,
        exactly_once: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.auto_create_queues = auto_create_queues
        self.tracer = tracer
        self.exactly_once = exactly_once
        #: True when the last :meth:`quiesce` exhausted its event budget
        #: with work still pending (see the ``strict`` parameter).
        self.truncated = False
        self._rng = random.Random(seed)
        self._managers: Dict[str, QueueManager] = {}
        self._channels: Dict[Tuple[str, str], Channel] = {}
        #: (source, final target) -> next hop, for multi-hop forwarding
        self._routes: Dict[Tuple[str, str], str] = {}
        #: (target manager, queue, message_id) of every completed final
        #: delivery — the exactly-once resolution record
        self._delivered: Set[Tuple[str, str, str]] = set()

    # -- topology ---------------------------------------------------------------

    def add_manager(self, manager: QueueManager) -> QueueManager:
        """Register a queue manager and install its remote-put handler."""
        if manager.name in self._managers:
            raise MQError(f"manager {manager.name!r} already on the network")
        self._managers[manager.name] = manager
        self._install_handler(manager)
        return manager

    def reattach_manager(self, manager: QueueManager) -> QueueManager:
        """Replace a registered manager with its post-crash incarnation.

        Channels, routes and delivery records are untouched; only the
        manager object (rebuilt by :meth:`QueueManager.recover`) is
        swapped and re-handled.  Call :meth:`redrive` afterwards to
        re-attempt any parked transmission-queue messages the journal
        resurrected.
        """
        if manager.name not in self._managers:
            raise QueueManagerNotFoundError(manager.name)
        self._managers[manager.name] = manager
        self._install_handler(manager)
        return manager

    def _install_handler(self, manager: QueueManager) -> None:
        self.attach(manager)

    def manager(self, name: str) -> QueueManager:
        """Look up a registered manager by name."""
        try:
            return self._managers[name]
        except KeyError:
            raise QueueManagerNotFoundError(name) from None

    def manager_names(self) -> List[str]:
        """Names of all registered managers."""
        return list(self._managers)

    def connect(
        self,
        source: str,
        target: str,
        latency_ms: int = 0,
        jitter_ms: int = 0,
        loss_rate: float = 0.0,
        retry_interval_ms: int = 100,
        bidirectional: bool = True,
    ) -> None:
        """Define a channel (by default, one in each direction)."""
        if source not in self._managers:
            raise QueueManagerNotFoundError(source)
        if target not in self._managers:
            raise QueueManagerNotFoundError(target)
        if self.scheduler is None and (latency_ms or jitter_ms or loss_rate):
            raise ChannelError(
                "latency/jitter/loss require a scheduler-backed network"
            )
        pairs = [(source, target)]
        if bidirectional:
            pairs.append((target, source))
        for src, dst in pairs:
            channel = Channel(
                source=src,
                target=dst,
                latency_ms=latency_ms,
                jitter_ms=jitter_ms,
                loss_rate=loss_rate,
                retry_interval_ms=retry_interval_ms,
            )
            self._channels[(src, dst)] = channel
            # Store-and-forward: traffic parked on the source's
            # transmission queue (e.g. from before a restart or while no
            # channel was defined) flows as soon as the channel exists.
            self._drain_xmit(channel)

    def set_route(self, source: str, final_target: str, next_hop: str) -> None:
        """Declare that ``source`` reaches ``final_target`` via ``next_hop``.

        ``source`` must have a channel (or a further route) to
        ``next_hop``; the intermediate manager forwards using its own
        channels/routes, so chains of any length compose hop by hop —
        MQSeries-style multi-hop store-and-forward.
        """
        if source not in self._managers:
            raise QueueManagerNotFoundError(source)
        if final_target not in self._managers:
            raise QueueManagerNotFoundError(final_target)
        if next_hop not in self._managers:
            raise QueueManagerNotFoundError(next_hop)
        if next_hop == source:
            raise ChannelError("a route's next hop cannot be its source")
        self._routes[(source, final_target)] = next_hop

    def channel(self, source: str, target: str) -> Channel:
        """Look up the channel from ``source`` to ``target``."""
        try:
            return self._channels[(source, target)]
        except KeyError:
            raise ChannelError(f"no channel {source!r} -> {target!r}") from None

    def _hop_channel(self, source: str, final_target: str) -> Channel:
        """The channel for the first hop toward ``final_target``."""
        direct = self._channels.get((source, final_target))
        if direct is not None:
            return direct
        next_hop = self._routes.get((source, final_target))
        if next_hop is not None:
            return self.channel(source, next_hop)
        raise ChannelError(
            f"no channel or route from {source!r} to {final_target!r}"
        )

    def stop_channel(self, source: str, target: str) -> None:
        """Partition: park all traffic on the source's transmission queue."""
        self.channel(source, target).stopped = True

    def start_channel(self, source: str, target: str) -> None:
        """Heal a partition and drain the parked transmission queue."""
        chan = self.channel(source, target)
        if not chan.stopped:
            return
        chan.stopped = False
        self._drain_xmit(chan)

    def partition(self, a: str, b: str) -> None:
        """Stop both channel directions between ``a`` and ``b`` atomically.

        Both channels are looked up before either is touched, so a
        missing direction raises :class:`ChannelError` without leaving a
        half-partitioned pair.
        """
        forward = self.channel(a, b)
        backward = self.channel(b, a)
        forward.stopped = True
        backward.stopped = True

    def heal(self, a: str, b: str) -> None:
        """Restart both channel directions between ``a`` and ``b``.

        Like :meth:`partition`, both channels are resolved before either
        side is restarted; each direction then drains its parked
        transmission queue.
        """
        self.channel(a, b)
        self.channel(b, a)
        self.start_channel(a, b)
        self.start_channel(b, a)

    def redrive(self) -> None:
        """Re-attempt parked transmission traffic on every running channel.

        After a crash, :meth:`QueueManager.recover` resurrects the
        journaled transmission queues but no transfer events exist for
        them (the old events either fired against the dead manager or
        no-op on the empty recovered queue).  Re-driving schedules a
        fresh attempt per parked message; already-delivered messages are
        resolved without redelivery by the exactly-once check.
        """
        for chan in self._channels.values():
            if not chan.stopped:
                self._drain_xmit(chan)

    # -- transfer --------------------------------------------------------------------

    def send(
        self, source: str, target: str, queue_name: str, message: Message
    ) -> None:
        """Route ``message`` from ``source`` to ``queue_name`` on ``target``.

        The message is enveloped and parked on the source's transmission
        queue; actual delivery happens after the channel delay (or
        immediately in synchronous mode).
        """
        if source == target:
            self.manager(source).put(queue_name, message)
            return
        chan = self._hop_channel(source, target)
        src_manager = self.manager(source)
        enveloped = message.with_properties(
            **{
                PROP_ROUTE_TARGET_MANAGER: target,
                PROP_ROUTE_TARGET_QUEUE: queue_name,
            }
        ).copy(source_manager=message.source_manager or source)
        # Transmission queues are per next hop (the channel's endpoint),
        # not per final target: multi-hop traffic shares the hop's queue.
        xmit_name = XMIT_PREFIX + chan.target
        src_manager.ensure_queue(xmit_name)
        src_manager.put(xmit_name, enveloped)
        chan.stats.sent += 1
        if self.tracer.enabled:
            self.tracer.emit(
                STAGE_XMIT,
                at_ms=src_manager.clock.now_ms(),
                cmid=cmid_of(enveloped),
                manager=source,
                queue=xmit_name,
                message_id=enveloped.message_id,
                target_manager=target,
                target_queue=queue_name,
            )
        if self.scheduler is None:
            # Synchronous delivery must not outrun the sender's
            # durability: inside a group-commit batch the compensation /
            # sender-log / parking records are still buffered, and
            # transferring now would flush the data message into the
            # TARGET manager's journal first — a sender crash then leaves
            # a delivered original that recovery cannot compensate.
            # post_commit defers the transfer until the source journal's
            # commit group is written (immediately when no batch is
            # open).  Scheduler-backed delivery is naturally deferred
            # past the batch because events run after the sending call
            # returns.
            message_id = enveloped.message_id
            src_manager.post_durable(
                lambda: self._attempt_transfer(chan, message_id)
            )
        elif not chan.stopped:
            # Scheduler-backed delivery is deferred past an open batch
            # because events run after the sending call returns — but an
            # adaptive flush timer can hold the sender's records *across*
            # events, so the latency countdown must not start until the
            # parking record's commit group is written.  post_commit is
            # immediate when nothing is held, keeping the plain path
            # unchanged.
            message_id = enveloped.message_id
            src_manager.post_durable(
                lambda: self._schedule_attempt(chan, message_id)
            )

    def _schedule_attempt(self, chan: Channel, message_id: str) -> None:
        assert self.scheduler is not None
        now = self.scheduler.clock.now_ms()
        entry = chan.inflight.get(message_id)
        if entry is None:
            chan.inflight[message_id] = [now, False, None]
        else:
            # Re-driven (partition heal / crash recovery): a fresh wire
            # attempt for a message that may also have an older attempt
            # outstanding — its completion time is ambiguous (Karn).
            entry[1] = True
        delay = chan.latency_ms
        if chan.jitter_ms:
            delay += self._rng.randint(0, chan.jitter_ms)
        self.scheduler.call_later(
            delay,
            lambda: self._attempt_transfer(chan, message_id),
            label=f"xfer {chan.source}->{chan.target}",
        )

    def _attempt_transfer(self, chan: Channel, message_id: str) -> None:
        if chan.stopped:
            return  # message stays parked; start_channel will re-drive it
        if chan.loss_rate and self._rng.random() < chan.loss_rate:
            chan.stats.failed_attempts += 1
            if self.scheduler is None:
                raise ChannelError("loss requires a scheduler")  # pragma: no cover
            entry = chan.inflight.setdefault(
                message_id, [self.scheduler.clock.now_ms(), True, None]
            )
            entry[1] = True  # Karn: the eventual success is ambiguous
            # RFC 6298 backoff, per transfer: the first retry waits the
            # channel's current timeout, each later one twice the last.
            # The shared estimator is left alone, so a loss burst on
            # other transfers cannot push this one's timer out.
            retry_after = entry[2] if entry[2] is not None else chan.rtt.rto
            entry[2] = min(retry_after * 2.0, chan.rtt.max_rto)
            self.scheduler.call_later(
                retry_after,
                lambda: self._attempt_transfer(chan, message_id),
                label=f"retry {chan.source}->{chan.target}",
            )
            return
        src_manager = self.manager(chan.source)
        xmit_name = XMIT_PREFIX + chan.target
        if not src_manager.has_queue(xmit_name):
            chan.inflight.pop(message_id, None)
            return
        enveloped = src_manager.queue(xmit_name).find_by_id(message_id)
        if enveloped is None:
            chan.inflight.pop(message_id, None)
            return  # already transferred (e.g. drained after a partition healed)
        # Deliver first, resolve the parked copy after: a target crash
        # mid-delivery then leaves the message parked for a later
        # re-attempt instead of losing it.  The resolution is a
        # queue-level removal on purpose — the journaled parked copy is
        # the channel's in-doubt record, and a crashed source re-drives
        # it through the exactly-once check instead of losing or
        # duplicating the message.
        self._deliver(chan, enveloped)
        try:
            src_manager.queue(xmit_name).get_by_id(message_id)
        except MQError:
            pass  # raced with another resolution of the same attempt
        entry = chan.inflight.pop(message_id, None)
        if entry is not None and not entry[1] and self.scheduler is not None:
            # A clean first-attempt transfer: feed its elapsed time to the
            # channel's RFC 6298 estimator so retry timeouts track the
            # channel's real latency instead of a fixed interval.
            chan.rtt.observe(
                max(0.0, self.scheduler.clock.now_ms() - entry[0])
            )

    def _deliver(self, chan: Channel, enveloped: Message) -> None:
        final_target = str(enveloped.get_property(PROP_ROUTE_TARGET_MANAGER))
        queue_name = str(enveloped.get_property(PROP_ROUTE_TARGET_QUEUE))
        if final_target != chan.target:
            # Intermediate hop: forward toward the final target using the
            # hop manager's own channels/routes (multi-hop
            # store-and-forward).  Strip this hop's envelope; send()
            # re-envelopes for the next hop.
            stripped = enveloped.copy()
            # Subset of an already-validated dict; skip re-validation.
            stripped.properties = {
                k: v
                for k, v in enveloped.properties.items()
                if k not in (PROP_ROUTE_TARGET_MANAGER, PROP_ROUTE_TARGET_QUEUE)
            }
            chan.stats.delivered += 1
            self.send(chan.target, final_target, queue_name, stripped)
            return
        target_manager = self.manager(chan.target)
        if self.exactly_once:
            key = (chan.target, queue_name, enveloped.message_id)
            # Suppress a redelivery when the transfer already completed:
            # the resolution record covers the common case, the
            # queue-presence scan the narrow one where a target crash
            # after the durable delivery flush lost the record.
            if key in self._delivered or (
                target_manager.has_queue(queue_name)
                and any(
                    stored.message_id == enveloped.message_id
                    for stored in target_manager.queue(queue_name).snapshot()
                )
            ):
                self._delivered.add(key)
                chan.stats.duplicates_suppressed += 1
                return
        # Strip the routing envelope before final delivery.  The stripped
        # dict is a subset of an already-validated one; skip re-validation.
        final = enveloped.copy()
        final.properties = {
            k: v
            for k, v in enveloped.properties.items()
            if k not in (PROP_ROUTE_TARGET_MANAGER, PROP_ROUTE_TARGET_QUEUE)
        }
        if not target_manager.has_queue(queue_name):
            if self.auto_create_queues:
                target_manager.define_queue(queue_name)
            else:
                target_manager.put(
                    DEAD_LETTER_QUEUE,
                    final.with_properties(DLQ_REASON="unknown-queue"),
                )
                chan.stats.dead_lettered += 1
                if self.exactly_once:
                    self._delivered.add(
                        (chan.target, queue_name, enveloped.message_id)
                    )
                return
        target_manager.put(queue_name, final)
        if self.exactly_once:
            self._delivered.add((chan.target, queue_name, enveloped.message_id))
        chan.stats.delivered += 1

    def _drain_xmit(self, chan: Channel) -> None:
        src_manager = self.manager(chan.source)
        xmit_name = XMIT_PREFIX + chan.target
        if not src_manager.has_queue(xmit_name):
            return
        parked = [m.message_id for m in src_manager.browse(xmit_name)]
        for message_id in parked:
            if self.scheduler is None:
                self._attempt_transfer(chan, message_id)
            else:
                self._schedule_attempt(chan, message_id)

    # -- convenience ------------------------------------------------------------------

    def quiesce(self, max_events: int = 1_000_000, strict: bool = True) -> int:
        """Run the scheduler until the network is idle (simulation only).

        Returns the number of events fired.  If the event budget runs out
        with work still pending the network is NOT quiescent: ``strict``
        (default) raises :class:`ChannelError`; otherwise a warning is
        issued and :attr:`truncated` is set so callers can tell a drained
        network from a truncated drain.
        """
        self.truncated = False
        if self.scheduler is None:
            return 0
        fired = 0
        while fired < max_events:
            if not self.scheduler.step():
                return fired
            fired += 1
        if self.scheduler.next_due_ms() is None:
            return fired
        self.truncated = True
        detail = (
            f"network did not quiesce within {max_events} events;"
            f" {self.scheduler.pending()} still pending"
        )
        if strict:
            raise ChannelError(detail)
        warnings.warn(detail, RuntimeWarning, stacklevel=2)
        return fired
