"""Driving a rule set against a live deployment.

:class:`RuleDriver` is the one piece of code that turns a
:class:`~repro.rules.RuleSet` into application activity: the random
chaos explorer, the bounded model checker and the workload generator
all schedule their sends and receiver reactions through it.

Every callback is *late-bound*: it resolves ``testbed.service`` and
``testbed.receivers[name].receiver`` when it fires, so after a crash
the driver keeps driving the recovered incarnation, the way a real
client reconnects to a restarted queue manager.  Scheduler labels
(``rule-send #<i>``, ``rule-react <R>``, ``rule-process <R>``) are part
of the bounded checker's state hash.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.conditions import Condition
from repro.core.receiver import ConditionalMessagingReceiver, ReceivedMessage
from repro.mq.selectors import compile_selector
from repro.rules.compile import compile_message
from repro.rules.model import MessageRule, ReactionRule, RuleSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.scenarios import Testbed

__all__ = ["RuleDriver"]


class RuleDriver:
    """Schedules a rule set's sends and reactions on a testbed.

    Rule times (``send_at_ms``, ``at_ms``) are offsets from the
    :meth:`schedule` call.  Sends are registered before reactions, each
    in rule-set order, so same-instant events keep a fixed default
    order.  ``on_send(cmid, condition)`` runs after each send returns;
    ``on_observe(receiver, received)`` runs when a reaction delivers a
    message to the application (a plain read, possibly ``None`` for an
    empty inbox, or a committed transactional read).
    """

    def __init__(
        self,
        testbed: "Testbed",
        ruleset: RuleSet,
        on_send: Optional[Callable[[str, Condition], None]] = None,
        on_observe: Optional[
            Callable[[str, Optional[ReceivedMessage]], None]
        ] = None,
    ) -> None:
        self.testbed = testbed
        self.ruleset = ruleset
        self.on_send = on_send or (lambda cmid, condition: None)
        self.on_observe = on_observe or (lambda receiver, received: None)

    def schedule(self) -> None:
        """Register every send and reaction of the rule set."""
        scheduler = self.testbed.scheduler
        for index, message in enumerate(self.ruleset.messages):
            scheduler.call_later(
                message.send_at_ms,
                lambda message=message: self._fire_send(message),
                label=f"rule-send #{index}",
            )
        for reaction in self.ruleset.reactions:
            scheduler.call_later(
                reaction.at_ms,
                lambda reaction=reaction: self._fire_reaction(reaction),
                label=f"rule-react {reaction.receiver}",
            )

    # -- sends -------------------------------------------------------------------

    def _fire_send(self, rule: MessageRule) -> None:
        condition = compile_message(rule, queue_of=self.testbed.queue_of)
        # A pre-flush crash inside send_message propagates out before the
        # cmid exists; the durable half of such an interrupted send (if
        # any) is learned from DS.SLOG.Q during recovery.
        cmid = self.testbed.service.send_message(
            dict(rule.body),
            condition,
            compensation=(
                dict(rule.compensation) if rule.compensation is not None else None
            ),
        )
        self.on_send(cmid, condition)

    # -- reactions ---------------------------------------------------------------

    @staticmethod
    def _selector_view(message: Any) -> Any:
        """The message as a reaction guard sees it.

        JMS selectors match on message *properties*; rule bodies are
        validated scalar-only dicts, so expose them as properties for
        guard evaluation (control properties, ``DS_*``, stay
        authoritative and cannot be shadowed).
        """
        if isinstance(message.body, dict):
            fields = {
                key: value
                for key, value in message.body.items()
                if value is not None and not key.startswith("DS_")
            }
            if fields:
                return message.with_properties(**fields)
        return message

    def _fire_reaction(self, rule: ReactionRule) -> None:
        receiver = self.testbed.receivers[rule.receiver].receiver
        queue_name = self.testbed.queue_of(rule.receiver)
        if receiver.in_transaction:
            # Busy with an earlier message's transaction; retry after the
            # hold time (single-threaded application, like the rest of
            # the simulation).  This applies to plain reads too: a read
            # issued now would silently join the open transaction, and a
            # rollback would un-deliver a message already observed.
            self.testbed.scheduler.call_later(
                max(rule.process_ms, 1),
                lambda: self._fire_reaction(rule),
                label=f"rule-react {rule.receiver}",
            )
            return
        guard = compile_selector(rule.guard)
        if rule.mode == "read" and guard is None:
            self.on_observe(rule.receiver, receiver.read_message(queue_name))
            return
        # Transactional path: commit/abort modes, and any guarded read —
        # a guard decides only after seeing the message, so the read must
        # be revocable.
        receiver.begin_tx()
        received = receiver.read_message(queue_name)
        if received is None:
            receiver.abort_tx()
            return
        self.testbed.scheduler.call_later(
            rule.process_ms,
            lambda: self._complete_reaction(rule, receiver, received),
            label=f"rule-process {rule.receiver}",
        )

    def _complete_reaction(
        self,
        rule: ReactionRule,
        receiver: ConditionalMessagingReceiver,
        received: ReceivedMessage,
    ) -> None:
        if self.testbed.receivers[rule.receiver].receiver is not receiver:
            # The manager crashed since the read: the transaction died
            # with it (presumed abort — the locked message is live again
            # in the recovered state), so there is nothing to complete.
            return
        guard = compile_selector(rule.guard)
        commits = rule.mode != "abort" and (
            guard is None
            or guard.matches(self._selector_view(received.message))
        )
        if commits:
            receiver.commit_tx()
            self.on_observe(rule.receiver, received)
        else:
            receiver.abort_tx()
