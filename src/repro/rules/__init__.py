"""Declarative conditional-messaging rules.

Rules are the data form of a complete small scenario — receivers,
conditional sends, scripted reactions — with a canonical JSON encoding,
a compiler to the production condition object model, a seeded
generator of valid small instances for the bounded model checker, and
the :class:`RuleDriver` that runs a rule set against a live deployment.
"""

from repro.rules.compile import (
    compile_message,
    compile_node,
    default_manager_of,
    default_queue_of,
)
from repro.rules.driver import RuleDriver
from repro.rules.generate import RuleSetGenerator
from repro.rules.model import (
    DestinationRule,
    GroupRule,
    MessageRule,
    ReactionRule,
    RuleSet,
    RuleValidationError,
    node_from_dict,
)

__all__ = [
    "DestinationRule",
    "GroupRule",
    "MessageRule",
    "ReactionRule",
    "RuleDriver",
    "RuleSet",
    "RuleSetGenerator",
    "RuleValidationError",
    "compile_message",
    "compile_node",
    "default_manager_of",
    "default_queue_of",
    "node_from_dict",
]
