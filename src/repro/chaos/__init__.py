"""Deterministic fault injection and paper-invariant checking.

The chaos layer stresses the conditional-messaging implementation the
way the paper's reliability argument is stressed: crash queue managers
at journal-flush boundaries, partition channels mid-transfer, tear
journal tails, duplicate and delay transfers — then recover, quiesce,
and check that every guarantee the paper claims still holds.

* :mod:`repro.chaos.faults` — declarative, seeded :class:`FaultPlan`
  executed by a :class:`FaultInjector`; crashes surface as
  :class:`CrashPoint`.
* :mod:`repro.chaos.invariants` — the :class:`InvariantSuite` (journal
  coherence, outcome uniqueness, compensation consistency,
  acknowledgment correlation, D-Sphere atomicity).
* :mod:`repro.chaos.explorer` — the seeded random-walk
  :class:`ChaosExplorer` with shrinking JSON reproducers.
* :mod:`repro.chaos.bounded` — the exhaustive small-scope
  :class:`BoundedExplorer`: every interleaving and crash point of a
  declarative :class:`~repro.rules.RuleSet`, checked to fixpoint.

Both explorers run a :class:`~repro.rules.RuleSet` through the same
:class:`~repro.rules.RuleDriver` on the same :class:`ChaosHarness`.

``python -m repro.chaos --episodes 50`` runs a corpus from the CLI;
``python -m repro.chaos --bounded`` runs the bounded checker on the
pinned canonical configuration.
"""

from repro.chaos.bounded import (
    BoundedExplorer,
    BoundedResult,
    BoundedViolation,
    canonical_ruleset,
)
from repro.chaos.explorer import (
    ChaosExplorer,
    ChaosHarness,
    EpisodeResult,
    EpisodeSpec,
)
from repro.chaos.faults import (
    CrashPoint,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.chaos.invariants import (
    ChaosContext,
    EpisodeLedger,
    InvariantSuite,
    SendRecord,
    Violation,
)

__all__ = [
    "BoundedExplorer",
    "BoundedResult",
    "BoundedViolation",
    "ChaosContext",
    "ChaosExplorer",
    "ChaosHarness",
    "CrashPoint",
    "EpisodeLedger",
    "EpisodeResult",
    "EpisodeSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InvariantSuite",
    "SendRecord",
    "Violation",
    "canonical_ruleset",
]
