"""Tests for the bounded model checker (repro.chaos.bounded)."""

import pytest

from repro.chaos.bounded import BoundedExplorer, canonical_ruleset
from repro.chaos.explorer import EpisodeSpec
from repro.core import control
from repro.core.compensation import CompensationManager
from repro.rules import (
    DestinationRule,
    GroupRule,
    MessageRule,
    ReactionRule,
    RuleSet,
)


def tiny_ruleset(**overrides):
    """One receiver, one message, one reaction — the smallest scope."""
    fields = dict(
        receivers=["R1"],
        messages=[
            MessageRule(
                condition=GroupRule(
                    members=[DestinationRule(receiver="R1")],
                    pick_up_within_ms=400,
                ),
                send_at_ms=0,
                body={"kind": "rules", "tag": "a"},
                evaluation_timeout_ms=1_200,
                compensation={"undo": 0},
            )
        ],
        reactions=[ReactionRule(receiver="R1", at_ms=100, mode="read")],
        name="tiny",
        seed=7,
    )
    fields.update(overrides)
    return RuleSet(**fields)


@pytest.fixture
def broken_release(monkeypatch):
    """Mutation canary: compensation release that bypasses the journal."""

    def release(self, cmid):
        released = 0
        with self.manager.group_commit():
            for staged in self.staged_for(cmid):
                message = self.manager.queue(self.comp_queue).get_by_id(
                    staged.message_id
                )
                info = control.extract_control(message)
                self.manager.put_remote(
                    info.dest_manager, info.dest_queue, message
                )
                released += 1
        return released

    monkeypatch.setattr(CompensationManager, "release", release)


def rule_harness(ruleset):
    """The deployment one bounded trajectory of ``ruleset`` runs on."""
    return BoundedExplorer(ruleset, crash_budget=0).harness()


class TestRuleHarness:
    def test_default_run_satisfies_invariants(self):
        explorer = BoundedExplorer(tiny_ruleset(), crash_budget=0)
        assert explorer.replay_script([]) == []

    def test_rule_sends_reach_the_ledger(self):
        harness = rule_harness(tiny_ruleset())
        try:
            harness.schedule_workload()
            harness.scheduler.run_all()
            assert len(harness.ledger.sends) == 1
            (record,) = harness.ledger.sends.values()
            assert record.destinations == [("QM.R1", "Q.R1")]
            assert record.has_compensation
            # The on-time read was recorded against the receiver.
            assert sum(harness.ledger.reads.values()) == 1
        finally:
            harness.close()

    def test_receivers_are_named_by_the_ruleset(self):
        ruleset = tiny_ruleset(
            receivers=["ALICE"],
            messages=[
                MessageRule(
                    condition=DestinationRule(
                        receiver="ALICE", pick_up_within_ms=100
                    )
                )
            ],
            reactions=[ReactionRule(receiver="ALICE", at_ms=50, mode="read")],
        )
        harness = rule_harness(ruleset)
        try:
            assert "QM.ALICE" in harness.managers
            harness.schedule_workload()
            harness.scheduler.run_all()
            (record,) = harness.ledger.sends.values()
            assert record.destinations == [("QM.ALICE", "Q.ALICE")]
            assert sum(harness.ledger.reads.values()) == 1
        finally:
            harness.close()
        assert BoundedExplorer(ruleset, crash_budget=0).run().ok

    def test_failed_guard_aborts_and_leaves_message(self):
        ruleset = tiny_ruleset(
            reactions=[
                ReactionRule(
                    receiver="R1", at_ms=100, mode="read",
                    guard="tag = 'never'",
                )
            ],
        )
        harness = rule_harness(ruleset)
        try:
            harness.schedule_workload()
            harness.scheduler.run_all()
            # The guard rejected the message: transaction aborted, the
            # original still sits on the inbox (joined later by the
            # released compensation, once the pick-up window lapses) and
            # nothing reached the application.
            kinds = sorted(
                control.extract_control(entry.message).kind
                for entry in harness.managers["QM.R1"].queue("Q.R1")._entries
            )
            assert kinds == ["compensation", "original"]
            assert sum(harness.ledger.reads.values()) == 0
        finally:
            harness.close()

    def test_matching_guard_commits(self):
        ruleset = tiny_ruleset(
            reactions=[
                ReactionRule(
                    receiver="R1", at_ms=100, mode="read", guard="tag = 'a'"
                )
            ]
        )
        harness = rule_harness(ruleset)
        try:
            harness.schedule_workload()
            harness.scheduler.run_all()
            assert harness.managers["QM.R1"].depth("Q.R1") == 0
            assert sum(harness.ledger.reads.values()) == 1
        finally:
            harness.close()


class TestBoundedExploration:
    def test_tiny_scope_closes_clean(self):
        result = BoundedExplorer(tiny_ruleset(), crash_budget=1).run()
        assert result.ok
        assert result.complete
        assert result.schedules > 1  # crash choices forked real branches
        assert result.states > 0
        assert result.transitions > result.schedules

    def test_exploration_is_deterministic(self):
        a = BoundedExplorer(tiny_ruleset(), crash_budget=1).run()
        b = BoundedExplorer(tiny_ruleset(), crash_budget=1).run()
        assert a.to_dict() == b.to_dict()

    def test_zero_budget_explores_schedules_only(self):
        without = BoundedExplorer(tiny_ruleset(), crash_budget=0).run()
        with_crashes = BoundedExplorer(tiny_ruleset(), crash_budget=1).run()
        assert without.ok and with_crashes.ok
        assert with_crashes.schedules > without.schedules

    def test_schedule_cap_reports_incomplete(self):
        result = BoundedExplorer(
            tiny_ruleset(), crash_budget=1, max_schedules=2
        ).run()
        assert result.schedules <= 2
        assert not result.complete

    def test_out_of_range_script_choice_rejected(self):
        explorer = BoundedExplorer(tiny_ruleset(), crash_budget=0)
        with pytest.raises(ValueError, match="out of range"):
            explorer.replay_script([99])

    def test_unknown_crash_manager_rejected(self):
        with pytest.raises(ValueError, match="crash manager"):
            BoundedExplorer(
                tiny_ruleset(), crash_budget=1, crash_managers=["QM.R9"]
            )

    def test_random_episode_ruleset_runs_under_the_bounded_checker(self):
        # A random-walk episode's scenario is a rule set: cut seed 0's to
        # its first message and that message's reactions, and the
        # bounded checker enumerates it to fixpoint.
        ruleset = EpisodeSpec.generate(0).ruleset
        fan_out = len(ruleset.messages[0].condition.members)
        ruleset.messages = ruleset.messages[:1]
        ruleset.reactions = ruleset.reactions[:fan_out]
        assert {r.receiver for r in ruleset.reactions} == {
            leaf.receiver for leaf in ruleset.messages[0].condition.members
        }
        result = BoundedExplorer(ruleset, crash_budget=0).run()
        assert result.ok, [str(v) for f in result.violations for v in f.violations]
        assert result.complete
        assert result.schedules >= 1

    def test_canonical_ruleset_closes_clean(self):
        result = BoundedExplorer(canonical_ruleset(), crash_budget=0).run()
        assert result.ok
        assert result.complete

    def test_canonical_state_space_is_pinned(self):
        # The clean-sweep fixpoint of the pinned CI configuration
        # (canonical + generated sweeps found zero violations).  A
        # changed count means the protocol's reachable state space
        # changed: deliberate (re-pin after review) or a regression in
        # determinism, hashing, or the scheduler.
        result = BoundedExplorer(canonical_ruleset(), crash_budget=1).run()
        assert result.ok
        assert result.complete
        assert result.states == 155
        assert result.schedules == 165


class TestMutationCanary:
    """A planted protocol bug must surface as a violation + reproducer."""

    def test_unjournaled_release_caught_with_reproducer(
        self, broken_release, tmp_path
    ):
        # Canonical message #1 times out (its only reaction fires after
        # the pick-up window), releasing the compensation through the
        # journal-bypassing mutant — every terminal state breaks journal
        # coherence, crashes not even needed.
        explorer = BoundedExplorer(canonical_ruleset(), crash_budget=0)
        result = explorer.run()
        assert not result.ok
        failure = result.violations[0]
        assert any(
            v.invariant == "journal_coherence" for v in failure.violations
        )
        path = explorer.write_repro(failure, str(tmp_path / "bounded.json"))
        import json

        with open(path, "r", encoding="utf-8") as handle:
            repro = json.load(handle)
        assert repro["kind"] == "bounded"
        replayed = BoundedExplorer.replay_repro(repro)
        assert any(v.invariant == "journal_coherence" for v in replayed)

    def test_clean_build_replays_reproducer_clean(self, tmp_path):
        # The same reproducer against unmutated code shows no violation —
        # the reproducer pins the bug, not the scenario.
        explorer = BoundedExplorer(canonical_ruleset(), crash_budget=0)
        repro = {
            "kind": "bounded",
            "ruleset": canonical_ruleset().to_dict(),
            "crash_budget": 0,
            "script": [],
        }
        assert BoundedExplorer.replay_repro(repro) == []
        del explorer
