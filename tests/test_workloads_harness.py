"""Tests for the workload generators and the experiment harness."""

import pytest

from repro.harness.reporting import Table
from repro.obs import LatencyStats, percentile
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.receivers import ReceiverMode, ReceiverScript, ScriptedReceiver
from repro.workloads.scenarios import Testbed


class TestTestbed:
    def test_builds_named_receivers(self):
        testbed = Testbed(["A", "B"])
        assert set(testbed.receivers) == {"A", "B"}
        assert testbed.receiver("A").recipient_id == "A"
        assert testbed.manager_of("B").name == "QM.B"
        assert testbed.queue_of("A") == "Q.A"

    def test_journaled_testbed_records_journals(self):
        testbed = Testbed(["A"], journaled=True)
        assert "QM.SENDER" in testbed.journals
        assert "QM.A" in testbed.journals

    def test_at_schedules_actions(self):
        testbed = Testbed(["A"])
        fired = []
        testbed.at(500, lambda: fired.append(testbed.clock.now_ms()))
        testbed.run_until(1_000)
        assert fired == [500]


class TestScriptedReceiver:
    def test_ignore_mode_never_reads(self):
        testbed = Testbed(["A"])
        script = ScriptedReceiver(
            testbed.receiver("A"),
            testbed.scheduler,
            ReceiverScript("Q.A", 100, ReceiverMode.IGNORE),
        )
        script.start()
        testbed.run_all()
        assert script.log.reads == []

    def test_empty_poll_recorded(self):
        testbed = Testbed(["A"])
        script = ScriptedReceiver(
            testbed.receiver("A"),
            testbed.scheduler,
            ReceiverScript("Q.A", 100, ReceiverMode.READ),
        )
        script.start()
        testbed.run_all()
        assert script.log.empty_polls == 1

    def test_process_commit_flow(self):
        from repro.core import destination, destination_set

        testbed = Testbed(["A"], latency_ms=5)
        cmid = testbed.service.send_message(
            "x",
            destination_set(
                destination("Q.A", manager="QM.A", recipient="A",
                            msg_pick_up_time=1_000, msg_processing_time=5_000)
            ),
        )
        script = ScriptedReceiver(
            testbed.receiver("A"),
            testbed.scheduler,
            ReceiverScript("Q.A", 100, ReceiverMode.PROCESS_COMMIT, process_ms=500),
        )
        script.start()
        testbed.run_all()
        assert script.log.commits == 1
        assert testbed.service.outcome(cmid).succeeded


class TestWorkloadGenerator:
    def test_rejects_oversized_fan_out(self):
        testbed = Testbed(["A"])
        with pytest.raises(ValueError):
            WorkloadGenerator(testbed, WorkloadSpec(fan_out=2))

    def test_all_on_time_workload_all_succeed(self):
        testbed = Testbed([f"N{i}" for i in range(4)], latency_ms=5)
        spec = WorkloadSpec(
            messages=20, fan_out=2, pick_up_window_ms=10_000,
            on_time_probability=1.0, seed=7,
        )
        result = WorkloadGenerator(testbed, spec).run()
        testbed.run_all()
        outcomes = [testbed.service.outcome(c) for c in result.cmids]
        assert all(o is not None for o in outcomes)
        assert all(o.succeeded for o in outcomes)
        assert result.expected_success == 20

    def test_never_on_time_workload_all_fail(self):
        testbed = Testbed([f"N{i}" for i in range(4)], latency_ms=5)
        spec = WorkloadSpec(
            messages=10, fan_out=2, pick_up_window_ms=1_000,
            on_time_probability=0.0, inter_send_gap_ms=10_000, seed=7,
        )
        result = WorkloadGenerator(testbed, spec).run()
        testbed.run_all()
        assert result.expected_success == 0
        assert not any(
            testbed.service.outcome(c).succeeded for c in result.cmids
        )

    def test_workload_is_reproducible(self):
        def run_once():
            testbed = Testbed([f"N{i}" for i in range(4)], latency_ms=5)
            spec = WorkloadSpec(
                messages=30, fan_out=2, on_time_probability=0.7, seed=42
            )
            result = WorkloadGenerator(testbed, spec).run()
            testbed.run_all()
            return [
                testbed.service.outcome(c).outcome.value for c in result.cmids
            ]

        assert run_once() == run_once()

    def test_processing_workload_exercises_transactions(self):
        testbed = Testbed([f"N{i}" for i in range(3)], latency_ms=5)
        # Wide windows: each endpoint processes serially (1s per message),
        # so queue backpressure delays later reads well past tight windows.
        spec = WorkloadSpec(
            messages=15, fan_out=2, processing_fraction=1.0,
            pick_up_window_ms=60_000, processing_window_ms=120_000, seed=1,
        )
        result = WorkloadGenerator(testbed, spec).run()
        testbed.run_all()
        assert all(testbed.service.outcome(c).succeeded for c in result.cmids)
        commits = sum(
            node.receiver.stats.transactional_reads
            for node in testbed.receivers.values()
        )
        assert commits == 30  # fan_out 2 * 15 messages, all transactional


class TestMetrics:
    def test_percentiles(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ordered, 0) == 1.0
        assert percentile(ordered, 100) == 4.0
        assert percentile(ordered, 50) == 2.5
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_is_linear_interpolation_not_nearest_rank(self):
        """Pin the exact method: NumPy-default linear interpolation.

        The rank is ``pct/100 * (n - 1)``; a fractional rank interpolates
        between the two neighbouring order statistics.  Nearest-rank would
        give 20.0 for the first case — this implementation must not.
        """
        assert percentile([10.0, 20.0, 30.0, 40.0], 25) == 17.5
        assert percentile([10.0, 20.0, 30.0, 40.0], 75) == 32.5
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 10) == 1.4
        # Integer ranks hit the order statistic exactly (no interpolation).
        assert percentile([10.0, 20.0, 30.0], 50) == 20.0
        # p95 on 20 evenly spaced samples: rank 0.95 * 19 = 18.05.
        samples = [float(i) for i in range(1, 21)]
        assert percentile(samples, 95) == pytest.approx(19.05)

    def test_latency_stats(self):
        stats = LatencyStats.from_samples([10.0, 20.0, 30.0])
        assert stats.count == 3
        assert stats.mean == 20.0
        assert stats.minimum == 10.0
        assert stats.maximum == 30.0
        assert stats.p50 == 20.0
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])


class TestTable:
    def test_render_structure(self):
        table = Table("Demo", ["name", "value"])
        table.add_row(["alpha", 1])
        table.add_row(["beta", 2.5])
        rendered = table.render()
        assert "Demo" in rendered
        assert "alpha" in rendered
        assert "2.500" in rendered
        assert table.rows == [["alpha", "1"], ["beta", "2.500"]]

    def test_row_width_validated(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_bool_formatting(self):
        table = Table("Demo", ["flag"])
        table.add_row([True])
        table.add_row([False])
        assert table.rows == [["yes"], ["no"]]
