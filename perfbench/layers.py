"""Per-layer metrics of a traced run, and the per-send cost table."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from perfbench.common import RoundResult, median, metric, percentile, ratio
from perfbench.spans import LAYERS, SpanRecorder, self_time_table

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.  A
#: workload reports 0 for a layer it does not exercise.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("mq.message.copies_per_msg", "count"),
    ("mq.manager.puts_per_msg", "count"),
    ("mq.queue.puts_per_msg", "count"),
    ("mq.queue.gets_per_msg", "count"),
    ("mq.queue.browsed_per_read", "count"),
    ("mq.persistence.records_per_msg", "count"),
    ("mq.persistence.bytes_per_msg", "bytes"),
    ("mq.persistence.flushes_per_msg", "count"),
    ("mq.persistence.batch_records_mean", "count"),
    ("mq.persistence.recover_records", "count"),
    ("mq.persistence.recover_s", "s"),
    ("mq.network.transfers_per_msg", "count"),
    ("mq.pubsub.match_per_publish", "count"),
    ("mq.pubsub.deliveries_per_publish", "count"),
    ("mq.pubsub.retained_scanned_per_subscribe", "count"),
    ("mq.pubsub.publish_self_s", "s"),
    ("mq.pubsub.subscribe_self_s", "s"),
    ("core.sender.generate_s", "s"),
    ("core.receiver.reads", "count"),
    ("core.compensation.staged", "count"),
    ("core.compensation.released_ratio", "ratio"),
    ("core.evaluation.evaluations_per_decision", "count"),
    ("core.evaluation.acks_per_decision", "count"),
    ("sim.scheduler.events_per_msg", "count"),
    ("net.frames_per_msg", "count"),
    ("net.retransmit_ratio", "ratio"),
    ("net.duplicates", "count"),
    ("net.srtt_ms", "ms"),
    ("net.close_hangs", "count"),
    ("gen.late_ms_p99", "ms"),
    ("tail.call_us_p99", "us"),
    ("tail.outcome_ms_p99", "ms"),
    ("decision_vms_p50", "ms"),
    ("decision_vms_p99", "ms"),
    ("recover_s", "s"),
    ("failed_frac", "ratio"),
    ("core.evaluation.failure_share", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS + ("other",))

#: Figures that are medians over traced rounds (times); every other
#: traced figure is a count taken from the first traced round, which
#: repeats exactly for a given seed.
_TIMED = {name for name, unit in PER_LAYER if unit == "s"}


def service_totals(services: Sequence) -> Dict[str, int]:
    """Counters summed over sender-side service incarnations."""
    stats = [s.evaluation.stats for s in services]
    return {
        "staged": sum(s.stats.compensations_staged for s in services),
        "released": sum(s.stats.compensations_released for s in services),
        "decided": sum(st.decided_success + st.decided_failure for st in stats),
        "evaluations": sum(st.evaluations_run for st in stats),
        "acks": sum(st.acks_processed for st in stats),
    }


def generic_counts(
    recorder: SpanRecorder, result: RoundResult, services: Dict[str, int]
) -> Dict[str, float]:
    """Figures every workload derives the same way from one traced round.

    ``result.layer["messages"]`` is the round's operation count (the
    ``_per_msg`` denominator).  ``services`` is :func:`service_totals`
    over the round's measured region.
    """
    msgs = result.layer.get("messages", 0)
    calls = recorder.calls_of
    out: Dict[str, float] = {
        f"{layer}.self_s": seconds
        for layer, seconds in self_time_table(recorder, result.whole_s).items()
    }
    out["mq.message.copies_per_msg"] = ratio(calls("Message.copy"), msgs)
    out["mq.manager.puts_per_msg"] = ratio(
        calls("QueueManager.put") + calls("QueueManager.put_many")
        + calls("QueueManager.put_remote"),
        msgs,
    )
    out["mq.queue.puts_per_msg"] = ratio(
        calls("MessageQueue.put") + calls("MessageQueue.put_many"), msgs
    )
    out["mq.queue.gets_per_msg"] = ratio(
        calls("MessageQueue.get") + calls("MessageQueue.get_by_id"), msgs
    )
    reads = calls("ConditionalMessagingReceiver.read_message")
    out["mq.queue.browsed_per_read"] = ratio(
        recorder.items_of("MessageQueue.browse.next"), reads
    )
    out["core.receiver.reads"] = ratio(reads, msgs)
    out["mq.network.transfers_per_msg"] = ratio(calls("MessageNetwork.send"), msgs)
    out["mq.pubsub.publish_self_s"] = recorder.self_s_of(
        "TopicBroker.publish", "SubscriptionTrie.match"
    )
    out["mq.pubsub.subscribe_self_s"] = recorder.self_s_of("TopicBroker.subscribe")
    out["core.sender.generate_s"] = recorder.incl_s_of("generate_send")
    journal = result.layer.get("journal")
    if journal:
        out["mq.persistence.records_per_msg"] = ratio(journal["records"], msgs)
        out["mq.persistence.bytes_per_msg"] = ratio(journal["bytes"], msgs)
        out["mq.persistence.flushes_per_msg"] = ratio(journal["flushes"], msgs)
        out["mq.persistence.batch_records_mean"] = ratio(
            journal["records"], journal["batches"]
        )
    if "events" in result.layer:
        out["sim.scheduler.events_per_msg"] = ratio(result.layer["events"], msgs)
    decided = services["decided"]
    out["core.compensation.staged"] = ratio(services["staged"], msgs)
    out["core.compensation.released_ratio"] = ratio(
        services["released"], services["staged"]
    )
    out["core.evaluation.evaluations_per_decision"] = ratio(
        services["evaluations"], decided
    )
    out["core.evaluation.acks_per_decision"] = ratio(services["acks"], decided)
    return out


def layer_metrics(
    plain: List[RoundResult],
    traced: List[RoundResult],
    snapshots: List[Dict[str, float]],
) -> Dict[str, Dict[str, object]]:
    """Assemble every per-layer metric of a traced run.

    Counts come from the first traced round; times are medians over the
    traced rounds; figures the workload measures without tracing
    (``plain`` rounds) come from those rounds only.
    """
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    values.update(snapshots[0])
    for name in _TIMED:
        samples = [s[name] for s in snapshots if name in s]
        if samples:
            values[name] = median(samples)
    overheads = [
        ratio(t.work_s or t.whole_s, p.work_s or p.whole_s) - 1.0
        for p, t in zip(plain, traced)
    ]
    values["obs.trace_overhead_frac"] = median(overheads)
    vms = [v for r in plain for v in r.layer.get("decision_vms", [])]
    values["decision_vms_p50"] = percentile(vms, 50)
    values["decision_vms_p99"] = percentile(vms, 99)
    calls = [v for r in plain for v in r.call_us]
    outcomes = [v for r in plain for v in r.outcome_ms]
    values["tail.call_us_p99"] = percentile(calls, 99)
    values["tail.outcome_ms_p99"] = percentile(outcomes, 99)
    restarts = [v for r in plain for v in r.layer.get("restart_s", [])]
    values["recover_s"] = median(restarts)
    attempted = sum(r.attempted for r in plain)
    values["failed_frac"] = ratio(sum(r.failed for r in plain), attempted)
    for key in ("net.frames_per_msg", "net.retransmit_ratio", "net.srtt_ms",
                "gen.late_ms_p99", "core.evaluation.failure_share"):
        samples = [r.layer[key] for r in plain if key in r.layer]
        if samples:
            values[key] = median(samples)
    for key in ("net.duplicates", "net.close_hangs"):
        values[key] = float(sum(r.layer.get(key, 0) for r in plain))
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


#: Columns of the per-send cost table: (label, per-layer metric).
COST_COLUMNS = (
    ("journal records", "mq.persistence.records_per_msg"),
    ("journal bytes", "mq.persistence.bytes_per_msg"),
    ("journal flushes", "mq.persistence.flushes_per_msg"),
    ("Message.copy calls", "mq.message.copies_per_msg"),
    ("queue puts", "mq.queue.puts_per_msg"),
    ("queue gets", "mq.queue.gets_per_msg"),
    ("scheduler events", "sim.scheduler.events_per_msg"),
    ("acks / decision", "core.evaluation.acks_per_decision"),
    ("evaluations / decision", "core.evaluation.evaluations_per_decision"),
)


def print_cost_table(workload: str, counts: Dict[str, float]) -> None:
    """Print the exact per-send cost table of one traced round."""
    if not counts.get("mq.persistence.records_per_msg"):
        return
    print(f"cost per conditional send ({workload}, first traced round):")
    for label, key in COST_COLUMNS:
        print(f"  {label:<24} {counts.get(key, 0.0):.4f}")
