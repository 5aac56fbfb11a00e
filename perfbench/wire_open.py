"""``wire_open``: the real transport under an open loop.

This process hosts the sender — a :class:`~repro.net.wire.WireHost`, a
queue manager on the wall clock and a conditional messaging service —
and spawns one ``python -m repro.net.host receiver`` over unix sockets,
so two processes share the machine.  Sends arrive as seeded Poisson
arrivals at a fixed rate (about half of what one receiver sustains
closed-loop), whether or not earlier ones have decided: each decision
is timed from when its send was *due*, so a stall also counts against
the sends queued behind it, and how late the generator itself ran is
reported (``gen.late_ms_p99``).  This is the only workload where
``repro.net`` (go-back-N channel engine, credits, framing) runs.

Correctness: every message decides SUCCESS, and the receiver's
``DONE processed=`` count equals the messages sent.  A receiver that
does not exit within ``EXIT_BOUND_S`` of being told to counts in
``net.close_hangs`` and as a failed operation.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
from typing import Dict, List, Optional

from repro.core.builder import destination, destination_set
from repro.core.logqueues import OUTCOME_QUEUE
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import QueueManager
from repro.net.host import inbox_of
from repro.net.wire import WireHost
from repro.sim.clock import WallClock

from perfbench.common import RoundResult, percentile, ratio
from perfbench.layers import generic_counts, service_totals

NAME = "wire_open"
#: The open loop's schedule runs on the wall clock, so its times stay
#: wall times.
CALIBRATED = False
#: Offered load, conditional messages per second (Poisson arrivals).
RATE_PER_S = 400.0
SENDER = "QM.S"
RECEIVER = "QM.R0"
#: Closed-loop sends before the measured region: both channels up, and
#: the code paths warm.
WARMUP = 50
#: Bounds on the receiver's READY line, on draining the outstanding
#: decisions, and on the receiver's exit once told to stop.
READY_BOUND_S = 30.0
DRAIN_BOUND_S = 30.0
EXIT_BOUND_S = 10.0
MIN_ROUNDS = 6


class State:
    def __init__(self, seed: int, workdir: str, duration_s: float) -> None:
        self.seed = seed
        self.duration_s = duration_s
        self.loop = asyncio.new_event_loop()
        # Relative to the checkout root (the working directory of both
        # processes), which keeps the paths inside the unix socket limit.
        sock_dir = os.path.relpath(os.path.join(workdir, "sock"))
        os.makedirs(sock_dir, exist_ok=True)
        tag = f"{os.getpid()}-{seed}"
        self.sender_sock = os.path.join(sock_dir, f"s-{tag}.sock")
        self.receiver_sock = os.path.join(sock_dir, f"r-{tag}.sock")
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host: Optional[WireHost] = None
        self.due: Dict[str, float] = {}
        self.decided: Dict[str, List] = {}
        self.call_us: List[float] = []
        self.late_ms: List[float] = []
        self.processed: Optional[int] = None
        self.close_hangs = 0

    # -- deployment ------------------------------------------------------------

    async def _start(self) -> None:
        self.manager = QueueManager(SENDER, WallClock(), journal="memory:")
        self.host = WireHost(self.manager)
        await self.host.serve_unix(self.sender_sock)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.net.host", "receiver",
            "--name", RECEIVER,
            "--listen", f"unix:{self.receiver_sock}",
            "--peer", f"{SENDER}=unix:{self.sender_sock}",
            "--processing-ms", "0",
            "--capacity", "128",
            "--timeout", str(READY_BOUND_S),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        await asyncio.wait_for(self._read_line("READY "), READY_BOUND_S)
        self.host.connect_unix(RECEIVER, self.receiver_sock)
        await self.host.wait_connected(RECEIVER, timeout=READY_BOUND_S)
        self.service = ConditionalMessagingService(self.manager)
        self.condition = destination_set(
            destination(inbox_of(RECEIVER), manager=RECEIVER, recipient=RECEIVER),
            msg_pick_up_time=60_000,
        )
        self.manager.queue(OUTCOME_QUEUE).subscribe(self._on_outcome)
        warm = [self.service.send_message({"warm": i}, self.condition)
                for i in range(WARMUP)]
        await self._until(lambda: all(c in self.decided for c in warm),
                          DRAIN_BOUND_S)

    async def _read_line(self, prefix: str) -> str:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"receiver exited before {prefix!r}")
            text = line.decode()
            if text.startswith(prefix):
                return text.strip()

    def _on_outcome(self, message) -> None:
        body = message.body
        self.decided.setdefault(body["cmid"], []).append(
            (body["outcome"], time.perf_counter())
        )

    async def _until(self, predicate, bound_s: float) -> bool:
        deadline = time.perf_counter() + bound_s
        while not predicate():
            if time.perf_counter() >= deadline:
                return False
            await asyncio.sleep(0.001)
        return True

    # -- the open loop ---------------------------------------------------------

    def arrivals(self) -> List[float]:
        """Seeded Poisson arrival offsets (s) over the round's duration."""
        rng = random.Random(self.seed)
        offsets, t = [], rng.expovariate(RATE_PER_S)
        while t < self.duration_s:
            offsets.append(t)
            t += rng.expovariate(RATE_PER_S)
        return offsets

    async def open_loop(self, offsets: List[float]) -> float:
        """Send on schedule; returns when every send has decided."""
        base = time.perf_counter() + 0.01
        for n, offset in enumerate(offsets):
            due = base + offset
            # Spin (yielding to the loop) rather than sleep: a sleeping
            # process's wake-up latency on a shared VM varies with the
            # host's load and would land in every decision timing.
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            started = time.perf_counter()
            cmid = self.service.send_message({"n": n}, self.condition)
            ended = time.perf_counter()
            self.late_ms.append((started - due) * 1e3)
            self.call_us.append((ended - started) * 1e6)
            self.due[cmid] = due
        await self._until(lambda: all(c in self.decided for c in self.due),
                          DRAIN_BOUND_S)
        return base

    async def stop(self) -> None:
        """Tell the receiver to exit, bound its exit, close the sender."""
        proc = self.proc
        if proc is not None and proc.returncode is None:
            proc.stdin.close()
            try:
                done = await asyncio.wait_for(self._read_line("DONE "), EXIT_BOUND_S)
                self.processed = int(done.rsplit("processed=", 1)[1])
                await asyncio.wait_for(proc.wait(), EXIT_BOUND_S)
            except (asyncio.TimeoutError, RuntimeError, ValueError):
                self.close_hangs += proc.returncode is None
                if proc.returncode is None:
                    proc.kill()
                    await proc.wait()
        if self.host is not None:
            await self.host.close()
            self.host = None


def describe(workdir: str) -> List[str]:
    return [
        f"wire_open: open loop, Poisson arrivals at {RATE_PER_S:.0f}/s, one"
        " receiver process over unix sockets, processing_ms=0"
    ]


def setup(seed: int, workdir: str, seconds: float) -> State:
    state = State(seed, workdir, seconds / MIN_ROUNDS)
    try:
        state.loop.run_until_complete(state._start())
    except BaseException:
        close(state)
        raise
    return state


def _wire_totals(host: WireHost) -> Dict[str, float]:
    totals: Dict[str, float] = {"frames_sent": 0, "retransmits": 0, "duplicates": 0}
    for counters in host.wire_stats().values():
        for key in totals:
            totals[key] += counters.get(key, 0) or 0
        totals["duplicates"] += counters.get("duplicates_suppressed", 0) or 0
    return totals


def run(state: State) -> RoundResult:
    offsets = state.arrivals()
    state.services0 = service_totals([state.service])
    wire0 = _wire_totals(state.host)
    base = state.loop.run_until_complete(state.open_loop(offsets))
    decided = [state.decided[c][0][1] for c in state.due if c in state.decided]
    wall = max(decided, default=base) - base
    wire = _wire_totals(state.host)
    stats = state.host.wire_stats().get(f"out:{RECEIVER}", {})
    messages = len(state.due)
    # The schedule fixes the round's wall time, so tracing overhead is
    # compared on the time spent inside send_message.
    result = RoundResult(
        wall_s=wall, ops=len(decided), work_s=sum(state.call_us) / 1e6
    )
    result.call_us = list(state.call_us)
    result.outcome_ms = [
        (state.decided[c][0][1] - due) * 1e3
        for c, due in state.due.items() if c in state.decided
    ]
    sent = wire["frames_sent"] - wire0["frames_sent"]
    result.layer.update({
        "messages": messages,
        "net.frames_per_msg": ratio(sent, messages),
        "net.retransmit_ratio": ratio(wire["retransmits"] - wire0["retransmits"], sent),
        "net.duplicates": wire["duplicates"] - wire0["duplicates"],
        "net.srtt_ms": stats.get("rtt_srtt_ms") or 0.0,
        "gen.late_ms_p99": percentile(state.late_ms, 99),
    })
    state.loop.run_until_complete(state.stop())
    result.layer["net.close_hangs"] = state.close_hangs
    return result


def check(state: State, result: RoundResult) -> None:
    """Every message decides SUCCESS; the receiver reports every message
    processed; the receiver exits in time.  One operation per message,
    plus the processed count and the exit."""
    sent = len(state.due)
    bad = sum(
        1 for c in state.due
        if [o for o, _ in state.decided.get(c, [])] != ["success"]
    )
    expected = sent + WARMUP
    miscount = state.processed != expected
    result.attempted = sent + 2
    result.failed = bad + miscount + state.close_hangs
    if result.failed:
        print(f"wire_open seed={state.seed}: {bad} not SUCCESS, processed="
              f"{state.processed} of {expected}, close_hangs={state.close_hangs}")


def counts(state: State, result: RoundResult, recorder) -> Dict[str, float]:
    now = service_totals([state.service])
    delta = {key: now[key] - state.services0[key] for key in now}
    return generic_counts(recorder, result, delta)


def close(state: State) -> None:
    try:
        state.loop.run_until_complete(state.stop())
    finally:
        state.loop.close()
        for path in (state.sender_sock, state.receiver_sock):
            if os.path.exists(path):
                os.unlink(path)
