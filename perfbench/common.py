"""Shared pieces of the benchmark: rounds, statistics, the result line."""

from __future__ import annotations

import ctypes
import os
import random
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Directory (relative to the checkout root) for journals, sockets and
#: span files a run leaves behind.  Listed in the root ``.gitignore``.
WORK_DIR = ".perfbench_work"


@dataclass
class RoundResult:
    """What one measured round of a workload produced."""

    #: wall seconds of the measured region
    wall_s: float
    #: operations completed in it (the ``ops_per_s`` numerator)
    ops: int
    #: application blocking-call samples, microseconds
    call_us: List[float] = field(default_factory=list)
    #: due-to-outcome samples, milliseconds
    outcome_ms: List[float] = field(default_factory=list)
    #: operations checked and operations that failed the check
    attempted: int = 0
    failed: int = 0
    #: per-layer figures gathered without tracing (name -> value or samples)
    layer: Dict[str, object] = field(default_factory=dict)
    #: wall seconds of the whole round, when ``wall_s`` times only part
    #: of it (the self-time residual uses the whole)
    round_s: float = 0.0
    #: seconds of work the tracing overhead compares, when the round's
    #: wall time is fixed by a schedule instead of by the work
    work_s: float = 0.0

    @property
    def whole_s(self) -> float:
        return self.round_s or self.wall_s


#: Probe keys: topic-like strings, as the workloads' own keys are.
_PROBE_KEYS = [f"site{i % 7}.dev{i}.s{i % 3}" for i in range(60)]
_PROBE_INDEX = {key: i for i, key in enumerate(_PROBE_KEYS)}
#: Least seconds between probes, probes in the running median, and what
#: the probe takes on the reference machine (the typical figure of a
#: 2-vCPU x86-64 VM under CPython 3.11).  The constant fixes the unit,
#: not the comparison: both commits divide by the same one.
PROBE_EVERY_S = 0.002
PROBE_WINDOW = 3
REFERENCE_PROBE_S = 30e-6


def _probe_kernel() -> int:
    """Fixed interpreter work: string splits, dict lookups, branches."""
    total = 0
    for key in _PROBE_KEYS:
        parts = key.split(".")
        if parts[1].startswith("dev") and _PROBE_INDEX.get(key, -1) >= 0:
            total += len(parts)
    return total


class RefClock:
    """Wall time read at a fixed reference speed of the machine.

    On a shared host the speed of the same code switches by 1.7x every
    few milliseconds to seconds (CPU time tracks wall time, so it is
    not descheduling), and every timed figure swings with it.  When
    read at least ``PROBE_EVERY_S`` after its last probe, this clock
    runs a fixed probe and advances by the wall time since its last
    reading times ``REFERENCE_PROBE_S`` / (running median of the last
    ``PROBE_WINDOW`` probe times), averaged over the probes at both
    ends of the interval: a reference second is the time the code
    would take when the probe takes its reference time.  Probe time
    itself is never counted.  The probe shares no code with the
    program, so a change to the program moves the readings and a
    change of machine speed does not.

    Disabled (the traced runs, and the wall-clock ``wire_open``), it
    reads ``time.perf_counter()``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._reset()

    def _reset(self) -> None:
        self._probes: deque = deque(maxlen=PROBE_WINDOW)
        self._scale = 1.0
        self._ref = 0.0
        self._last = self._probed = time.perf_counter()

    def calibrate(self, enabled: bool) -> None:
        """Turn reference-speed reading on or off, and start afresh."""
        self.enabled = enabled
        self._reset()

    def now(self) -> float:
        t = time.perf_counter()
        if not self.enabled:
            return t
        if t - self._probed < PROBE_EVERY_S:
            self._ref += (t - self._last) * self._scale
            self._last = t
            return self._ref
        # The speed since the last reading is taken as the mean of the
        # speeds probed at its two ends.
        before = self._scale
        self._probe()
        self._ref += (t - self._last) * (before + self._scale) / 2
        self._last = self._probed
        return self._ref

    def sync(self) -> float:
        """Read after a fresh window of probes (the start of a region)."""
        if self.enabled:
            self._probes.clear()
            for _ in range(PROBE_WINDOW):
                self._probe()
            self._last = self._probed
        return self.now()

    def _probe(self) -> None:
        started = time.perf_counter()
        _probe_kernel()
        ended = time.perf_counter()
        self._probes.append(ended - started)
        self._scale = REFERENCE_PROBE_S / statistics.median(self._probes)
        self._probed = ended


#: The clock every calibrated workload times its operations with.
CLOCK = RefClock()


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` of a run seeded with ``seed``."""
    return random.Random(f"{seed}:{index}").randrange(1 << 31)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: statfs ``f_type`` magic numbers of the filesystems worth naming.
_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x6969: "nfs",
    0x65735546: "fuse",
}


def filesystem_of(path: str) -> str:
    """Filesystem type of ``path`` via statfs(2), e.g. ``ext4``."""
    buf = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    libc.statfs.restype = ctypes.c_int
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


__all__ = [
    "CLOCK",
    "WORK_DIR",
    "RefClock",
    "RoundResult",
    "filesystem_of",
    "median",
    "metric",
    "peak_rss_mb",
    "percentile",
    "ratio",
    "round_seed",
]
