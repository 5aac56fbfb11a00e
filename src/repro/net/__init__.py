"""repro.net — wire transport for multi-process deployment.

The paper's deployment shape (Fig. 9) is queue managers on separate
hosts connected by store-and-forward channels.  This package provides
that over real sockets:

- :mod:`repro.net.rtt` — RFC 6298 smoothed-RTT retransmission timer,
  shared by the in-process ``MessageNetwork`` and the wire transport.
- :mod:`repro.net.framing` — binary length-prefixed frame codec (magic,
  length, CRC-32 header — the journal's record frame format with
  wire-specific magics).
- :mod:`repro.net.protocol` — sans-IO channel protocol engine:
  sequence numbers, cumulative acks, credit-based flow control,
  retransmission and reconnect resynchronisation as a pure state
  machine, so the same production code is driven by asyncio sockets,
  the chaos simulator, and unit tests.
- :mod:`repro.net.wire` — asyncio glue: ``WireHost`` runs a
  ``QueueManager`` behind TCP or unix-socket listeners and dials
  outbound channels with exponential-backoff reconnect.
- :mod:`repro.net.host` — ``python -m repro.net.host``: a runnable
  receiver host process used by the multi-process harness/benchmark.
"""

from repro.net.rtt import RttEstimator
from repro.net.framing import (
    FRAME_ACK,
    FRAME_HELLO,
    FRAME_MSG,
    FrameDecoder,
    FrameError,
    MAX_FRAME_BYTES,
    encode_frame,
)
from repro.net.protocol import ChannelEngine, EngineEvent


def __getattr__(name):
    # Lazy: wire imports repro.mq.network, which imports repro.net.rtt —
    # an eager import here would close that cycle mid-initialisation.
    if name == "WireHost":
        from repro.net.wire import WireHost

        return WireHost
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "WireHost",
    "RttEstimator",
    "FrameDecoder",
    "FrameError",
    "encode_frame",
    "FRAME_MSG",
    "FRAME_ACK",
    "FRAME_HELLO",
    "MAX_FRAME_BYTES",
    "ChannelEngine",
    "EngineEvent",
]
