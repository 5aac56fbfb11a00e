"""Span recorder that wraps the public entry points of every layer.

The program itself carries no spans: this module wraps, from outside,
the methods through which work enters each layer (``mq.*``, ``core.*``,
``sim``, ``net``) for the length of one traced pass, then restores them.

Every call through a wrapped entry point becomes a span with a name, a
start, an end and a parent (the span that was open when it began).
Spans are kept in compact in-memory arrays and written out once, when
the run ends (:meth:`SpanRecorder.write`).

A layer's *self time* is the duration of its spans minus the time their
direct child spans cover.  Calls are synchronous, so children nest
strictly inside their parent and self time is accumulated online with a
stack.  A generator an entry point returns (``browse``) is wrapped so
each ``next()`` is a span of its own: the scan then counts for the
layer that does it, not for the caller that iterates.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: (layer, module, class or function name, method names).  ``"*"`` wraps
#: every public method the class defines.  Names missing from the code
#: are skipped and reported by :meth:`SpanRecorder.install`, so a later
#: refactor degrades the trace instead of breaking the benchmark.
ENTRY_POINTS: Sequence[Tuple[str, str, str, Sequence[str]]] = (
    ("mq.manager", "repro.mq.manager", "QueueManager",
     ("put", "put_many", "put_remote", "get", "get_wait", "get_by_id",
      "browse", "recover", "apply_commit", "apply_rollback", "checkpoint")),
    ("mq.queue", "repro.mq.queue", "MessageQueue", ("*",)),
    ("mq.persistence", "repro.mq.persistence", "Journal",
     ("append", "append_many", "drain", "recover", "log_put",
      "log_put_many", "log_get", "checkpoint")),
    # Channel transfers run from scheduler events; without these the
    # delivery work would count as scheduler self time.
    ("mq.network", "repro.mq.network", "MessageNetwork",
     ("send", "redrive", "reattach_manager", "_attempt_transfer",
      "_deliver", "_drain_xmit")),
    ("mq.pubsub", "repro.mq.pubsub", "TopicBroker",
     ("publish", "subscribe", "drop_nondurable")),
    ("mq.pubsub", "repro.mq.pubsub", "SubscriptionTrie", ("match",)),
    ("mq.message", "repro.mq.message", "Message", ("copy", "with_properties")),
    ("core.service", "repro.core.service", "ConditionalMessagingService",
     ("send_message", "recover_from_log", "poll", "apply_outcome_actions")),
    ("core.sender", "repro.core.sender", "generate_send", ()),
    ("core.receiver", "repro.core.receiver", "ConditionalMessagingReceiver",
     ("read_message", "read_all", "begin_tx", "commit_tx", "abort_tx")),
    ("core.evaluation", "repro.core.evaluation", "EvaluationManager",
     ("pump", "evaluate", "poll", "register")),
    ("core.satisfaction", "repro.core.satisfaction", "evaluate_condition", ()),
    ("core.compensation", "repro.core.compensation", "CompensationManager",
     ("stage", "release", "discard")),
    ("sim.scheduler", "repro.sim.scheduler", "EventScheduler",
     ("run_all", "run_until", "step")),
    ("net", "repro.net.wire", "WireHost",
     ("send", "_pump", "_handle_sender_events", "_resolve_spool",
      "_deliver", "_handle_receiver_events", "_start_inbound_flush")),
    ("net", "repro.net.protocol", "ChannelEngine",
     ("receive_bytes", "data_to_send", "send_message", "confirm_delivery",
      "on_timer", "next_timer", "advertise_window",
      "connection_established", "connection_lost")),
)

#: Every layer the recorder attributes self time to, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))

#: Spans beyond this many still count in the aggregates but are not
#: kept for the span file (bounds memory on long traced passes).
MAX_LOGGED_SPANS = 3_000_000


class SpanRecorder:
    """Wraps the entry points, records spans, aggregates self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_layer: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self._stack: List[list] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and aggregate recorded so far."""
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.dropped = 0
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(self.names)
        self.incl_ns = [0] * len(self.names)
        self.name_self_ns = [0] * len(self.names)
        self.items = [0] * len(self.names)

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self._name_layer.append(LAYERS.index(layer))
        for table in (self.calls, self.incl_ns, self.name_self_ns, self.items):
            table.append(0)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        nid = self._name_id(name, layer)
        step_nid = self._name_id(name + ".next", layer)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if inspect.isgenerator(result):
                return self._steps(result, step_nid)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _steps(self, generator, nid: int):
        enter, leave = self._enter, self._leave
        while True:
            frame = enter(nid)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                leave(frame)
            self.items[nid] += 1
            yield item

    def _enter(self, nid: int) -> list:
        stack = self._stack
        index = len(self.span_name)
        if index < MAX_LOGGED_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
        else:
            index = -1
            self.dropped += 1
        frame = [nid, 0, 0, index]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        nid, start, child_ns, index = frame
        duration = end - start
        own = duration - child_ns
        self.self_ns[self._name_layer[nid]] += own
        self.name_self_ns[nid] += own
        self.incl_ns[nid] += duration
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (idempotent per install/uninstall pair)."""
        if self._patches:
            return
        self.missing = []
        for layer, module_name, attr, methods in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if inspect.isfunction(target):
                self._patch_function(target, f"{attr}", layer)
                continue
            self._patch_class(target, methods, layer)
        if self.missing:
            print("spans: entry points not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    def _patch_function(self, fn: Callable, name: str, layer: str) -> None:
        wrapped = self._wrap(fn, name, layer)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, wrapped)

    def _patch_class(self, cls: type, methods: Sequence[str], layer: str) -> None:
        classes = [cls] + _subclasses(cls)
        wanted = set(methods)
        found = set()
        for klass in classes:
            for key, raw in list(vars(klass).items()):
                if "*" in wanted:
                    if key.startswith("_"):
                        continue
                elif key not in wanted:
                    continue
                wrapped = self._wrap_descriptor(raw, f"{cls.__name__}.{key}", layer)
                if wrapped is not None:
                    self._set(klass, key, wrapped)
                    found.add(key)
        for key in wanted - found - {"*"}:
            self.missing.append(f"{cls.__name__}.{key}")

    def _wrap_descriptor(self, raw, name: str, layer: str):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name, layer))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name, layer))
        if inspect.isfunction(raw) and not inspect.iscoroutinefunction(raw):
            return self._wrap(raw, name, layer)
        return None

    def _set(self, owner: object, key: str, value: object) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in zip(LAYERS, self.self_ns)}

    def calls_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def items_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.items) if n == name)

    def self_s_of(self, *names: str) -> float:
        wanted = set(names)
        return sum(
            ns for n, ns in zip(self.names, self.name_self_ns) if n in wanted
        ) / 1e9

    def incl_s_of(self, name: str) -> float:
        return sum(ns for n, ns in zip(self.names, self.incl_ns) if n == name) / 1e9

    def span_log(self) -> "SpanLog":
        """The spans recorded since the last :meth:`reset`."""
        return SpanLog(
            names=list(self.names),
            layers=[LAYERS[i] for i in self._name_layer],
            arrays=(self.span_name, self.span_parent,
                    self.span_start, self.span_end),
            dropped=self.dropped,
        )


class SpanLog:
    """Spans kept in memory until the run ends, then written once."""

    def __init__(self, names: List[str], layers: List[str], arrays: tuple,
                 dropped: int) -> None:
        self.names = names
        self.layers = layers
        self.arrays = arrays
        self.dropped = dropped

    @property
    def count(self) -> int:
        return len(self.arrays[0])

    def write(self, directory: str, stem: str) -> str:
        """Write ``<stem>.spans.json`` (header) and ``<stem>.spans.bin``.

        The binary file holds four native-endian arrays one after the
        other, one entry per span each: name id (int32), parent span
        index (int32, -1 for a root), start and end (int64 ns,
        ``perf_counter_ns``).  The header names them and maps name ids to
        entry-point names and layers.
        """
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, stem)
        header = {
            "names": self.names,
            "layers": self.layers,
            "spans": self.count,
            "dropped": self.dropped,
            "arrays": ["name:int32", "parent:int32", "start_ns:int64",
                       "end_ns:int64"],
            "byteorder": sys.byteorder,
        }
        with open(base + ".spans.bin", "wb") as handle:
            for arr in self.arrays:
                arr.tofile(handle)
        with open(base + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        return base + ".spans.json"


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        klass = pending.pop()
        if klass in found:
            continue
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


def self_time_table(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Per-layer self seconds plus the ``other`` residual of ``wall_s``."""
    table = recorder.layer_self_s()
    table["other"] = wall_s - sum(table.values())
    return table


__all__ = ["ENTRY_POINTS", "LAYERS", "SpanLog", "SpanRecorder", "self_time_table"]
