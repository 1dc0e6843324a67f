"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``<layer>.<call>``), a start and end on one clock, an
optional parent span, the id of the operation it belongs to (a request,
an inference or a deployment) and a key naming the model or target.
Spans stay in memory while the workload runs and are written out once,
when it ends. A span's self time is its duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import threading
import time
from collections.abc import Iterable
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    op: str | None = None
    key: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; nothing leaves memory until ``write``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []  # guarded-by: _lock

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, op: str | None = None,
            key: str | None = None) -> int:
        with self._lock:
            span = Span(len(self._spans), name, start, end, parent, op, key)
            self._spans.append(span)
            return span.id

    def profile_run(self, session, feeds, key: str, op: str) -> float:
        """One instrumented run: a ``runtime.run`` span and its kernel spans.

        ``InferenceSession.profile`` reports each node's duration but not
        when it started, so the kernel spans are laid end to end from the
        run's start in schedule order. Their sum is exact; their placement
        inside the run is not. Returns the run's duration in seconds.
        """
        started = time.perf_counter()
        profile = session.profile(feeds, repeats=1, warmup=0)
        ended = time.perf_counter()
        parent = self.add("runtime.run", started, ended, op=op, key=key)
        cursor = started
        for layer in profile.layers:
            seconds = layer.times[0]
            self.add(f"kernel.{kernel_group(layer.op_type, layer.impl)}",
                     cursor, cursor + seconds, parent=parent, op=op, key=key)
            cursor += seconds
        return ended - started

    def spans(self, name: str | None = None,
              key: str | None = None) -> list[Span]:
        with self._lock:
            snapshot = list(self._spans)
        return [span for span in snapshot
                if (name is None or span.name == name)
                and (key is None or span.key == key)]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans():
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_seconds(self, name: str, key: str | None = None) -> list[float]:
        """Self time of every span called ``name`` (optionally for ``key``)."""
        children = self.children()
        return [self_time(span, children.get(span.id, ()))
                for span in self.spans(name, key)]

    def median_ms(self, name: str, key: str | None = None) -> float:
        """Median duration of the named spans in ms (0.0 when none ran)."""
        durations = [span.seconds for span in self.spans(name, key)]
        return statistics.median(durations) * 1e3 if durations else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [dataclasses.asdict(span) for span in self.spans()]))


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


#: Kernel groups reported per model, and the op types of the elementwise one.
KERNEL_GROUPS = ("conv", "dwconv", "pool", "eltwise", "other")
_ELTWISE = frozenset({
    "Add", "Sub", "Mul", "Div", "Sum", "Max", "Min", "Relu", "LeakyRelu",
    "Clip", "Sigmoid", "Tanh", "BatchNormalization"})


def kernel_group(op_type: str, impl: str) -> str:
    """Which kernel group a profiled node belongs to."""
    if op_type in ("Conv", "QLinearConv"):
        return "dwconv" if "_dw" in impl else "conv"
    if op_type.endswith("Pool"):
        return "pool"
    if op_type in _ELTWISE:
        return "eltwise"
    return "other"
