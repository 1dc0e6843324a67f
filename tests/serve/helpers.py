"""Deterministic fakes for serving-layer tests.

A :class:`FakeSession` stands in for ``InferenceSession`` through the
``session_factory`` seam of :class:`~repro.serve.pool.SessionPool`: it
implements ``run`` / ``robustness_report`` with scriptable latency and
failure behaviour, so service tests exercise admission, batching, breaker,
and drain logic without compiling a model (milliseconds, not seconds).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import DeadlineExceededError, FallbackExhaustedError
from repro.runtime.executor import RobustnessReport


class FailurePlan:
    """Shared, thread-safe budget of run failures for one backend."""

    def __init__(self, fail_first: int = 0) -> None:
        self._remaining = fail_first
        self._lock = threading.Lock()

    def should_fail(self) -> bool:
        with self._lock:
            if self._remaining > 0:
                self._remaining -= 1
                return True
            return False


class FakeSession:
    """Session double: output is ``sample * 2``, summed to one scalar row.

    Args:
        backend / index: identity (mirrors the factory signature).
        delay_s: wall time each ``run`` burns, to simulate service time.
        failures: optional :class:`FailurePlan` shared across workers —
            while its budget lasts, every run raises
            :class:`FallbackExhaustedError` (the error the real executor
            surfaces when a kernel chain is exhausted).
        enforce_deadline: raise :class:`DeadlineExceededError`, like the
            real executor's watchdog, when ``delay_s`` overruns the run's
            ``deadline_ms``.
    """

    def __init__(self, backend: str, index: int, delay_s: float = 0.0,
                 failures: FailurePlan | None = None,
                 enforce_deadline: bool = False) -> None:
        self.backend = backend
        self.index = index
        self.delay_s = delay_s
        self.failures = failures
        self.enforce_deadline = enforce_deadline
        self.runs = 0
        self.run_deadlines: list[float | None] = []
        self.batch_shapes: list[tuple[int, ...]] = []

    def run(self, feeds: dict, deadline_ms: float | None = None) -> dict:
        self.runs += 1
        self.run_deadlines.append(deadline_ms)
        self.batch_shapes.append(
            tuple(np.asarray(next(iter(feeds.values()))).shape))
        if self.delay_s:
            time.sleep(self.delay_s)
        if (self.enforce_deadline and deadline_ms is not None
                and self.delay_s * 1e3 > deadline_ms):
            raise DeadlineExceededError(
                f"injected: {self.backend} overran {deadline_ms:.1f} ms",
                elapsed_s=self.delay_s, deadline_s=deadline_ms / 1e3)
        if self.failures is not None and self.failures.should_fail():
            raise FallbackExhaustedError(
                f"injected: {self.backend} worker {self.index}")
        batch = np.asarray(next(iter(feeds.values())))
        return {"out": batch * 2.0}

    def robustness_report(self) -> RobustnessReport:
        return RobustnessReport(
            runs=self.runs, fallback_events=(), injected_faults=())


def make_factory(behaviour: dict | None = None):
    """``session_factory`` building FakeSessions; per-backend behaviour.

    ``behaviour`` maps backend name to ``{"delay_s": ..., "failures": ...}``.
    The created sessions are collected in the returned factory's
    ``.sessions`` list for later inspection.
    """
    behaviour = behaviour or {}

    def factory(backend: str, index: int) -> FakeSession:
        knobs = behaviour.get(backend, {})
        session = FakeSession(backend, index, **knobs)
        factory.sessions.append(session)
        return session

    factory.sessions = []
    return factory
