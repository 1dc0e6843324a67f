"""InferenceService: batching, shedding, breaker routing, drain/close.

Everything here runs against :class:`tests.serve.helpers.FakeSession`
pools (milliseconds per test); the real-model path is covered by
``test_pool.py`` and the CLI integration tests.
"""

import threading
import time
import types

import numpy as np
import pytest

from repro.serve.pool import SessionPool
from repro.serve.service import InferenceService
from repro.serve.types import Completed, Failed, Rejected
from tests.serve.helpers import FailurePlan, make_factory


def make_service(backends=("a",), workers=1, batch=1, behaviour=None,
                 **kwargs):
    factory = make_factory(behaviour)
    pool = SessionPool("fake", backends=backends, workers=workers,
                       batch=batch, session_factory=factory)
    service = InferenceService(pool=pool, **kwargs)
    service._factory = factory  # stash for inspection
    return service


def sample(value=1.0, size=4):
    return np.full((size,), value, dtype=np.float32)


class TestRoundtrip:
    def test_submit_and_complete(self):
        with make_service() as service:
            pending = service.submit(sample(3.0))
            outcome = pending.result(timeout=5.0)
        assert isinstance(outcome, Completed)
        assert outcome.backend == "a"
        assert outcome.batch_size == 1
        np.testing.assert_allclose(outcome.output, sample(6.0))
        assert outcome.latency_ms >= 0

    def test_requires_model_xor_pool(self):
        pool = SessionPool("fake", session_factory=make_factory())
        with pytest.raises(ValueError, match="exactly one"):
            InferenceService("model", pool=pool)
        with pytest.raises(ValueError, match="exactly one"):
            InferenceService()

    def test_sample_shape_is_validated_when_known(self):
        factory = make_factory()
        pool = SessionPool("fake", backends=("a",), session_factory=factory)
        # graft a graph-like object so the service learns the input shape
        pool.session("a", 0).graph = types.SimpleNamespace(
            inputs=[types.SimpleNamespace(shape=(1, 4))])
        with InferenceService(pool=pool) as service:
            with pytest.raises(ValueError, match="shape"):
                service.submit(np.zeros((3,), dtype=np.float32))
            outcome = service.submit(sample()).result(timeout=5.0)
            assert isinstance(outcome, Completed)

    def test_default_deadline_is_applied(self):
        # default deadline below the 50 ms EWMA seed: shed at admission
        with make_service(default_deadline_ms=1.0) as service:
            outcome = service.submit(sample())
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "overload"


class TestBatching:
    def test_coalesced_batch_slices_per_request_outputs(self):
        # The dispatcher takes the first request and holds the batch open
        # for the window; the two that arrive right behind it must join.
        with make_service(batch=4, batch_window_ms=200.0) as service:
            pendings = [service.submit(sample(float(v))) for v in (1, 2, 3)]
            outcomes = [p.result(timeout=5.0) for p in pendings]
        assert all(isinstance(o, Completed) for o in outcomes)
        # the three waiting requests coalesced into one batch...
        assert {o.batch_size for o in outcomes} == {3}
        # ...and each got its own slice, not the padded batch
        for value, outcome in zip((1, 2, 3), outcomes):
            np.testing.assert_allclose(outcome.output, sample(2.0 * value))

    def test_padding_reaches_the_session_at_full_batch_width(self):
        with make_service(batch=4, batch_window_ms=5.0) as service:
            outcome = service.submit(sample(5.0)).result(timeout=5.0)
            session = service._factory.sessions[0]
        assert isinstance(outcome, Completed)
        assert outcome.batch_size == 1  # one live request...
        assert session.batch_shapes[0][0] == 4  # ...padded to full width
        np.testing.assert_allclose(outcome.output, sample(10.0))

    def test_mean_batch_size_tracked(self):
        with make_service(batch=2) as service:
            for _ in range(4):
                service.submit(sample()).result(timeout=5.0)
            stats = service.stats()
        assert stats.batches >= 1
        assert stats.batched_requests == 4
        assert 1.0 <= stats.mean_batch_size <= 2.0


class TestShedding:
    def test_queue_full_sheds_structurally(self):
        with make_service(queue_capacity=1,
                          behaviour={"a": {"delay_s": 0.1}}) as service:
            running = service.submit(sample())
            time.sleep(0.02)  # let the worker take it off the queue
            admitted = service.submit(sample())   # fills the queue
            overflow = service.submit(sample())   # exceeds it
            assert isinstance(overflow, Rejected)
            assert overflow.reason == "queue-full"
            assert overflow.retry_after_s is not None
            assert running.result(timeout=5.0).ok
            assert admitted.result(timeout=5.0).ok
        assert service.stats().rejected["queue-full"] >= 1

    def test_expired_in_queue_resolves_not_drops(self):
        with make_service(behaviour={"a": {"delay_s": 0.15}}) as service:
            blocker = service.submit(sample())      # no deadline, runs long
            time.sleep(0.02)
            doomed = service.submit(sample(), deadline_ms=60.0)
            assert not isinstance(doomed, Rejected)  # admitted...
            outcome = doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0).ok
        assert isinstance(outcome, Rejected)         # ...but expired waiting
        assert outcome.reason == "expired-in-queue"
        assert service.stats().rejected["expired-in-queue"] == 1
        assert service.stats().deadline_misses >= 1

    def test_every_admitted_request_reaches_a_terminal_outcome(self):
        with make_service(queue_capacity=2,
                          behaviour={"a": {"delay_s": 0.02}}) as service:
            outcomes = [service.submit(sample()) for _ in range(20)]
            resolved = [o if isinstance(o, Rejected)
                        else o.result(timeout=5.0) for o in outcomes]
        assert all(r is not None for r in resolved)
        completed = sum(isinstance(r, Completed) for r in resolved)
        shed = sum(isinstance(r, Rejected) for r in resolved)
        assert completed + shed == 20
        stats = service.stats()
        assert stats.outstanding == 0


class TestBreakerRouting:
    def test_failures_reroute_to_next_backend(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=100)}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=2,
                          breaker_cooldown_s=30.0) as service:
            outcomes = [service.submit(sample()).result(timeout=5.0)
                        for _ in range(4)]
        assert all(isinstance(o, Completed) for o in outcomes)
        assert {o.backend for o in outcomes} == {"b"}
        report = service.robustness_report()
        assert report.breaker_trips == 1       # a tripped after 2 failures
        assert report.reroutes == 4            # every batch served off-chain
        state = {s.backend: s.state for s in service.stats().breakers}
        assert state["a"] == "open"
        assert state["b"] == "closed"

    def test_trip_reroute_recover_sequence(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=2)}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=2,
                          breaker_cooldown_s=0.05) as service:
            first = [service.submit(sample()).result(timeout=5.0)
                     for _ in range(2)]
            assert {o.backend for o in first} == {"b"}  # a failing, b serving
            time.sleep(0.08)                            # cooldown elapses
            probe = service.submit(sample()).result(timeout=5.0)
            after = service.submit(sample()).result(timeout=5.0)
            report = service.robustness_report()
        assert probe.backend == "a"      # half-open probe hit the primary
        assert after.backend == "a"      # ...and recovery stuck
        assert report.breaker_trips >= 1
        assert report.breaker_recoveries == 1

    def test_all_backends_down_is_failed_then_breaker_open(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=100)}}
        with make_service(backends=("a",), behaviour=behaviour,
                          breaker_threshold=1,
                          breaker_cooldown_s=30.0) as service:
            first = service.submit(sample()).result(timeout=5.0)
            second = service.submit(sample()).result(timeout=5.0)
        assert isinstance(first, Failed)             # ran and failed
        assert first.error_type == "FallbackExhaustedError"
        assert first.backend == "a"
        assert isinstance(second, Rejected)          # breaker now open
        assert second.reason == "breaker-open"
        # the cooldown hint, stretched by bounded retry jitter (<= 1.25x)
        assert 29.0 <= second.retry_after_s <= 30.0 * 1.25 + 1.0
        stats = service.stats()
        assert stats.failed == 1
        assert stats.outstanding == 0

    def test_deadline_overrun_fails_without_breaker_penalty(self):
        # A blown request deadline is the batch's fault, not the backend's:
        # the healthy-but-slow primary keeps its closed breaker, and the
        # already-late batch is not rerouted to the fallback.
        behaviour = {"a": {"delay_s": 0.2, "enforce_deadline": True}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=1,
                          breaker_cooldown_s=30.0) as service:
            doomed = service.submit(sample(), deadline_ms=100.0)
            assert not isinstance(doomed, Rejected)
            missed = doomed.result(timeout=5.0)
            served = service.submit(sample()).result(timeout=5.0)
            report = service.robustness_report()
            state = {s.backend: s.state for s in service.stats().breakers}
        assert isinstance(missed, Failed)
        assert missed.error_type == "DeadlineExceededError"
        assert missed.backend == "a"
        assert isinstance(served, Completed)
        assert served.backend == "a"
        assert report.breaker_trips == 0
        assert report.reroutes == 0
        assert state == {"a": "closed", "b": "closed"}
        b_sessions = [s for s in service._factory.sessions if s.backend == "b"]
        assert all(s.runs == 0 for s in b_sessions)
        assert service.stats().failed == 1

    def test_health_degrades_when_a_breaker_opens(self):
        behaviour = {"a": {"failures": FailurePlan(fail_first=100)}}
        with make_service(backends=("a", "b"), behaviour=behaviour,
                          breaker_threshold=1,
                          breaker_cooldown_s=30.0) as service:
            assert service.health()["status"] == "ok"
            service.submit(sample()).result(timeout=5.0)
            assert service.health()["status"] == "degraded"


class TestLifecycle:
    def test_drain_finishes_inflight_and_sheds_new(self):
        with make_service(behaviour={"a": {"delay_s": 0.05}}) as service:
            inflight = [service.submit(sample()) for _ in range(3)]
            drainer = threading.Thread(target=service.drain)
            drainer.start()
            time.sleep(0.01)
            late = service.submit(sample())
            drainer.join(timeout=5.0)
            assert not drainer.is_alive()
        assert isinstance(late, Rejected)
        assert late.reason == "draining"
        assert all(p.result(timeout=5.0).ok for p in inflight)

    def test_drain_times_out_when_work_is_stuck(self):
        with make_service(behaviour={"a": {"delay_s": 0.5}}) as service:
            service.submit(sample())
            time.sleep(0.01)
            assert service.drain(timeout=0.05) is False

    def test_close_without_drain_resolves_stranded_as_stopped(self):
        service = make_service(behaviour={"a": {"delay_s": 0.2}})
        running = service.submit(sample())
        time.sleep(0.02)  # worker picks it up; the rest stay queued
        queued = [service.submit(sample()) for _ in range(3)]
        service.close(drain=False, timeout=0.1)
        outcomes = [p.result(timeout=5.0) for p in queued]
        assert all(isinstance(o, Rejected) and o.reason == "stopped"
                   for o in outcomes)
        assert running.result(timeout=5.0) is not None  # never silent
        assert service.submit(sample()).reason == "stopped"
        assert service.health()["status"] == "stopped"

    def test_close_is_idempotent(self):
        service = make_service()
        service.close()
        service.close()
        assert service.stats().stopped

    def test_context_manager_drains_on_clean_exit(self):
        with make_service() as service:
            pending = service.submit(sample())
        assert pending.result(timeout=0.0).ok
        assert service.stats().stopped


class TestStats:
    def test_accounting_identity_holds(self):
        behaviour = {"a": {"delay_s": 0.01}}
        with make_service(queue_capacity=2, behaviour=behaviour) as service:
            pendings = []
            for _ in range(15):
                outcome = service.submit(sample())
                if not isinstance(outcome, Rejected):
                    pendings.append(outcome)
            for pending in pendings:
                pending.result(timeout=5.0)
            stats = service.stats()
        assert stats.submitted == 15
        assert stats.accepted == len(pendings)
        terminal = (stats.completed + stats.failed
                    + sum(stats.rejected.get(reason, 0)
                          for reason in ("expired-in-queue", "breaker-open",
                                         "stopped")))
        assert stats.accepted == terminal
        assert stats.submitted == stats.accepted + sum(
            stats.rejected.get(reason, 0)
            for reason in ("queue-full", "overload", "draining"))

    def test_to_dict_is_json_ready(self):
        import json

        with make_service() as service:
            service.submit(sample()).result(timeout=5.0)
            document = service.stats().to_dict()
        json.dumps(document)  # no numpy scalars, no dataclass leftovers
        assert document["completed"] == 1
        assert isinstance(document["breakers"], list)

    def test_robustness_summary_mentions_sheds_and_trips(self):
        with make_service() as service:
            service.submit(sample()).result(timeout=5.0)
            text = service.robustness_report().summary()
        assert "serve robustness" in text
        assert "pool robustness" in text
