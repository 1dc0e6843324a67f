"""Circuit-breaker FSM: trip, cooldown, half-open probe, recovery.

All driven through the injectable clock, so every transition is exact —
no sleeps, no timing slop.
"""

import threading

import pytest

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(threshold=3, cooldown=1.0):
    clock = FakeClock()
    breaker = CircuitBreaker("b", failure_threshold=threshold,
                             cooldown_s=cooldown, clock=clock)
    return breaker, clock


class TestTrip:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.snapshot().trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = make_breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_retry_after_counts_down_with_the_clock(self):
        breaker, clock = make_breaker(threshold=1, cooldown=2.0)
        breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(2.0)
        clock.advance(1.5)
        assert breaker.retry_after_s() == pytest.approx(0.5)

    def test_invalid_tuning_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker("b", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("b", cooldown_s=-1.0)


class TestHalfOpen:
    def test_cooldown_elapsed_admits_exactly_one_probe(self):
        breaker, clock = make_breaker(threshold=1, cooldown=1.0)
        breaker.record_failure()
        assert not breaker.allow()           # still cooling down
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()               # the probe
        assert not breaker.allow()           # second caller waits on it
        assert breaker.snapshot().probes == 1

    def test_probe_success_closes_and_counts_recovery(self):
        breaker, clock = make_breaker(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot.recoveries == 1
        assert snapshot.trips == 1

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker, clock = make_breaker(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot().trips == 2
        assert breaker.retry_after_s() == pytest.approx(1.0)  # restarted
        assert not breaker.allow()

    def test_probe_release_after_failure_allows_next_probe(self):
        breaker, clock = make_breaker(threshold=1, cooldown=0.5)
        breaker.record_failure()
        clock.advance(0.5)
        assert breaker.allow()
        breaker.record_failure()     # probe fails -> open again
        clock.advance(0.5)
        assert breaker.allow()       # a fresh probe is possible
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_release_frees_the_probe_without_a_verdict(self):
        breaker, clock = make_breaker(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.release()            # e.g. the probe batch's deadline expired
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the next batch probes instead
        snapshot = breaker.snapshot()
        assert (snapshot.failures, snapshot.successes) == (1, 0)
        assert snapshot.trips == 1


class TestSnapshotAndThreads:
    def test_snapshot_totals(self):
        breaker, _ = make_breaker(threshold=2)
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot.backend == "b"
        assert snapshot.state == OPEN
        assert snapshot.successes == 1
        assert snapshot.failures == 2
        assert snapshot.retry_after_s is not None

    def test_concurrent_allow_admits_single_probe(self):
        breaker, clock = make_breaker(threshold=1, cooldown=0.1)
        breaker.record_failure()
        clock.advance(0.1)
        admitted = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            if breaker.allow():
                admitted.append(1)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
