"""Per-backend circuit breakers.

A backend whose kernels keep exhausting their fallback chains should stop
receiving traffic *before* every request pays its failure latency. The
classic three-state breaker:

* **closed** — traffic flows; consecutive failures are counted.
* **open** — tripped after ``failure_threshold`` consecutive failures; all
  traffic is refused for ``cooldown_s`` so the dispatcher routes to the
  next backend in the chain.
* **half-open** — after the cooldown, a single probe batch is let through.
  Success closes the breaker (recovery); failure re-opens it for another
  cooldown.

All transitions are thread-safe; the clock is injectable so tests can
drive state deterministically.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclasses.dataclass(frozen=True)
class BreakerSnapshot:
    """Point-in-time view of one breaker, for stats/health surfaces."""

    backend: str
    state: str
    consecutive_failures: int
    trips: int           # closed/half-open -> open transitions
    recoveries: int      # half-open -> closed transitions (probe succeeded)
    probes: int          # half-open trial batches admitted
    failures: int        # total recorded failures
    successes: int       # total recorded successes
    retry_after_s: float | None   # time until half-open, when open


class CircuitBreaker:
    """Trip-on-consecutive-failures breaker guarding one backend."""

    def __init__(
        self,
        backend: str,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.backend = backend
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED            # guarded-by: _lock
        self._consecutive = 0           # guarded-by: _lock
        self._opened_at = 0.0           # guarded-by: _lock
        self._probe_in_flight = False   # guarded-by: _lock
        self._trips = 0                 # guarded-by: _lock
        self._recoveries = 0            # guarded-by: _lock
        self._probes = 0                # guarded-by: _lock
        self._failures = 0              # guarded-by: _lock
        self._successes = 0             # guarded-by: _lock

    # -- routing ---------------------------------------------------------------

    def allow(self) -> bool:
        """May a batch be dispatched to this backend right now?

        In the open state this flips to half-open once the cooldown has
        elapsed and admits exactly one probe at a time; concurrent callers
        see ``False`` until the probe resolves.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            now = self._clock()
            if self._state == OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = HALF_OPEN
                self._probe_in_flight = False
            # half-open: single probe at a time
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            self._probes += 1
            return True

    def retry_after_s(self) -> float | None:
        """Seconds until the next probe is possible (None when not open)."""
        with self._lock:
            if self._state != OPEN:
                return None
            remaining = self.cooldown_s - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    # -- outcome recording -----------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self._successes += 1
            self._consecutive = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._recoveries += 1
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._consecutive += 1
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._trip()
            elif (self._state == CLOSED
                  and self._consecutive >= self.failure_threshold):
                self._trip()
            self._probe_in_flight = False

    def release(self) -> None:
        """End an admitted dispatch without a verdict on the backend.

        Used when the batch itself was at fault (its deadline ran out):
        nothing is counted, and a half-open probe slot is freed so the
        next batch can probe instead.
        """
        with self._lock:
            self._probe_in_flight = False

    def _trip(self) -> None:  # requires-lock: _lock
        self._state = OPEN
        self._opened_at = self._clock()
        self._trips += 1
        self._consecutive = 0

    # -- introspection ---------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            if (self._state == OPEN
                    and self._clock() - self._opened_at >= self.cooldown_s):
                return HALF_OPEN  # what allow() would transition to
            return self._state

    def snapshot(self) -> BreakerSnapshot:
        with self._lock:
            retry = None
            if self._state == OPEN:
                retry = max(
                    0.0, self.cooldown_s - (self._clock() - self._opened_at))
            return BreakerSnapshot(
                backend=self.backend,
                state=self._state,
                consecutive_failures=self._consecutive,
                trips=self._trips,
                recoveries=self._recoveries,
                probes=self._probes,
                failures=self._failures,
                successes=self._successes,
                retry_after_s=retry,
            )
