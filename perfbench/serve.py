"""``serve``: open-loop traffic into an in-process ``InferenceService``.

One submitter thread sends single samples of ``wrn-40-2`` at 8x8 on a
seeded Poisson schedule; the service batches them (``batch=4``,
``workers=1``, thread mode, ``orpheus`` backend, other knobs at their
defaults). Two phases: ``steady`` at 50 req/s and ``saturate`` at
400 req/s, above the ~300 req/s one worker completes on a 2-core host.
Every batch costs a full batch of 4, so at 100 req/s the worker is
busy most of the time and the steady latency magnifies every change in
host speed: alternating 2.5-s rounds at both rates in the same five
runs, the median latency spread 0.12 at 100 req/s and 0.03 at 50.
Requests carry no deadline. Latency counts from each request's
scheduled send time, so a stalled submitter or service shows up in
every later request.

One worker, because the model's small nodes hold the interpreter lock
nearly all the time: on a 2-core host a second worker thread only
contends for it. With ``workers=2`` the service completed ~200 req/s
instead of ~300, and its latency varied more from run to run.

The work per request is small (98 nodes on an 8x8 image, batches padded
to 4), so per-node and serving overhead dominate — the opposite of
``edge``.

Correctness: every completed output matches a batch-1
``InferenceSession.run`` of the same sample within
:data:`perfbench.harness.ATOL`/``RTOL``. A shed or unresolved request in
``steady`` is a failure; sheds in ``saturate`` are expected and reported
as ``serve.shed_ratio``.

The traced run adds a diagnostic ``deadline`` phase: 400 req/s with
100 ms per-request deadlines on a fresh service.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
import time
from collections.abc import Callable

import numpy as np

from repro.engine import compile_graph
from repro.models import zoo
from repro.runtime import InferenceSession
from repro.serve import (
    Completed,
    InferenceService,
    Rejected,
    SessionPool,
)

from perfbench.harness import (
    MB,
    Outcome,
    block_rates,
    close,
    fast_rate,
    kernel_metrics,
    peak_alloc_bytes,
    percentile,
    timed_setups,
)

MODEL = "wrn-40-2"
IMAGE_SIZE = 8
BATCH = 4
WORKERS = 1
BACKEND = "orpheus"
SAMPLES = 64
STEADY_RPS = 50.0
SATURATE_RPS = 400.0
DEADLINE_MS = 100.0
#: Shares of ``--seconds`` given to each phase.
STEADY_SHARE = 0.6
SATURATE_SHARE = 0.4
DEADLINE_SHARE = 0.3
UNTRACED_SHARE = 0.3
#: Steady and saturate run in this many rounds, each on a fresh service.
ROUNDS = 6
#: Bound on waiting for the last outcomes of a phase.
SETTLE_S = 30.0
#: Submitter lag (p99, ms) beyond which a run's latencies are suspect.
LAG_LIMIT_MS = 5.0
PROFILE_REPEATS = 30
#: Completions per block for ``rate_per_s``: 4 full batches, ~0.05 s.
RATE_BLOCK = 4 * BATCH


@dataclasses.dataclass(frozen=True)
class Send:
    index: int          # position in the schedule
    due: float          # scheduled send time (time.monotonic)
    sent: float         # when submit was called
    returned: float     # when submit returned
    handle: object      # PendingResponse or Rejected


def open_loop(submit: Callable[[int], object], rate: float, seconds: float,
              rng: np.random.Generator,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep) -> list[Send]:
    """Call ``submit(i)`` at ``rate`` per second for ``seconds``, on schedule.

    Open loop: a slow ``submit`` does not slow the schedule down; the
    sends just run late, and ``sent - due`` records by how much. The
    schedule is a Poisson process drawn from ``rng``, as independent
    users make. Evenly spaced sends lock into step with the batches the
    service runs, in a pattern that differs from one service instance
    to the next, and move the median latency with it.
    """
    count = max(1, int(round(rate * seconds)))
    offsets = np.cumsum(rng.exponential(1.0 / rate, count)).tolist()
    start = clock() + 0.01 - offsets[0]
    sends = []
    for index in range(count):
        due = start + offsets[index]
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        handle = submit(index)
        sends.append(Send(index, due, sent, clock(), handle))
    return sends


def gen_lag_ms(sends: list[Send]) -> float:
    """p99 of how late the submitter sent compared with its schedule."""
    return percentile([(s.sent - s.due) * 1e3 for s in sends], 99)


class TimedSession:
    """Pool session proxy recording each batch ``run`` and its members."""

    accepts_request_ids = True

    def __init__(self, inner) -> None:
        self.inner = inner
        self.graph = inner.graph
        self.phase: str | None = None     # None: record nothing
        self._lock = threading.Lock()
        self.records: list[tuple[str, float, float, tuple]] = []  # guarded-by: _lock

    def run(self, feeds, deadline_ms=None, request_ids=()):
        phase = self.phase
        started = time.monotonic()
        outputs = self.inner.run(feeds, deadline_ms=deadline_ms)
        if phase is not None:
            with self._lock:
                self.records.append(
                    (phase, started, time.monotonic(), tuple(request_ids)))
        return outputs

    def robustness_report(self):
        return self.inner.robustness_report()

    def take(self) -> list[tuple[str, float, float, tuple]]:
        with self._lock:
            records, self.records = self.records, []
        return records


@dataclasses.dataclass
class Phase:
    """Outcomes of one phase, settled."""

    name: str
    sends: list[Send]
    completed: int = 0
    shed: int = 0
    failed: int = 0           # Failed outcomes and unresolved requests
    wrong: int = 0            # completed with a wrong output
    good: int = 0             # completed within their own deadline
    breaker_trips: int = 0
    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    done_at: list[float] = dataclasses.field(default_factory=list)
    batch_sizes: list[int] = dataclasses.field(default_factory=list)

    @property
    def offered(self) -> int:
        return len(self.sends)

    @property
    def window(self) -> tuple[float, float]:
        return self.sends[0].due, self.sends[-1].due


def settle(name: str, sends: list[Send], references: list[np.ndarray]) -> Phase:
    """Wait for every admitted request and check every output."""
    phase = Phase(name, sends)
    give_up = time.monotonic() + SETTLE_S
    for send in sends:
        handle = send.handle
        if isinstance(handle, Rejected):
            phase.shed += 1
            continue
        outcome = handle.result(timeout=max(0.0, give_up - time.monotonic()))
        if isinstance(outcome, Completed):
            if not close(outcome.output,
                         references[send.index % len(references)]):
                phase.wrong += 1
                continue
            phase.completed += 1
            phase.good += int(not outcome.late)
            done = handle.request.submitted_at + outcome.latency_ms / 1e3
            phase.done_at.append(done)
            phase.latencies_ms.append((done - send.due) * 1e3)
        elif isinstance(outcome, Rejected):
            phase.shed += 1
        else:                 # Failed, or no outcome within SETTLE_S
            phase.failed += 1
    return phase


def completion_rate(phases: list[Phase]) -> float:
    """Completions per second inside the send windows, in short blocks.

    Each phase's completions within its own window are cut into blocks
    of :data:`RATE_BLOCK`; the result is the high percentile of the
    pooled block rates, so that interference from other processes on the
    host stays out of the figure.
    """
    rates = []
    for phase in phases:
        start, end = phase.window
        rates.extend(block_rates(
            [t for t in phase.done_at if start <= t <= end], RATE_BLOCK))
    return fast_rate(rates)


def pooled(phases: list[Phase]) -> Phase:
    """One phase holding the sends and outcomes of several rounds."""
    merged = Phase(phases[0].name, [])
    for phase in phases:
        merged.sends.extend(phase.sends)
        for field in ("completed", "shed", "failed", "wrong", "good",
                      "breaker_trips"):
            setattr(merged, field, getattr(merged, field) + getattr(phase, field))
        merged.latencies_ms.extend(phase.latencies_ms)
        merged.done_at.extend(phase.done_at)
        merged.batch_sizes.extend(phase.batch_sizes)
    return merged


# -- set-up ---------------------------------------------------------------------------


@dataclasses.dataclass
class Rig:
    pool: object
    service: object
    samples: np.ndarray
    proxies: list[TimedSession]
    arrivals: np.random.Generator     # draws every phase's send schedule


def _pool(seed: int, proxies: list[TimedSession] | None, wrap):
    if proxies is None and wrap is None:
        return SessionPool(MODEL, backends=(BACKEND,), workers=WORKERS,
                           threads=1, batch=BATCH, image_size=IMAGE_SIZE,
                           seed=seed)
    # Same build as the pool's own (compile once, one warm session per
    # worker), with each session wrapped.
    graph = zoo.build(MODEL, batch=BATCH, image_size=IMAGE_SIZE, seed=seed)
    engine = compile_graph(graph, backend=BACKEND, threads=1)

    def factory(backend: str, index: int):
        session = InferenceSession.from_engine(engine, backend=backend)
        if wrap is not None:
            session = wrap(session)
        if proxies is not None:
            session = TimedSession(session)
            proxies.append(session)
        return session

    return SessionPool(MODEL, backends=(BACKEND,), workers=WORKERS,
                       batch=BATCH, session_factory=factory)


def _service(pool):
    return InferenceService(pool=pool)


def _setup(seed: int, traced: bool, wrap) -> Rig:
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(
        (SAMPLES, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    proxies: list[TimedSession] | None = [] if traced else None
    pool = _pool(seed, proxies, wrap)
    service = _service(pool)
    warmup = [service.submit(samples[i]) for i in range(2 * WORKERS * BATCH)]
    for pending in warmup:
        pending.result(timeout=SETTLE_S)
    return Rig(pool, service, samples, proxies or [], rng)


def _references(seed: int, samples: np.ndarray) -> list[np.ndarray]:
    """Batch-1 outputs of the same weights: the independent path."""
    graph = zoo.build(MODEL, batch=1, image_size=IMAGE_SIZE, seed=seed)
    session = InferenceSession(graph, threads=1)
    name = session.input_names[0]
    return [next(iter(session.run({name: sample[None]}).values()))[0]
            for sample in samples]


def _phase(rig: Rig, name: str, rate: float, seconds: float,
           references: list[np.ndarray], tracer=None,
           deadline_ms: float | None = None, round_: int = 0) -> Phase:
    for proxy in rig.proxies:
        proxy.phase = name if tracer is not None else None
    samples = rig.samples

    def submit(index: int):
        return rig.service.submit(samples[index % SAMPLES],
                                  deadline_ms=deadline_ms,
                                  request_id=f"{name}{round_}-{index}")

    phase = settle(name, open_loop(submit, rate, seconds, rig.arrivals),
                   references)
    if tracer is not None:
        _record_spans(tracer, rig, phase)
    return phase


def _record_spans(tracer, rig: Rig, phase: Phase) -> None:
    run_started: dict[str, float] = {}
    records = [r for proxy in rig.proxies for r in proxy.take()]
    for _, start, end, request_ids in records:
        tracer.add("serve.exec", start, end, op=f"batch-{request_ids[0]}",
                   key=phase.name)
        phase.batch_sizes.append(len(request_ids))
        for rid in request_ids:
            run_started[rid] = start
    for send in phase.sends:
        handle = send.handle
        if isinstance(handle, Rejected):
            tracer.add("serve.submit", send.sent, send.returned,
                       op=handle.id, key=phase.name)
            continue
        rid = handle.request.id
        tracer.add("serve.submit", send.sent, send.returned, op=rid,
                   key=phase.name)
        outcome = handle.result(timeout=0)
        if not isinstance(outcome, Completed):
            continue
        admitted = handle.request.submitted_at
        parent = tracer.add("serve.request", send.due,
                            admitted + outcome.latency_ms / 1e3,
                            op=rid, key=phase.name)
        if rid in run_started:
            tracer.add("serve.queue", admitted, run_started[rid],
                       parent=parent, op=rid, key=phase.name)


def _deadline_phase(rig: Rig, seconds: float,
                    references: list[np.ndarray], tracer) -> Phase:
    """Overload with per-request deadlines, on a fresh service (and breakers)."""
    rig.service = _service(rig.pool)
    try:
        phase = _phase(rig, "deadline", SATURATE_RPS, seconds, references,
                       tracer, deadline_ms=DEADLINE_MS)
        phase.breaker_trips = rig.service.robustness_report().breaker_trips
    finally:
        rig.service.close()
    return phase


# -- the workload -------------------------------------------------------------------


def _teardown(rig: Rig) -> None:
    rig.service.close()


def _rounds(rig: Rig, seconds: float, references: list[np.ndarray],
            tracer) -> dict[str, list[Phase]]:
    """ROUNDS rounds of steady then saturate, each on a fresh service.

    The batching pattern a service falls into varies from one service
    instance to the next; pooling rounds over several instances keeps
    that out of the run-to-run spread. A traced run starts each round
    with an untraced steady segment, for the overhead figure.
    """
    plan = [("steady", STEADY_RPS, STEADY_SHARE, tracer),
            ("saturate", SATURATE_RPS, SATURATE_SHARE, tracer)]
    if tracer is not None:
        plan.insert(0, ("untraced", STEADY_RPS, UNTRACED_SHARE, None))
    phases: dict[str, list[Phase]] = {name: [] for name, *_ in plan}
    for round_ in range(ROUNDS):
        if round_:
            rig.service.close()
            rig.service = _service(rig.pool)
        for name, rate, share, phase_tracer in plan:
            phases[name].append(_phase(
                rig, name, rate, seconds * share / ROUNDS, references,
                phase_tracer, round_=round_))
    return phases


def run(seed: int, seconds: float, tracer=None, wrap=None,
        sgemm: float = 0.0) -> Outcome:
    traced = tracer is not None
    setup_s, rig = timed_setups(lambda: _setup(seed, traced, wrap), _teardown)
    references = _references(seed, rig.samples)
    outcome = Outcome()
    try:
        rounds = _rounds(rig, seconds, references, tracer)
    finally:
        rig.service.close()
    steady, saturate = pooled(rounds["steady"]), pooled(rounds["saturate"])
    outcome.attempted = steady.offered + saturate.offered
    # A shed at half of saturation is a failure; in overload it is expected.
    outcome.failed = (steady.failed + steady.wrong + steady.shed
                      + saturate.failed + saturate.wrong)
    lag = gen_lag_ms(steady.sends + saturate.sends)
    for phase in (steady, saturate):
        outcome.notes.append(
            f"{phase.name}: offered {phase.offered}, completed "
            f"{phase.completed}, shed {phase.shed}, failed {phase.failed}, "
            f"wrong {phase.wrong}")
    outcome.notes.append(
        f"steady latency: p50 {statistics.median(steady.latencies_ms):.2f} "
        f"ms, p98 {percentile(steady.latencies_ms, 98):.2f} ms")
    if lag > LAG_LIMIT_MS:
        outcome.notes.append(
            f"submitter p99 lag {lag:.2f} ms exceeds {LAG_LIMIT_MS} ms: "
            "latencies of this run are suspect")

    session = rig.pool.session(BACKEND, 0)
    inner = getattr(session, "inner", session)
    batch = {inner.input_names[0]: rig.samples[:BATCH]}
    # Several passes: one run in five read 1.1 MB instead of 0.49 MB.
    peak = peak_alloc_bytes(lambda: inner.run(batch), repeats=3)
    if not traced:
        outcome.end_to_end = {
            "setup_s": setup_s,
            "latency_ms": statistics.median(steady.latencies_ms),
            "peak_mem_mb": peak / MB,
            "rate_per_s": completion_rate(rounds["saturate"]),
        }
        return outcome

    deadline = _deadline_phase(rig, seconds * DEADLINE_SHARE, references,
                               tracer)
    # Deadline misses are the finding; a wrong output is still a failure.
    outcome.attempted += deadline.completed + deadline.wrong
    outcome.failed += deadline.wrong
    layers = outcome.per_layer
    layers["bench.trace_overhead_pct"] = 100 * (
        statistics.median(steady.latencies_ms)
        / statistics.median(pooled(rounds["untraced"]).latencies_ms) - 1)
    layers["serve.submit_us"] = tracer.median_ms("serve.submit", "steady") * 1e3
    layers["serve.exec_ms"] = tracer.median_ms("serve.exec", "steady")
    layers["serve.queue_ms"] = tracer.median_ms("serve.queue", "steady")
    layers["serve.batch_fill"] = (
        statistics.fmean(saturate.batch_sizes) / BATCH)
    layers["serve.shed_ratio"] = saturate.shed / saturate.offered
    layers["serve.gen_lag_ms"] = lag
    start, end = deadline.window
    layers["serve.deadline_goodput_rps"] = deadline.good / (end - start)
    layers["serve.breaker_trips"] = deadline.breaker_trips
    layers["serve.deadline_failed_ratio"] = deadline.failed / deadline.offered
    outcome.notes.append(
        f"deadline: offered {deadline.offered}, within deadline "
        f"{deadline.good}, failed {deadline.failed}, shed {deadline.shed}, "
        f"breaker trips {deadline.breaker_trips}")

    for repeat in range(PROFILE_REPEATS):
        tracer.profile_run(inner, batch, MODEL, op=f"profile-{repeat}")
    layers.update(kernel_metrics(tracer, MODEL, inner.graph, sgemm))
    return outcome
