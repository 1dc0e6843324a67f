"""``edge``: the paper's single-image edge case (Figure 2).

Closed loop, one caller, batch 1, ``threads=1``. Alternates mobilenet-v1
and resnet18 at 224x224 over a pool of distinct seeded images. Most of
the time is spent in convolution kernels (dense im2col, depthwise, the
7x7 stem), so a change to convolution arithmetic moves this workload and
a change to per-call set-up barely does.

Correctness: every timed output is bitwise equal to the first output for
the same input, and that first output matches an independent path — a
session with ``optimize=False`` on the ``spatial_pack`` backend — within
:data:`perfbench.harness.ATOL`/``RTOL``.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from repro.models import zoo
from repro.runtime import InferenceSession

from perfbench.harness import (
    FAST_PERCENTILE,
    MB,
    Outcome,
    block_rates,
    close,
    fast_rate,
    geomean,
    kernel_metrics,
    peak_alloc_bytes,
    percentile,
    timed_setups,
)

MODELS = ("mobilenet-v1", "resnet18")
IMAGES_PER_MODEL = 8
ORACLE_BACKEND = "spatial_pack"
#: Share of the run spent untraced in a traced run, for the overhead figure.
UNTRACED_SHARE = 0.3
#: Inferences per block for ``rate_per_s``: one of each model.
RATE_BLOCK = 2


@dataclasses.dataclass
class Model:
    name: str
    graph: object
    session: object
    images: list[np.ndarray]

    def feeds(self, index: int) -> dict[str, np.ndarray]:
        return {self.session.input_names[0]: self.images[index]}


def _setup(seed: int) -> list[Model]:
    rng = np.random.default_rng(seed)
    models = []
    for offset, name in enumerate(MODELS):
        graph = zoo.build(name, seed=seed * len(MODELS) + offset)
        session = InferenceSession(graph, threads=1)
        shape = zoo.input_shape(name)
        images = [rng.standard_normal(shape, dtype=np.float32)
                  for _ in range(IMAGES_PER_MODEL)]
        model = Model(name, graph, session, images)
        session.run(model.feeds(0))
        models.append(model)
    return models


class _Loop:
    """The closed loop: alternate models, cycle images, check every output."""

    def __init__(self, models: list[Model]) -> None:
        self.models = models
        self.first: dict[tuple[str, int], np.ndarray] = {}
        self.latencies: dict[str, list[float]] = {m.name: [] for m in models}
        self.errors = 0
        self.wrong: set[int] = set()     # indices into ``timed``
        self.timed: list[tuple[str, int]] = []
        self.ends: list[float] = []      # when each step returned
        self.count = 0

    def step(self, tracer=None) -> None:
        model = self.models[self.count % len(self.models)]
        image = (self.count // len(self.models)) % IMAGES_PER_MODEL
        self.count += 1
        feeds = model.feeds(image)
        try:
            if tracer is None:
                started = time.perf_counter()
                outputs = model.session.run(feeds)
                elapsed = time.perf_counter() - started
            else:
                elapsed = tracer.profile_run(model.session, feeds, model.name,
                                             op=f"i{self.count}")
                outputs = None
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.errors += 1
            print(f"edge: {model.name} image {image}: {exc!r}")
            return
        finally:
            self.ends.append(time.perf_counter())
        self.latencies[model.name].append(elapsed)
        self.timed.append((model.name, image))
        if outputs is None:
            return
        output = next(iter(outputs.values()))
        first = self.first.setdefault((model.name, image), output)
        if first is not output and not np.array_equal(first, output):
            self.wrong.add(len(self.timed) - 1)

    def until(self, seconds: float, tracer=None) -> None:
        """Loop for ``seconds``."""
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self.step(tracer)


def _check_oracle(loop: _Loop, models: list[Model]) -> None:
    """Mark every timed output whose input disagrees with the oracle."""
    wrong = set()
    for model in models:
        oracle = InferenceSession(model.graph, backend=ORACLE_BACKEND,
                                  optimize=False, threads=1)
        for image in range(IMAGES_PER_MODEL):
            first = loop.first.get((model.name, image))
            if first is None:
                continue
            expected = next(iter(oracle.run(model.feeds(image)).values()))
            if not close(first, expected):
                print(f"edge: {model.name} image {image} differs from "
                      f"{ORACLE_BACKEND} optimize=False")
                wrong.add((model.name, image))
    # Every timed output of a wrong input counts, not just the first.
    loop.wrong.update(i for i, key in enumerate(loop.timed) if key in wrong)


def run(seed: int, seconds: float, tracer=None, wrap=None,
        sgemm: float = 0.0) -> Outcome:
    setup_s, models = timed_setups(lambda: _setup(seed), lambda _: None)
    if wrap is not None:
        for model in models:
            model.session = wrap(model.session)
    loop = _Loop(models)
    outcome = Outcome()
    if tracer is None:
        loop.until(seconds)
    else:
        loop.until(seconds * UNTRACED_SHARE)
        untraced = {n: statistics.median(v) for n, v in loop.latencies.items()}
        for values in loop.latencies.values():
            values.clear()
        loop.until(seconds, tracer)
        traced = {n: statistics.median(v) for n, v in loop.latencies.items()}
        outcome.per_layer["bench.trace_overhead_pct"] = 100 * (geomean(
            [traced[n] / untraced[n] for n in traced]) - 1)
    _check_oracle(loop, models)

    peaks = {}
    for model in models:
        peaks[model.name] = peak_alloc_bytes(
            lambda m=model: m.session.run(m.feeds(0)))
    outcome.attempted = loop.count
    outcome.failed = loop.errors + len(loop.wrong)
    for name, values in loop.latencies.items():
        outcome.notes.append(
            f"{name}: {len(values)} timed inferences, p10 "
            f"{percentile(values, FAST_PERCENTILE) * 1e3:.2f} ms, p50 "
            f"{statistics.median(values) * 1e3:.2f} ms, p90 "
            f"{percentile(values, 90) * 1e3:.2f} ms")
    if tracer is None:
        outcome.end_to_end = {
            "setup_s": setup_s,
            "latency_ms": geomean([percentile(v, FAST_PERCENTILE) * 1e3
                                   for v in loop.latencies.values()]),
            "peak_mem_mb": max(peaks.values()) / MB,
            "rate_per_s": fast_rate(block_rates(loop.ends, RATE_BLOCK)),
        }
        return outcome
    for model in models:
        plan = model.session.memory_plan.required_bytes(True)
        outcome.per_layer.update({
            f"runtime.peak_alloc_mb.{model.name}": peaks[model.name] / MB,
            f"runtime.plan_mb.{model.name}": plan / MB,
            f"runtime.arena_ratio.{model.name}": peaks[model.name] / plan,
        })
        kernels = kernel_metrics(tracer, model.name, model.session.graph,
                                 sgemm)
        outcome.per_layer.update(kernels)
        conv_ms = (kernels[f"kernels.conv_ms.{model.name}"]
                   + kernels[f"kernels.dwconv_ms.{model.name}"])
        share = 100 * conv_ms / tracer.median_ms("runtime.run", model.name)
        outcome.notes.append(
            f"{model.name}: conv kernels take {share:.1f}% of the median "
            "traced run")
    return outcome
