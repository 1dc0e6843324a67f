"""``deploy``: repeated cold and warm deployments of freshly seeded models.

Targets: mobilenet-v1 and resnet18 on ``orpheus``, mobilenet-v1 on
``int8``. A cold deployment turns ONNX bytes into engine bytes
(``load_model_bytes`` -> ``compile_graph`` -> ``serialize_engine``); a
warm one turns engine bytes into a first output (``parse_engine`` ->
``InferenceSession.from_engine`` -> ``run``). Each cold deployment gets
fresh weights: with repeated weights the process-wide calibration cache
(keyed by graph digest) would turn every int8 compile after the first
into a cache hit. Each engine is then deployed warm
:data:`WARM_PER_COLD` times.

This is the only workload that times the ``onnx``, ``passes``, ``quant``
and ``engine`` layers; the other two touch them only in set-up.

Correctness: every warm output is bitwise equal to a cold
``InferenceSession`` prepared from the same parsed graph — the repo's
warm==cold guarantee.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from repro.engine import compile_graph, parse_engine, serialize_engine
from repro.models import zoo
from repro.onnx import load_model_bytes, save_model_bytes
from repro.passes import default_pipeline
from repro.quant import auto_quantize, clear_calibration_cache
from repro.runtime import InferenceSession

from perfbench.harness import (
    FAST_PERCENTILE,
    MB,
    Outcome,
    geomean,
    peak_alloc_bytes,
    percentile,
    timed_setups,
)

#: (target name, zoo model, backend)
TARGETS = (
    ("mobilenet-v1", "mobilenet-v1", "orpheus"),
    ("resnet18", "resnet18", "orpheus"),
    ("mobilenet-v1-int8", "mobilenet-v1", "int8"),
)
WARM_PER_COLD = 5


@dataclasses.dataclass
class Deployment:
    """Inputs of one deployment; made outside timing."""

    target: str
    backend: str
    onnx: bytes
    image: np.ndarray


def _fresh(target: tuple[str, str, str], weight_seed: int,
           rng: np.random.Generator) -> Deployment:
    name, model, backend = target
    graph = zoo.build(model, seed=weight_seed)
    image = rng.standard_normal(zoo.input_shape(model), dtype=np.float32)
    return Deployment(name, backend, save_model_bytes(graph), image)


def cold(deployment: Deployment, tracer=None, op: str | None = None):
    """ONNX bytes -> engine bytes.

    Returns the parsed graph, the engine bytes and, when traced, the
    simplification counts.
    """
    if tracer is None:
        graph = load_model_bytes(deployment.onnx)
        engine = compile_graph(graph, backend=deployment.backend, threads=1)
        return graph, serialize_engine(engine), {}
    return _traced_cold(deployment, tracer, op)


def _traced_cold(deployment: Deployment, tracer, op: str):
    """The cold path with each layer call timed on its own.

    ``compile_graph`` runs simplification and (for int8) calibration
    inside; to time those layers the traced path also calls
    ``default_pipeline().run`` and ``auto_quantize`` directly on the same
    graph, with the calibration cache cleared so calibration is a miss.
    """
    key = deployment.target
    clock = time.perf_counter
    started = clock()
    graph = load_model_bytes(deployment.onnx)
    parsed = clock()
    engine = compile_graph(graph, backend=deployment.backend, threads=1)
    compiled = clock()
    blob = serialize_engine(engine)
    done = clock()
    parent = tracer.add("deploy.cold", started, done, op=op, key=key)
    tracer.add("onnx.parse", started, parsed, parent, op, key)
    tracer.add("engine.compile", parsed, compiled, parent, op, key)
    tracer.add("engine.serialize", compiled, done, parent, op, key)

    pipeline = default_pipeline()
    started = clock()
    simplified = pipeline.run(graph)
    tracer.add("passes.simplify", started, clock(), op=op, key=key)
    counts = {"rewrites": pipeline.last_report.total,
              "nodes_out": len(simplified.nodes)}
    if deployment.backend == "int8":
        clear_calibration_cache()
        started = clock()
        auto_quantize(simplified)
        tracer.add("quant.calibrate", started, clock(), op=op, key=key)
    return graph, blob, counts


def warm(blob: bytes, image: np.ndarray, tracer=None, op: str | None = None,
         key: str | None = None) -> np.ndarray:
    """Engine bytes -> first output."""
    clock = time.perf_counter
    started = clock()
    engine = parse_engine(blob)
    parsed = clock()
    session = InferenceSession.from_engine(engine)
    bound = clock()
    output = next(iter(session.run({session.input_names[0]: image}).values()))
    done = clock()
    if tracer is not None:
        parent = tracer.add("deploy.warm", started, done, op=op, key=key)
        tracer.add("engine.parse", started, parsed, parent, op, key)
        tracer.add("engine.bind", parsed, bound, parent, op, key)
        tracer.add("runtime.first_run", bound, done, parent, op, key)
    return output


def _reference(graph, backend: str, image: np.ndarray) -> np.ndarray:
    """A cold session prepared from the same parsed graph (untimed)."""
    session = InferenceSession(graph, backend=backend, threads=1)
    return next(iter(session.run({session.input_names[0]: image}).values()))


class _Campaign:
    def __init__(self, seed: int, wrap) -> None:
        self.rng = np.random.default_rng(seed)
        self.wrap = wrap
        self.cold_s: dict[str, list[float]] = {t[0]: [] for t in TARGETS}
        self.warm_s: dict[str, list[float]] = {t[0]: [] for t in TARGETS}
        self.counts: dict[str, dict[str, int]] = {}
        self.engine_mb: dict[str, float] = {}
        self.onnx_mb: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.deployed = 0
        self.untraced_warm: dict[str, list[float]] = {t[0]: [] for t in TARGETS}

    def fresh(self, target) -> Deployment:
        """New weights and a new image, drawn from this campaign's stream."""
        self.deployed += 1
        return _fresh(target, int(self.rng.integers(2**31)), self.rng)

    def deploy(self, target, tracer=None) -> None:
        """One cold deployment and WARM_PER_COLD warm ones of its engine."""
        deployment = self.fresh(target)
        name = deployment.target
        op = f"d{self.deployed}"
        self.attempted += 1 + WARM_PER_COLD
        try:
            started = time.perf_counter()
            graph, blob, counts = cold(deployment, tracer, op)
            self.cold_s[name].append(time.perf_counter() - started)
            if counts:
                self.counts[name] = counts
            self.engine_mb[name] = len(blob) / MB
            self.onnx_mb[name] = len(deployment.onnx) / MB
            expected = _reference(graph, deployment.backend, deployment.image)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            print(f"deploy: {name} cold {op}: {exc!r}")
            self.failed += 1 + WARM_PER_COLD
            return
        run_warm = warm if self.wrap is None else self.wrap(warm)
        for repeat in range(WARM_PER_COLD):
            # In a traced run, every other warm deployment stays untraced:
            # the pair gives the trace overhead on identical calls.
            traced = tracer is not None and repeat % 2 == 1
            try:
                started = time.perf_counter()
                output = run_warm(blob, deployment.image,
                                  tracer if traced else None, op, name)
                elapsed = time.perf_counter() - started
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                print(f"deploy: {name} warm {op}: {exc!r}")
                self.failed += 1
                continue
            if tracer is not None and not traced:
                self.untraced_warm[name].append(elapsed)
            else:
                self.warm_s[name].append(elapsed)
            if not np.array_equal(output, expected):
                print(f"deploy: {name} warm {op} differs from cold")
                self.failed += 1


def _warm_up(campaign: _Campaign) -> None:
    """Set-up: one untimed deployment of each target."""
    for target in TARGETS:
        deployment = campaign.fresh(target)
        _, blob, _ = cold(deployment)
        warm(blob, deployment.image)


def run(seed: int, seconds: float, tracer=None, wrap=None,
        sgemm: float = 0.0) -> Outcome:
    # Its own weight stream, so no measured deployment repeats set-up
    # weights (an int8 repeat would hit the calibration cache).
    warm_up = _Campaign(seed + 1_000_003, None)
    setup_s, _ = timed_setups(lambda: _warm_up(warm_up), lambda _: None)
    campaign = _Campaign(seed, wrap)
    started = time.perf_counter()
    index = 0
    # Whole rounds only, so every target is measured at least once.
    while time.perf_counter() - started < seconds or index % len(TARGETS):
        campaign.deploy(TARGETS[index % len(TARGETS)], tracer)
        index += 1
    outcome = Outcome(attempted=campaign.attempted, failed=campaign.failed)
    for name in campaign.cold_s:
        cold_s, warm_s = campaign.cold_s[name], campaign.warm_s[name]
        outcome.notes.append(
            f"{name}: {len(cold_s)} cold deployments, p10 "
            f"{percentile(cold_s, FAST_PERCENTILE) * 1e3:.1f} ms, p50 "
            f"{statistics.median(cold_s) * 1e3:.1f} ms; {len(warm_s)} warm, "
            f"p10 {percentile(warm_s, FAST_PERCENTILE) * 1e3:.1f} ms, p50 "
            f"{statistics.median(warm_s) * 1e3:.1f} ms, p75 "
            f"{percentile(warm_s, 75) * 1e3:.1f} ms")
    if tracer is None:
        peaks = [peak_alloc_bytes(lambda t=t: cold(campaign.fresh(t)))
                 for t in TARGETS]
        # One cold deployment of each target, each at its fast percentile.
        round_s = sum(percentile(v, FAST_PERCENTILE)
                      for v in campaign.cold_s.values())
        outcome.end_to_end = {
            "setup_s": setup_s,
            "latency_ms": geomean([percentile(v, FAST_PERCENTILE) * 1e3
                                   for v in campaign.warm_s.values()]),
            "peak_mem_mb": max(peaks) / MB,
            "rate_per_s": len(TARGETS) / round_s,
        }
        return outcome
    layers = outcome.per_layer
    layers["bench.trace_overhead_pct"] = 100 * (geomean([
        statistics.median(campaign.warm_s[n])
        / statistics.median(campaign.untraced_warm[n])
        for n in campaign.warm_s]) - 1)
    for name, _, _ in TARGETS:
        parse_ms = tracer.median_ms("onnx.parse", name)
        layers[f"onnx.parse_ms.{name}"] = parse_ms
        layers[f"onnx.parse_mb_s.{name}"] = (
            campaign.onnx_mb[name] / (parse_ms / 1e3))
        layers[f"passes.simplify_ms.{name}"] = tracer.median_ms(
            "passes.simplify", name)
        layers[f"passes.rewrites.{name}"] = campaign.counts[name]["rewrites"]
        layers[f"passes.nodes_out.{name}"] = campaign.counts[name]["nodes_out"]
        for span in ("compile", "serialize", "parse", "bind"):
            layers[f"engine.{span}_ms.{name}"] = tracer.median_ms(
                f"engine.{span}", name)
        layers[f"engine.mb.{name}"] = campaign.engine_mb[name]
        layers[f"runtime.first_run_ms.{name}"] = tracer.median_ms(
            "runtime.first_run", name)
    layers["quant.calibrate_ms.mobilenet-v1-int8"] = tracer.median_ms(
        "quant.calibrate", "mobilenet-v1-int8")
    return outcome
