"""Performance-regression tracking.

A maintained inference framework needs to notice when a "refactor" slows
MobileNet down 15%. This module snapshots the current machine's timings for
a set of configurations into a JSON baseline, and later runs compare
against it with a noise tolerance:

    orpheus bench baseline --save perf.json
    ...hack...
    orpheus bench baseline --check perf.json

Baselines are machine-specific (absolute times), so they belong in a local
file or CI cache keyed by runner type — not in the repository.

:func:`measure_engine_startup` tracks a different trajectory: cold session
prepare (build + validate + plan + select) versus warm start from a
compiled engine file, per model. Its *speedup ratios* are meaningful
across machines even though the absolute times are not, so the saved
``BENCH_engine_startup.json`` document is worth committing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import sys
import tempfile

from repro import __version__
from repro.bench.harness import time_model
from repro.runtime.profiler import measure, validate_protocol

#: (model, backend, image_size) configurations tracked by default — small
#: enough to run in seconds, covering both conv regimes and the depthwise path.
DEFAULT_CONFIGS: tuple[tuple[str, str, int | None], ...] = (
    ("wrn-40-2", "orpheus", None),
    ("wrn-40-2", "winograd", None),
    ("mobilenet-v1", "orpheus", 128),
    ("resnet18", "orpheus", 128),
)


def _config_key(model: str, backend: str, image_size: int | None) -> str:
    return f"{model}/{backend}/{image_size or 'full'}"


def measure_baseline(
    configs=None, repeats: int = 7, warmup: int = 2,
) -> dict:
    """Time every configuration; returns the baseline document."""
    if configs is None:  # resolved at call time so tests can patch the set
        configs = DEFAULT_CONFIGS
    entries = {}
    for model, backend, image_size in configs:
        stats = time_model(
            model, backend=backend, image_size=image_size,
            repeats=repeats, warmup=warmup)
        entries[_config_key(model, backend, image_size)] = {
            "model": model,
            "backend": backend,
            "image_size": image_size,
            "median_ms": round(stats.median * 1e3, 4),
            "best_ms": round(stats.best * 1e3, 4),
        }
    return {
        "version": __version__,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "repeats": repeats,
        "entries": entries,
    }


@dataclasses.dataclass(frozen=True)
class RegressionFinding:
    config: str
    baseline_ms: float
    current_ms: float

    @property
    def ratio(self) -> float:
        return self.current_ms / self.baseline_ms

    def __str__(self) -> str:
        return (f"{self.config}: {self.baseline_ms:.2f} ms -> "
                f"{self.current_ms:.2f} ms ({self.ratio:.2f}x)")


@dataclasses.dataclass(frozen=True)
class RegressionReport:
    regressions: tuple[RegressionFinding, ...]
    improvements: tuple[RegressionFinding, ...]
    checked: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [f"checked {self.checked} configurations "
                 f"(tolerance {self.tolerance:.0%})"]
        for finding in self.regressions:
            lines.append(f"  REGRESSION {finding}")
        for finding in self.improvements:
            lines.append(f"  improved   {finding}")
        if self.ok and not self.improvements:
            lines.append("  all within tolerance")
        return "\n".join(lines)


# -- engine startup trajectory --------------------------------------------------------

#: Models tracked by the startup benchmark: both conv regimes, the
#: depthwise path, and the deepest zoo ResNet.
ENGINE_STARTUP_MODELS: tuple[str, ...] = (
    "wrn-40-2", "mobilenet-v1", "resnet18", "resnet50")


def measure_engine_startup(
    models: "tuple[str, ...] | None" = None,
    backend: str = "orpheus",
    threads: int = 1,
    repeats: int = 3,
    engine_dir: "str | None" = None,
) -> dict:
    """Cold-vs-warm session startup per model; returns the document.

    "Cold" is the full deployment path — build the zoo graph, then let
    ``InferenceSession`` validate, simplify, infer shapes, plan memory,
    and select kernels. "Warm" is ``InferenceSession.from_engine`` on a
    compiled engine file. Each phase's median over ``repeats`` runs is
    recorded; ``speedup`` is cold total over warm load.

    Engine files go to ``engine_dir`` (a temporary directory by default,
    removed afterwards).
    """
    from repro.engine import compile_to_file
    from repro.models import zoo

    validate_protocol(repeats, 0)
    if models is None:  # resolved at call time so tests can patch the set
        models = ENGINE_STARTUP_MODELS
    entries: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        directory = engine_dir or scratch
        os.makedirs(directory, exist_ok=True)
        for model in models:
            path = os.path.join(directory, f"{model}.oeng")
            graph = zoo.build(model)
            compile_to_file(graph, path, backend=backend, threads=threads,
                            metadata={"model": model})
            build_s, prepare_s, warm_s = _startup_samples(
                model, path, backend, threads, repeats)
            cold_ms = (statistics.median(build_s)
                       + statistics.median(prepare_s)) * 1e3
            warm_ms = statistics.median(warm_s) * 1e3
            entries[model] = {
                "cold_build_ms": round(statistics.median(build_s) * 1e3, 3),
                "cold_prepare_ms": round(
                    statistics.median(prepare_s) * 1e3, 3),
                "cold_total_ms": round(cold_ms, 3),
                "warm_load_ms": round(warm_ms, 3),
                "speedup": round(cold_ms / warm_ms, 2) if warm_ms else None,
                "engine_bytes": os.path.getsize(path),
            }
    return {
        "version": __version__,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "backend": backend,
        "threads": threads,
        "repeats": repeats,
        "entries": entries,
    }


def _startup_samples(
    model: str, path: str, backend: str, threads: int, repeats: int,
) -> tuple[list[float], list[float], list[float]]:
    """Build, cold-prepare and warm-load seconds, interleaved per repeat."""
    from repro.models import zoo
    from repro.runtime.session import InferenceSession

    graph = None

    def build() -> None:
        nonlocal graph
        graph = zoo.build(model)

    def prepare() -> None:
        InferenceSession(graph, backend=backend, threads=threads)

    def warm() -> None:
        InferenceSession.from_engine(path)

    build_s: list[float] = []
    prepare_s: list[float] = []
    warm_s: list[float] = []
    for _ in range(repeats):
        build_s += measure(build, 1)
        prepare_s += measure(prepare, 1)
        warm_s += measure(warm, 1)
    return build_s, prepare_s, warm_s


def format_engine_startup(document: dict) -> str:
    """The startup document as an aligned text table."""
    lines = [f"engine startup, backend={document['backend']}, "
             f"threads={document['threads']}, "
             f"median of {document['repeats']}:",
             f"  {'model':14s} {'cold (ms)':>10s} {'warm (ms)':>10s} "
             f"{'speedup':>8s}"]
    for model, entry in document["entries"].items():
        lines.append(
            f"  {model:14s} {entry['cold_total_ms']:10.1f} "
            f"{entry['warm_load_ms']:10.1f} {entry['speedup']:7.2f}x")
    return "\n".join(lines)


def format_serve_bench(document: dict) -> str:
    """The serve-bench document as an aligned text report."""
    lines = [
        f"serve bench: {document['model']} "
        f"backends={'/'.join(document['backends'])} "
        f"workers={document['workers']} max_batch={document['max_batch']} "
        f"(saturation ~{document['saturation_rps']:.1f} rps)",
        f"  {'scenario':10s} {'rps':>6s} {'offered':>8s} {'done':>6s} "
        f"{'shed':>6s} {'fail':>5s} {'p50':>8s} {'p99':>8s} {'ok?':>4s}",
    ]
    for scenario in document["scenarios"]:
        load = scenario["load"]
        latency = load["latency_ms"]
        shed = sum(load["rejected"].values())
        lines.append(
            f"  {scenario['scenario']:10s} {scenario['rps']:6.1f} "
            f"{load['offered']:8d} {load['completed']:6d} {shed:6d} "
            f"{load['failed']:5d} {latency['p50']:8.2f} "
            f"{latency['p99']:8.2f} "
            f"{'pass' if scenario['passed'] else 'FAIL':>4s}")
        failed_checks = [name for name, ok in scenario["checks"].items()
                         if not ok]
        if failed_checks:
            lines.append(f"    failed checks: {', '.join(failed_checks)}")
        if load["rejected"]:
            sheds = ", ".join(f"{reason} x{count}" for reason, count
                              in sorted(load["rejected"].items()))
            lines.append(f"    sheds: {sheds}")
        robustness = scenario.get("robustness", {})
        if robustness.get("breaker_trips"):
            lines.append(
                f"    breaker: {robustness['breaker_trips']} trip(s), "
                f"{robustness['breaker_recoveries']} recover(ies), "
                f"{robustness['reroutes']} rerouted batch(es)")
    lines.append(f"overall: {'pass' if document['passed'] else 'FAIL'}")
    return "\n".join(lines)


def format_chaos_bench(document: dict) -> str:
    """The serve-chaos document as an aligned text report."""
    lines = [
        f"serve chaos: {document['model']} "
        f"workers={document['workers']} killed={document['killed']} "
        f"max_batch={document['max_batch']} "
        f"(recovery window {document['recovery_window_s']:g}s)",
    ]
    for scenario in document["scenarios"]:
        supervision = scenario["supervision"]
        deaths = ", ".join(
            f"{reason} x{count}"
            for reason, count in sorted(supervision["deaths"].items()))
        status = "pass" if scenario["passed"] else "FAIL"
        lines.append(
            f"  {scenario['scenario']:18s} {status:>4s}  "
            f"alive {supervision['alive']}/{supervision['workers']}, "
            f"{supervision['restarts']} restart(s)"
            + (f", deaths: {deaths}" if deaths else ""))
        if scenario.get("recovery_s") is not None:
            lines.append(
                f"    recovered in {scenario['recovery_s']:.2f}s")
        if supervision["quarantined"]:
            lines.append(
                f"    quarantined: "
                f"{', '.join(supervision['quarantined'])}")
        load = scenario.get("load")
        if load:
            lines.append(
                f"    load: {load['completed']}/{load['offered']} "
                f"completed, {sum(load['rejected'].values())} shed, "
                f"{load['failed']} failed, "
                f"{load['silent_drops']} silent drop(s)")
        failed_checks = [name for name, ok in scenario["checks"].items()
                         if not ok]
        if failed_checks:
            lines.append(f"    failed checks: {', '.join(failed_checks)}")
    lines.append(f"overall: {'pass' if document['passed'] else 'FAIL'}")
    return "\n".join(lines)


def check_baseline(
    path: str, tolerance: float = 0.25, repeats: int = 7, warmup: int = 2,
) -> RegressionReport:
    """Re-measure the baseline's configurations and compare medians.

    ``tolerance`` is generous by default (25%) because single-machine
    medians wobble; tighten it on a quiet, pinned CI runner.
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    regressions = []
    improvements = []
    for key, entry in document["entries"].items():
        stats = time_model(
            entry["model"], backend=entry["backend"],
            image_size=entry["image_size"], repeats=repeats, warmup=warmup)
        current_ms = stats.median * 1e3
        finding = RegressionFinding(
            config=key, baseline_ms=entry["median_ms"],
            current_ms=round(current_ms, 4))
        if finding.ratio > 1.0 + tolerance:
            regressions.append(finding)
        elif finding.ratio < 1.0 - tolerance:
            improvements.append(finding)
    return RegressionReport(
        regressions=tuple(regressions),
        improvements=tuple(improvements),
        checked=len(document["entries"]),
        tolerance=tolerance)
