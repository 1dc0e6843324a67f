"""Shared protocol of the benchmark: statistics, host record, result shape.

Every workload module exposes ``run(seed, seconds, tracer, wrap)`` and
returns an :class:`Outcome`. :func:`run_workload` adds the host record,
checks every metric name against ``BENCHMARK.json`` and builds the result
object the command prints last.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from repro.analysis.macs import count_graph
from repro.engine.fingerprint import host_fingerprint
from perfbench.tracing import KERNEL_GROUPS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"

#: Output tolerance against an independent path: |a - b| <= ATOL + RTOL*|b|.
ATOL = 1e-5
RTOL = 1e-3

#: How often each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: ``latency_ms`` of ``edge`` and ``deploy`` is this low percentile of the
#: operation. On a shared host, other tenants slow whole stretches of a
#: run down by varying amounts; the fastest tenth of the operations, run
#: while the host is quiet, moves less from one run to the next than the
#: median does (``edge`` on a shared 2-core host, sets of five to ten
#: runs: spreads of 0.05-0.07 against 0.09-0.16). Medians and tails go
#: to the notes.
FAST_PERCENTILE = 10

#: ``rate_per_s`` of ``edge`` and ``serve`` is this percentile of the rates
#: over short blocks of completions, for the same reason.
RATE_PERCENTILE = 95

MB = 1e6


@dataclasses.dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = dataclasses.field(default_factory=dict)
    per_layer: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)


# -- statistics -----------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: p90 of 100 samples leaves 10 above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def block_rates(times: Sequence[float], block: int) -> list[float]:
    """Completions per second over consecutive blocks of ``block`` of them.

    ``times`` are completion times; the first one only opens the first
    block. Blocks are short (a fraction of a second), so the fast ones
    show what the program completes while the host is quiet. Too few
    times for one block make one shorter block.
    """
    ordered = sorted(times)
    block = min(block, len(ordered) - 1)
    return [block / (ordered[i + block] - ordered[i])
            for i in range(0, len(ordered) - block, block)
            if ordered[i + block] > ordered[i]]


def fast_rate(rates: Sequence[float]) -> float:
    """``rate_per_s`` from block rates: their :data:`RATE_PERCENTILE`."""
    return percentile(rates, RATE_PERCENTILE)


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def close(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=RTOL, atol=ATOL))


def timed_setups(build: Callable[[], object],
                 teardown: Callable[[object], None]) -> tuple[float, object]:
    """Run ``build`` SETUP_REPEATS times; keep the last, return the median."""
    seconds = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        started = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), state


def peak_alloc_bytes(call: Callable[[], object], repeats: int = 1) -> int:
    """Least ``tracemalloc`` peak over ``repeats`` untimed calls of ``call``.

    ``tracemalloc`` counts every thread and every allocation made on the
    way, so a one-off (a buffer made lazily, another thread's work) can
    raise one pass; the least of several passes is the call's own peak.
    """
    import tracemalloc

    peaks = []
    tracemalloc.start()
    try:
        for _ in range(repeats):
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return min(peaks)


# -- per-layer kernel metrics -------------------------------------------------


def kernel_metrics(tracer: Tracer, key: str, graph,
                   sgemm_gflops: float) -> dict[str, float]:
    """Kernel and glue time per inference of ``key`` from its traced runs.

    Reads the ``runtime.run`` spans of ``key`` and their kernel children.
    """
    children = tracer.children()
    runs = tracer.spans("runtime.run", key)
    per_group: dict[str, list[float]] = {g: [] for g in KERNEL_GROUPS}
    calls = 0
    for span in runs:
        kids = children.get(span.id, [])
        calls = len(kids)
        for group in KERNEL_GROUPS:
            per_group[group].append(sum(
                k.seconds for k in kids if k.name == f"kernel.{group}"))
    metrics = {f"kernels.{g}_ms.{key}": statistics.median(v) * 1e3
               for g, v in per_group.items() if v}
    conv_macs = sum(cost.macs for cost in count_graph(graph).per_node
                    if cost.op_type in ("Conv", "QLinearConv"))
    conv_s = (metrics[f"kernels.conv_ms.{key}"]
              + metrics[f"kernels.dwconv_ms.{key}"]) / 1e3
    gflops = 2 * conv_macs / conv_s / 1e9 if conv_s > 0 else 0.0
    metrics[f"kernels.conv_gflops.{key}"] = gflops
    metrics[f"kernels.conv_peak_frac.{key}"] = gflops / sgemm_gflops
    metrics[f"kernels.calls.{key}"] = float(calls)
    metrics[f"runtime.glue_ms.{key}"] = statistics.median(
        tracer.self_seconds("runtime.run", key)) * 1e3
    return metrics


# -- host and protocol record ---------------------------------------------------


def sgemm_gflops(repeats: int = 7) -> float:
    """Same-run calibration probe: float32 512x1152 @ 1152x1024 matmul."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 1152), dtype=np.float32)
    b = rng.standard_normal((1152, 1024), dtype=np.float32)
    np.matmul(a, b)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        np.matmul(a, b)
        times.append(time.perf_counter() - started)
    return 2 * 512 * 1152 * 1024 / statistics.median(times) / 1e9


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, when numpy ships a readable OpenBLAS."""
    libs = glob.glob(os.path.join(
        os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code when git is absent."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def host_record(probe_gflops: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "fingerprint": host_fingerprint(),
        "sgemm_gflops": round(probe_gflops, 3),
    }


# -- result -------------------------------------------------------------------------


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text())


def metric_block(values: dict[str, float], declared: list[dict],
                 fill_missing: bool) -> dict[str, dict]:
    """Values by name with the unit ``BENCHMARK.json`` declares.

    A name the spec does not declare is a bug in the benchmark. A declared
    per-layer metric the workload does not touch reads 0 (its layer was
    bypassed); a declared end-to-end metric may never be missing.
    """
    units = {entry["name"]: entry["unit"] for entry in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not fill_missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 wrap: Callable | None = None, write: bool = True) -> dict:
    """Run one workload and return the result object the command prints."""
    workload = importlib.import_module(f"perfbench.{name}")
    spec = load_spec()
    probe = sgemm_gflops()
    host = host_record(probe)
    tracer = Tracer() if trace else None
    outcome = workload.run(seed=seed, seconds=seconds, tracer=tracer,
                                wrap=wrap, sgemm=probe)
    if trace:
        layers = dict(outcome.per_layer)
        layers["host.sgemm_gflops"] = probe
        metrics = metric_block(layers, spec["per_layer"], fill_missing=True)
    else:
        metrics = metric_block(outcome.end_to_end, spec["end_to_end"],
                               fill_missing=False)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if write:
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "seconds": seconds,
             "host": host, "notes": outcome.notes, **result}, indent=1))
        if tracer is not None:
            tracer.write(OUT_DIR / f"trace-{stem}.json")
    print("host: " + json.dumps(host))
    for note in outcome.notes:
        print(f"note: {note}")
    for metric, entry in metrics.items():
        if entry["value"] or not trace:   # per-layer zeros: layer bypassed
            print(f"{name:>7} {metric:<40} {entry['value']:>14.4f} "
                  f"{entry['unit']}")
    sys.stdout.flush()
    return result
