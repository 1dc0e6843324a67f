"""The fp32-vs-int8 crossover benchmark behind ``BENCH_quant.json``.

Two row families, measured in one process so fp32 and int8 see the same
machine state:

``steady_state`` — batch-1 latency per zoo model, fp32 (``orpheus``) vs
``int8``, each int8 row carrying the accuracy proxy (max absolute output
error against the fp32 reference on the same input) and the weight-bytes
compression the quantized graph ships. On a single core both paths drive
the same BLAS at FLOP parity, so batch-1 speedups hover around 1x; the
rows are committed honestly rather than cherry-picked.

``budget_scenarios`` — the deployment case quantization actually wins:
batched inference under a memory budget sized between the int8 and fp32
activation plans. Admission control degrades the fp32 session to batch 1
(the label gains ``/degraded-batch-1``) while int8's ~4x-smaller uint8
activations still fit at full batch, so the *per-image* crossover is
structural, not a kernel micro-win. Per-image speedup ratios are
meaningful across machines even though absolute times are not — the same
caveat as ``BENCH_engine_startup.json``.
"""

from __future__ import annotations

import platform
import sys

from repro import __version__
from repro.bench.harness import time_model

#: (model, image_size) steady-state configurations: every zoo model, at
#: sizes small enough that the whole sweep runs in tens of seconds.
STEADY_STATE_CONFIGS: tuple[tuple[str, int | None], ...] = (
    ("squeezenet", 64),
    ("mobilenet-v1", 64),
    ("wrn-40-2", None),
    ("resnet18", 64),
    ("resnet50", 64),
    ("inception-v3", 96),
)

#: (model, image_size, batch, budget_bytes) deployment scenarios. Budgets
#: sit between the int8 and fp32 planned activation footprints (measured:
#: mobilenet-v1@64 b32 plans 12.0 MiB fp32 / 3.0 MiB int8; squeezenet@64
#: 9.8 / 7.0; squeezenet@96 22.1 / 16.5), so fp32 degrades to batch 1 and
#: int8 keeps the batch.
BUDGET_SCENARIOS: tuple[tuple[str, int, int, int], ...] = (
    ("mobilenet-v1", 64, 32, 4 * 2**20),
    ("squeezenet", 64, 32, 8 * 2**20),
    ("squeezenet", 96, 32, 20 * 2**20),
)


def _weight_bytes(model: str, image_size: int | None,
                  backend: str) -> tuple[int, dict[str, int] | None]:
    """Initializer payload of the prepared graph, plus the quant report."""
    from repro.models import zoo
    from repro.runtime.session import InferenceSession

    graph = zoo.build(model, image_size=image_size)
    session = InferenceSession(graph, backend=backend)
    total = sum(array.nbytes
                for array in session.graph.initializers.values())
    return total, session.quantization


def measure_quant_crossover(
    configs=None,
    scenarios=None,
    repeats: int = 7,
    warmup: int = 1,
) -> dict:
    """Run both row families; returns the ``BENCH_quant.json`` document."""
    if configs is None:  # resolved at call time so tests can patch the set
        configs = STEADY_STATE_CONFIGS
    if scenarios is None:
        scenarios = BUDGET_SCENARIOS

    steady = {}
    for model, image_size in configs:
        fp32 = time_model(model, backend="orpheus", image_size=image_size,
                          repeats=repeats, warmup=warmup)
        int8 = time_model(model, backend="int8", image_size=image_size,
                          repeats=repeats, warmup=warmup,
                          accuracy_vs="orpheus")
        fp32_bytes, _ = _weight_bytes(model, image_size, "orpheus")
        int8_bytes, report = _weight_bytes(model, image_size, "int8")
        # Derive the ratio from the rounded fields so the document is
        # internally consistent: speedup == fp32_median_ms / int8_median_ms.
        fp32_ms = round(fp32.median * 1e3, 4)
        int8_ms = round(int8.median * 1e3, 4)
        steady[f"{model}/{image_size or 'full'}"] = {
            "model": model,
            "image_size": image_size,
            "fp32_median_ms": fp32_ms,
            "int8_median_ms": int8_ms,
            "speedup": round(fp32_ms / int8_ms, 4),
            "max_abs_err": float(f"{int8.max_abs_err:.6g}"),
            "fp32_weight_bytes": fp32_bytes,
            "int8_weight_bytes": int8_bytes,
            "quantization": report,
        }

    budget = {}
    for model, image_size, batch, budget_bytes in scenarios:
        fp32 = time_model(
            model, backend="orpheus", image_size=image_size, batch=batch,
            repeats=repeats, warmup=warmup,
            memory_budget_bytes=budget_bytes, budget_mode="degrade")
        int8 = time_model(
            model, backend="int8", image_size=image_size, batch=batch,
            repeats=repeats, warmup=warmup,
            memory_budget_bytes=budget_bytes, budget_mode="degrade",
            accuracy_vs="orpheus")
        fp32_degraded = fp32.label.endswith("/degraded-batch-1")
        int8_degraded = int8.label.endswith("/degraded-batch-1")
        fp32_per_image = fp32.median / (1 if fp32_degraded else batch)
        int8_per_image = int8.median / (1 if int8_degraded else batch)
        key = f"{model}/{image_size}/b{batch}/{budget_bytes // 2**20}MiB"
        budget[key] = {
            "model": model,
            "image_size": image_size,
            "batch": batch,
            "budget_bytes": budget_bytes,
            "fp32_label": fp32.label,
            "int8_label": int8.label,
            "fp32_per_image_ms": round(fp32_per_image * 1e3, 4),
            "int8_per_image_ms": round(int8_per_image * 1e3, 4),
            "per_image_speedup": round(
                round(fp32_per_image * 1e3, 4) / round(int8_per_image * 1e3, 4),
                4),
            "max_abs_err": float(f"{int8.max_abs_err:.6g}"),
        }

    return {
        "version": __version__,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "repeats": repeats,
        "steady_state": steady,
        "budget_scenarios": budget,
    }


def format_quant_bench(document: dict) -> str:
    """The quant-crossover document as an aligned text report."""
    lines = [f"fp32 vs int8 crossover, median of {document['repeats']}:",
             "steady state (batch 1):",
             f"  {'config':22s} {'fp32 (ms)':>10s} {'int8 (ms)':>10s} "
             f"{'speedup':>8s} {'max|err|':>10s} {'weights':>14s}"]
    for key, row in document["steady_state"].items():
        ratio = row["fp32_weight_bytes"] / max(1, row["int8_weight_bytes"])
        lines.append(
            f"  {key:22s} {row['fp32_median_ms']:10.2f} "
            f"{row['int8_median_ms']:10.2f} {row['speedup']:7.2f}x "
            f"{row['max_abs_err']:10.3g} "
            f"{row['int8_weight_bytes'] / 2**20:7.2f} MiB "
            f"({ratio:.1f}x)")
    lines.append("memory-budget deployment (per image):")
    lines.append(
        f"  {'scenario':30s} {'fp32 (ms)':>10s} {'int8 (ms)':>10s} "
        f"{'speedup':>8s}  note")
    for key, row in document["budget_scenarios"].items():
        note = ("fp32 degraded to batch 1"
                if row["fp32_label"].endswith("/degraded-batch-1")
                else "fp32 kept the batch")
        lines.append(
            f"  {key:30s} {row['fp32_per_image_ms']:10.2f} "
            f"{row['int8_per_image_ms']:10.2f} "
            f"{row['per_image_speedup']:7.2f}x  {note}")
    return "\n".join(lines)
