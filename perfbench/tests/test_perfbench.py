"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``.

Every workload runs end to end at a tiny length, in both modes; every
printed metric name is declared in ``BENCHMARK.json``; a deliberately
wrong output is counted as a failure; a submitter that falls behind its
schedule shows in ``serve.gen_lag_ms``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, serve  # noqa: E402
from perfbench.tracing import Span, Tracer, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
#: Seconds per tiny run: enough for every phase to complete something.
TINY = {"edge": 1.0, "serve": 2.0, "deploy": 1.0}


def tiny(workload: str, trace: bool, wrap=None) -> dict:
    return harness.run_workload(workload, seed=3, seconds=TINY[workload],
                                trace=trace, wrap=wrap, write=False)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = tiny(workload, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload,layers", [
    ("edge", ("kernels.conv_ms.resnet18", "runtime.arena_ratio.resnet18")),
    ("serve", ("serve.exec_ms", "serve.queue_ms", "kernels.calls.wrn-40-2")),
    ("deploy", ("engine.compile_ms.resnet18",
                "quant.calibrate_ms.mobilenet-v1-int8")),
])
def test_traced_run_prints_per_layer_metrics(workload, layers):
    result = tiny(workload, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    for name in layers + ("host.sgemm_gflops",):
        assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_names_are_unique_and_bounded():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) <= 128
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in \
        SPEC["end_to_end"]
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


class Corrupt:
    """Session (or callable) wrapper that spoils one output in ``every``."""

    def __init__(self, inner, every: int = 3) -> None:
        self.inner = inner
        self.every = every
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _spoil(self, outputs):
        self.calls += 1
        if self.calls % self.every:
            return outputs
        if isinstance(outputs, dict):
            return {k: v + 1.0 for k, v in outputs.items()}
        return outputs + 1.0

    def run(self, feeds, deadline_ms=None):
        return self._spoil(self.inner.run(feeds, deadline_ms=deadline_ms))

    def __call__(self, *args):
        return self._spoil(self.inner(*args))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_wrong_output_counts_as_failure(workload):
    result = tiny(workload, trace=False, wrap=Corrupt)
    assert result["failed"] >= 1
    assert not result["correct"]


def test_submitter_behind_schedule_shows_in_gen_lag():
    clock = [0.0]

    def now():
        return clock[0]

    def sleep(seconds):
        clock[0] += seconds

    def slow_submit(index):
        clock[0] += 0.02      # 20 ms per submit against 10 ms mean gaps
        return index

    rng = np.random.default_rng(0)
    on_time = serve.open_loop(lambda i: i, 100.0, 1.0, rng, now, sleep)
    late = serve.open_loop(slow_submit, 100.0, 1.0, rng, now, sleep)
    assert serve.gen_lag_ms(on_time) == pytest.approx(0.0, abs=1e-9)
    assert serve.gen_lag_ms(late) > serve.LAG_LIMIT_MS
    assert len(late) == len(on_time) == 100


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "run", 0.0, 10.0)
    kids = [Span(1, "k", 1.0, 4.0, 0), Span(2, "k", 3.0, 5.0, 0),
            Span(3, "k", 9.0, 12.0, 0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)
    tracer = Tracer()
    run = tracer.add("run", 0.0, 2.0, key="m")
    tracer.add("kernel.conv", 0.5, 1.5, parent=run, key="m")
    assert tracer.self_seconds("run", "m") == [pytest.approx(1.0)]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples, 99) == 99
    assert harness.geomean([2.0, 8.0]) == pytest.approx(4.0)
    # Completions at 0, 1, 2, 4, 5 in blocks of 2: 0 -> 2, then 2 -> 5.
    assert harness.block_rates([0.0, 1.0, 2.0, 4.0, 5.0], 2) == \
        [pytest.approx(1.0), pytest.approx(2 / 3)]
    # Too few completions for one block of 4: one shorter block.
    assert harness.block_rates([0.0, 0.5], 4) == [pytest.approx(2.0)]
    assert harness.close(np.ones(3), np.ones(3) * (1 + 1e-4))


def test_command_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "edge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
