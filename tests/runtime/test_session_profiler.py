"""InferenceSession, the per-layer profiler, and the measurement primitive."""

import itertools
import types

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import RuntimeConfig, default_config
from repro.runtime import profiler
from repro.runtime.profiler import measure
from repro.runtime.session import InferenceSession
from repro.tensor import Tensor
from tests.conftest import tiny_classifier


@pytest.fixture
def session():
    return InferenceSession(tiny_classifier(), backend="orpheus", threads=1)


@pytest.fixture
def feed(rng):
    return {"input": rng.standard_normal((1, 3, 8, 8)).astype(np.float32)}


class TestSession:
    def test_run_returns_named_outputs(self, session, feed):
        outputs = session.run(feed)
        assert list(outputs) == session.output_names
        assert outputs[session.output_names[0]].shape == (1, 3)

    def test_accepts_tensor_feeds(self, session, rng):
        x = Tensor.random((1, 3, 8, 8), seed=0)
        outputs = session.run_tensors({"input": x})
        assert isinstance(outputs[session.output_names[0]], Tensor)

    def test_optimization_preserves_output_names(self):
        graph = tiny_classifier()
        optimized = InferenceSession(graph, optimize=True)
        plain = InferenceSession(graph, optimize=False)
        assert optimized.output_names == plain.output_names

    def test_optimize_flag_changes_node_count(self):
        graph = tiny_classifier()
        optimized = InferenceSession(graph, optimize=True)
        plain = InferenceSession(graph, optimize=False)
        assert len(optimized.graph.nodes) < len(plain.graph.nodes)

    def test_source_graph_not_mutated(self):
        graph = tiny_classifier()
        count = len(graph.nodes)
        InferenceSession(graph, optimize=True)
        assert len(graph.nodes) == count

    def test_backend_by_instance(self, feed):
        backend = get_backend("direct")
        session = InferenceSession(tiny_classifier(), backend=backend)
        session.run(feed)
        assert session.backend.name == "direct"

    def test_same_results_across_backends(self, feed):
        graph = tiny_classifier(seed=5)
        results = {}
        for name in ("orpheus", "direct", "spatial_pack", "winograd", "fft"):
            results[name] = InferenceSession(graph, backend=name).run(feed)
        base = results["orpheus"]
        for name, outputs in results.items():
            for key in base:
                np.testing.assert_allclose(
                    outputs[key], base[key], rtol=1e-3, atol=1e-5,
                    err_msg=f"backend {name} diverges")

    def test_threads_override(self, feed):
        session = InferenceSession(tiny_classifier(), threads=2)
        assert session.config.threads == 2
        session.run(feed)

    def test_config_object_respected(self, feed):
        config = RuntimeConfig(threads=1, validate_kernels=True)
        session = InferenceSession(tiny_classifier(), config=config)
        session.run(feed)

    def test_default_config_context(self, feed):
        with default_config(optimize=False):
            session = InferenceSession(tiny_classifier())
        assert len(session.graph.nodes) == len(tiny_classifier().nodes)

    def test_time_returns_positive_samples(self, session, feed):
        times = session.time(feed, repeats=3, warmup=1)
        assert len(times) == 3
        assert all(t > 0 for t in times)

    def test_memory_plan_exposed(self, session):
        assert session.memory_plan.peak_bytes > 0


class TestProfiler:
    def test_profile_covers_all_nodes(self, session, feed):
        profile = session.profile(feed, repeats=3)
        assert len(profile.layers) == len(session.graph.nodes)
        assert profile.repeats == 3

    def test_statistics_consistent(self, session, feed):
        profile = session.profile(feed, repeats=5)
        for layer in profile.layers:
            assert layer.best <= layer.median <= max(layer.times)

    def test_by_op_type_sums_to_total(self, session, feed):
        profile = session.profile(feed, repeats=3)
        assert sum(profile.by_op_type().values()) == pytest.approx(
            profile.total_median, rel=1e-9)

    def test_by_impl_keys(self, session, feed):
        profile = session.profile(feed, repeats=2)
        assert any(key.startswith("Conv:") for key in profile.by_impl())

    def test_hottest_sorted_descending(self, session, feed):
        profile = session.profile(feed, repeats=2)
        hottest = profile.hottest(3)
        assert all(a.median >= b.median for a, b in zip(hottest, hottest[1:]))

    def test_table_renders(self, session, feed):
        text = session.profile(feed, repeats=2).table()
        assert "median(ms)" in text
        assert "total" in text

    def test_collate_rejects_mismatched_runs(self, session, feed):
        from repro.runtime.profiler import collate
        _, run1 = session._executor.run(feed, collect_timings=True)
        other = InferenceSession(tiny_classifier(seed=9))
        _, run2 = other._executor.run(feed, collect_timings=True)
        with pytest.raises(ValueError, match="different schedules"):
            collate([run1, run2])

    def test_collate_requires_runs(self):
        from repro.runtime.profiler import collate
        with pytest.raises(ValueError, match="at least one"):
            collate([])


class FakeClock:
    """``perf_counter`` stand-in: the i-th timed call lasts ``samples[i]``.

    Samples cycle and are powers of two, so the differences ``measure``
    takes come back exactly.
    """

    def __init__(self, *samples: float) -> None:
        self.samples = itertools.cycle(samples)
        self.now = 0.0
        self.reads = 0

    def __call__(self) -> float:
        if self.reads % 2:
            self.now += next(self.samples)
        self.reads += 1
        return self.now


@pytest.fixture
def fake_clock(monkeypatch):
    """Install a :class:`FakeClock` as the measurement primitive's clock."""

    def install(*samples: float) -> FakeClock:
        clock = FakeClock(*samples)
        monkeypatch.setattr(
            profiler, "time", types.SimpleNamespace(perf_counter=clock))
        return clock

    return install


class TestMeasure:
    def test_warmup_calls_are_untimed(self, fake_clock):
        clock = fake_clock(0.5)
        reads_at_call = []
        times = measure(lambda: reads_at_call.append(clock.reads),
                        repeats=3, warmup=2)
        assert times == [0.5, 0.5, 0.5]
        assert len(reads_at_call) == 5
        assert reads_at_call[:2] == [0, 0]     # warmup: clock never read
        assert clock.reads == 6                # two reads per timed call

    @pytest.mark.parametrize("repeats, warmup", [(0, 0), (-1, 1), (1, -1)])
    def test_bad_protocol_rejected_before_running(self, repeats, warmup):
        calls = []
        with pytest.raises(ValueError, match="must be >="):
            measure(lambda: calls.append(1), repeats=repeats, warmup=warmup)
        assert calls == []

    def test_session_time_returns_the_primitive_samples(
            self, session, feed, fake_clock):
        fake_clock(0.25, 0.5, 0.125)
        assert session.time(feed, repeats=3, warmup=1) == [0.25, 0.5, 0.125]

    def test_session_model_adds_overhead_to_primitive_samples(
            self, session, rng, fake_clock):
        from repro.frameworks.session_adapter import SessionModel
        model = SessionModel(session, per_run_overhead_s=1.0)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        fake_clock(0.25, 0.5)
        assert model.time(x, repeats=2, warmup=1) == [1.25, 1.5]

    def test_layer_race_keeps_the_min_primitive_sample(self, fake_clock):
        from repro.bench.layerwise import ConvCase, race_conv_impls
        case = ConvCase("tiny 3x3", (1, 4, 8, 8), (4, 4, 3, 3))
        fake_clock(0.5, 0.25, 0.125, 1.0)
        result = race_conv_impls(
            cases=(case,), impls=("im2col", "direct"), repeats=2)
        assert result.times == {
            ("tiny 3x3", "im2col"): 0.25, ("tiny 3x3", "direct"): 0.125}
        assert result.best_impl("tiny 3x3") == "direct"

    @pytest.mark.parametrize("samples, winner", [
        ((1.0, 0.25), "direct"), ((0.25, 1.0), "im2col")])
    def test_autotune_picks_the_fastest_primitive_sample(
            self, fake_clock, samples, winner):
        from repro.passes import default_pipeline
        from repro.runtime.autotune import autotune
        graph = default_pipeline().run(tiny_classifier())
        fake_clock(*samples)
        overrides = autotune(
            graph, {"Conv": ("im2col", "direct")}, repeats=1)
        assert overrides
        assert set(overrides.values()) == {winner}
