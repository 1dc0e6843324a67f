"""`InferenceSession`: the framework's front door.

    >>> from repro import InferenceSession, models
    >>> graph = models.build("resnet18")
    >>> sess = InferenceSession(graph, backend="orpheus", threads=1)
    >>> logits = sess.run({"input": image})["output"]

A session owns a prepared executor: the graph is validated, optionally
simplified by the pass pipeline, shapes are inferred, kernels are selected,
and the memory plan is fixed. Running is then pure data movement.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.backend import Backend, get_backend
from repro.config import RuntimeConfig, get_default_config
from repro.errors import EngineError, EngineFallbackWarning, MemoryBudgetError
from repro.ir.graph import Graph
from repro.runtime.executor import Executor, RobustnessReport

if TYPE_CHECKING:
    from repro.engine.format import Engine
from repro.runtime.faults import FaultPlan
from repro.runtime.memory_planner import MemoryPlan
from repro.runtime.profiler import (
    ProfileResult,
    collate,
    measure,
    validate_protocol,
)
from repro.tensor.tensor import Tensor

Feed = Mapping[str, "np.ndarray | Tensor"]


@dataclasses.dataclass(frozen=True)
class MemoryAdmission:
    """Outcome of the memory-budget admission check at prepare time."""

    budget_bytes: int | None   # None = no budget configured
    required_bytes: int        # peak resident activation bytes of the plan
    mode: str                  # "reject" | "degrade"
    degraded: bool             # memory planning was forced on to fit

    @property
    def bounded(self) -> bool:
        return self.budget_bytes is not None


class InferenceSession:
    """A prepared, executable model.

    Thread model: a session is owned by one thread. ``run`` mutates
    per-session state (the fallback ledger, the fault plan's RNG, the
    kernel layout cache), so concurrent ``run`` calls on *one* session are
    not supported — a serving pool gives each worker thread its own
    session instead (see :class:`repro.serve.SessionPool`, whose sessions
    share the weights through a common engine graph). The read-only
    surfaces — :meth:`robustness_report`, the plan/kernel introspection
    properties — are safe to call from other threads while a run is in
    flight.
    """

    def __init__(
        self,
        graph: Graph,
        backend: str | Backend = "orpheus",
        threads: int | None = None,
        optimize: bool | None = None,
        config: RuntimeConfig | None = None,
        check_numerics: bool | None = None,
        kernel_fallback: bool | None = None,
        fault_plan: FaultPlan | None = None,
        deadline_ms: float | None = None,
        node_timeout_ms: float | None = None,
        memory_budget_bytes: int | None = None,
        budget_mode: str | None = None,
        engine: "str | os.PathLike[str] | Engine | None" = None,
    ) -> None:
        """Prepare ``graph`` for execution.

        Args:
            graph: the model; not mutated (the session optimises a copy).
            backend: backend name or instance selecting kernel implementations.
            threads: overrides the config's thread budget.
            optimize: overrides whether the simplification pipeline runs.
            config: base runtime configuration (defaults to the process-wide
                default).
            check_numerics: overrides whether NaN/Inf kernel outputs count
                as failures (and trigger kernel fallback).
            kernel_fallback: overrides whether failing kernels fall back to
                the next applicable implementation.
            fault_plan: installs a deterministic fault-injection plan (see
                :mod:`repro.runtime.faults`).
            deadline_ms: default wall-clock budget per run (overridable per
                call on :meth:`run`/:meth:`time`/:meth:`profile`).
            node_timeout_ms: soft per-node timeout (see
                :class:`~repro.config.RuntimeConfig`).
            memory_budget_bytes: admission-control budget — a model whose
                memory plan cannot fit is rejected here, at prepare time,
                with :class:`~repro.errors.MemoryBudgetError`.
            budget_mode: ``"reject"`` or ``"degrade"`` (try the
                arena-friendly schedule before rejecting).
            engine: best-effort warm start — a compiled engine file (or
                parsed :class:`~repro.engine.format.Engine`) to load
                *instead of* preparing, if and only if it is intact and
                its fingerprint matches this host, this config, and
                ``graph``. Any problem with the engine — corrupt file,
                version/host/config mismatch, different source graph,
                unregistered kernels — emits a structured
                :class:`~repro.errors.EngineFallbackWarning` and falls
                back to a normal cold prepare. Use
                :meth:`from_engine` when a fallback should be an error.

        Raises:
            MemoryBudgetError: the memory plan's peak resident bytes exceed
                ``memory_budget_bytes`` and ``budget_mode`` offers no
                acceptable degradation. Raised before anything executes.
                (Admission control runs on the *engine's* plan too — a
                warm start never bypasses the PR 3 guardrails.)
        """
        base = config or get_default_config()
        if threads is not None:
            base = base.replace(threads=threads)
        if optimize is not None:
            base = base.replace(optimize=optimize)
        if check_numerics is not None:
            base = base.replace(check_numerics=check_numerics)
        if kernel_fallback is not None:
            base = base.replace(kernel_fallback=kernel_fallback)
        if fault_plan is not None:
            base = base.replace(fault_plan=fault_plan)
        if deadline_ms is not None:
            base = base.replace(deadline_ms=deadline_ms)
        if node_timeout_ms is not None:
            base = base.replace(node_timeout_ms=node_timeout_ms)
        if memory_budget_bytes is not None:
            base = base.replace(memory_budget_bytes=memory_budget_bytes)
        if budget_mode is not None:
            base = base.replace(budget_mode=budget_mode)
        if isinstance(backend, str):
            backend = get_backend(backend)
        base = base.replace(backend=backend.name)
        self.config = base
        self.backend = backend
        self.loaded_engine: "Engine | None" = None
        self.quantization: "dict[str, int] | None" = None
        if engine is not None:
            from repro.engine.fingerprint import graph_digest
            try:
                self._warm_prepare(engine, expected_digest=graph_digest(graph))
            except EngineError as exc:
                warnings.warn(
                    EngineFallbackWarning(_engine_source(engine), str(exc)),
                    stacklevel=2)
            else:
                self.memory_admission = self._admit()
                return
        working = graph.copy()
        if base.optimize:
            # Imported lazily: passes import ops/kernels, which import ir.
            from repro.passes import default_pipeline
            working = default_pipeline().run(working)
        if backend.quantize:
            from repro.quant.auto import auto_quantize
            working, report = auto_quantize(working)
            self.quantization = report.as_dict()
        self.graph = working
        self._executor = Executor(working, backend, base)
        self.memory_admission = self._admit()

    def _warm_prepare(
        self,
        engine: "str | os.PathLike[str] | Engine",
        expected_digest: str | None,
    ) -> None:
        """Load an engine and bind it as this session's executor.

        Requires ``self.config`` / ``self.backend`` to be set. Raises
        :class:`~repro.errors.EngineError` on any corruption, staleness,
        or mismatch — callers decide whether that is fatal
        (:meth:`from_engine`) or a fallback (``engine=`` hint).
        """
        from repro.engine.fingerprint import fingerprint_mismatch
        from repro.engine.format import Engine as EngineType
        from repro.engine.format import load_engine
        from repro.engine.loader import resolve_prepared
        loaded = (engine if isinstance(engine, EngineType)
                  else load_engine(engine))
        reason = fingerprint_mismatch(
            loaded.fingerprint, self.backend, self.config.threads,
            self.config.optimize, source_digest=expected_digest)
        if reason is not None:
            raise EngineError(reason)
        prepared = resolve_prepared(loaded, self.backend)
        self.graph = loaded.graph
        self._executor = Executor(
            loaded.graph, self.backend, self.config, prepared=prepared)
        self.loaded_engine = loaded
        # The engine's graph is already quantized (scales and int8 weights
        # frozen at compile time); surface the stored report so warm and
        # cold sessions are indistinguishable to callers.
        self.quantization = (None if loaded.quantization is None
                             else dict(loaded.quantization))

    @classmethod
    def from_engine(
        cls,
        source: "str | os.PathLike[str] | Engine",
        backend: str | Backend | None = None,
        threads: int | None = None,
        config: RuntimeConfig | None = None,
        check_numerics: bool | None = None,
        kernel_fallback: bool | None = None,
        fault_plan: FaultPlan | None = None,
        deadline_ms: float | None = None,
        node_timeout_ms: float | None = None,
        memory_budget_bytes: int | None = None,
        budget_mode: str | None = None,
    ) -> "InferenceSession":
        """Strict warm start: a session from a compiled engine, or an error.

        The engine supplies the graph *and* the prepare-time knobs it was
        compiled with (backend, threads, optimize); ``backend``/``threads``
        may be passed only to assert expectations — a disagreement with
        the fingerprint is an :class:`~repro.errors.EngineError`, never a
        silent re-prepare. Run-time knobs (numerics, fallback, fault
        plans, deadlines, memory budgets) are free to differ, and the
        memory-budget admission check runs exactly as it would on a cold
        prepare.

        Raises:
            EngineError: unreadable/corrupt/stale file, fingerprint
                mismatch, or frozen kernels that no longer resolve.
            MemoryBudgetError: the engine's plan does not fit
                ``memory_budget_bytes``.
        """
        from repro.engine.format import Engine as EngineType
        from repro.engine.format import load_engine
        loaded = (source if isinstance(source, EngineType)
                  else load_engine(source))
        fingerprint = loaded.fingerprint
        if threads is None:
            try:
                threads = int(fingerprint["threads"])
            except (KeyError, TypeError, ValueError):
                raise EngineError(
                    "engine fingerprint has no usable thread count") from None
        backend_name = fingerprint.get("backend")
        if backend is None:
            if not isinstance(backend_name, str):
                raise EngineError(
                    "engine fingerprint has no usable backend name")
            backend = backend_name
        if isinstance(backend, str):
            backend = get_backend(backend)
        base = config or get_default_config()
        base = base.replace(
            threads=threads,
            optimize=bool(fingerprint.get("optimize", base.optimize)),
            backend=backend.name)
        if check_numerics is not None:
            base = base.replace(check_numerics=check_numerics)
        if kernel_fallback is not None:
            base = base.replace(kernel_fallback=kernel_fallback)
        if fault_plan is not None:
            base = base.replace(fault_plan=fault_plan)
        if deadline_ms is not None:
            base = base.replace(deadline_ms=deadline_ms)
        if node_timeout_ms is not None:
            base = base.replace(node_timeout_ms=node_timeout_ms)
        if memory_budget_bytes is not None:
            base = base.replace(memory_budget_bytes=memory_budget_bytes)
        if budget_mode is not None:
            base = base.replace(budget_mode=budget_mode)
        session = cls.__new__(cls)
        session.config = base
        session.backend = backend
        session.loaded_engine = None
        session._warm_prepare(loaded, expected_digest=None)
        session.memory_admission = session._admit()
        return session

    def _admit(self) -> MemoryAdmission:
        """Memory-budget admission control, run once at prepare time.

        Over-budget sessions are rejected before a single kernel runs; in
        ``"degrade"`` mode the arena-friendly schedule (memory planning on,
        dead values dropped at last use) is tried first, and only a model
        that cannot fit even then is rejected.
        """
        config = self.config
        budget = config.memory_budget_bytes
        plan = self._executor.plan
        required = plan.required_bytes(config.memory_planning)
        if budget is None or required <= budget:
            return MemoryAdmission(
                budget_bytes=budget, required_bytes=required,
                mode=config.budget_mode, degraded=False)
        if config.budget_mode == "degrade" and not config.memory_planning:
            planned = plan.required_bytes(memory_planning=True)
            if planned <= budget:
                degraded = config.replace(memory_planning=True)
                self.config = degraded
                self._executor.config = degraded
                return MemoryAdmission(
                    budget_bytes=budget, required_bytes=planned,
                    mode=config.budget_mode, degraded=True)
            required = planned
        raise MemoryBudgetError(
            f"model needs {required} bytes of peak resident activations, "
            f"over the budget of {budget} bytes "
            f"(mode={config.budget_mode!r}, weights {plan.weight_bytes} "
            f"bytes, arena {plan.arena_bytes} bytes)",
            required_bytes=required, budget_bytes=budget)

    # -- metadata ----------------------------------------------------------------

    @property
    def input_names(self) -> list[str]:
        return self.graph.input_names

    @property
    def output_names(self) -> list[str]:
        return self.graph.output_names

    @property
    def memory_plan(self) -> MemoryPlan:
        return self._executor.plan

    def kernel_plan(self) -> dict[str, str]:
        """Which implementation was selected for every node."""
        return self._executor.kernel_plan()

    def fallback_plan(self) -> dict[str, tuple[str, ...]]:
        """The full ordered kernel chain bound to every node."""
        return self._executor.fallback_plan()

    def robustness_report(self) -> RobustnessReport:
        """Fallbacks taken, numeric violations, and injected faults so far."""
        return self._executor.robustness_report()

    def reset_robustness(self) -> None:
        """Clear the fallback log and re-arm the fault plan (if any)."""
        self._executor.reset_robustness()

    # -- execution ------------------------------------------------------------------

    def run(self, feeds: Feed,
            deadline_ms: float | None = None) -> dict[str, np.ndarray]:
        """Execute once; returns ``{output_name: array}``.

        ``deadline_ms`` overrides the config's per-run wall-clock budget
        for this call; expiry raises
        :class:`~repro.errors.DeadlineExceededError` with the partial
        per-layer timeline attached.
        """
        outputs, _ = self._executor.run(
            self._unwrap(feeds), deadline_ms=deadline_ms)
        return outputs

    def run_tensors(self, feeds: Feed) -> dict[str, Tensor]:
        """Like :meth:`run` but returns :class:`~repro.tensor.Tensor`s."""
        return {
            name: Tensor(array, name=name)
            for name, array in self.run(feeds).items()
        }

    def time(
        self, feeds: Feed, repeats: int = 10, warmup: int = 2,
        deadline_ms: float | None = None,
    ) -> list[float]:
        """End-to-end wall times (seconds) for ``repeats`` runs after warmup.

        ``deadline_ms`` bounds each individual run (warmup included);
        expiry raises :class:`~repro.errors.DeadlineExceededError`.

        Raises:
            ValueError: ``repeats < 1`` or ``warmup < 0`` (caught up front
                rather than surfacing later as an opaque ``statistics``
                error on an empty sample list).
        """
        raw = self._unwrap(feeds)
        return measure(
            lambda: self._executor.run(raw, deadline_ms=deadline_ms),
            repeats, warmup)

    def profile(
        self, feeds: Feed, repeats: int = 5, warmup: int = 1,
        deadline_ms: float | None = None,
    ) -> ProfileResult:
        """Per-layer timing statistics over ``repeats`` instrumented runs.

        ``deadline_ms`` bounds each individual run; expiry raises
        :class:`~repro.errors.DeadlineExceededError`, whose
        ``partial_timings`` carry the layers measured before the watchdog
        fired.

        Raises:
            ValueError: ``repeats < 1`` or ``warmup < 0``.
        """
        validate_protocol(repeats, warmup)
        raw = self._unwrap(feeds)
        for _ in range(warmup):
            self._executor.run(raw, deadline_ms=deadline_ms)
        runs = []
        for _ in range(repeats):
            _, timings = self._executor.run(
                raw, collect_timings=True, deadline_ms=deadline_ms)
            runs.append(timings)
        return collate(runs)

    # -- internals -----------------------------------------------------------------------

    @staticmethod
    def _unwrap(feeds: Feed) -> dict[str, np.ndarray]:
        return {
            name: value.data if isinstance(value, Tensor) else np.asarray(value)
            for name, value in feeds.items()
        }


def _engine_source(engine: object) -> str:
    """Human-readable origin of an ``engine=`` argument, for warnings."""
    if isinstance(engine, (str, os.PathLike)):
        return os.fspath(engine)
    return f"<{type(engine).__name__}>"
