"""Framework adapter interface.

The paper's evaluation compares Orpheus against TF-Lite, PyTorch, DarkNet
and TVM on the same models. We cannot ship those frameworks (and the paper's
own HiKey 970 numbers are not reproducible without the board), so each
comparator is *simulated*: an adapter that runs the same model through this
runtime but configured with the algorithmic choices and limitations the
paper attributes to that framework (see DESIGN.md, "Substitutions").

Adapters share one interface so the benchmark harness can iterate them
uniformly; unavailability (DarkNet's missing models, TF-Lite's thread
pinning) is expressed by raising
:class:`~repro.errors.FrameworkUnavailableError` — exactly the situations
the paper reports as exclusions from Figure 2.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import FrameworkUnavailableError
from repro.models import zoo
from repro.runtime.profiler import SampleStats


class FrameworkAdapter(abc.ABC):
    """One framework under evaluation."""

    #: registry key, e.g. ``"tvm"``
    name: str = ""
    #: label used in tables, e.g. ``"TVM (sim)"``
    display_name: str = ""

    @abc.abstractmethod
    def prepare(self, model_name: str, batch: int = 1,
                image_size: int | None = None, threads: int = 1) -> "PreparedModel":
        """Load + ready a zoo model for repeated inference.

        Raises:
            FrameworkUnavailableError: the framework cannot run this
                workload (missing model, unsupported thread count, ...).
        """

    def measure(
        self,
        model_name: str,
        batch: int = 1,
        image_size: int | None = None,
        threads: int = 1,
        repeats: int = 3,
        warmup: int = 1,
        seed: int = 0,
    ) -> "Measurement":
        """Median-of-``repeats`` inference time for one model."""
        prepared = self.prepare(
            model_name, batch=batch, image_size=image_size, threads=threads)
        shape = zoo.input_shape(model_name, batch=batch)
        if image_size is not None:
            shape = (shape[0], shape[1], image_size, image_size)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(np.float32)
        times = prepared.time(x, repeats=repeats, warmup=warmup)
        return Measurement(
            framework=self.name, model=model_name, times=tuple(times))


class PreparedModel(abc.ABC):
    """A model readied by an adapter, exposing timed execution."""

    @abc.abstractmethod
    def run(self, x: np.ndarray) -> np.ndarray:
        """Single inference; returns the output tensor."""

    @abc.abstractmethod
    def time(self, x: np.ndarray, repeats: int, warmup: int) -> list[float]:
        """Wall-clock seconds per run."""


class Measurement(SampleStats):
    """Timing result for one (framework, model) cell of Figure 2."""

    def __init__(self, framework: str, model: str, times: tuple[float, ...]) -> None:
        if not times:
            raise ValueError("a measurement needs at least one sample")
        self.framework = framework
        self.model = model
        self.times = times

    def __repr__(self) -> str:
        return (f"Measurement({self.framework}/{self.model}: "
                f"{self.median * 1e3:.1f} ms median of {len(self.times)})")


_ADAPTERS: dict[str, FrameworkAdapter] = {}


def register_adapter(adapter: FrameworkAdapter) -> FrameworkAdapter:
    if adapter.name in _ADAPTERS:
        raise FrameworkUnavailableError(
            f"adapter {adapter.name!r} already registered")
    _ADAPTERS[adapter.name] = adapter
    return adapter


def get_adapter(name: str) -> FrameworkAdapter:
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise FrameworkUnavailableError(
            f"unknown framework {name!r}; registered: {sorted(_ADAPTERS)}"
        ) from None


def list_adapters() -> list[FrameworkAdapter]:
    return [_ADAPTERS[name] for name in sorted(_ADAPTERS)]
