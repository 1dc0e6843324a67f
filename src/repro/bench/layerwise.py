"""Per-layer experiments: racing kernel implementations on single layers.

The paper's contribution list includes "infrastructure to run multiple
inference experiments, evaluating full networks, and individual layers".
This module is the individual-layer half: race every applicable
implementation of an operator over a set of layer shapes and report the
grid — the data behind the conv-algorithm ablation benchmarks.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np

from repro.bench.reporting import format_csv, format_table
from repro.ir.node import Node
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY
from repro.runtime.profiler import measure


@dataclasses.dataclass(frozen=True)
class ConvCase:
    """One convolution layer shape to race implementations on."""

    label: str
    input_shape: tuple[int, int, int, int]       # NCHW
    weight_shape: tuple[int, int, int, int]      # OIHW
    stride: int = 1
    pad: int | None = None                       # None: "same"-ish (k//2)
    group: int = 1

    def node(self) -> Node:
        kh, kw = self.weight_shape[2], self.weight_shape[3]
        pad = self.pad if self.pad is not None else kh // 2
        return Node("Conv", ["x", "w"], ["y"], {
            "kernel_shape": (kh, kw),
            "strides": (self.stride, self.stride),
            "pads": (pad, pad, pad, pad),
            "dilations": (1, 1),
            "group": self.group,
        }, name=self.label)


#: Layer shapes spanning the paper's five models, small to large.
STANDARD_CONV_CASES: tuple[ConvCase, ...] = (
    ConvCase("wrn-stage1 3x3", (1, 32, 32, 32), (32, 32, 3, 3)),
    ConvCase("wrn-stage2 3x3", (1, 64, 16, 16), (64, 64, 3, 3)),
    ConvCase("wrn-stage3 3x3", (1, 128, 8, 8), (128, 128, 3, 3)),
    ConvCase("mobilenet pw 1x1", (1, 128, 56, 56), (128, 128, 1, 1), pad=0),
    ConvCase("mobilenet dw 3x3", (1, 256, 28, 28), (256, 1, 3, 3), group=256),
    ConvCase("resnet stem 7x7/2", (1, 3, 224, 224), (64, 3, 7, 7), stride=2),
    ConvCase("resnet18 3x3 mid", (1, 128, 28, 28), (128, 128, 3, 3)),
    ConvCase("resnet50 1x1 wide", (1, 256, 56, 56), (64, 256, 1, 1), pad=0),
    ConvCase("resnet50 3x3 deep", (1, 512, 7, 7), (512, 512, 3, 3)),
    ConvCase("inception 5x5", (1, 48, 35, 35), (64, 48, 5, 5)),
)


@dataclasses.dataclass
class LayerRaceResult:
    """Times (seconds) per implementation for each case; None = inapplicable."""

    cases: tuple[ConvCase, ...]
    impls: tuple[str, ...]
    times: dict[tuple[str, str], float | None]  # (case label, impl) -> seconds

    def best_impl(self, case_label: str) -> str | None:
        timed = [
            (impl, t) for (label, impl), t in self.times.items()
            if label == case_label and t is not None
        ]
        return min(timed, key=lambda item: item[1])[0] if timed else None

    def rows(self) -> list[list[object]]:
        table = []
        for case in self.cases:
            row: list[object] = [case.label]
            for impl in self.impls:
                seconds = self.times.get((case.label, impl))
                row.append(None if seconds is None else seconds * 1e3)
            row.append(self.best_impl(case.label) or "-")
            table.append(row)
        return table

    def headers(self) -> list[str]:
        return ["layer", *[f"{impl} (ms)" for impl in self.impls], "best"]

    def table(self) -> str:
        return format_table(
            self.headers(), self.rows(),
            title="Per-layer convolution algorithm race",
            float_format="{:.3f}")

    def csv(self) -> str:
        return format_csv(self.headers(), self.rows())


def race_conv_impls(
    cases: Sequence[ConvCase] = STANDARD_CONV_CASES,
    impls: Sequence[str] = ("im2col", "direct", "spatial_pack", "winograd",
                            "direct_dw"),
    repeats: int = 5,
    threads: int = 1,
    seed: int = 0,
) -> LayerRaceResult:
    """Race convolution implementations over ``cases``."""
    rng = np.random.default_rng(seed)
    times: dict[tuple[str, str], float | None] = {}
    for case in cases:
        node = case.node()
        x = rng.standard_normal(case.input_shape).astype(np.float32)
        w = rng.standard_normal(case.weight_shape).astype(np.float32)
        shapes = [case.input_shape, case.weight_shape]
        for impl_name in impls:
            impl = REGISTRY.get("Conv", impl_name)
            if not impl.supports(node, shapes):
                times[(case.label, impl_name)] = None
                continue
            ctx = ExecutionContext(threads=threads)
            # One warmup call also fills the weight caches; min is kept.
            times[(case.label, impl_name)] = min(measure(
                functools.partial(impl.fn, [x, w], node, ctx),
                repeats, warmup=1))
    return LayerRaceResult(
        cases=tuple(cases), impls=tuple(impls), times=times)
