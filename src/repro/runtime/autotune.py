"""Per-layer kernel autotuning.

Measures every candidate implementation on each layer's actual shapes and
returns per-node overrides naming the winner — the mechanism behind TVM's
AutoTVM (which the TVM framework simulation uses) and, in Orpheus itself,
the "infrastructure to run multiple inference experiments ... evaluating
individual layers" from the paper's contribution list.

Layers with identical signatures (op type, attributes, input shapes) share
one measurement, so tuning a deep network costs one sweep per *unique*
layer shape. With a persistent cache (``cache=``, see
:class:`repro.engine.cache.AutotuneCache`) measurements also survive
across processes: a key digests (op, attributes, input shapes, candidate
set, threads), and the cache file itself is pinned to a host fingerprint,
so a hit is only ever a measurement this machine could have made.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Mapping, Sequence
from typing import Protocol

import numpy as np

from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.kernels.context import ExecutionContext
from repro.kernels.registry import REGISTRY, KernelRegistry
from repro.runtime.profiler import measure
from repro.tensor.dtype import DType


class TuningCache(Protocol):
    """What :func:`autotune` needs from a persistent cache.

    Satisfied by :class:`repro.engine.cache.AutotuneCache`; duck-typed so
    this module does not import :mod:`repro.engine`.
    """

    def get(self, key: str) -> str | None: ...
    def put(self, key: str, winner: str) -> None: ...
    def flush(self) -> int: ...


def _signature(node: Node, shapes: Sequence[tuple[int, ...]]) -> tuple:
    attrs = []
    for key in sorted(node.attrs.keys()):
        value = node.attrs.as_dict()[key]
        if isinstance(value, np.ndarray):
            value = (value.shape, value.tobytes())
        attrs.append((key, value))
    return (node.op_type, tuple(attrs), tuple(shapes))


def cache_key(
    node: Node,
    shapes: Sequence[tuple[int, ...]],
    names: Sequence[str],
    threads: int,
) -> str:
    """Digest one tuning decision's full context into a cache key.

    Everything that can change the winner is in the key: the node's op
    type and attributes (weight payloads included, via their bytes), the
    concrete input shapes, the candidate set being raced, and the thread
    budget. The host is deliberately *not* here — the cache file itself
    is pinned to a host fingerprint, so keys stay short.
    """
    hasher = hashlib.sha256()
    for part in _signature(node, shapes):
        hasher.update(repr(part).encode("utf-8", "backslashreplace"))
        hasher.update(b"\x00")
    hasher.update(repr(tuple(names)).encode("utf-8"))
    hasher.update(repr(int(threads)).encode("ascii"))
    return hasher.hexdigest()[:32]


def _random_inputs(
    node: Node,
    graph: Graph,
    value_types: Mapping[str, tuple[tuple[int, ...], DType]],
    rng: np.random.Generator,
) -> list[np.ndarray]:
    inputs = []
    for name in node.inputs:
        if not name:
            inputs.append(np.empty(0, dtype=np.float32))
            continue
        if name in graph.initializers:
            inputs.append(graph.initializers[name])
            continue
        shape, dtype = value_types[name]
        concrete = tuple(1 if dim == -1 else dim for dim in shape)
        inputs.append(rng.standard_normal(concrete).astype(dtype.np))
    return inputs


def autotune(
    graph: Graph,
    candidates: Mapping[str, Sequence[str]],
    threads: int = 1,
    repeats: int = 2,
    registry: KernelRegistry = REGISTRY,
    seed: int = 0,
    cache: TuningCache | None = None,
) -> dict[str, str]:
    """Pick the fastest implementation per node by measurement.

    Args:
        graph: the (already simplified) graph to tune.
        candidates: op type -> implementation names to race. Ops not listed
            are left to the backend's static policy.
        threads: thread budget used during measurement (match deployment).
        repeats: timed runs per candidate (min is kept).
        registry: kernel registry to resolve names against.
        seed: RNG seed for synthetic activations.
        cache: optional persistent cache
            (:class:`repro.engine.cache.AutotuneCache`). Hits skip the
            measurement entirely; new winners are stored and flushed once
            at the end. A cached winner that is no longer registered,
            applicable, or in the candidate set is re-raced, never trusted.

    Returns:
        ``{node_name: winning_impl_name}`` suitable for
        :meth:`repro.backends.Backend.with_overrides`.
    """
    value_types = infer_shapes(graph)
    ctx = ExecutionContext(threads=threads)
    rng = np.random.default_rng(seed)
    measured: dict[tuple, str] = {}
    overrides: dict[str, str] = {}
    for node in graph.toposort():
        names = candidates.get(node.op_type)
        if not names:
            continue
        shapes = [value_types[name][0] if name else () for name in node.inputs]
        key = _signature(node, shapes)
        winner = measured.get(key)
        if winner is None and cache is not None:
            persisted = cache.get(cache_key(node, shapes, names, threads))
            if persisted is not None and _still_valid(
                    persisted, names, node, shapes, registry):
                winner = persisted
                measured[key] = winner
        if winner is None:
            winner = _race(node, names, shapes, graph, value_types, ctx,
                           rng, repeats, registry)
            if winner is None:
                continue  # no candidate applicable; backend default applies
            measured[key] = winner
            if cache is not None:
                cache.put(cache_key(node, shapes, names, threads), winner)
        overrides[node.name] = winner
    if cache is not None:
        cache.flush()
    return overrides


def _still_valid(
    winner: str,
    names: Sequence[str],
    node: Node,
    shapes: Sequence[tuple[int, ...]],
    registry: KernelRegistry,
) -> bool:
    """Is a persisted winner still a legal choice for this node?"""
    if winner not in names:
        return False
    try:
        impl = registry.get(node.op_type, winner)
    except Exception:
        return False
    return impl.supports(node, shapes)


def _race(
    node: Node,
    names: Sequence[str],
    shapes: Sequence[tuple[int, ...]],
    graph: Graph,
    value_types: Mapping[str, tuple[tuple[int, ...], DType]],
    ctx: ExecutionContext,
    rng: np.random.Generator,
    repeats: int,
    registry: KernelRegistry,
) -> str | None:
    inputs = _random_inputs(node, graph, value_types, rng)
    best_name = None
    best_time = float("inf")
    for name in names:
        try:
            impl = registry.get(node.op_type, name)
        except Exception:
            continue
        if not impl.supports(node, shapes):
            continue
        # The warmup doubles as a correctness smoke test: a candidate that
        # raises here (on warmup OR any timed run) is skipped, not allowed
        # to take the whole tuning sweep down — `supports` is advisory and
        # some kernels only discover incompatibility when they execute.
        try:
            elapsed = min(measure(
                functools.partial(impl.fn, inputs, node, ctx),
                max(repeats, 1), warmup=1))
        except Exception:
            continue
        if elapsed < best_time:
            best_time = elapsed
            best_name = name
    return best_name
