"""Merge operators over dense update (delta) space, plus rank control
for the stored result.

All operators act per (layer, projection) tensor. Merging is defined on
the applied updates, never on the raw factors: factor-wise averaging
does not commute with the product b @ a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adapters import PROJECTIONS, FactorPair, LayerKey, LoraAdapter, check_compatible, delta_map
from .errors import IncompatibleAdapters, InsufficientInputs, ShapeError, UnsupportedMode
from .lowrank import LowRankDelta

DeltaMap = dict[LayerKey, np.ndarray]

OPERATOR_KINDS = ("running_average", "linear", "ties", "dare", "dare_ties")
RANK_MODES = ("svd_truncate", "factor_average")


@dataclass(frozen=True)
class MergeOperator:
    kind: str = "running_average"
    density: float = 0.5
    drop_rate: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ShapeError(f"unknown operator kind {self.kind!r}")
        if not 0.0 < self.density <= 1.0:
            raise ShapeError("density must be in (0, 1]")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ShapeError("drop_rate must be in [0, 1)")


@dataclass(frozen=True)
class RankPolicy:
    mode: str = "svd_truncate"
    target_rank: int = 4

    def __post_init__(self):
        if self.mode not in RANK_MODES:
            raise ShapeError(f"unknown rank mode {self.mode!r}")
        if self.target_rank < 1:
            raise ShapeError("target_rank must be >= 1")


@dataclass
class MergedDelta:
    """Intermediate merge result in delta space; values may be dense
    arrays or :class:`LowRankDelta`."""

    layers: dict[LayerKey, np.ndarray | LowRankDelta]
    merge_count: int = 1

    def dense(self) -> DeltaMap:
        out = {}
        for key, value in self.layers.items():
            out[key] = value.materialize() if isinstance(value, LowRankDelta) else value
        return out


def linear_merge(x: LoraAdapter, y: LoraAdapter, weight: float = 0.5) -> MergedDelta:
    """weight * delta_x + (1 - weight) * delta_y, per layer."""
    if not 0.0 <= weight <= 1.0:
        raise ShapeError("weight must be in [0, 1]")
    check_compatible(x, y)
    dx, dy = delta_map(x), delta_map(y)
    layers = {key: weight * dx[key] + (1.0 - weight) * dy[key] for key in dx}
    return MergedDelta(layers=layers, merge_count=2)


def _trim(flat: np.ndarray, density: float) -> np.ndarray:
    """Zero all but the top ceil(density * n) entries by magnitude.

    Ties at the cutoff keep the earlier flattened index (stable sort).
    """
    n = flat.size
    k = math.ceil(density * n)
    if k >= n:
        return flat.copy()
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:k]
    out[keep] = flat[keep]
    return out


def _ties_layer(stack: np.ndarray, density: float) -> np.ndarray:
    trimmed = np.stack([_trim(row, density) for row in stack])
    sums = trimmed.sum(axis=0)
    elected = np.sign(sums)
    elected[elected == 0] = 1.0
    match = np.sign(trimmed) == elected
    counts = match.sum(axis=0)
    total = np.where(match, trimmed, 0.0).sum(axis=0)
    return np.divide(total, counts, out=np.zeros_like(total), where=counts > 0)


def ties_merge(deltas: Sequence[DeltaMap], density: float = 0.5) -> MergedDelta:
    """Trim, elect per-entry sign, then average sign-matching inputs.

    Entries where no trimmed input matches the elected sign become 0.
    """
    if len(deltas) < 2:
        raise InsufficientInputs("ties merge needs at least 2 delta sets")
    keys = set(deltas[0])
    if any(set(d) != keys for d in deltas[1:]):
        raise IncompatibleAdapters("delta sets have different layer key-sets")
    layers = {}
    for key in deltas[0]:
        shape = deltas[0][key].shape
        stack = np.stack([np.asarray(d[key], dtype=np.float64).reshape(-1) for d in deltas])
        layers[key] = _ties_layer(stack, density).reshape(shape)
    return MergedDelta(layers=layers, merge_count=len(deltas))


def _drop_mask(shape: tuple[int, int], drop_rate: float, seed: int, key: LayerKey) -> np.ndarray:
    # Counter-based RNG keyed by (seed, layer, entry index): results are
    # independent of iteration order and reproducible across runs.
    words = np.array(
        [seed % 2**64, (key.layer * len(PROJECTIONS) + PROJECTIONS.index(key.proj)) % 2**64],
        dtype=np.uint64,
    )
    gen = np.random.Generator(np.random.Philox(key=words))
    return gen.random(shape[0] * shape[1]).reshape(shape) >= drop_rate


def dare_preprocess(delta: DeltaMap, drop_rate: float, seed: int) -> DeltaMap:
    """Zero each entry with probability ``drop_rate`` and rescale survivors
    by 1 / (1 - drop_rate). ``drop_rate`` 0 is the identity bit-exactly."""
    if not 0.0 <= drop_rate < 1.0:
        raise ShapeError("drop_rate must be in [0, 1)")
    if drop_rate == 0.0:
        return {key: value.copy() for key, value in delta.items()}
    out = {}
    for key, value in delta.items():
        mask = _drop_mask(value.shape, drop_rate, seed, key)
        out[key] = np.where(mask, value / (1.0 - drop_rate), 0.0)
    return out


def _input_seed(base_seed: int, index: int) -> int:
    return (base_seed * 2654435761 + index * 40503) % 2**63


def dare_merge(x: LoraAdapter, y: LoraAdapter, config: MergeOperator) -> MergedDelta:
    """Sum of the drop-and-rescaled deltas with unary weights."""
    check_compatible(x, y)
    pre = [
        dare_preprocess(delta_map(adapter), config.drop_rate, _input_seed(config.rng_seed, i))
        for i, adapter in enumerate((x, y))
    ]
    layers = {key: pre[0][key] + pre[1][key] for key in pre[0]}
    return MergedDelta(layers=layers, merge_count=2)


def dare_ties_merge(x: LoraAdapter, y: LoraAdapter, config: MergeOperator) -> MergedDelta:
    """TIES applied to the drop-and-rescaled deltas."""
    check_compatible(x, y)
    pre = [
        dare_preprocess(delta_map(adapter), config.drop_rate, _input_seed(config.rng_seed, i))
        for i, adapter in enumerate((x, y))
    ]
    return ties_merge(pre, config.density)


def _as_lowrank(value: np.ndarray | LowRankDelta) -> LowRankDelta:
    if isinstance(value, LowRankDelta):
        return value
    return LowRankDelta.from_dense(value)


@dataclass
class RefactorResult:
    adapter: LoraAdapter
    residuals: dict[LayerKey, float]


def refactor(
    merged: MergedDelta,
    policy: RankPolicy,
    task_id: str,
    problem_type: str = "merged",
    language: str = "merged",
    scale_numerator: float | None = None,
) -> RefactorResult:
    """Convert a delta-space merge result back to stored factor form.

    ``svd_truncate`` stores the best rank-r approximation per layer and
    reports the relative Frobenius truncation residual (0 for a zero
    layer). Each layer is brought to canonical thin-SVD form (dense
    arrays by ``LowRankDelta.from_dense``, other deltas by
    ``compressed()``, which leaves canonical ones such as the engine's
    slot caches as they are); the stored factors are then its leading r
    columns of ``b`` and rows of ``a``. ``factor_average`` has no meaning
    for delta-space input and is rejected; it is applied directly on
    factor pairs by the policy engine.
    """
    if policy.mode != "svd_truncate":
        raise UnsupportedMode(
            f"rank mode {policy.mode!r} cannot refactor a delta-space result"
        )
    r = policy.target_rank
    if scale_numerator is None:
        scale_numerator = float(r)  # unit applied scaling
    scaling = scale_numerator / r
    layers: dict[LayerKey, FactorPair] = {}
    residuals: dict[LayerKey, float] = {}
    for key, value in merged.layers.items():
        low = _as_lowrank(value)
        truncated, singvals = low.svd_truncate(r)
        total = float(np.sum(singvals**2))
        tail = float(np.sum(singvals[r:] ** 2))
        residuals[key] = math.sqrt(max(0.0, tail) / total) if total > 0 else 0.0
        layers[key] = FactorPair(
            a=(truncated.a).astype(np.float32),
            b=(truncated.b / scaling).astype(np.float32),
        )
    adapter = LoraAdapter(
        task_id=task_id,
        problem_type=problem_type,
        language=language,
        rank=r,
        scale_numerator=scale_numerator,
        layers=layers,
    )
    return RefactorResult(adapter=adapter, residuals=residuals)


def factor_average(x: LoraAdapter, y: LoraAdapter, task_id: str) -> LoraAdapter:
    """Cheap factor-wise mean of two equal-rank adapters.

    This is an approximation: the materialized update of the result is
    not the mean of the inputs' updates. Offered for ablation only.
    """
    check_compatible(x, y)
    if x.rank != y.rank:
        raise UnsupportedMode("factor averaging requires equal ranks")
    if x.scale_numerator != y.scale_numerator:
        raise UnsupportedMode("factor averaging requires equal scaling")
    layers = {
        key: FactorPair(
            a=(x.layers[key].a + y.layers[key].a) / 2,
            b=(x.layers[key].b + y.layers[key].b) / 2,
        )
        for key in x.layers
    }
    return LoraAdapter(
        task_id=task_id,
        problem_type="merged",
        language="merged",
        rank=x.rank,
        scale_numerator=x.scale_numerator,
        layers=layers,
    )
