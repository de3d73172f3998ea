"""Merge operators over dense update (delta) space, and the one served
form of a merged slot: the rank-r slice of its running cache.

All operators act per (layer, projection) tensor. Merging is defined on
the applied updates, never on the raw factors: factor-wise averaging
does not commute with the product b @ a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import PROJECTIONS, FactorPair, LayerKey, LoraAdapter, check_compatible, delta_map
from .errors import ConfigError, IncompatibleAdapters, InsufficientInputs, ShapeError
from .lowrank import LowRankDelta

DeltaMap = dict[LayerKey, np.ndarray]

OPERATOR_KINDS = ("running_average", "linear", "ties", "dare", "dare_ties")


@dataclass(frozen=True)
class MergeOperator:
    kind: str = "running_average"
    density: float = 0.5
    drop_rate: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ConfigError(f"unknown operator kind {self.kind!r}")
        if not 0.0 < self.density <= 1.0:
            raise ConfigError("density must be in (0, 1]")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError("drop_rate must be in [0, 1)")


@dataclass(frozen=True)
class RankPolicy:
    target_rank: int = 4

    def __post_init__(self):
        if self.target_rank < 1:
            raise ConfigError("target_rank must be >= 1")


@dataclass
class MergedDelta:
    """A pairwise operator's output: one dense update per layer."""

    layers: DeltaMap

    def dense(self) -> DeltaMap:
        return self.layers


def linear_merge(x: LoraAdapter, y: LoraAdapter, weight: float = 0.5) -> MergedDelta:
    """weight * delta_x + (1 - weight) * delta_y, per layer."""
    if not 0.0 <= weight <= 1.0:
        raise ShapeError("weight must be in [0, 1]")
    check_compatible(x, y)
    dx, dy = delta_map(x), delta_map(y)
    layers = {key: weight * dx[key] + (1.0 - weight) * dy[key] for key in dx}
    return MergedDelta(layers=layers)


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
    return MergedDelta(layers=layers)


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


def _dare_inputs(x: LoraAdapter, y: LoraAdapter, config: MergeOperator) -> list[DeltaMap]:
    """The drop-and-rescaled deltas of two compatible adapters, each
    dropped with its own seed derived from ``config.rng_seed``."""
    check_compatible(x, y)
    return [
        dare_preprocess(delta_map(adapter), config.drop_rate, _input_seed(config.rng_seed, i))
        for i, adapter in enumerate((x, y))
    ]


def dare_merge(x: LoraAdapter, y: LoraAdapter, config: MergeOperator) -> MergedDelta:
    """Sum of the drop-and-rescaled deltas with unary weights."""
    dx, dy = _dare_inputs(x, y, config)
    return MergedDelta(layers={key: dx[key] + dy[key] for key in dx})


def dare_ties_merge(x: LoraAdapter, y: LoraAdapter, config: MergeOperator) -> MergedDelta:
    """TIES applied to the drop-and-rescaled deltas."""
    return ties_merge(_dare_inputs(x, y, config), config.density)


@dataclass
class RefactorResult:
    adapter: LoraAdapter
    residuals: dict[LayerKey, float]


def refactor(
    cache: dict[LayerKey, LowRankDelta], target_rank: int, task_id: str, scaling: float
) -> RefactorResult:
    """The served adapter of a slot whose running cache is ``cache``.

    Each layer serves the leading ``target_rank`` columns of the cache's
    ``b`` and rows of its ``a``, zero-padded, which is the best
    approximation at that rank; a non-canonical delta is brought to
    canonical thin-SVD form first (``compressed()``, free on canonical
    ones). The adapter has applied scaling ``scaling``. Also reports,
    per layer, the relative Frobenius truncation residual (0 for a zero
    layer).
    """
    if target_rank < 1:
        raise ShapeError("target_rank must be >= 1")
    r = target_rank
    scale_numerator = scaling * r
    layers: dict[LayerKey, FactorPair] = {}
    residuals: dict[LayerKey, float] = {}
    for key, low in cache.items():
        truncated, singvals = low.svd_truncate(r)
        total = float(np.sum(singvals**2))
        tail = float(np.sum(singvals[r:] ** 2))
        residuals[key] = math.sqrt(max(0.0, tail) / total) if total > 0 else 0.0
        layers[key] = FactorPair(
            a=(truncated.a).astype(np.float32),
            # The served adapter's own scaling, which may differ from
            # ``scaling`` in the last bit.
            b=(truncated.b / (scale_numerator / r)).astype(np.float32),
        )
    adapter = LoraAdapter(
        task_id=task_id,
        problem_type="merged",
        language="merged",
        rank=r,
        scale_numerator=scale_numerator,
        layers=layers,
    )
    return RefactorResult(adapter=adapter, residuals=residuals)
