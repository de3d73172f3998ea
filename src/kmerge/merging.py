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

from .adapters import PROJECTIONS, LayerKey, LoraAdapter, check_compatible, delta_map, factor_pairs
from .errors import ConfigError, IncompatibleAdapters, InsufficientInputs, ShapeError
from .lowrank import LowRankDelta, batches, stacked

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
    """Zero all but the top k = ceil(density * n) entries by magnitude.

    The cutoff, the k-th largest magnitude, is found by selection
    (``np.partition``, O(n)), not by sorting. Every entry above it is
    kept; ties at the cutoff keep the earliest flattened indices until k
    are kept, which is the set a stable sort by decreasing magnitude
    keeps.
    """
    n = flat.size
    k = math.ceil(density * n)
    if k >= n:
        return flat.copy()
    magnitude = np.abs(flat)
    cutoff = np.partition(magnitude, n - k)[n - k]
    keep = magnitude > cutoff
    short = k - np.count_nonzero(keep)
    keep[np.flatnonzero(magnitude == cutoff)[:short]] = True
    return np.where(keep, flat, 0.0)


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
    ``density`` must be finite and in (0, 1], and every delta finite.
    """
    if not 0.0 < density <= 1.0:
        raise ShapeError("density must be in (0, 1]")
    if len(deltas) < 2:
        raise InsufficientInputs("ties merge needs at least 2 delta sets")
    keys = set(deltas[0])
    if any(set(d) != keys for d in deltas[1:]):
        raise IncompatibleAdapters("delta sets have different layer key-sets")
    layers = {}
    for key in deltas[0]:
        shapes = [np.shape(d[key]) for d in deltas]
        if len(set(shapes)) > 1:
            raise ShapeError(f"layer {key} shapes disagree across delta sets: {shapes}")
        stack = np.stack([np.asarray(d[key], dtype=np.float64).reshape(-1) for d in deltas])
        if not np.isfinite(stack).all():
            raise ShapeError(f"layer {key} has non-finite entries")
        layers[key] = _ties_layer(stack, density).reshape(shapes[0])
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

    Layers of one shape and cache rank ``R`` are served in stacked numpy
    calls, in the batches of :func:`kmerge.lowrank.batches` at
    ``8 (d_out + d_in) (R + target_rank)`` bytes a layer: one layer at
    width 2048, whose factors are then read in place. Each layer's factors
    and residual have the bits of serving that layer alone. The served
    float32 stacks are checked finite once per batch
    (:func:`kmerge.adapters.factor_pairs`), not once per layer, and are
    read-only, as a slot serves one adapter object to every reader.
    """
    if target_rank < 1:
        raise ShapeError("target_rank must be >= 1")
    r = target_rank
    scale_numerator = scaling * r
    # The served adapter's own scaling, which may differ from ``scaling``
    # in the last bit.
    served_scaling = scale_numerator / r
    lows = [low.compressed() for low in cache.values()]
    pairs = [None] * len(lows)
    residuals = np.empty(len(lows))
    for batch in batches([(low.b.shape[0], low.a.shape[1], low.rank_bound, r) for low in lows]):
        group = [lows[i] for i in batch]
        b, a = stacked([low.b for low in group]), stacked([low.a for low in group])
        n, d_out, rank = b.shape
        kept = min(r, rank)
        # The singular values, the squared column norms of b.
        s = np.einsum("nij,nij->nj", b, b)
        total, tail = np.sum(s**2, axis=1), np.sum(s[:, r:] ** 2, axis=1)
        residuals[batch] = np.sqrt(np.divide(tail, total, out=np.zeros(n), where=total > 0))
        # Zero-padded to rank r, divided in float64, then cast: the padding
        # of b is 0 / served_scaling, -0.0 for a negative scaling.
        served_b = np.empty((n, d_out, r), np.float32)
        np.divide(b[:, :, :kept], served_scaling, out=served_b[:, :, :kept], casting="unsafe")
        served_b[:, :, kept:] = np.divide(0.0, served_scaling)
        served_a = np.zeros((n, r, a.shape[2]), np.float32)
        served_a[:, :kept] = a[:, :kept]
        served_a.flags.writeable = served_b.flags.writeable = False
        for i, pair in zip(batch, factor_pairs(served_a, served_b)):
            pairs[i] = pair
    adapter = LoraAdapter(
        task_id=task_id,
        problem_type="merged",
        language="merged",
        rank=r,
        scale_numerator=scale_numerator,
        layers=dict(zip(cache, pairs)),
    )
    return RefactorResult(adapter=adapter, residuals=dict(zip(cache, residuals.tolist())))
