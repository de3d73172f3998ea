"""Pairwise adapter similarity, nearest-slot selection, and threshold
calibration.

The score for one layer is the cosine between the flattened dense
updates of the two adapters. It is evaluated through the r x r Gram
matrices of the low-rank factors, which is algebraically identical to
flattening the dense products and never materializes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .adapters import LayerKey, LoraAdapter, check_compatible
from .errors import EmptyStore, IncompatibleAdapters, InsufficientData, KeyNotFound, ShapeError
from .lowrank import LowRankDelta

DEGENERATE_NORM = 1e-12


def _layer_delta(adapter: LoraAdapter, key: LayerKey) -> LowRankDelta:
    try:
        fp = adapter.layers[key]
    except KeyError:
        raise KeyNotFound(f"adapter {adapter.task_id!r} has no layer {key}") from None
    return LowRankDelta.from_factors(fp, adapter.scaling)


def layer_similarity(x: LoraAdapter, y: LoraAdapter, key: LayerKey) -> float:
    """Cosine of the two flattened dense updates for one layer.

    Near-zero-norm updates contribute 0 by convention: a zero adapter
    carries no direction and 0 keeps averages and argmax well-defined.
    """
    dx = _layer_delta(x, key)
    dy = _layer_delta(y, key)
    if dx.shape != dy.shape:
        raise ShapeError(
            f"layer {key} shapes disagree: {dx.shape} vs {dy.shape}"
        )
    nx = dx.norm()
    ny = dy.norm()
    if nx < DEGENERATE_NORM or ny < DEGENERATE_NORM:
        return 0.0
    return float(np.clip(dx.inner(dy) / (nx * ny), -1.0, 1.0))


def adapter_similarity(x: LoraAdapter, y: LoraAdapter) -> float:
    """Mean of the per-layer cosines over all layer keys."""
    if x is y:
        return 1.0
    check_compatible(x, y)
    return float(np.mean([layer_similarity(x, y, key) for key in x.layers]))


def most_similar(
    incoming: LoraAdapter, slots: Mapping[int, LoraAdapter]
) -> tuple[int, float]:
    """Slot with maximal similarity to ``incoming``.

    Ties break toward the smallest slot key for determinism.
    """
    if not slots:
        raise EmptyStore("cannot select the most similar slot of an empty store")
    best_key, best_score = None, -np.inf
    for slot_key in sorted(slots):
        score = adapter_similarity(incoming, slots[slot_key])
        if score > best_score:
            best_key, best_score = slot_key, score
    return best_key, best_score


@dataclass
class SimilarityMatrix:
    adapter_ids: list[str]
    values: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        lines = [",".join(["id"] + self.adapter_ids)]
        for name, row in zip(self.adapter_ids, self.values):
            lines.append(",".join([name] + [f"{v:.6f}" for v in row]))
        Path(path).write_text("\n".join(lines) + "\n")


def similarity_matrix(adapters: Sequence[LoraAdapter]) -> SimilarityMatrix:
    """All pairwise scores; symmetric with unit diagonal."""
    if len(adapters) < 2:
        raise IncompatibleAdapters("similarity matrix needs at least 2 adapters")
    n = len(adapters)
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = adapter_similarity(adapters[i], adapters[j])
    return SimilarityMatrix([a.task_id for a in adapters], values)


def pairwise_similarities(adapters: Sequence[LoraAdapter]) -> np.ndarray:
    """Upper-triangle pairwise scores as a flat array."""
    scores = []
    for i in range(len(adapters)):
        for j in range(i + 1, len(adapters)):
            scores.append(adapter_similarity(adapters[i], adapters[j]))
    return np.array(scores)


def calibrate_threshold(held_out: Sequence[LoraAdapter]) -> float:
    """Median of all pairwise similarities over a held-out adapter set.

    Even pair counts average the two middle values.
    """
    if len(held_out) < 2:
        raise InsufficientData("threshold calibration needs at least 2 adapters")
    return float(np.median(pairwise_similarities(held_out)))
