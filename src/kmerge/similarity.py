"""Adapter similarity, nearest-slot selection, and threshold calibration.

The score for one layer is the cosine between the flattened dense
updates of the two adapters. It is evaluated through the r x r Gram
matrices of the low-rank factors, which is algebraically identical to
flattening the dense products and never materializes them.

One kernel compares one adapter against many: :func:`similarities`; the
other functions here call it. It checks each pair through
:func:`kmerge.adapters.check_compatible`, then walks the first adapter's
layers in batches of same-shape layers (shapes from its geometry), stacks
that adapter's scaled float64 factors once per batch and each other
adapter's once (:func:`kmerge.lowrank.scaled_stacks`), and gets the
per-layer inner products as batched Gram products; each layer's norm comes
from the same stacks, so every adapter is stacked once per batch and
nothing is cached on it. Batches come from :func:`kmerge.lowrank.batches`,
the fold's rule: at most ``FOLD_BATCH_BYTES`` of working set and at least
one layer. That is one layer at width 2048 and rank 32, where stacking
every layer would build a fresh 32 MiB stack per factor and adapter, and
all layers of a shape at smaller widths.
Stacked products give each layer the bits of that layer alone, so the
batching never changes a score. The cosine of one layer is the score of
two one-layer adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import lowrank
from .adapters import LoraAdapter, check_compatible
from .errors import EmptyStore, InsufficientInputs

DEGENERATE_NORM = 1e-12


def _inner(bx: np.ndarray, ax: np.ndarray, by: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Per-layer Frobenius inner products <bx ax, by ay> of stacked factors,
    via the batched r x r Gram matrices."""
    gram = (bx.transpose(0, 2, 1) @ by) * (ax @ ay.transpose(0, 2, 1))
    return gram.reshape(len(gram), -1).sum(axis=1)


def _cosines(x: LoraAdapter, ys: Sequence[LoraAdapter]) -> np.ndarray:
    """Per-layer cosines, one row per adapter in ``ys`` and one column per
    key of ``x``, in order.

    Near-zero-norm updates contribute 0 by convention: a zero adapter
    carries no direction and 0 keeps averages and argmax well-defined.
    Ranks may differ; the callers have checked that every adapter in ``ys``
    has ``x``'s geometry, from which the batches' shapes come.
    """
    keys = list(x.geometry)
    inner = np.empty((len(ys), len(keys)))
    ny = np.empty_like(inner)
    nx = np.empty(len(keys))
    shapes = [(d_out, d_in, x.rank) for d_out, d_in in x.geometry.values()]
    for batch in lowrank.batches(shapes):
        batch_keys = [keys[i] for i in batch]
        bx, ax = lowrank.scaled_stacks([x.layers[k] for k in batch_keys], x.scaling)
        nx[batch] = _inner(bx, ax, bx, ax)
        for i, y in enumerate(ys):
            by, ay = lowrank.scaled_stacks([y.layers[k] for k in batch_keys], y.scaling)
            inner[i, batch] = _inner(bx, ax, by, ay)
            ny[i, batch] = _inner(by, ay, by, ay)
            del by, ay  # free this stack before the next adapter's is built
    nx, ny = np.sqrt(np.maximum(0.0, nx)), np.sqrt(np.maximum(0.0, ny))
    live = (nx >= DEGENERATE_NORM) & (ny >= DEGENERATE_NORM)
    cos = np.divide(inner, nx * ny, out=np.zeros_like(inner), where=live)
    return np.clip(cos, -1.0, 1.0)


def similarities(x: LoraAdapter, others: Sequence[LoraAdapter]) -> list[float]:
    """``[adapter_similarity(x, y) for y in others]``, in one pass over
    ``x``'s layers: the mean of the per-layer cosines over ``x``'s layer
    keys, in order, and exactly 1.0 for ``x`` itself."""
    rest = [y for y in others if y is not x]
    for y in rest:
        check_compatible(x, y)
    rows = iter(_cosines(x, rest) if rest else ())
    return [1.0 if y is x else float(np.mean(next(rows))) for y in others]


def adapter_similarity(x: LoraAdapter, y: LoraAdapter) -> float:
    """Mean of the per-layer cosines over all layer keys."""
    return similarities(x, [y])[0]


def most_similar(
    incoming: LoraAdapter, slots: Mapping[int, LoraAdapter]
) -> tuple[int, float]:
    """Slot with maximal similarity to ``incoming``.

    Ties break toward the smallest slot key for determinism.
    """
    if not slots:
        raise EmptyStore("cannot select the most similar slot of an empty store")
    keys = sorted(slots)
    best_key, best_score = None, -np.inf
    for slot_key, score in zip(keys, similarities(incoming, [slots[k] for k in keys])):
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
        raise InsufficientInputs("similarity matrix needs at least 2 adapters")
    n = len(adapters)
    values = np.ones((n, n))
    for i in range(n):
        values[i, i + 1:] = values[i + 1:, i] = similarities(adapters[i], adapters[i + 1:])
    return SimilarityMatrix([a.task_id for a in adapters], values)


def calibrate_threshold(held_out: Sequence[LoraAdapter]) -> float:
    """Median of all pairwise similarities over a held-out adapter set: the
    upper triangle of :func:`similarity_matrix`.

    Even pair counts average the two middle values.
    """
    if len(held_out) < 2:
        raise InsufficientInputs("threshold calibration needs at least 2 adapters")
    values = similarity_matrix(held_out).values
    return float(np.median(values[np.triu_indices(len(held_out), 1)]))
