"""Adapter similarity, nearest-slot selection, and threshold calibration.

The score for one layer is the cosine between the flattened dense
updates of the two adapters. It is evaluated through the r x r Gram
matrices of the low-rank factors, which is algebraically identical to
flattening the dense products and never materializes them.

One kernel compares one adapter against many: :func:`similarities`; the
other functions here call it. It checks each pair through
:func:`kmerge.adapters.check_compatible`, then walks the first adapter's
layers in batches of consecutive same-shape layers, stacks that adapter's
scaled float64 factors once per batch and each other adapter's once, and
gets the per-layer inner products as batched Gram products; each layer's
norm comes from the same stacks, so every adapter is stacked once per batch
and nothing is cached on it. A batch holds at most the fold's working-set
budget, ``kmerge.lowrank.FOLD_BATCH_BYTES``, and at least one layer: one
layer at width 2048 and rank 32, where a whole run would build a fresh
32 MiB stack per factor and adapter, and the whole run at smaller widths.
Stacked products give each layer the bits of that layer alone, so the
batching never changes a score. The cosine of one layer is the score of
two one-layer adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import lowrank
from .adapters import LayerKey, LoraAdapter, check_compatible
from .errors import EmptyStore, InsufficientInputs

DEGENERATE_NORM = 1e-12


def _batches(adapter: LoraAdapter, keys: Sequence[LayerKey]) -> Iterator[list[LayerKey]]:
    """``keys`` in order, split into runs of consecutive layers of one shape
    in ``adapter``, and each run into batches whose stacked float64 factors,
    ``8 (d_out + d_in) r`` bytes a layer, fit the fold's budget
    ``lowrank.FOLD_BATCH_BYTES``; at least one layer a batch."""
    def shape(key: LayerKey) -> tuple[int, int]:
        return adapter.layers[key].d_out, adapter.layers[key].d_in

    for (d_out, d_in), run in groupby(keys, key=shape):
        run = list(run)
        size = max(1, lowrank.FOLD_BATCH_BYTES // (8 * (d_out + d_in) * adapter.rank))
        for start in range(0, len(run), size):
            yield run[start : start + size]


def _stacked(adapter: LoraAdapter, keys: Sequence[LayerKey]) -> tuple[np.ndarray, np.ndarray]:
    """The scaled float64 factors of same-shape layers ``keys``, stacked:
    ``b`` is (n, d_out, r) and ``a`` is (n, r, d_in)."""
    first = adapter.layers[keys[0]]
    b = np.empty((len(keys), first.d_out, first.rank))
    a = np.empty((len(keys), first.rank, first.d_in))
    for i, key in enumerate(keys):
        fp = adapter.layers[key]
        b[i], a[i] = fp.b, fp.a
    b *= adapter.scaling
    return b, a


def _inner(bx: np.ndarray, ax: np.ndarray, by: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Per-layer Frobenius inner products <bx ax, by ay> of stacked factors,
    via the batched r x r Gram matrices."""
    gram = (bx.transpose(0, 2, 1) @ by) * (ax @ ay.transpose(0, 2, 1))
    return gram.reshape(len(gram), -1).sum(axis=1)


def _cosines(x: LoraAdapter, ys: Sequence[LoraAdapter], keys: list[LayerKey]) -> np.ndarray:
    """Per-layer cosines, one row per adapter in ``ys`` and one column per key.

    Near-zero-norm updates contribute 0 by convention: a zero adapter
    carries no direction and 0 keeps averages and argmax well-defined.
    Ranks may differ; the callers have checked that every adapter in ``ys``
    has ``x``'s shape at each key.
    """
    inner = np.empty((len(ys), len(keys)))
    ny = np.empty_like(inner)
    nx = np.empty(len(keys))
    start = 0
    for batch in _batches(x, keys):
        stop = start + len(batch)
        bx, ax = _stacked(x, batch)
        nx[start:stop] = _inner(bx, ax, bx, ax)
        for i, y in enumerate(ys):
            by, ay = _stacked(y, batch)
            inner[i, start:stop] = _inner(bx, ax, by, ay)
            ny[i, start:stop] = _inner(by, ay, by, ay)
            del by, ay  # free this stack before the next adapter's is built
        start = stop
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
    rows = iter(_cosines(x, rest, list(x.layers)) if rest else ())
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


def pairwise_similarities(adapters: Sequence[LoraAdapter]) -> np.ndarray:
    """Upper-triangle pairwise scores as a flat array."""
    return np.array(
        [s for i in range(len(adapters)) for s in similarities(adapters[i], adapters[i + 1:])]
    )


def calibrate_threshold(held_out: Sequence[LoraAdapter]) -> float:
    """Median of all pairwise similarities over a held-out adapter set.

    Even pair counts average the two middle values.
    """
    if len(held_out) < 2:
        raise InsufficientInputs("threshold calibration needs at least 2 adapters")
    return float(np.median(pairwise_similarities(held_out)))
