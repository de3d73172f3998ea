"""Adapter similarity, nearest-slot selection, and threshold calibration.

The score for one layer is the cosine between the flattened dense
updates of the two adapters. It is evaluated through the r x r Gram
matrices of the low-rank factors, which is algebraically identical to
flattening the dense products and never materializes them.

One kernel compares one adapter against many: :func:`similarities`; the
other functions here call it. It checks each pair through
:func:`kmerge.adapters.check_compatible`, then walks the first adapter's
layers in batches of same-shape layers (shapes from its geometry),
converts that adapter's stacked factors to scaled float64 once per batch
and each other adapter's once, and gets the per-layer inner products as
batched Gram products. Batches come from :func:`kmerge.lowrank.batches`,
the fold's rule: at most ``FOLD_BATCH_BYTES`` of working set and at least
one layer. That is one layer at width 2048 and rank 32, where stacking
every layer would build a fresh 32 MiB stack per factor and adapter, and
all layers of a shape at smaller widths.

What a score needs of one adapter alone is its :class:`Profile`, computed
once: its batch plan, its float32 factor stacks per batch and each
layer's squared norm, which the profile's first score computes from the
float64 stacks it converts anyway, so one score converts each adapter
once per batch. Every function here takes adapters or profiles and
builds a profile for an adapter that needs one. The engine keeps a slot's
profile in its ``SlotState`` and the simulation one per arrival, so a
slot's stacks and norms are computed at its first score, not at every
score; nothing is cached on an adapter. A profile other than the first
adapter's is used only where its plan equals the first's (the same key
order and batches); otherwise that adapter is stacked in the first's
batches and its norms computed there, per call. A profile keeps no
float64 copies: those would triple the memory of every adapter a store
or suite holds. Its stacks are views of the adapter's factors where a
batch is one layer, and float32 copies where small layers share a batch.

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


class Profile:
    """What scoring needs of one adapter alone, computed once (module
    docstring): ``batches``, the positions of the adapter's layer keys
    batched by :func:`kmerge.lowrank.batches` over its geometry and rank;
    ``plan``, the keys and those batches as tuples, which two profiles
    share exactly when their stacks line up; ``stacks``, per batch the
    float32 factor stacks ``(b, a)`` (views of a one-layer batch's factors,
    :func:`kmerge.lowrank.stacked`); and ``norms``, each layer's squared
    norm ``<scaling B A, scaling B A>`` in key order, or ``None`` until the
    first score that reads the profile's own stacks computes them from the
    float64 stacks it converts for its inner products."""

    __slots__ = ("adapter", "batches", "plan", "stacks", "norms")

    def __init__(self, adapter: LoraAdapter):
        keys = list(adapter.geometry)
        shapes = [(d_out, d_in, adapter.rank) for d_out, d_in in adapter.geometry.values()]
        self.adapter = adapter
        self.batches = list(lowrank.batches(shapes))
        self.plan = (tuple(keys), tuple(tuple(batch.tolist()) for batch in self.batches))
        self.stacks = []
        for batch in self.batches:
            pairs = [adapter.layers[keys[i]] for i in batch]
            self.stacks.append((lowrank.stacked([fp.b for fp in pairs]), lowrank.stacked([fp.a for fp in pairs])))
        self.norms: np.ndarray | None = None


def _adapter(v: LoraAdapter | Profile) -> LoraAdapter:
    return v.adapter if isinstance(v, Profile) else v


def _profile(v: LoraAdapter | Profile) -> Profile:
    return v if isinstance(v, Profile) else Profile(v)


def _cosines(x: Profile, ys: Sequence[LoraAdapter | Profile]) -> np.ndarray:
    """Per-layer cosines, one row per adapter in ``ys`` and one column per
    key of ``x``, in order.

    Near-zero-norm updates contribute 0 by convention: a zero adapter
    carries no direction and 0 keeps averages and argmax well-defined.
    Ranks may differ; the callers have checked that every adapter in ``ys``
    has ``x``'s geometry, from which the batches' shapes come. A ``y``
    profile of ``x``'s plan gives its stacks; any other ``y`` is stacked in
    ``x``'s batches. Each adapter's float64 stacks are converted once per
    batch, and give its norms too unless its profile holds them; a profile
    keeps the norms computed from its own stacks.
    """
    keys = x.plan[0]
    inner = np.empty((len(ys), len(keys)))
    ny = np.empty_like(inner)
    planned = [isinstance(y, Profile) and y.plan == x.plan for y in ys]
    normed = [planned[i] and y.norms is not None for i, y in enumerate(ys)]
    for i, y in enumerate(ys):
        if normed[i]:
            ny[i] = y.norms
    nx = np.empty(len(keys)) if x.norms is None else x.norms
    for j, batch in enumerate(x.batches):
        bx, ax = lowrank.scaled_float64(*x.stacks[j], x.adapter.scaling)
        if x.norms is None:
            nx[batch] = _inner(bx, ax, bx, ax)
        for i, y in enumerate(ys):
            if planned[i]:
                by, ay = lowrank.scaled_float64(*y.stacks[j], y.adapter.scaling)
            else:
                adapter = _adapter(y)
                by, ay = lowrank.scaled_stacks([adapter.layers[keys[k]] for k in batch], adapter.scaling)
            if not normed[i]:
                ny[i, batch] = _inner(by, ay, by, ay)
            inner[i, batch] = _inner(bx, ax, by, ay)
            del by, ay  # free this stack before the next adapter's is built
    # Kept only once every batch is done, so a score that raises keeps none.
    x.norms = nx
    for i, y in enumerate(ys):
        if planned[i] and not normed[i]:
            y.norms = ny[i].copy()
    nx, ny = np.sqrt(np.maximum(0.0, nx)), np.sqrt(np.maximum(0.0, ny))
    live = (nx >= DEGENERATE_NORM) & (ny >= DEGENERATE_NORM)
    cos = np.divide(inner, nx * ny, out=np.zeros_like(inner), where=live)
    return np.clip(cos, -1.0, 1.0)


def similarities(x: LoraAdapter | Profile, others: Sequence[LoraAdapter | Profile]) -> list[float]:
    """``[adapter_similarity(x, y) for y in others]``, in one pass over
    ``x``'s layers: the mean of the per-layer cosines over ``x``'s layer
    keys, in order, and exactly 1.0 for ``x``'s own adapter. Each of
    ``x`` and ``others`` is an adapter or its :class:`Profile`."""
    adapter = _adapter(x)
    rest = [y for y in others if _adapter(y) is not adapter]
    for y in rest:
        check_compatible(adapter, _adapter(y))
    rows = iter(_cosines(_profile(x), rest) if rest else ())
    return [1.0 if _adapter(y) is adapter else float(np.mean(next(rows))) for y in others]


def adapter_similarity(x: LoraAdapter, y: LoraAdapter) -> float:
    """Mean of the per-layer cosines over all layer keys."""
    return similarities(x, [y])[0]


def most_similar(
    incoming: LoraAdapter | Profile, slots: Mapping[int, LoraAdapter | Profile]
) -> tuple[int, float]:
    """Slot with maximal similarity to ``incoming``; adapters or profiles.

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


def similarity_matrix(adapters: Sequence[LoraAdapter | Profile]) -> SimilarityMatrix:
    """All pairwise scores; symmetric with unit diagonal. Each adapter's
    profile is built once, for every row it appears in."""
    if len(adapters) < 2:
        raise InsufficientInputs("similarity matrix needs at least 2 adapters")
    profiles = [_profile(a) for a in adapters]
    n = len(profiles)
    values = np.ones((n, n))
    for i in range(n):
        values[i, i + 1:] = values[i + 1:, i] = similarities(profiles[i], profiles[i + 1:])
    return SimilarityMatrix([p.adapter.task_id for p in profiles], values)


def calibrate_threshold(held_out: Sequence[LoraAdapter | Profile]) -> float:
    """Median of all pairwise similarities over a held-out adapter set: the
    upper triangle of :func:`similarity_matrix`.

    Even pair counts average the two middle values.
    """
    if len(held_out) < 2:
        raise InsufficientInputs("threshold calibration needs at least 2 adapters")
    values = similarity_matrix(held_out).values
    return float(np.median(values[np.triu_indices(len(held_out), 1)]))
