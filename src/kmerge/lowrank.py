"""Exact low-rank representation of dense update matrices.

A ``LowRankDelta`` holds float64 factors ``b`` (d_out x r) and ``a``
(r x d_in) whose product is the represented matrix. Folding and
truncation work on the factors without ever forming the dense product,
which keeps large-geometry stores affordable.

Canonical form is a balanced thin SVD: ``b = U sqrt(S)`` and
``a = sqrt(S) V^T`` with orthonormal ``U`` and ``V``, ``S`` descending and
singular values at or below ``REL_TOL * s_0`` dropped. Because the form is
balanced, ``S`` is the squared column norms of ``b``. ``from_dense``,
``compressed``, ``canonical_batch`` and ``fold_layers`` return canonical
deltas and mark them so; ``compressed`` on a canonical delta is free.
``canonical_batch``, which canonicalises a stack of deltas (a new slot's
cache, ``kmerge.engine.slot_cache``) and is ``compressed`` for one, is the
only place that QR-factorises a whole factor. Slot caches are kept in
this form: ``fold_layers`` adds an update to one by projecting it onto
the current basis (Brand, "Fast low-rank modifications of the thin
singular value decomposition", 2006), so only the incoming factors' d x r
residuals are factorised. Each residual is factorised through its small QR
factor ``R``: the SVD of ``R`` gives the residual's singular values and
right vectors, and its Householder ``Q`` is never formed (:func:`_split`).
The best rank-r approximation is a slice of the cache, which
``kmerge.merging.refactor`` serves (``svd_truncate`` is that slice for one
delta).

``fold_layers`` folds all projections of a merge in one call. At the
paper's geometry (width 64, rank 4) a projection's fold is a few dozen
numpy calls on tiny matrices, so per-call overhead, not arithmetic, sets
its cost. Layers whose cache and incoming factors have equal shapes are
therefore stacked, and each step (the Gram-Schmidt passes, the residual
QRs and their R-SVDs, the core SVD, the rotate-back) runs as one stacked
numpy call per batch. A batch holds as many layers as fit
``FOLD_BATCH_BYTES`` of working set, ``8 (d_out + d_in) (R + r)`` bytes
per layer for cache rank ``R`` and incoming rank ``r``, and at least one.
Larger stacks leave the cache and were slower at width 2048, where one
layer alone exceeds the budget and each batch is the one-layer fold.
Layers of a batch that keep different numbers of residual or core
directions finish in sub-batches of equal counts. :func:`batches` is this
grouping and budget for every stacked pass over layers: the fold,
``kmerge.merging.refactor``, ``kmerge.similarity`` and a new slot's cache.
A batch of one layer reads that layer's factors in place
(:func:`stacked`), so at width 2048 batching adds no copy.

Stacked numpy ``matmul``, ``qr`` and ``svd`` give every slice the bits of
the same call on that matrix alone, provided each slice has that matrix's
memory layout: BLAS rounds differently for a transposed operand. The batch
keeps the one-layer layouts (``u = b / root`` C-ordered, ``v = a.T /
root`` F-ordered, stored as its C-ordered transpose), so a layer's result
does not depend on which layers share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # kmerge.adapters imports this module
    from .adapters import FactorPair

REL_TOL = 1e-14  # canonical form drops singular values at or below REL_TOL * s_0
NOISE_TOL = 1e-13  # fold drops residual directions at or below NOISE_TOL * |incoming factor|
# Working-set budget of one batched fold pass, sized to stay in a core's L2 cache:
# 8 (d_out + d_in) (R + r) bytes per layer, for cache rank R and incoming rank r.
FOLD_BATCH_BYTES = 1 << 20


def _kept(s: np.ndarray):
    """How many of the descending singular values ``s`` canonical form keeps,
    per row of a stack."""
    return np.count_nonzero(s > s[..., :1] * REL_TOL, axis=-1)


@dataclass
class LowRankDelta:
    b: np.ndarray  # d_out x r, float64
    a: np.ndarray  # r x d_in, float64
    canonical: bool = False  # factors are in the canonical form (module docstring)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.b.shape[0], self.a.shape[1])

    @property
    def rank_bound(self) -> int:
        return self.b.shape[1]

    @classmethod
    def from_dense(cls, delta: np.ndarray) -> "LowRankDelta":
        u, s, vt = np.linalg.svd(np.asarray(delta, dtype=np.float64), full_matrices=False)
        r = int(_kept(s))
        root = np.sqrt(s[:r])
        return cls(b=u[:, :r] * root, a=root[:, None] * vt[:r], canonical=True)

    @classmethod
    def combine(
        cls, items: Sequence["LowRankDelta"], coeffs: Sequence[float]
    ) -> "LowRankDelta":
        """Exact linear combination sum(c_i * item_i) by factor concatenation."""
        bs = [item.b * c for item, c in zip(items, coeffs)]
        return cls(b=np.hstack(bs), a=np.vstack([item.a for item in items]))

    def materialize(self) -> np.ndarray:
        return self.b @ self.a

    def singular_values(self) -> np.ndarray:
        """Nonzero singular values, descending: in canonical form, the squared
        column norms of ``b``."""
        b = self.compressed().b
        return np.einsum("ij,ij->j", b, b)

    def compressed(self) -> "LowRankDelta":
        """Canonical form of this delta; ``self`` when it already is
        canonical; :func:`canonical_batch` for one layer."""
        if self.canonical:
            return self
        if self.rank_bound == 0:
            return LowRankDelta(b=self.b, a=self.a, canonical=True)
        return canonical_batch(self.b[None], self.a[None])[0]

    def svd_truncate(self, rank: int) -> tuple["LowRankDelta", np.ndarray]:
        """Best rank-``rank`` approximation and all singular values.

        The approximation is the leading ``rank`` columns of ``b`` and rows
        of ``a`` of the canonical form, zero-padded to exactly ``rank``.
        """
        low = self.compressed()
        r = min(rank, low.rank_bound)
        b = np.zeros((self.shape[0], rank))
        a = np.zeros((rank, self.shape[1]))
        b[:, :r] = low.b[:, :r]
        a[:r] = low.a[:r]
        return LowRankDelta(b=b, a=a), low.singular_values()


def fold_layers(
    alpha: float,
    beta: float,
    caches: Sequence[LowRankDelta],
    incoming: Sequence[FactorPair | LowRankDelta],
    scaling: float = 1.0,
) -> list[LowRankDelta]:
    """Canonical ``alpha * cache + beta * scaling * other`` for each pair of
    ``caches`` and ``incoming``, exact to working precision.

    Each incoming factor pair is projected onto its cache's singular bases
    and only its d x r residuals are factorised (see :func:`_split`). The
    SVD of the small core ``alpha S (+) beta [P; K_b][Q; K_a]^T`` is then
    rotated back into the extended bases. Caches are canonicalised first.
    Layers of one geometry are folded together in batches of stacked numpy
    calls (module docstring); every result is bit-identical to folding its
    layer alone.
    """
    caches = [cache.compressed() for cache in caches]
    folded = [None] * len(caches)
    shapes = [
        (cache.b.shape[0], cache.a.shape[1], cache.rank_bound, other.b.shape[1])
        for cache, other in zip(caches, incoming, strict=True)
    ]
    for batch in batches(shapes):
        results = _fold_batch(
            alpha, beta, [caches[i] for i in batch], [incoming[i] for i in batch], scaling
        )
        for i, low in zip(batch, results):
            folded[i] = low
    return folded


def canonical_batch(b: np.ndarray, a: np.ndarray) -> list["LowRankDelta"]:
    """The canonical form of each delta of a stack: ``b`` is (n, d_out, R)
    and ``a`` is (n, R, d_in), ``R >= 1``. The factors are QR-factorised and
    the core ``r_b r_a^T`` is SVD-factorised in stacked calls, with the
    layouts of one delta alone (``a`` transposed), so each result has the
    bits of canonicalising its delta alone. Deltas that keep different
    numbers of singular values finish in sub-batches of equal counts."""
    n = len(b)
    qb, rb = np.linalg.qr(b)
    qa, ra = np.linalg.qr(a.transpose(0, 2, 1))
    u, s, vt = np.linalg.svd(rb @ ra.transpose(0, 2, 1))
    results = [None] * n
    for k, group in _positions(_kept(s).tolist()).items():
        g = _view(group, n)
        root = np.sqrt(s[g][:, :k])
        low_b = (qb[g] @ u[g][:, :, :k]) * root[:, None, :]
        low_a = root[:, :, None] * (vt[g][:, :k] @ qa[g].transpose(0, 2, 1))
        for i, fb, fa in zip(group, low_b, low_a):
            results[i] = LowRankDelta(b=fb, a=fa, canonical=True)
    return results


def scaled_stacks(
    pairs: Sequence[FactorPair | LowRankDelta], scaling: float
) -> tuple[np.ndarray, np.ndarray]:
    """The float64 factors of same-shape ``pairs``, stacked by
    :func:`scaled_float64`. Each slice is the delta ``scaling * b @ a`` of
    its pair in float64."""
    return scaled_float64([fp.b for fp in pairs], [fp.a for fp in pairs], scaling)


def scaled_float64(b, a, scaling: float) -> tuple[np.ndarray, np.ndarray]:
    """C-ordered float64 copies of the factor stacks ``b`` (n, d_out, r) and
    ``a`` (n, r, d_in), each an array or a list of same-shape arrays, ``b``
    then scaled by ``scaling``. The one conversion rule of similarity, a new
    slot's cache and the fold."""
    b = np.array(b, dtype=np.float64, order="C")
    a = np.array(a, dtype=np.float64, order="C")
    b *= scaling
    return b, a


def batches(shapes: Sequence[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """The positions of ``shapes``, grouped by equal value, each group cut
    into batches of at most ``FOLD_BATCH_BYTES`` of working set and at least
    one position. A value ``(d_out, d_in, r_1, r_2, ...)`` describes a layer
    whose stacked float64 factors of ranks ``r_1, r_2, ...`` hold
    ``8 (d_out + d_in) (r_1 + r_2 + ...)`` bytes, counted as at least 1
    (a 0 x 0 layer holds none). Groups come in order of their first
    position, and positions ascend within each."""
    for (d_out, d_in, *ranks), members in _positions(shapes).items():
        size = max(1, FOLD_BATCH_BYTES // max(1, 8 * (d_out + d_in) * sum(ranks)))
        for start in range(0, len(members), size):
            yield members[start : start + size]


def _fold_batch(alpha, beta, caches, incoming, scaling) -> list[LowRankDelta]:
    """:func:`fold_layers` for one batch of layers whose factors have equal
    shapes. ``u``, ``vt`` (``v`` transposed), ``in_b`` and ``in_a`` are
    C-ordered stacks, so each slice has the layout the one-layer fold gave
    its matrix: ``u = b / root`` C-ordered and ``v = a.T / root`` F-ordered.
    The rotate-back reaches each side's residual directions ``q`` through
    the residual itself (:func:`_split`), so no d x r ``q`` is formed."""
    n = len(caches)
    cache_b, cache_a = stacked([c.b for c in caches]), stacked([c.a for c in caches])
    # The singular values, the squared column norms of b.
    s = np.einsum("nij,nij->nj", cache_b, cache_b)
    root = np.sqrt(s)
    u, vt = cache_b / root[:, None, :], cache_a / root[:, :, None]
    in_b, in_a = scaled_stacks(incoming, scaling)
    coords_b, resid_b, sig_b, z_b, kept_b = _split(u, in_b, _norms(in_b))
    v, block_a = vt.transpose(0, 2, 1), in_a.transpose(0, 2, 1)
    coords_a, resid_a, sig_a, z_a, kept_a = _split(v, block_a, _norms(in_a))
    r = s.shape[1]
    diag = np.arange(r)
    results = [None] * n
    # Layers keep different numbers of residual and core directions, so the
    # core and the rotate-back run once per sub-batch of equal counts.
    for (nb, na), group in _positions(zip(kept_b.tolist(), kept_a.tolist())).items():
        g = _view(group, n)
        left = np.concatenate([coords_b[g], sig_b[g][:, :nb, None] * z_b[g][:, :nb]], axis=1)
        right = np.concatenate([coords_a[g], sig_a[g][:, :na, None] * z_a[g][:, :na]], axis=1)
        core = left @ right.transpose(0, 2, 1)
        core *= beta
        core[:, diag, diag] += alpha * s[g]
        w, sig, zt = np.linalg.svd(core, full_matrices=False)
        for k, sub in _positions(_kept(sig).tolist()).items():
            at = group[sub]
            in_group, in_batch = _view(sub, len(group)), _view(at, n)
            root_k = np.sqrt(sig[in_group][:, :k])
            # The new singular vectors, scaled by sqrt(sig), as coefficients
            # on the extended bases [u, q_b] and [v, q_a]. As q_b = resid_b
            # z_b^T / sig_b (q_a likewise), the coefficients on q_b pass
            # through z_b^T / sig_b and then multiply the residual.
            left = w[in_group][:, :, :k] * root_k[:, None, :]
            right = zt[in_group][:, :k] * root_k[:, :, None]
            z_b_t = z_b[in_batch][:, :nb].transpose(0, 2, 1)
            on_b = z_b_t @ (left[:, r:] / sig_b[in_batch][:, :nb, None])
            b = u[in_batch] @ left[:, :r] + resid_b[in_batch] @ on_b
            on_a = (right[:, :, r:] / sig_a[in_batch][:, None, :na]) @ z_a[in_batch][:, :na]
            a = right[:, :, :r] @ vt[in_batch] + on_a @ resid_a[in_batch].transpose(0, 2, 1)
            for j, low_b, low_a in zip(at, b, a):
                results[j] = LowRankDelta(b=low_b, a=low_a, canonical=True)
    return results


def stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``arrays``, of one shape, stacked on a new first axis; a view of the
    one array when there is only one, so a batch of one layer (one at width
    2048) reads it in place. ``np.array`` stacks a list in one C call, where
    ``np.stack`` pays a Python step per array."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _positions(values) -> dict:
    """The positions of each distinct value in ``values``, ascending."""
    positions: dict = {}
    for i, value in enumerate(values):
        positions.setdefault(value, []).append(i)
    return {value: np.array(where) for value, where in positions.items()}


def _view(index: np.ndarray, n: int):
    """``index`` into a stack of ``n``; ``slice(None)``, a view rather than a
    copy, when it selects every slice."""
    return slice(None) if len(index) == n else index


def _norms(stack: np.ndarray) -> np.ndarray:
    """Each slice's Frobenius norm as ``np.linalg.norm`` computes it: the
    square root of the dot product of its entries in memory order."""
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt((flat @ flat.transpose(0, 2, 1))[:, 0, 0])


def _split(basis: np.ndarray, block: np.ndarray, norm: np.ndarray):
    """Split each ``block`` (d x r) of a stack over the orthonormal columns of
    its ``basis``; ``norm`` holds each block's Frobenius norm.

    Returns ``(coords, resid, sig, z, kept)`` with, per layer, ``block =
    basis coords + resid`` and ``resid = q (sig[:, None] * z)``, a thin SVD
    of the residual whose first ``kept`` directions are kept. Classical
    Gram-Schmidt with one re-orthogonalisation pass, then ``sig`` and ``z``
    from an SVD of the residual's ``min(d, r) x r`` QR factor ``R`` (Chan's
    R-SVD), which reveals rank as an SVD of the residual does; for ``d >=
    11 r / 6`` it is the QR and R-SVD that LAPACK's ``gesdd`` runs on the
    residual, so ``sig`` and ``z`` are the same. ``q`` is never formed: the
    fold reaches the kept directions as ``q[:, :kept] = resid z[:kept]^T /
    sig[:kept]``. Residual directions at or below ``NOISE_TOL * norm``, as
    when ``block`` lies in span(basis) or ``basis`` spans the whole space,
    are not kept: they are noise, not orthogonal to ``basis``. A kept
    direction with singular value ``sigma`` is orthogonal to ``basis``, and
    orthonormal with the other kept directions, to about ``eps * |block| /
    sigma``.
    """
    basis_t = basis.transpose(0, 2, 1)
    coords = basis_t @ block
    resid = basis @ coords
    np.subtract(block, resid, out=resid)
    again = basis_t @ resid
    coords += again
    resid -= basis @ again
    _, sig, z = np.linalg.svd(np.linalg.qr(resid, mode="r"), full_matrices=False)
    kept = np.count_nonzero(sig > NOISE_TOL * norm[:, None], axis=1)
    return coords, resid, sig, z, kept
