"""Exact low-rank representation of dense update matrices.

A ``LowRankDelta`` holds float64 factors ``b`` (d_out x r) and ``a``
(r x d_in) whose product is the represented matrix. Folding and
truncation work on the factors without ever forming the dense product,
which keeps large-geometry stores affordable.

Canonical form is a balanced thin SVD: ``b = U sqrt(S)`` and
``a = sqrt(S) V^T`` with orthonormal ``U`` and ``V``, ``S`` descending and
singular values at or below ``REL_TOL * s_0`` dropped. Because the form is
balanced, ``S`` is the squared column norms of ``b``. ``from_dense``,
``compressed`` and ``fold`` return canonical deltas and mark them so;
``compressed`` on a canonical delta is free, and is the only place that
QR-factorises a whole factor. Slot caches are kept in this form: ``fold``
adds an update to one by projecting it onto the current basis (Brand,
"Fast low-rank modifications of the thin singular value decomposition",
2006), so only the incoming factors' d x r residuals are factorised, and
the best rank-r approximation (``svd_truncate``) is a slice of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import FactorPair

REL_TOL = 1e-14  # canonical form drops singular values at or below REL_TOL * s_0
NOISE_TOL = 1e-13  # fold drops residual directions at or below NOISE_TOL * |incoming factor|


def _kept(s: np.ndarray) -> int:
    """How many of the descending singular values ``s`` canonical form keeps."""
    return int(np.count_nonzero(s > s[0] * REL_TOL)) if s.size and s[0] > 0 else 0


def _split(basis: np.ndarray, block: np.ndarray):
    """Split ``block`` (d x r) over the orthonormal columns of ``basis``.

    Returns ``(coords, q, k)`` with ``block = basis coords + q k`` and ``q``
    orthonormal and orthogonal to ``basis``. Classical Gram-Schmidt with
    one re-orthogonalisation pass, then a thin SVD of the d x r residual
    (rank-revealing, and as fast as a QR there). Residual directions at
    rounding level, as when ``block`` lies in span(basis) or ``basis``
    spans the whole space, are dropped: they are noise, not orthogonal to
    ``basis``. A kept direction with singular value ``sigma`` is orthogonal
    to ``basis`` to about ``eps * |block| / sigma``.
    """
    coords = basis.T @ block
    resid = block - basis @ coords
    again = basis.T @ resid
    coords += again
    resid -= basis @ again
    q, sig, zt = np.linalg.svd(resid, full_matrices=False)
    n = int(np.count_nonzero(sig > NOISE_TOL * np.linalg.norm(block)))
    return coords, q[:, :n], sig[:n, None] * zt[:n]


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
    def from_factors(cls, fp: FactorPair, scaling: float) -> "LowRankDelta":
        return cls(
            b=fp.b.astype(np.float64) * scaling,
            a=fp.a.astype(np.float64),
        )

    @classmethod
    def from_dense(cls, delta: np.ndarray) -> "LowRankDelta":
        u, s, vt = np.linalg.svd(np.asarray(delta, dtype=np.float64), full_matrices=False)
        r = _kept(s)
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
        """Canonical form of this delta; ``self`` when it already is canonical."""
        if self.canonical:
            return self
        if self.rank_bound == 0:
            return LowRankDelta(b=self.b, a=self.a, canonical=True)
        qb, rb = np.linalg.qr(self.b)
        qa, ra = np.linalg.qr(self.a.T)
        u, s, vt = np.linalg.svd(rb @ ra.T)
        r = _kept(s)
        root = np.sqrt(s[:r])
        return LowRankDelta(
            b=(qb @ u[:, :r]) * root, a=root[:, None] * (vt[:r] @ qa.T), canonical=True
        )

    def fold(self, alpha: float, beta: float, other: "LowRankDelta") -> "LowRankDelta":
        """Canonical ``alpha * self + beta * other``, exact to working precision.

        ``other``'s factors are projected onto this delta's singular bases
        and only their d x r residuals are factorised (see ``_split``). The
        SVD of the small core ``alpha S (+) beta [P; K_b][Q; K_a]^T`` is then
        rotated back into the extended bases. ``self`` is canonicalised
        first if it is not canonical already.
        """
        base = self.compressed()
        s = base.singular_values()
        root = np.sqrt(s)
        u, v = base.b / root, base.a.T / root
        coords_b, qb, kb = _split(u, other.b)
        coords_a, qa, ka = _split(v, other.a.T)
        core = beta * (np.vstack([coords_b, kb]) @ np.vstack([coords_a, ka]).T)
        r = s.size
        core[np.arange(r), np.arange(r)] += alpha * s
        w, sig, zt = np.linalg.svd(core, full_matrices=False)
        k = _kept(sig)
        # The new singular vectors, scaled by sqrt(sig), as coefficients on
        # the extended bases [u, qb] and [v, qa].
        left = w[:, :k] * np.sqrt(sig[:k])
        right = zt[:k] * np.sqrt(sig[:k])[:, None]
        return LowRankDelta(
            b=u @ left[:r] + qb @ left[r:],
            a=right[:, :r] @ v.T + right[:, r:] @ qa.T,
            canonical=True,
        )

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
