"""Dense oracles for the canonical thin-SVD running cache.

Streams mix unrelated members with members that share a factor with an
earlier one (so the mean's rank is below n * r), zero adapters, members
1e8 times smaller than the rest (whose directions the cache must keep), and
widths where the cache rank plus the incoming rank exceeds the width
(width 6 at rank 2 saturates after three members, the geometry of
acceptance criteria 1, 2 and 11).
"""

import tracemalloc

import numpy as np
import pytest

from kmerge.adapters import PROJECTIONS, FactorPair, LayerKey
from kmerge.lowrank import FOLD_BATCH_BYTES, LowRankDelta, _split, fold_layers
from kmerge.merging import refactor

from conftest import naive_split

K0 = LayerKey(0, "key")


def _member(rng, kind, shape, rank, proto):
    d_out, d_in = shape
    b = rng.standard_normal((d_out, rank))
    a = rng.standard_normal((rank, d_in))
    if kind == "shared_b":
        b = proto[0].copy()
    elif kind == "shared_a":
        a = proto[1].copy()
    elif kind == "zero":
        b = np.zeros_like(b)
    elif kind == "tiny":
        b = b * 1e-8
    return LowRankDelta(b=b * rng.uniform(0.1, 10.0), a=a)


def _streams(seed, count):
    rng = np.random.default_rng(seed)
    shapes = [((6, 6), 2), ((5, 9), 3), ((9, 4), 3), ((12, 12), 3), ((3, 3), 4)]
    kinds = ["fresh", "shared_b", "shared_a", "zero", "tiny"]
    for trial in range(count):
        shape, rank = shapes[trial % len(shapes)]
        proto = (rng.standard_normal((shape[0], rank)), rng.standard_normal((rank, shape[1])))
        size = int(rng.integers(2, 9))
        picks = rng.choice(len(kinds), size=size, p=[0.35, 0.2, 0.2, 0.1, 0.15])
        yield [_member(rng, kinds[i], shape, rank, proto) for i in picks]


def _check_canonical(low):
    s = low.singular_values()
    assert np.all(np.diff(s) <= 0)
    assert np.all(s > 0)
    u = low.b / np.sqrt(s)
    v = low.a.T / np.sqrt(s)
    eye = np.eye(s.size)
    assert np.abs(u.T @ u - eye).max(initial=0.0) <= 1e-12
    assert np.abs(v.T @ v - eye).max(initial=0.0) <= 1e-12


def _check_against_dense(low, mean, target_rank):
    dense_s = np.linalg.svd(mean, compute_uv=False)
    scale = max(dense_s[0], 1e-300)
    assert np.linalg.norm(low.materialize() - mean) <= 1e-9 * max(np.linalg.norm(mean), 1e-300)

    s = low.singular_values()
    # Keeps every direction clearly above rounding, and no rounding noise.
    assert np.count_nonzero(dense_s > 1e-12 * scale) <= s.size
    assert s.size <= np.count_nonzero(dense_s > 1e-15 * scale)
    np.testing.assert_allclose(s, dense_s[: s.size], rtol=0, atol=1e-9 * scale)
    assert np.all(dense_s[s.size :] <= 1e-9 * scale)

    served, _ = low.svd_truncate(target_rank)
    keep = min(target_rank, dense_s.size)
    np.testing.assert_allclose(
        np.linalg.svd(served.materialize(), compute_uv=False)[:keep],
        dense_s[:keep],
        rtol=0,
        atol=1e-9 * scale,
    )
    tail = np.sqrt(np.sum(dense_s[target_rank:] ** 2))
    assert np.linalg.norm(mean - served.materialize()) == pytest.approx(tail, abs=1e-9 * scale)

    result = refactor({K0: low}, target_rank, "m", 1.0)
    total = np.sqrt(np.sum(dense_s**2))
    expected = tail / total if total > 0 else 0.0
    assert result.residuals[K0] == pytest.approx(expected, abs=1e-9)


def test_fold_matches_dense_oracle():
    for stream in _streams(seed=7, count=150):
        cache = stream[0].compressed()
        dense = [stream[0].materialize()]
        for n, incoming in enumerate(stream[1:], start=1):
            cache = fold_layers(n / (n + 1), 1.0 / (n + 1), [cache], [incoming])[0]
            dense.append(incoming.materialize())
            assert cache.canonical
            _check_canonical(cache)
            _check_against_dense(cache, np.mean(dense, axis=0), target_rank=2)


def test_fold_to_depth_8_at_production_width():
    """Eight rank-32 members folded into one slot on a 2048 x 2048 and a
    2048 x 512 projection, in one ``fold_layers`` call per merge as the
    engine folds them. Members share a factor, are 1e8 times smaller or
    are zero, so residuals are kept in full, in part and not at all. Both
    caches are canonical after every merge; the 2048 x 512 cache matches
    the dense mean after every merge and the 2048 x 2048 cache at depth 8:
    one dense SVD at 2048 x 2048 takes 2-3 s on a 2-vCPU host."""
    rng = np.random.default_rng(9)
    shapes = [(2048, 2048), (2048, 512)]
    kinds = ["fresh", "shared_b", "shared_a", "tiny", "fresh", "zero", "shared_b", "fresh"]
    protos = [(rng.standard_normal((d_out, 32)), rng.standard_normal((32, d_in))) for d_out, d_in in shapes]
    members = [[_member(rng, kind, shape, 32, proto) for shape, proto in zip(shapes, protos)] for kind in kinds]
    caches = [low.compressed() for low in members[0]]
    sums = [low.materialize() for low in members[0]]
    for n, incoming in enumerate(members[1:], start=1):
        caches = fold_layers(n / (n + 1), 1.0 / (n + 1), caches, incoming)
        for total, low in zip(sums, incoming):
            total += low.materialize()
        for cache in caches:
            assert cache.canonical
            _check_canonical(cache)
        _check_against_dense(caches[1], sums[1] / (n + 1), target_rank=32)
    _check_against_dense(caches[0], sums[0] / len(members), target_rank=32)


def test_compressed_is_canonical_and_idempotent():
    rng = np.random.default_rng(8)
    for stream in _streams(seed=8, count=40):
        merged = LowRankDelta.combine(stream, [1.0 / len(stream)] * len(stream))
        canonical = merged.compressed()
        _check_canonical(canonical)
        _check_against_dense(canonical, merged.materialize(), target_rank=int(rng.integers(1, 5)))
        assert canonical.compressed() is canonical


def test_fold_of_zero_members_is_empty():
    zero = LowRankDelta(b=np.zeros((6, 2)), a=np.zeros((2, 6)))
    cache = fold_layers(0.5, 0.5, [zero.compressed()], [zero])[0]
    assert cache.rank_bound == 0
    served, singular = cache.svd_truncate(2)
    assert served.b.shape == (6, 2) and not served.b.any()
    assert singular.size == 0


def _peak_above_start(call):
    """``call()`` and the peak of memory traced during it, above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


def test_fold_and_refactor_work_in_bounded_batches():
    """A fold and a refactor of 64 width-512 layers (a 12 MiB cache) stack
    at most ``FOLD_BATCH_BYTES`` of layers at a time, so neither allocates
    more than a few budgets beyond what it returns; stacking every layer at
    once would take 6 MiB more for the refactor and 12 MiB more for the fold."""
    rng = np.random.default_rng(5)
    width, rank, n = 512, 24, 64
    keys = [LayerKey(i // len(PROJECTIONS), PROJECTIONS[i % len(PROJECTIONS)]) for i in range(n)]
    cache = {
        key: LowRankDelta(b=rng.standard_normal((width, rank)), a=rng.standard_normal((rank, width))).compressed()
        for key in keys
    }
    incoming = [FactorPair(a=rng.standard_normal((4, width)), b=rng.standard_normal((width, 4))) for _ in keys]

    folded, peak = _peak_above_start(lambda: fold_layers(0.5, 0.5, list(cache.values()), incoming))
    assert peak <= sum(low.b.nbytes + low.a.nbytes for low in folded) + 4 * FOLD_BATCH_BYTES
    served, peak = _peak_above_start(lambda: refactor(cache, 4, "m", 1.0))
    layers = served.adapter.layers.values()
    assert peak <= sum(fp.b.nbytes + fp.a.nbytes for fp in layers) + 4 * FOLD_BATCH_BYTES


def _split_cases(rng):
    """``(basis, block, kept)`` stacks for ``_split``: tall blocks at
    production and paper geometry, whose residuals keep every direction, a
    block whose residual has rank 8, one inside span(basis) and a zero
    block."""
    def orthonormal(n, d, rank):
        return np.linalg.qr(rng.standard_normal((n, d, rank)))[0]

    for n, d, r, rank in [(1, 2048, 32, 32), (1, 512, 32, 64), (16, 64, 4, 8)]:
        yield orthonormal(n, d, rank), rng.standard_normal((n, d, r)), r
    basis = orthonormal(1, 512, 64)
    inside = basis @ rng.standard_normal((1, 64, 32))
    yield basis, inside + rng.standard_normal((1, 512, 8)) @ rng.standard_normal((1, 8, 32)), 8
    yield basis, inside, 0
    yield basis, np.zeros((1, 512, 32)), 0


def test_split_keeps_what_the_residual_svd_keeps(rng):
    """``_split`` takes each residual's spectrum from the SVD of its QR
    factor ``R``; it keeps exactly the directions that the residual's own
    thin SVD (``naive_split``) keeps, with the same singular values to
    rounding."""
    for basis, block, expected in _split_cases(rng):
        norm = np.linalg.norm(block, axis=(1, 2))
        _, _, sig, _, kept = _split(basis, block, norm)
        _, _, oracle_sig, _, oracle_kept = naive_split(basis, block, norm)
        assert np.array_equal(kept, oracle_kept)
        assert np.all(kept == expected)
        assert np.all(np.abs(sig - oracle_sig) <= 1e-14 * oracle_sig[:, :1])


def test_split_directions_are_orthonormal(rng):
    """The kept residual directions ``q = resid z[:k]^T / sig[:k]``, which
    the fold never forms, are orthonormal and orthogonal to the basis to
    1e-12 when every kept singular value is at least 1e-3 of the block's
    norm."""
    for basis, block, _ in _split_cases(rng):
        norm = np.linalg.norm(block, axis=(1, 2))
        _, resid, sig, z, kept = _split(basis, block, norm)
        for i, k in enumerate(kept):
            assert np.all(sig[i, :k] >= 1e-3 * norm[i])
            q = resid[i] @ z[i, :k].T / sig[i, :k]
            assert np.abs(q.T @ q - np.eye(k)).max(initial=0.0) <= 1e-12
            assert np.abs(basis[i].T @ q).max(initial=0.0) <= 1e-12
