import numpy as np
import pytest

from kmerge.adapters import LayerKey, delta_map
from kmerge.errors import ConfigError, InsufficientInputs, ShapeError
from kmerge.lowrank import LowRankDelta
from kmerge.merging import (
    MergeOperator,
    dare_merge,
    dare_preprocess,
    dare_ties_merge,
    linear_merge,
    refactor,
    ties_merge,
)

from conftest import dense_delta_map, naive_ties, small_random_adapter, width_mismatched_pair

K0 = LayerKey(0, "key")


def _fold_mean(adapters):
    """Engine-style sequential fold using the running-average operator."""
    current = dense_delta_map(adapters[0])
    for n, incoming in enumerate(adapters[1:], start=1):
        inc = dense_delta_map(incoming)
        current = {k: (inc[k] + n * current[k]) / (n + 1) for k in current}
    return current


def test_running_average_batch_mean_oracle(rng):
    adapters = [small_random_adapter(f"a{i}", rng, n_keys=3) for i in range(4)]
    folded = _fold_mean(adapters)
    batch = {
        k: np.mean([dense_delta_map(a)[k] for a in adapters], axis=0)
        for k in adapters[0].layers
    }
    for key in folded:
        np.testing.assert_allclose(folded[key], batch[key], rtol=1e-9)


def test_running_average_order_invariance(rng):
    import itertools

    adapters = [small_random_adapter(f"a{i}", rng, n_keys=1) for i in range(4)]
    results = []
    for perm in itertools.permutations(adapters):
        results.append(_fold_mean(list(perm))[K0])
    for other in results[1:]:
        np.testing.assert_allclose(other, results[0], rtol=1e-9)


def test_linear_merge_identity(rng):
    x = small_random_adapter("x", rng)
    merged = linear_merge(x, x, weight=0.5)
    for key, value in merged.dense().items():
        np.testing.assert_allclose(value, dense_delta_map(x)[key], rtol=1e-12)


def test_linear_merge_boundary(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    merged = linear_merge(x, y, weight=1.0)
    for key, value in merged.dense().items():
        np.testing.assert_allclose(value, dense_delta_map(x)[key], rtol=1e-12)


def test_linear_merge_elementwise_mean(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    merged = linear_merge(x, y)
    dx, dy = dense_delta_map(x), dense_delta_map(y)
    for key, value in merged.dense().items():
        np.testing.assert_allclose(value, (dx[key] + dy[key]) / 2, rtol=1e-12)


def test_linear_merge_complement(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    a = linear_merge(x, y, 0.3).dense()
    b = linear_merge(y, x, 0.3).dense()
    dx, dy = dense_delta_map(x), dense_delta_map(y)
    for key in a:
        np.testing.assert_allclose(a[key] + b[key], dx[key] + dy[key], rtol=1e-12)


def test_ties_single_entry_sign_conflict():
    d1 = {K0: np.array([[3.0]])}
    d2 = {K0: np.array([[-1.0]])}
    merged = ties_merge([d1, d2], density=1.0)
    assert merged.dense()[K0][0, 0] == 3.0


def test_ties_single_entry_agreeing():
    d1 = {K0: np.array([[2.0]])}
    d2 = {K0: np.array([[4.0]])}
    merged = ties_merge([d1, d2], density=1.0)
    assert merged.dense()[K0][0, 0] == 3.0


def test_ties_matches_naive_oracle(rng):
    for density in (0.25, 0.5, 1.0):
        vecs = [rng.standard_normal(6), rng.standard_normal(6)]
        merged = ties_merge([{K0: v.reshape(2, 3)} for v in vecs], density=density)
        expected = naive_ties(vecs, density)
        np.testing.assert_allclose(merged.dense()[K0].reshape(-1), expected, rtol=1e-12)


def test_ties_density_one_agreeing_is_mean(rng):
    vecs = [np.abs(rng.standard_normal(8)) for _ in range(3)]
    merged = ties_merge([{K0: v.reshape(2, 4)} for v in vecs], density=1.0)
    np.testing.assert_allclose(
        merged.dense()[K0].reshape(-1), np.mean(vecs, axis=0), rtol=1e-12
    )


def test_ties_needs_two_inputs():
    with pytest.raises(InsufficientInputs):
        ties_merge([{K0: np.ones((1, 1))}], density=1.0)


def test_dare_zero_drop_is_identity(rng):
    delta = {K0: rng.standard_normal((3, 4))}
    out = dare_preprocess(delta, 0.0, seed=7)
    np.testing.assert_array_equal(out[K0], delta[K0])


def test_dare_deterministic(rng):
    delta = {K0: rng.standard_normal((5, 5))}
    a = dare_preprocess(delta, 0.5, seed=11)
    b = dare_preprocess(delta, 0.5, seed=11)
    np.testing.assert_array_equal(a[K0], b[K0])


def test_dare_unbiased_binomial():
    n = 100_000
    delta = {K0: np.ones((1, n))}
    out = dare_preprocess(delta, 0.5, seed=3)[K0]
    # survivors ~ Binomial(n, 0.5) rescaled by 2: mean 1, se = 1/sqrt(n)
    assert abs(out.mean() - 1.0) < 3.0 / np.sqrt(n)


def test_dare_merge_degenerate_is_sum(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    cfg = MergeOperator(kind="dare", drop_rate=0.0)
    merged = dare_merge(x, y, cfg)
    dx, dy = dense_delta_map(x), dense_delta_map(y)
    for key, value in merged.dense().items():
        np.testing.assert_array_equal(value, dx[key] + dy[key])


def test_dare_ties_degenerate_reduces_to_ties(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    cfg = MergeOperator(kind="dare_ties", drop_rate=0.0, density=0.5)
    merged = dare_ties_merge(x, y, cfg)
    plain = ties_merge([delta_map(x), delta_map(y)], 0.5)
    for key, value in merged.dense().items():
        np.testing.assert_allclose(value, plain.dense()[key], rtol=1e-12)


def test_dare_merge_expectation(rng):
    x = small_random_adapter("x", rng, n_keys=1, width=6)
    y = small_random_adapter("y", rng, n_keys=1, width=6)
    dx, dy = dense_delta_map(x), dense_delta_map(y)
    target = dx[K0] + dy[K0]
    acc = np.zeros_like(target)
    n_seeds = 200
    for seed in range(n_seeds):
        cfg = MergeOperator(kind="dare", drop_rate=0.5, rng_seed=seed)
        acc += dare_merge(x, y, cfg).dense()[K0]
    scale = np.max(np.abs(target))
    assert np.max(np.abs(acc / n_seeds - target)) < 0.25 * scale


@pytest.mark.parametrize("merge", [
    pytest.param(lambda x, y: linear_merge(x, y, 0.5), id="linear_merge"),
    pytest.param(lambda x, y: dare_merge(x, y, MergeOperator(kind="dare")), id="dare_merge"),
    pytest.param(lambda x, y: dare_ties_merge(x, y, MergeOperator(kind="dare_ties")), id="dare_ties_merge"),
])
def test_pairwise_merge_rejects_width_mismatch(rng, merge):
    """Same keys, different widths: rejected by name, never broadcast."""
    wide, thin = width_mismatched_pair(rng)
    for x, y in ((wide, thin), (thin, wide)):
        with pytest.raises(ShapeError, match="layer 0.key"):
            merge(x, y)


def test_operator_validation():
    with pytest.raises(ConfigError):
        MergeOperator(kind="unknown")
    with pytest.raises(ConfigError):
        MergeOperator(density=0.0)
    with pytest.raises(ConfigError):
        MergeOperator(drop_rate=1.0)


def test_refactor_exact_recovery(rng):
    # rank-2 input truncated to rank 2: exact up to float32 storage
    x = small_random_adapter("x", rng, rank=2, n_keys=2)
    cache = {key: LowRankDelta.from_dense(d) for key, d in dense_delta_map(x).items()}
    result = refactor(cache, 2, "m", 1.0)
    for key, residual in result.residuals.items():
        assert residual <= 1e-6
    back = dense_delta_map(result.adapter)
    for key in back:
        original = dense_delta_map(x)[key]
        np.testing.assert_allclose(back[key], original, rtol=1e-5, atol=1e-6 * np.abs(original).max())


def test_refactor_residual_matches_eigen_oracle(rng):
    x = small_random_adapter("x", rng, rank=2, n_keys=1)
    delta = dense_delta_map(x)[K0]
    result = refactor({K0: LowRankDelta.from_dense(delta)}, 1, "m", 1.0)
    # independent spectrum via eigendecomposition of delta^T delta
    eigvals = np.sort(np.linalg.eigvalsh(delta.T @ delta))[::-1]
    sig = np.sqrt(np.clip(eigvals[:2], 0, None))
    expected = sig[1] / np.sqrt(sig[0] ** 2 + sig[1] ** 2)
    assert result.residuals[K0] == pytest.approx(expected, abs=1e-9)


def test_refactor_zero_delta():
    result = refactor({K0: LowRankDelta.from_dense(np.zeros((6, 5)))}, 2, "m", 1.0)
    assert result.residuals[K0] == 0.0
    fp = result.adapter.layers[K0]
    assert not fp.a.any() and not fp.b.any()


def test_refactor_rejects_rank_below_one():
    with pytest.raises(ShapeError):
        refactor({K0: LowRankDelta.from_dense(np.eye(3))}, 0, "m", 1.0)


def test_refactor_beats_random_rank_r(rng):
    delta = rng.standard_normal((8, 8))
    result = refactor({K0: LowRankDelta.from_dense(delta)}, 3, "m", 1.0)
    best = np.linalg.norm(delta - dense_delta_map(result.adapter)[K0])
    for _ in range(20):
        b = rng.standard_normal((8, 3))
        a = rng.standard_normal((3, 8))
        coeff = float(np.sum(delta * (b @ a))) / max(np.linalg.norm(b @ a) ** 2, 1e-12)
        candidate = np.linalg.norm(delta - coeff * b @ a)
        assert best <= candidate + 1e-6


def test_refactor_lowrank_input_agrees_with_dense(rng):
    x = small_random_adapter("x", rng, rank=3, n_keys=1, width=10)
    dense = dense_delta_map(x)[K0]
    low = LowRankDelta.from_factors(x.layers[K0], x.scaling)
    r_dense = refactor({K0: LowRankDelta.from_dense(dense)}, 2, "a", 1.0)
    r_low = refactor({K0: low}, 2, "b", 1.0)
    assert r_dense.residuals[K0] == pytest.approx(r_low.residuals[K0], abs=1e-9)
    np.testing.assert_allclose(
        dense_delta_map(r_dense.adapter)[K0], dense_delta_map(r_low.adapter)[K0], atol=1e-5
    )

