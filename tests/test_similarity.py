import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kmerge.lowrank
from kmerge.adapters import PROJECTIONS, LayerKey
from kmerge.errors import EmptyStore, IncompatibleAdapters, InsufficientInputs, ShapeError
from kmerge.similarity import (
    Profile,
    adapter_similarity,
    calibrate_threshold,
    most_similar,
    similarities,
    similarity_matrix,
)
from kmerge.bench import GeneratorConfig, generate_suite

from conftest import (
    dense_adapter_similarity, dense_cosine, make_adapter, similarity_pairs, small_random_adapter,
)

K0 = LayerKey(0, "key")
K1 = LayerKey(0, "query")


def layer_similarity(x, y, key):
    """Cosine of one layer: the score of one-layer copies of ``x`` and ``y``."""
    x1, y1 = (replace(a, layers={key: a.layers[key]}) for a in (x, y))
    return adapter_similarity(x1, y1)


def test_self_similarity_is_one(rng):
    adapter = small_random_adapter("t", rng)
    assert adapter_similarity(adapter, adapter) == 1.0


def test_orthogonal_rank1_layers():
    x = make_adapter("x", {K0: ([[1, 0]], [[1], [0]])}, rank=1, scale_numerator=1)
    y = make_adapter("y", {K0: ([[0, 1]], [[1], [0]])}, rank=1, scale_numerator=1)
    # deltas are [[1,0],[0,0]] and [[0,1],[0,0]]
    assert layer_similarity(x, y, K0) == 0.0


def test_layer_similarity_matches_dense_oracle(rng):
    x = small_random_adapter("x", rng, rank=2, n_keys=1, width=8)
    y = small_random_adapter("y", rng, rank=2, n_keys=1, width=8)
    assert layer_similarity(x, y, K0) == pytest.approx(dense_cosine(x, y, K0), abs=1e-9)


def test_adapter_similarity_is_mean_of_layers(rng):
    x = small_random_adapter("x", rng, n_keys=4)
    y = small_random_adapter("y", rng, n_keys=4)
    per_layer = [layer_similarity(x, y, key) for key in x.layers]
    assert adapter_similarity(x, y) == pytest.approx(np.mean(per_layer), abs=1e-12)


def test_adapter_similarity_known_mixture():
    # layer 0 identical (sim 1), layer 1 orthogonal (sim 0) -> mean 0.5
    x = make_adapter("x", {K0: ([[1, 0]], [[1], [0]]), K1: ([[1, 0]], [[1], [0]])}, 1, 1)
    y = make_adapter("y", {K0: ([[1, 0]], [[1], [0]]), K1: ([[0, 1]], [[1], [0]])}, 1, 1)
    assert adapter_similarity(x, y) == pytest.approx(0.5, abs=1e-12)


def test_symmetry(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    assert adapter_similarity(x, y) == pytest.approx(adapter_similarity(y, x), abs=1e-12)


def test_scale_invariance(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    # power-of-two scalar: exact in the float32 store
    scaled = make_adapter(
        "y2",
        {key: (fp.a, 8.0 * fp.b) for key, fp in y.layers.items()},
        y.rank,
        y.scale_numerator,
    )
    assert adapter_similarity(x, scaled) == pytest.approx(adapter_similarity(x, y), abs=1e-9)


def test_degenerate_zero_adapter(rng):
    x = small_random_adapter("x", rng, n_keys=1)
    zero = make_adapter("z", {K0: (np.zeros((2, 8)), np.zeros((8, 2)))}, 2, 2)
    assert layer_similarity(x, zero, K0) == 0.0
    assert adapter_similarity(x, zero) == 0.0


def test_bounds(rng):
    for i in range(20):
        x = small_random_adapter(f"x{i}", rng)
        y = small_random_adapter(f"y{i}", rng)
        assert abs(adapter_similarity(x, y)) <= 1 + 1e-9


def test_incompatible_key_sets(rng):
    x = small_random_adapter("x", rng, n_keys=2)
    y = small_random_adapter("y", rng, n_keys=3)
    with pytest.raises(IncompatibleAdapters):
        adapter_similarity(x, y)


def test_most_similar_self_copy(rng):
    x = small_random_adapter("x", rng)
    other = small_random_adapter("o", rng)
    key, score = most_similar(x, {1: other, 2: x})
    assert key == 2
    assert score == 1.0


def test_most_similar_singleton(rng):
    x = small_random_adapter("x", rng)
    other = small_random_adapter("o", rng)
    key, _ = most_similar(x, {7: other})
    assert key == 7


def test_most_similar_empty():
    with pytest.raises(EmptyStore):
        most_similar(None, {})


def test_most_similar_is_argmax_exhaustive(rng):
    for n in range(1, 9):
        slots = {i + 1: small_random_adapter(f"s{n}-{i}", rng) for i in range(n)}
        probe = small_random_adapter(f"p{n}", rng)
        key, score = most_similar(probe, slots)
        scores = {k: adapter_similarity(probe, a) for k, a in slots.items()}
        assert score == max(scores.values())
        assert scores[key] == score


def test_most_similar_cluster_margin():
    adapters, tasks = generate_suite(GeneratorConfig())
    store = {i + 1: adapters[i * 8] for i in range(5)}  # one prototype per type
    probe = adapters[2 * 8 + 3]  # cluster 3 (type index 2)
    key, _ = most_similar(probe, store)
    assert key == 3
    exhaustive = max(store, key=lambda k: dense_adapter_similarity(probe, store[k]))
    assert key == exhaustive


def test_similarity_matrix_duplicates(rng):
    x = small_random_adapter("x", rng)
    m = similarity_matrix([x, x])
    np.testing.assert_allclose(m.values, np.ones((2, 2)))


def test_similarity_matrix_orthogonal():
    ads = []
    for i in range(3):
        a = np.zeros((1, 3))
        a[0, i] = 1.0
        ads.append(make_adapter(f"o{i}", {K0: (a, [[1.0], [0.0]])}, 1, 1))
    m = similarity_matrix(ads)
    np.testing.assert_allclose(m.values, np.eye(3), atol=1e-12)


def test_similarity_matrix_cluster_structure():
    adapters, tasks = generate_suite(GeneratorConfig())
    m = similarity_matrix(adapters)
    np.testing.assert_allclose(m.values, m.values.T, atol=1e-9)
    within, across = [], []
    for i in range(len(adapters)):
        for j in range(i + 1, len(adapters)):
            same = tasks[i].problem_type == tasks[j].problem_type
            (within if same else across).append(m.values[i, j])
    assert np.mean(within) > np.mean(across)


def test_calibrate_odd_median():
    # three adapters engineered so pairwise sims sort to {0.1, 0.2, 0.3}
    # is cumbersome; instead verify against the sort oracle directly
    rng = np.random.default_rng(5)
    ads = [small_random_adapter(f"a{i}", rng) for i in range(3)]
    pairs = sorted(similarity_pairs(ads))
    assert calibrate_threshold(ads) == pytest.approx(pairs[1], abs=1e-15)


def test_calibrate_single_pair(rng):
    x = small_random_adapter("x", rng)
    y = small_random_adapter("y", rng)
    assert calibrate_threshold([x, y]) == pytest.approx(adapter_similarity(x, y), abs=1e-15)


def test_calibrate_sort_oracle(rng):
    for n in (4, 5, 9, 10):
        ads = [small_random_adapter(f"n{n}-{i}", rng) for i in range(n)]
        pairs = sorted(similarity_pairs(ads))
        if len(pairs) % 2:
            expected = pairs[len(pairs) // 2]
        else:
            expected = 0.5 * (pairs[len(pairs) // 2 - 1] + pairs[len(pairs) // 2])
        assert calibrate_threshold(ads) == pytest.approx(expected, abs=1e-12)


def test_calibrate_insufficient(rng):
    with pytest.raises(InsufficientInputs):
        calibrate_threshold([small_random_adapter("x", rng)])


def test_similarity_matrix_insufficient(rng):
    with pytest.raises(InsufficientInputs, match="at least 2 adapters"):
        similarity_matrix([small_random_adapter("x", rng)])


def test_matrix_csv_roundtrip(tmp_path, rng):
    """Ids holding a comma or a double quote are quoted, so ``csv.reader``
    reads one header and one row per id, each of ``1 + n`` fields."""
    ids = ["a0", "x,1", 'say "hi"', "a3"]
    ads = [small_random_adapter(task_id, rng) for task_id in ids]
    m = similarity_matrix(ads)
    path = tmp_path / "m.csv"
    m.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [5] * 5
    assert rows[0] == ["id"] + ids and [row[0] for row in rows[1:]] == ids
    parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    np.testing.assert_allclose(parsed, parsed.T, atol=1e-6)
    np.testing.assert_allclose(parsed, m.values, atol=5e-7)


# -- the one-against-many kernel -------------------------------------------

# (d_out, d_in) per layer: same-shape neighbours share a run, so these
# seven layers make five runs.
MIXED_SHAPES = [(8, 8), (8, 8), (12, 4), (8, 8), (12, 4), (12, 4), (6, 10)]
MIXED_KEYS = [LayerKey(i // len(PROJECTIONS), PROJECTIONS[i % len(PROJECTIONS)]) for i in range(7)]
# Runs of 5, 1, 7 and 3 same-shape layers.
LONG_RUN_SHAPES = [(8, 8)] * 5 + [(12, 4)] + [(6, 10)] * 7 + [(8, 8)] * 3


def _mixed_adapter(task_id, rng, rank, shapes=MIXED_SHAPES, zero_layers=()):
    layers = {}
    keys = [LayerKey(i // len(PROJECTIONS), PROJECTIONS[i % len(PROJECTIONS)]) for i in range(len(shapes))]
    for i, (key, (d_out, d_in)) in enumerate(zip(keys, shapes)):
        b = rng.standard_normal((d_out, rank))
        layers[key] = (rng.standard_normal((rank, d_in)), 0.0 * b if i in zero_layers else b)
    return make_adapter(task_id, layers, rank, scale_numerator=float(rng.uniform(1, 16)))


def _mixed_pool(rng):
    x = _mixed_adapter("x", rng, rank=3)
    ys = [_mixed_adapter(f"y{r}", rng, rank=r) for r in (1, 2, 3, 5)]
    ys.append(_mixed_adapter("zero-layer", rng, rank=2, zero_layers={2}))
    reordered = {key: (fp.a, fp.b) for key, fp in reversed(list(ys[1].layers.items()))}
    ys.append(make_adapter("reordered", reordered, ys[1].rank, ys[1].scale_numerator))
    ys.insert(2, x)
    return x, ys


def test_similarities_match_dense_oracle(rng):
    x, ys = _mixed_pool(rng)
    got = similarities(x, ys)
    assert len(got) == len(ys)
    for y, score in zip(ys, got):
        expected = 1.0 if y is x else dense_adapter_similarity(x, y)
        assert score == pytest.approx(expected, abs=1e-9)
    assert got[2] == 1.0


def test_similarities_equal_pairwise_calls_exactly(rng):
    x, ys = _mixed_pool(rng)
    assert similarities(x, ys) == [adapter_similarity(x, y) for y in ys]
    assert similarities(x, []) == []
    assert similarities(x, [x, x]) == [1.0, 1.0]


def test_similarities_equal_one_layer_at_a_time_exactly(rng):
    """Stacking layers into runs is a batching choice: scoring each layer
    on its own gives the same bits."""
    x, ys = _mixed_pool(rng)
    one_by_one = [
        1.0 if y is x else float(np.mean([layer_similarity(x, y, key) for key in x.layers]))
        for y in ys
    ]
    assert similarities(x, ys) == one_by_one


@pytest.mark.parametrize("budget", [1, 1000])
def test_batched_similarity_is_bit_identical(rng, monkeypatch, budget):
    """Each run of same-shape layers is stacked in batches of at most
    ``FOLD_BATCH_BYTES`` (1: one layer a batch; 1000: two layers at rank 3,
    so every longer run splits); the scores equal the default run's, where
    each run is one batch, bit for bit. So do the scores of profiles, built
    under the default budget (every plan one batch a run) or under
    ``budget`` (at 1000, the ranks other than 3 batch otherwise than ``x``),
    and of ``x``'s profile against the adapters."""
    x = _mixed_adapter("x", rng, rank=3, shapes=LONG_RUN_SHAPES)
    ys = [_mixed_adapter(f"y{r}", rng, rank=r, shapes=LONG_RUN_SHAPES) for r in (1, 3, 5)]
    ys.append(_mixed_adapter("zero-layer", rng, rank=2, shapes=LONG_RUN_SHAPES, zero_layers={7}))
    ys.insert(1, x)
    default = np.array(similarities(x, ys))
    early = [Profile(y) for y in ys]
    monkeypatch.setattr(kmerge.lowrank, "FOLD_BATCH_BYTES", budget)
    late = [Profile(y) for y in ys]
    assert np.array_equal(np.array(similarities(x, ys)), default)
    for profiles in (early, late):
        assert np.array_equal(np.array(similarities(profiles[1], profiles)), default)
        # Every profile keeps its norms, whatever its batches, and gives them.
        assert all(p.norms is not None for p in profiles)
        assert np.array_equal(np.array(similarities(profiles[1], profiles)), default)
        assert np.array_equal(np.array(similarities(profiles[1], ys)), default)


def test_profile_copies_no_factor():
    """A profile of a default-grid adapter, whose small layers share a
    batch, holds its keys and batch positions only: under an eighth of the
    adapter's factor bytes."""
    adapter = generate_suite(GeneratorConfig())[0][0]
    factor_bytes = sum(fp.a.nbytes + fp.b.nbytes for fp in adapter.layers.values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profile = Profile(adapter)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(profile.batches) < len(adapter.layers)
    assert held < factor_bytes / 8


def test_zero_layer_scores_zero(rng):
    x, _ = _mixed_pool(rng)
    zero = _mixed_adapter("z", rng, rank=2, zero_layers={2})
    assert layer_similarity(x, zero, MIXED_KEYS[2]) == 0.0


def test_similarity_assigns_no_adapter_attribute(rng):
    """Scoring caches nothing: every adapter it reads keeps the attributes
    it had, each bound to the same object."""
    x, ys = _mixed_pool(rng)

    def attributes():
        return [{name: id(value) for name, value in vars(a).items()} for a in ys]

    before = attributes()
    similarities(x, ys)
    most_similar(x, dict(enumerate(ys, 1)))
    assert attributes() == before


def test_similarities_key_set_mismatch(rng):
    x, ys = _mixed_pool(rng)
    short = make_adapter("short", {k: (fp.a, fp.b) for k, fp in list(x.layers.items())[:3]}, 3, 3.0)
    with pytest.raises(IncompatibleAdapters):
        similarities(x, ys + [short])


def test_similarities_shape_mismatch(rng):
    x, ys = _mixed_pool(rng)
    shapes = list(MIXED_SHAPES)
    shapes[4] = (4, 12)  # same size, transposed
    bad = _mixed_adapter("bad", rng, rank=3, shapes=shapes)
    with pytest.raises(ShapeError):
        similarities(x, ys + [bad])
    with pytest.raises(ShapeError):
        adapter_similarity(bad, x)
