import errno
import gc
import json
import math
import os
import shutil
import struct
import sys
import warnings
from dataclasses import replace
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from kmerge.adapters import LayerKey, parse_adapter, write_adapter
from kmerge.bench import GeneratorConfig, OrderingSpec, generate_suite, run_simulation
from kmerge.engine import (
    ALLOCATED,
    MERGED,
    MergeEngine,
    PolicyConfig,
    SlotState,
    merged_cache,
    slot_cache,
)
from kmerge.errors import (
    ConfigError,
    DuplicateTask,
    FormatError,
    IncompatibleAdapters,
    RestoreError,
    ShapeError,
    SlotVacant,
    UnknownTask,
)
import kmerge.engine
import kmerge.lowrank
import kmerge.store
from kmerge.lowrank import LowRankDelta, fold_layers
from kmerge.merging import OPERATOR_KINDS, MergeOperator, RankPolicy, linear_merge
from kmerge.similarity import adapter_similarity, most_similar
from kmerge.store import MANIFEST_VERSION

from conftest import (
    NaiveState,
    RecordedWrites,
    assert_same_adapter,
    dense_delta_map,
    factor_delta,
    make_adapter,
    mixed_geometry_slot,
    naive_policy_step,
    naive_slot_cache,
    poison_tensor,
    rewrite_header,
    small_random_adapter,
    version4_persist,
    width_mismatched_pair,
    zero_width_adapter,
)

K0 = LayerKey(0, "key")


def _config(k, variant="k_merge", s=None, rank=2, **kw):
    return PolicyConfig(
        budget_k=k,
        variant=variant,
        threshold_s=s,
        rank_policy=RankPolicy(target_rank=rank),
        **kw,
    )


def _stream(rng, n, **kw):
    return [small_random_adapter(f"task-{i}", rng, **kw) for i in range(n)]


def test_first_ingest_allocates(rng):
    engine = MergeEngine(_config(3))
    decision = engine.ingest(small_random_adapter("t0", rng))
    assert decision.action == ALLOCATED
    assert decision.slot_key == 1
    assert decision.similarity is None
    assert decision.task_index == 1
    assert engine.store.occupied == 1


def test_k1_always_merges_after_first(rng):
    engine = MergeEngine(_config(1))
    for adapter in _stream(rng, 4):
        decision = engine.ingest(adapter)
    assert decision.action == MERGED
    assert engine.store.occupied == 1
    assert engine.history.entries[1] == [1, 2, 3, 4]


def test_k_merge_fills_then_merges(rng):
    engine = MergeEngine(_config(3))
    decisions = [engine.ingest(a) for a in _stream(rng, 5)]
    assert [d.action for d in decisions[:3]] == [ALLOCATED] * 3
    assert all(d.action == MERGED for d in decisions[3:])
    assert engine.store.occupied == 3


def test_pp_allocates_below_threshold(rng):
    engine = MergeEngine(_config(4, "k_merge_pp", s=0.99))
    decisions = [engine.ingest(a) for a in _stream(rng, 4)]
    # random adapters are nearly orthogonal, far below s=0.99
    assert all(d.action == ALLOCATED for d in decisions)


def test_pp_merges_above_threshold(rng):
    engine = MergeEngine(_config(4, "k_merge_pp", s=-0.5))
    first, second = _stream(rng, 2)
    assert engine.ingest(first).action == ALLOCATED
    decision = engine.ingest(second)
    assert decision.action == MERGED
    assert decision.slot_key == 1


def test_pp_full_store_forces_merge(rng):
    engine = MergeEngine(_config(2, "k_merge_pp", s=0.999))
    decisions = [engine.ingest(a) for a in _stream(rng, 4)]
    assert [d.action for d in decisions] == [ALLOCATED, ALLOCATED, MERGED, MERGED]


def test_merge_targets_most_similar_slot(rng):
    engine = MergeEngine(_config(2))
    a, b = _stream(rng, 2)
    engine.ingest(a)
    engine.ingest(b)
    # near-copy of b: tiny perturbation keeps it closest to slot 2
    near = small_random_adapter("near", rng)
    near = type(near)(
        task_id="near",
        problem_type=near.problem_type,
        language=near.language,
        rank=b.rank,
        scale_numerator=b.scale_numerator,
        layers=b.layers,
    )
    decision = engine.ingest(near)
    assert decision.action == MERGED
    assert decision.slot_key == 2
    assert decision.similarity == pytest.approx(1.0, abs=1e-6)


def test_running_average_cache_is_batch_mean(rng):
    engine = MergeEngine(_config(1))
    adapters = _stream(rng, 3, n_keys=1)
    for a in adapters:
        engine.ingest(a)
    cache = engine.store.slots[1].cache[K0].materialize()
    batch = np.mean([dense_delta_map(a)[K0] for a in adapters], axis=0)
    np.testing.assert_allclose(cache, batch, rtol=1e-9)


def _relative_error(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("weight", [0.0, 0.3, 0.5, 1.0])
def test_linear_cache_matches_dense_oracle(rng, weight):
    """``linear`` folds in factor space; its cache is the dense
    ``linear_merge`` output, at the rank its full SVD has."""
    x = small_random_adapter("x", rng, rank=3, n_keys=4, scale_numerator=6.0)
    y = small_random_adapter("y", rng, rank=3, n_keys=4, scale_numerator=24.0)
    linear = MergeOperator(kind="linear")
    cache = merged_cache(linear, SlotState(adapter=x, cache=slot_cache(x), tasks=(1,)), y, weight)
    dense = linear_merge(x, y, weight=weight).dense()
    assert cache.keys() == dense.keys()
    for key, low in cache.items():
        assert low.canonical
        assert low.rank_bound == LowRankDelta.from_dense(dense[key]).rank_bound
        assert _relative_error(low.materialize(), dense[key]) <= 1e-12


@pytest.mark.parametrize("budget", [kmerge.lowrank.FOLD_BATCH_BYTES, 1, 1000])
@pytest.mark.parametrize("kind", ["running_average", "linear"])
def test_batched_fold_is_bit_identical_to_one_layer_folds(rng, monkeypatch, kind, budget):
    """A merge folds every layer of one geometry in stacked calls, in
    batches of at most ``FOLD_BATCH_BYTES`` of working set (1: one layer a
    batch; 1000: one to five); each layer's factors equal, bit for bit,
    those of folding that layer alone."""
    monkeypatch.setattr(kmerge.lowrank, "FOLD_BATCH_BYTES", budget)
    slot, incoming = mixed_geometry_slot(rng)
    count = len(slot.tasks)
    merged = merged_cache(MergeOperator(kind=kind), slot, incoming, weight=0.3)
    if kind == "running_average":
        base, alpha, beta = slot.cache, count / (count + 1), 1.0 / (count + 1)
    else:
        base, alpha, beta = slot_cache(slot.adapter), 0.3, 0.7
    ranks = set()
    for key, fp in incoming.layers.items():
        alone = fold_layers(alpha, beta, [base[key]], [factor_delta(fp, incoming.scaling)])[0]
        assert merged[key].canonical
        assert np.array_equal(merged[key].b, alone.b) and np.array_equal(merged[key].a, alone.a)
        ranks.add((fp.b.shape, base[key].rank_bound, alone.rank_bound))
    # Layers of one geometry keep different numbers of directions, so the
    # fold's sub-batches are exercised.
    assert len({(shape, r) for shape, r, _ in ranks}) < len(ranks)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


@pytest.mark.parametrize("budget", [kmerge.lowrank.FOLD_BATCH_BYTES, 1, 1000])
def test_stacked_slot_cache_is_bit_identical(rng, monkeypatch, budget):
    """A new slot's cache is built in stacked QR and SVD calls, in batches
    of at most ``FOLD_BATCH_BYTES`` (1: one layer a batch; 1000: one to
    five); each layer's factors equal, bit for bit, those of canonicalising
    that layer alone (``naive_slot_cache``). Every third layer of one
    adapter has rank 1, so layers of a batch keep different ranks; another
    has zero-width layers."""
    monkeypatch.setattr(kmerge.lowrank, "FOLD_BATCH_BYTES", budget)
    slot, incoming = mixed_geometry_slot(rng)
    deficient = {
        key: (fp.a, np.repeat(fp.b[:, :1], 2, axis=1) if i % 3 == 0 else fp.b)
        for i, (key, fp) in enumerate(incoming.layers.items())
    }
    zero_width = {
        K0: (np.zeros((2, 0)), np.zeros((0, 2))),
        LayerKey(0, "query"): (rng.standard_normal((2, 3)), np.zeros((0, 2))),
        LayerKey(0, "value"): (rng.standard_normal((2, 3)), rng.standard_normal((4, 2))),
    }
    adapters = [
        slot.adapter,
        incoming,
        make_adapter("deficient", deficient, 2, -1.5),
        make_adapter("zero", zero_width, 2, 2.0),
    ]
    for adapter in adapters:
        cache, oracle = slot_cache(adapter), naive_slot_cache(adapter)
        assert list(cache) == list(oracle)
        for key, low in cache.items():
            assert low.canonical and low.b.shape == oracle[key].b.shape and low.a.shape == oracle[key].a.shape
            assert np.array_equal(_bits(low.b), _bits(oracle[key].b))
            assert np.array_equal(_bits(low.a), _bits(oracle[key].a))
    assert {low.rank_bound for low in slot_cache(adapters[2]).values()} == {1, 2}


def test_zero_width_layers_merge(rng):
    """An adapter with a 0 x 0 layer, which round-trips through ``.kmrg``,
    also allocates, scores and merges: a batch of layers with no working
    set still holds one layer."""
    engine = MergeEngine(_config(1))
    for i in range(3):
        layers = {
            K0: (np.zeros((2, 0)), np.zeros((0, 2))),
            LayerKey(0, "query"): (rng.standard_normal((2, 3)), rng.standard_normal((3, 2))),
        }
        engine.ingest(make_adapter(f"z{i}", layers, 2, 2.0))
    assert engine.store.slots[1].tasks == (1, 2, 3)
    assert engine.load_for_inference(1).geometry[K0] == (0, 0)


def test_linear_engine_follows_dense_recurrence(rng):
    """A K=1 ``linear`` engine's cache after each merge is the even mix of
    the adapter it served before and the incoming one."""
    engine = MergeEngine(_config(1, operator=MergeOperator(kind="linear")))
    stream = _stream(rng, 4, rank=3, n_keys=3)
    engine.ingest(stream[0])
    for incoming in stream[1:]:
        served = dense_delta_map(engine.load_for_inference(1))
        engine.ingest(incoming)
        fresh = dense_delta_map(incoming)
        for key, low in engine.store.slots[1].cache.items():
            ref = 0.5 * served[key] + 0.5 * fresh[key]
            assert _relative_error(low.materialize(), ref) <= 1e-12
    assert engine.store.slots[1].tasks == (1, 2, 3, 4)


def test_linear_weight_out_of_range(rng):
    x, y = _stream(rng, 2)
    with pytest.raises(ShapeError, match="weight"):
        merged_cache(MergeOperator(kind="linear"), SlotState(x, slot_cache(x), (1,)), y, weight=1.5)


def test_stored_adapter_respects_target_rank(rng):
    engine = MergeEngine(_config(1, rank=2))
    for a in _stream(rng, 3, rank=3):
        engine.ingest(a)
    stored = engine.load_for_inference(1)
    assert stored.rank == 2
    for fp in stored.layers.values():
        assert fp.a.shape[0] == fp.b.shape[1] == 2


def test_history_partitions_stream(rng):
    engine = MergeEngine(_config(4))
    for a in _stream(rng, 20):
        engine.ingest(a)
    seen = sorted(t for tasks in engine.history.entries.values() for t in tasks)
    assert seen == list(range(1, 21))
    assert engine.store.occupied <= 4


def test_route_matches_history_scan(rng):
    engine = MergeEngine(_config(3))
    for a in _stream(rng, 12):
        engine.ingest(a)
    for t in range(1, 13):
        expected = [k for k, tasks in engine.history.entries.items() if t in tasks]
        assert len(expected) == 1
        assert engine.route(t) == expected[0]


def test_route_unknown_task(rng):
    engine = MergeEngine(_config(2))
    engine.ingest(small_random_adapter("t0", rng))
    with pytest.raises(UnknownTask):
        engine.route(99)
    with pytest.raises(UnknownTask):
        engine.route_task_id("never-seen")


def test_route_by_task_id(rng):
    engine = MergeEngine(_config(2))
    engine.ingest(small_random_adapter("alpha", rng))
    engine.ingest(small_random_adapter("beta", rng))
    assert engine.route_task_id("alpha") == 1
    assert engine.route_task_id("beta") == 2


def test_restored_engine_routes_and_rejects_like_original(tmp_path, rng):
    engine = MergeEngine(_config(2))
    stream = _stream(rng, 6)
    for a in stream:
        engine.ingest(a)
    engine.persist(tmp_path)
    back = MergeEngine.restore(tmp_path)
    for t, adapter in enumerate(stream, start=1):
        assert back.route(t) == engine.route(t)
        assert back.route_task_id(adapter.task_id) == engine.route_task_id(adapter.task_id)
    for other in (engine, back):
        with pytest.raises(DuplicateTask):
            other.ingest(stream[3])
        with pytest.raises(UnknownTask):
            other.route_task_id("never-seen")
    assert len(back.task_ids) == len(engine.task_ids) == len(stream)


def test_load_vacant_slot(rng):
    engine = MergeEngine(_config(2))
    with pytest.raises(SlotVacant):
        engine.load_for_inference(1)


def test_duplicate_task_rejected(rng):
    engine = MergeEngine(_config(2))
    engine.ingest(small_random_adapter("same", rng))
    with pytest.raises(DuplicateTask):
        engine.ingest(small_random_adapter("same", rng))


def test_mismatched_key_set_rejected(rng):
    engine = MergeEngine(_config(2))
    engine.ingest(small_random_adapter("a", rng, n_keys=2))
    with pytest.raises(IncompatibleAdapters):
        engine.ingest(small_random_adapter("b", rng, n_keys=3))


def _no_scoring(*args):
    raise AssertionError("most_similar ran")


def test_k_merge_allocates_without_scoring(monkeypatch, profile_builds):
    """Below its budget k_merge allocates whatever the scores, so it
    computes none: with ``most_similar`` patched to raise, an engine fills
    its K slots and the simulation rows equal an unpatched engine's. Its
    ingests of adapters build no profile either."""
    adapters, tasks = generate_suite(GeneratorConfig())
    adapters, tasks, ordering = adapters[:5], tasks[:5], OrderingSpec("random", 3)

    def rows():
        report = run_simulation(adapters, tasks, ordering, PolicyConfig(budget_k=5))
        return [{**vars(row), "elapsed": None} for row in report.rows]

    want = rows()
    with monkeypatch.context() as patch:
        patch.setattr(kmerge.engine, "most_similar", _no_scoring)
        got = rows()
        profile_builds.clear()
        engine = MergeEngine(PolicyConfig(budget_k=5))
        for adapter in adapters:
            engine.ingest(adapter)
    assert got == want
    assert [row["action"] for row in got] == [ALLOCATED] * 5
    assert profile_builds == []


def test_ingest_converts_each_adapter_once_per_batch(rng, monkeypatch):
    """With each of 3 layers its own batch, an ingest makes 3 calls of
    ``scaled_float64`` per adapter it reads: a score converts the incoming
    adapter and every slot's once, and takes their norms from those
    conversions, and then the new slot's ``slot_cache`` or the merge's fold
    converts the incoming adapter once more. Each score keeps its bits: it
    equals ``adapter_similarity`` of fresh adapters."""
    monkeypatch.setattr(kmerge.lowrank, "FOLD_BATCH_BYTES", 1)
    convert, calls = kmerge.lowrank.scaled_float64, []

    def counting(b, a, scaling):
        calls.append(scaling)
        return convert(b, a, scaling)

    monkeypatch.setattr(kmerge.lowrank, "scaled_float64", counting)
    engine = MergeEngine(_config(3, variant="k_merge_pp", s=2.0))
    counts, decisions = [], []
    for adapter in _stream(rng, 6, n_keys=3):
        before = {k: slot.adapter for k, slot in engine.store.slots.items()}
        calls.clear()
        decision = engine.ingest(adapter)
        counts.append(len(calls))
        if decision.similarity is not None:
            decisions.append((decision.similarity, adapter, before[decision.slot_key]))
    # No slot, then 1 and 2 slots to score and allocate, then 3 to score and merge.
    assert counts == [3, 3 * 3, 3 * 4, 3 * 5, 3 * 5, 3 * 5]
    monkeypatch.undo()
    assert [score for score, *_ in decisions] == [adapter_similarity(x, y) for _, x, y in decisions]


@pytest.mark.parametrize("pair", ["key-sets", "widths"])
def test_k_merge_rejects_incompatible_adapter_without_scoring(rng, monkeypatch, pair):
    """An allocation that computes no score still rejects an adapter that
    cannot meet the slots, before the commit, with the error and message
    of the similarity it skips."""
    if pair == "key-sets":
        first, second = small_random_adapter("a", rng, n_keys=2), small_random_adapter("b", rng, n_keys=3)
    else:
        first, second = width_mismatched_pair(rng)
    engine = MergeEngine(_config(3))
    engine.ingest(first)
    with pytest.raises((IncompatibleAdapters, ShapeError)) as want:
        most_similar(second, engine.store.adapters_by_slot())
    monkeypatch.setattr(kmerge.engine, "most_similar", _no_scoring)
    with pytest.raises(type(want.value)) as got:
        engine.ingest(second)
    assert str(got.value) == str(want.value)
    assert engine.history.entries == {1: [1]} and engine.task_ids == {1: first.task_id}


def test_config_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(budget_k=0)
    with pytest.raises(ConfigError):
        PolicyConfig(budget_k=1, variant="nope")
    with pytest.raises(ConfigError):
        PolicyConfig(budget_k=1, variant="k_merge_pp")
    with pytest.raises(ConfigError, match="k_merge takes no threshold_s"):
        PolicyConfig(budget_k=1, variant="k_merge", threshold_s=0.5)


def test_fuzz_decisions_match_naive_reference(rng):
    for trial in range(30):
        k = int(rng.integers(1, 4))
        variant = ["k_merge", "k_merge_pp"][trial % 2]
        s = float(rng.uniform(-0.3, 0.3)) if variant == "k_merge_pp" else None
        engine = MergeEngine(_config(k, variant, s=s))
        naive = NaiveState(adapters={}, history={})
        for i in range(int(rng.integers(2, 9))):
            incoming = small_random_adapter(f"f{trial}-{i}", rng)
            expect_action, expect_key, _ = naive_policy_step(
                naive, incoming, variant, k, s
            )
            decision = engine.ingest(incoming)
            assert decision.action == expect_action
            assert decision.slot_key == expect_key
            # mirror the engine's stored state so both sides score the
            # same adapters on the next step
            naive.adapters = dict(engine.store.adapters_by_slot())
            naive.next_key = engine.store.occupied + 1


def test_persist_restore_roundtrip(tmp_path, rng):
    engine = MergeEngine(_config(2, "k_merge_pp", s=0.1))
    for a in _stream(rng, 6):
        engine.ingest(a)
    engine.persist(tmp_path)
    back = MergeEngine.restore(tmp_path)

    assert back.config == engine.config
    assert set(vars(engine)) == set(vars(back)) == {"config", "store", "task_ids"}
    assert back.task_ids == engine.task_ids
    assert [(k, s.tasks) for k, s in back.store.slots.items()] == [
        (k, s.tasks) for k, s in engine.store.slots.items()
    ]
    assert back.history.entries == engine.history.entries
    assert back.store.occupied == engine.store.occupied
    for key in engine.store.slots:
        orig, rest = engine.store.slots[key], back.store.slots[key]
        for lkey in orig.cache:
            np.testing.assert_array_equal(
                orig.cache[lkey].materialize(), rest.cache[lkey].materialize()
            )
        for lkey in orig.adapter.layers:
            np.testing.assert_array_equal(
                orig.adapter.layers[lkey].a, rest.adapter.layers[lkey].a
            )
            np.testing.assert_array_equal(
                orig.adapter.layers[lkey].b, rest.adapter.layers[lkey].b
            )


def test_restore_continues_identically(tmp_path, rng):
    """Interrupting after 5 tasks and restoring must match an
    uninterrupted 10-task run decision for decision."""
    adapters = _stream(rng, 10)
    full = MergeEngine(_config(2, "k_merge_pp", s=0.05))
    full_decisions = [full.ingest(a) for a in adapters]

    first = MergeEngine(_config(2, "k_merge_pp", s=0.05))
    for a in adapters[:5]:
        first.ingest(a)
    first.persist(tmp_path)
    resumed = MergeEngine.restore(tmp_path)
    resumed_decisions = [resumed.ingest(a) for a in adapters[5:]]

    for expect, got in zip(full_decisions[5:], resumed_decisions):
        assert got.action == expect.action
        assert got.slot_key == expect.slot_key
        assert got.task_index == expect.task_index
    assert resumed.history.entries == full.history.entries
    for key in full.store.slots:
        for lkey in full.store.slots[key].cache:
            np.testing.assert_allclose(
                resumed.store.slots[key].cache[lkey].materialize(),
                full.store.slots[key].cache[lkey].materialize(),
                rtol=1e-12,
            )


def _write_store(engine, directory, version):
    """Write ``engine``'s store to ``directory`` as ``persist`` wrote it at
    manifest ``version``, 4 or 5."""
    if version == MANIFEST_VERSION:
        engine.persist(directory)
    else:
        assert version == 4
        version4_persist(engine, directory)


def _persisted(tmp_path, rng, version=MANIFEST_VERSION):
    """A K=2 store of 4 adapters, written at manifest ``version``: slot 1
    has one member and keeps its adapter file, and at version 4 its cache
    too; slot 2 is merged and keeps its cache and no file."""
    engine = MergeEngine(_config(2))
    for a in _stream(rng, 4):
        engine.ingest(a)
    _write_store(engine, tmp_path, version)
    assert engine.history.entries == {1: [1], 2: [2, 3, 4]}
    assert sorted(p.name for p in tmp_path.glob("slot_*")) == ["slot_1.kmrg"]
    return engine


def test_restore_missing_manifest(tmp_path):
    with pytest.raises(RestoreError, match="manifest"):
        MergeEngine.restore(tmp_path)


def test_restore_bad_json(tmp_path, rng):
    _persisted(tmp_path, rng)
    path = tmp_path / "manifest.json"
    manifest = path.read_bytes()
    path.write_text("{not json")
    with pytest.raises(RestoreError, match="JSON"):
        MergeEngine.restore(tmp_path)
    path.write_bytes(manifest.replace(b'"version"', b'"\xff\xfeversion"'))
    with pytest.raises(RestoreError, match="manifest.json is not valid JSON: 'utf-8' codec"):
        MergeEngine.restore(tmp_path)


def test_restore_missing_field(tmp_path, rng):
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["budget_k"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match="budget_k"):
        MergeEngine.restore(tmp_path)


@pytest.mark.parametrize("version", [1, 2, 3, 42])
def test_restore_bad_version(tmp_path, rng, version):
    """Restore reads manifest versions 4 and 5 only. A store labelled with
    any other version, older or newer, is rejected by its label alone."""
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["version"] = version
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=rf"^unsupported manifest version {version}$"):
        MergeEngine.restore(tmp_path)


@pytest.mark.parametrize("version", [4, 5])
def test_restore_rejects_merged_slot_without_scaling(tmp_path, rng, version):
    """A slot of several members whose entry names no scaling is rejected,
    naming the slot, even with an adapter file beside it. Such a slot was
    held by its file, and stores restored from versions 1 and 2 held it so;
    a slot now has one member and its file, or several and a scaling."""
    engine = MergeEngine(_config(1))
    for a in _stream(rng, 2):
        engine.ingest(a)
    _write_store(engine, tmp_path, version)
    write_adapter(engine.store.slots[1].adapter, tmp_path / "slot_1.kmrg")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["slots"][0].pop("scaling") == engine.store.slots[1].derivation.scaling
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=r"^slots\[0\] has 2 tasks but no scaling; a merged slot has one$"):
        MergeEngine.restore(tmp_path)


def test_restore_missing_slot_file(tmp_path, rng):
    _persisted(tmp_path, rng)
    (tmp_path / "slot_1.kmrg").unlink()
    with pytest.raises(RestoreError, match="slot 1"):
        MergeEngine.restore(tmp_path)


def test_restore_missing_cache(tmp_path, rng):
    _persisted(tmp_path, rng)
    (tmp_path / "running_cache.bin").unlink()
    with pytest.raises(RestoreError, match="cache"):
        MergeEngine.restore(tmp_path)


def test_restore_truncated_cache(tmp_path, rng):
    _persisted(tmp_path, rng)
    blob = (tmp_path / "running_cache.bin").read_bytes()
    (tmp_path / "running_cache.bin").write_bytes(blob[:-16])
    # Merged slot 2's cache alone: 2 layers of rank 6 and widths 8 and 8.
    with pytest.raises(RestoreError, match=r"running_cache\.bin is 1520 bytes; persist writes 1536"):
        MergeEngine.restore(tmp_path)


# ``_persisted``'s version-5 manifest: layers [[0, "key", 8, 8], [0, "query",
# 8, 8]], slots [{"tasks": [1]}, {"tasks": [2, 3, 4], "scaling": 1.0,
# "ranks": [6, 6]}] and ingested ["task-0", ..., "task-3"]. Each case damages
# one entry of ``layers`` or ``slots``, by table and index.
NO_SCALING = r"slots\[1\] has 3 tasks but no scaling; a merged slot has one"
LAYER_0_SHAPE = r"layers\[0\] is {}; persist writes \[layer, proj, d_out, d_in\]"
FILE_GEOMETRY_DIFFERS = r"slots\[0\]: slot_1\.kmrg adapts other layers or shapes than layers"
NATURALS = r"slots\[{}\]\.{} is {}; persist writes a list of non-negative integers"

DAMAGED_ENTRIES = {
    # A merged slot's ranks place its cache entries in the cache file.
    "no-offset": ("slots", 1, lambda e: e.pop("ranks"), r"missing field 'slots\[1\]\.ranks'"),
    "negative-offset": (
        "slots", 1, lambda e: e["ranks"].__setitem__(0, -8),
        NATURALS.format(1, "ranks", r"\[-8, 6\]"),
    ),
    "null-offset": ("slots", 1, lambda e: e.__setitem__("ranks", None), NATURALS.format(1, "ranks", "None")),
    "bool-offset": (
        "slots", 1, lambda e: e["ranks"].__setitem__(1, False), NATURALS.format(1, "ranks", r"\[6, False\]")
    ),
    "inner-mismatch": (
        "slots", 1, lambda e: e["ranks"].__setitem__(0, 9),
        r"slots\[1\]\.ranks\[0\] is 9, above min\(d_out, d_in\) 8 of layers\[0\]",
    ),
    # A layer entry is [layer, proj, d_out, d_in]: b's rows and a's columns.
    "no-b_shape": ("layers", 0, lambda e: e.__setitem__(2, None), LAYER_0_SHAPE.format(r"\[0, 'key', None, 8\]")),
    "negative-b": ("layers", 0, lambda e: e.__setitem__(2, -1), LAYER_0_SHAPE.format(r"\[0, 'key', -1, 8\]")),
    "negative-a": ("layers", 0, lambda e: e.__setitem__(3, -2), LAYER_0_SHAPE.format(r"\[0, 'key', 8, -2\]")),
    "flat-b": ("layers", 0, lambda e: e.pop(), LAYER_0_SHAPE.format(r"\[0, 'key', 8\]")),
    "huge-shape": ("layers", 0, lambda e: e.__setitem__(2, 1 << 40), FILE_GEOMETRY_DIFFERS),
    "text-layer": ("layers", 0, lambda e: e.__setitem__(0, "x"), LAYER_0_SHAPE.format(r"\['x', 'key', 8, 8\]")),
    "digit-string-layer": (
        "layers", 0, lambda e: e.__setitem__(0, "3"),
        LAYER_0_SHAPE.format(r"\['3', 'key', 8, 8\]"),
    ),
    "unknown-proj": ("layers", 0, lambda e: e.__setitem__(1, "gate"), r"layers\[0\]: unknown projection 'gate'"),
    "number-proj": ("layers", 0, lambda e: e.__setitem__(1, 3), LAYER_0_SHAPE.format(r"\[0, 3, 8, 8\]")),
    # A slot entry holds its tasks and, if merged, the scaling it is served at.
    "no-tasks": ("slots", 0, lambda e: e.pop("tasks"), r"missing field 'slots\[0\]\.tasks'"),
    "no-file": ("slots", 1, lambda e: e.pop("scaling"), NO_SCALING),
    "text-task": (
        "slots", 0, lambda e: e["tasks"].__setitem__(0, "late"),
        NATURALS.format(0, "tasks", r"\['late'\]"),
    ),
    "scalar-tasks": ("slots", 0, lambda e: e.__setitem__("tasks", 3), NATURALS.format(0, "tasks", "3")),
    "digit-string-tasks": ("slots", 0, lambda e: e.__setitem__("tasks", "12"), NATURALS.format(0, "tasks", "'12'")),
    "float-task": ("slots", 0, lambda e: e["tasks"].__setitem__(0, 1.0), NATURALS.format(0, "tasks", r"\[1\.0\]")),
    # Slot keys are positions; an entry names none.
    "text-slot-key": (
        "slots", 0, lambda e: e.__setitem__("slot_key", "one"),
        r"slots\[0\]\.slot_key is 'one'; persist writes nothing there",
    ),
    "text-slot": (
        "slots", 1, lambda e: e.__setitem__("slot_key", "first"),
        r"slots\[1\]\.slot_key is 'first'; persist writes nothing there",
    ),
}


@pytest.mark.parametrize("table, index, damage, match", DAMAGED_ENTRIES.values(), ids=DAMAGED_ENTRIES)
def test_restore_damaged_entry(tmp_path, rng, table, index, damage, match):
    """Each damaged ``layers`` or ``slots`` entry of a version-5 manifest
    raises ``RestoreError`` naming it."""
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    damage(manifest[table][index])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


@pytest.mark.parametrize("field, value", [
    ("timestep", "late"), ("timestep", 2.7), ("timestep", "3"), ("next_slot_key", [2]),
    ("next_slot_key", True), ("ingested", [["one", "t0"]]), ("ingested", [["1", "t0"]]),
    ("ingested", [7]), ("ingested", [[1, 7]]),
    ("ingested", [[1, 7], [2, "task-1"], [3, "task-2"], [4, "task-3"]]),
])
def test_restore_non_integer_manifest_field(tmp_path, rng, field, value):
    """A version-5 manifest keeps no arrival count or next slot key, which
    restore derives, and lists the task ids alone, not as ``[index, id]``
    pairs: a manifest that holds either is rejected, naming the field."""
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=field):
        MergeEngine.restore(tmp_path)


def _slot(i, change):
    return lambda m: change(m["slots"][i])


def _ranks(manifest):
    """The ``ranks`` list of every slot entry that names one."""
    return [entry["ranks"] for entry in manifest["slots"] if "ranks" in entry]


def _no_layers(manifest):
    """List no layer, and so no rank in any slot."""
    manifest["layers"].clear()
    for ranks in _ranks(manifest):
        ranks.clear()


def _repeat_first_layer(manifest):
    """List layer 0 twice, with a rank for it in every slot that names ranks."""
    manifest["layers"].insert(1, manifest["layers"][0])
    for ranks in _ranks(manifest):
        ranks.insert(1, ranks[0])


def _last_layer_first(manifest):
    """Move the last layer to the front, with its rank in every slot that
    names ranks."""
    manifest["layers"].insert(0, manifest["layers"].pop())
    for ranks in _ranks(manifest):
        ranks.insert(0, ranks.pop())


def _move_tasks_to_first_slot(manifest):
    first, second = (entry["tasks"] for entry in manifest["slots"])
    first.extend(second)
    second.clear()


def _empty_first_slot(manifest):
    """Move slot 1's tasks to slot 2, in arrival order, so that they still
    partition the stream."""
    first, second = (entry["tasks"] for entry in manifest["slots"])
    second[:0] = first
    first.clear()


def _zero_width_rank(rank):
    """Give the 0 x 0 layer (entry 2) of a ``zero_width_adapter`` store's
    slot 1 cache rank ``rank``."""
    def damage(manifest):
        assert manifest["layers"][2][2:] == [0, 0]
        manifest["slots"][0]["ranks"][2] = rank
    return damage


def _renumber_ingested(manifest):
    manifest["ingested"] = [[len(manifest["ingested"]) - i, name] for i, name in enumerate(manifest["ingested"])]


# A third layer adds a layer that merged slot 2 holds no rank for.
SLOT_1_LAYER_ADDED = r"slots\[1\]\.ranks holds 2 ranks; layers holds 3 layers"


# Damage to the state a version-5 manifest describes, or to where its cache
# entries lie, of ``_persisted``'s store unless a case names another.
INCONSISTENT_MANIFESTS = {
    "shared-task-id": (lambda m: m["ingested"].__setitem__(1, m["ingested"][0]), "share a task id"),
    "task-in-two-slots": (_slot(1, lambda e: e["tasks"].append(1)), "partition"),
    "task-in-no-slot": (_slot(1, lambda e: e["tasks"].pop()), "partition"),
    "unknown-task-index": (_slot(1, lambda e: e["tasks"].append(99)), "partition"),
    # One task id per arrival.
    "timestep-behind-ingested": (lambda m: m["ingested"].pop(), "partition"),
    # Slot keys are taken in their first tasks' arrival order.
    "next-slot-key-occupied": (
        lambda m: m["slots"].reverse(),
        r"slots\[1\] begins at arrival 1, before slots\[0\]; slots are allocated in arrival order",
    ),
    "slot-entry-repeated": (lambda m: m["slots"].append(m["slots"][0]), "3 slots exceed budget_k 2"),
    "slot-without-tasks": (_empty_first_slot, r"slots\[0\]\.tasks is empty"),
    "slots-over-budget": (lambda m: m.__setitem__("budget_k", 1), "2 slots exceed budget_k 1"),
    # An ingest appends each arrival to its slot's tasks.
    "tasks-reversed": (
        _slot(1, lambda e: e["tasks"].reverse()),
        r"slots\[1\]\.tasks is \[4, 3, 2\]; a slot's tasks are in arrival order",
    ),
    # Each stored cache holds exactly the layers of ``layers``, at their shapes.
    "cache-layer-missing": (
        lambda m: m["layers"].pop(0), r"slots\[1\]\.ranks holds 2 ranks; layers holds 1 layers"
    ),
    "cache-layer-extra": (lambda m: m["layers"].append([99, "key", 8, 8]), SLOT_1_LAYER_ADDED),
    "cache-b-rows": (lambda m: m["layers"][0].__setitem__(2, 9), FILE_GEOMETRY_DIFFERS),
    "cache-a-columns": (lambda m: m["layers"][0].__setitem__(3, 7), FILE_GEOMETRY_DIFFERS),
    "cache-entry-repeated": (_repeat_first_layer, r"layers\[1\]\[1\] is 'key'; persist writes 'query'"),
    # Only a merged slot's cache is stored.
    "cache-unknown-slot": (
        _slot(0, lambda e: e.__setitem__("ranks", [2, 2])),
        r"slots\[0\]\.ranks is \[2, 2\]; persist writes nothing there",
    ),
    # Each cache entry lies where the ranks before it put it, and nowhere else.
    "cache-entry-aliased": (
        _slot(1, lambda e: e["ranks"].__setitem__(1, 5)), r"running_cache\.bin is 1536 bytes; persist writes 1408"
    ),
    "ingested-renumbered": (_renumber_ingested, r"ingested\[0\] is \[4, 'task-0'\]; persist writes a task id"),
    "scalar-slots": (lambda m: m.__setitem__("slots", 5), "slots is not a list"),
    "null-cache-index": (
        lambda m: m.__setitem__("cache_index", None), "cache_index is None; persist writes nothing there"
    ),
    "unknown-field": (lambda m: m.__setitem__("comment", "x"), "comment is 'x'; persist writes nothing there"),
    # A canonical cache entry has at most min(d_out, d_in) directions. At
    # version 4 a one-member slot names its cache ranks too.
    "rank-above-zero-widths": (
        "version-4-one-member-zero-widths", _zero_width_rank(3),
        r"slots\[0\]\.ranks\[2\] is 3, above min\(d_out, d_in\) 0 of layers\[2\]",
    ),
    "huge-rank-zero-widths": (
        "version-4-one-member-zero-widths", _zero_width_rank(2**62),
        r"slots\[0\]\.ranks\[2\] is 4611686018427387904, above min\(d_out, d_in\) 0 of layers\[2\]",
    ),
    "rank-above-zero-widths-merged": (
        "zero-widths", _zero_width_rank(3), r"slots\[0\]\.ranks\[2\] is 3, above min\(d_out, d_in\) 0 of layers\[2\]",
    ),
    # A width past numpy's size limit on a layer whose other width is 0
    # holds 0 bytes at rank 0: only viewing the cache can reject it.
    "huge-width-zero-rank": (
        "zero-widths", lambda m: m["layers"][2].__setitem__(3, 2**62),
        r"slots\[0\]: the cache of layer 0\.value is too large: b_shape \[0, 0\], a_shape \[0, 4611686018427387904\]",
    ),
}


@pytest.mark.parametrize("case", INCONSISTENT_MANIFESTS.values(), ids=INCONSISTENT_MANIFESTS)
def test_restore_rejects_inconsistent_manifest(tmp_path, rng, case):
    """Each version-5 manifest that describes a state no ingest reaches, or
    cache entries other than its cache file holds, raises ``RestoreError``."""
    _check_damaged_manifest(tmp_path, rng, case, 5)


def _stale_slot_2_file(manifest, store):
    """Drop merged slot 2's scaling, and leave slot 1's file as a stale
    ``slot_2.kmrg``, as an earlier store may have."""
    manifest["slots"][1].pop("scaling")
    (store / "slot_2.kmrg").write_bytes((store / "slot_1.kmrg").read_bytes())


def _slot_scaling(value, i=1):
    return lambda manifest, store: manifest["slots"][i].__setitem__("scaling", value)


def _merged_ranks(change):
    return lambda manifest, store: change(manifest["slots"][1]["ranks"])


def _scaling_message(value):
    return rf"slots\[1\]\.scaling is {value}; persist writes a finite nonzero float"


DAMAGED_MERGED_SLOTS = {
    "no-scaling": (lambda m, store: m["slots"][1].pop("scaling"), NO_SCALING),
    "no-scaling-stale-file": (_stale_slot_2_file, NO_SCALING),
    "file-and-scaling": (
        lambda m, store: m["slots"][1].__setitem__("file", "slot_2.kmrg"),
        r"slots\[1\]\.file is 'slot_2\.kmrg'; persist writes nothing there",
    ),
    "text-scaling": (_slot_scaling("0.5"), _scaling_message("'0.5'")),
    "integer-scaling": (_slot_scaling(1), _scaling_message(1)),
    "bool-scaling": (_slot_scaling(True), _scaling_message(True)),
    "null-scaling": (_slot_scaling(None), _scaling_message(None)),
    "nan-scaling": (_slot_scaling(float("nan")), _scaling_message("nan")),
    "inf-scaling": (_slot_scaling(float("-inf")), _scaling_message("-inf")),
    "zero-scaling": (_slot_scaling(0.0), _scaling_message("0.0")),
    "negative-zero-scaling": (_slot_scaling(-0.0), _scaling_message("-0.0")),
    # A merge adds a member to a slot that has one.
    "one-member-scaling": (
        _slot_scaling(1.0, 0), r"slots\[0\] has a scaling but one task; a merged slot has two or more",
    ),
    # Version 2 held every slot in a file, whatever its entry said; restore
    # reads it no more.
    "version-2-scaling": (lambda m, store: m.__setitem__("version", 2), "^unsupported manifest version 2$"),
    # A merged slot holds a cache entry for each layer, at most its layer's
    # smaller width, with JSON integers.
    "no-cache-entries": (lambda m, store: m["slots"][1].pop("ranks"), r"missing field 'slots\[1\]\.ranks'"),
    "other-layers": (
        _merged_ranks(lambda ranks: ranks.append(6)), r"slots\[1\]\.ranks holds 3 ranks; layers holds 2 layers"
    ),
    "text-layer": (
        _merged_ranks(lambda ranks: ranks.__setitem__(1, "6")),
        NATURALS.format(1, "ranks", r"\[6, '6'\]"),
    ),
    "unknown-proj": (
        lambda m, store: m["layers"][1].__setitem__(1, "gate"), r"layers\[1\]: unknown projection 'gate'"
    ),
    "float-rows": (
        _merged_ranks(lambda ranks: ranks.__setitem__(0, 6.0)),
        NATURALS.format(1, "ranks", r"\[6\.0, 6\]"),
    ),
    "no-a_shape": (_merged_ranks(list.clear), r"slots\[1\]\.ranks holds 0 ranks; layers holds 2 layers"),
}


@pytest.mark.parametrize("damage, match", DAMAGED_MERGED_SLOTS.values(), ids=DAMAGED_MERGED_SLOTS)
def test_restore_rejects_damaged_merged_slot(tmp_path, rng, damage, match):
    """A version-5 slot entry of several members holds a finite nonzero
    float scaling and one JSON integer rank for each layer; a one-member
    entry holds neither, and no entry names a file."""
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["slots"][1]) == ["tasks", "scaling", "ranks"]
    damage(manifest, tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


DAMAGED_CACHE_FILES = {
    # Merged slot 2's last cache entry, layer 0.query at rank 6, is its last 768 bytes.
    "gap-before-last-entry": (
        lambda blob: blob[:-768] + bytes(8) + blob[-768:], r"running_cache\.bin is 1544 bytes; persist writes 1536"
    ),
    "bytes-appended": (lambda blob: blob + bytes(64), r"running_cache\.bin is 1600 bytes; persist writes 1536"),
}


@pytest.mark.parametrize("damage, match", DAMAGED_CACHE_FILES.values(), ids=DAMAGED_CACHE_FILES)
def test_restore_rejects_damaged_cache_file(tmp_path, rng, damage, match):
    _persisted(tmp_path, rng)
    blob = damage((tmp_path / "running_cache.bin").read_bytes())
    (tmp_path / "running_cache.bin").write_bytes(blob)
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


def _zero_widths_persisted(tmp_path, rng, version=MANIFEST_VERSION, members=2):
    """A K=1 store of ``members`` rank-1 ``zero_width_adapter`` ingests,
    whose layers are ``4 x 0``, ``0 x 3``, ``0 x 0`` and ``5 x 6``, written
    at manifest ``version``."""
    engine = MergeEngine(_config(1, rank=1))
    for i in range(members):
        engine.ingest(zero_width_adapter(f"zero-widths-{i}", rng))
    _write_store(engine, tmp_path, version)
    assert len(list(tmp_path.glob("slot_*"))) == (members == 1)


def _mixed_geometry_persisted(tmp_path, rng, version=MANIFEST_VERSION):
    """The store of :func:`_mixed_geometry_engine`, written at manifest
    ``version``: two merged slots, tasks ``[1, 3]`` and ``[2, 4, 5]``."""
    engine = _mixed_geometry_engine(rng)
    assert engine.history.entries == {1: [1, 3], 2: [2, 4, 5]}
    _write_store(engine, tmp_path, version)
    assert not list(tmp_path.glob("slot_*"))


# ``_persisted``'s version-4 manifest: layers [[0, "key", 8, 8], [0, "query",
# 8, 8]], slots [{"tasks": [1], "ranks": [2, 2]}, {"tasks": [2, 3, 4],
# "scaling": 1.0, "ranks": [6, 6]}] and ingested ["task-0", ..., "task-3"].
# Damage marked "zero-widths" applies to a merged-only store of two
# ``zero_width_adapter`` ingests, whose layer 2 is 0 x 0, and damage marked
# "mixed-geometry" to ``_mixed_geometry_persisted``'s two merged slots.
DAMAGED_VERSION4_MANIFESTS = {
    "no-version": (lambda m: m.pop("version"), "missing field 'version'"),
    "no-layers": (lambda m: m.pop("layers"), "missing field 'layers'"),
    "no-slots": (lambda m: m.pop("slots"), "missing field 'slots'"),
    "no-ingested": (lambda m: m.pop("ingested"), "missing field 'ingested'"),
    "no-tasks": (_slot(0, lambda e: e.pop("tasks")), r"missing field 'slots\[0\]\.tasks'"),
    "no-ranks": (_slot(1, lambda e: e.pop("ranks")), r"missing field 'slots\[1\]\.ranks'"),
    # Each field has one JSON type.
    "text-version": (lambda m: m.__setitem__("version", "4"), "version is not an integer: '4'"),
    "object-layers": (lambda m: m.__setitem__("layers", {}), "layers is not a list"),
    "short-layer": (
        lambda m: m["layers"][1].pop(),
        r"layers\[1\] is \[0, 'query', 8\]; persist writes \[layer, proj, d_out, d_in\]",
    ),
    "long-layer": (lambda m: m["layers"][0].append(2), r"layers\[0\] is \[0, 'key', 8, 8, 2\]"),
    "text-width": (lambda m: m["layers"][0].__setitem__(2, "8"), r"layers\[0\] is \[0, 'key', '8', 8\]"),
    "float-width": (lambda m: m["layers"][1].__setitem__(3, 8.0), r"layers\[1\] is \[0, 'query', 8, 8\.0\]"),
    "number-proj": (lambda m: m["layers"][0].__setitem__(1, 0), r"layers\[0\] is \[0, 0, 8, 8\]"),
    "null-slots": (lambda m: m.__setitem__("slots", None), "slots is not a list"),
    "text-slot": (
        lambda m: m["slots"].__setitem__(0, "slot_1.kmrg"),
        r"slots\[0\] is 'slot_1\.kmrg'; persist writes an object",
    ),
    "text-ranks": (_slot(0, lambda e: e.__setitem__("ranks", "22")), r"slots\[0\]\.ranks is '22'"),
    "float-task": (_slot(1, lambda e: e["tasks"].__setitem__(0, 2.0)), r"slots\[1\]\.tasks is \[2\.0, 3, 4\]"),
    "text-scaling": (
        _slot(1, lambda e: e.__setitem__("scaling", "1.0")),
        r"slots\[1\]\.scaling is '1\.0'; persist writes a finite nonzero float",
    ),
    "integer-scaling": (_slot(1, lambda e: e.__setitem__("scaling", 1)), r"slots\[1\]\.scaling is 1;"),
    "zero-scaling": (_slot(1, lambda e: e.__setitem__("scaling", 0.0)), r"slots\[1\]\.scaling is 0\.0;"),
    "nan-scaling": (_slot(1, lambda e: e.__setitem__("scaling", float("nan"))), r"slots\[1\]\.scaling is nan;"),
    "number-task-id": (
        lambda m: m["ingested"].__setitem__(2, 3), r"ingested\[2\] is 3; persist writes a task id"
    ),
    "pair-task-id": (lambda m: m["ingested"].__setitem__(0, [1, "task-0"]), r"ingested\[0\] is \[1, 'task-0'\]"),
    # ``true`` is no integer.
    "bool-version": (lambda m: m.__setitem__("version", True), "version is not an integer: True"),
    "bool-layer": (lambda m: m["layers"][0].__setitem__(0, False), r"layers\[0\] is \[False, 'key', 8, 8\]"),
    "bool-width": (lambda m: m["layers"][0].__setitem__(3, True), r"layers\[0\] is \[0, 'key', 8, True\]"),
    "bool-rank": (_slot(0, lambda e: e["ranks"].__setitem__(0, True)), r"slots\[0\]\.ranks is \[True, 2\]"),
    "bool-task": (_slot(0, lambda e: e["tasks"].__setitem__(0, True)), r"slots\[0\]\.tasks is \[True\]"),
    # One rank per layer, each at most the layer's smaller side.
    "ranks-short": (
        _slot(1, lambda e: e["ranks"].pop()), r"slots\[1\]\.ranks holds 1 ranks; layers holds 2 layers"
    ),
    "ranks-long": (
        _slot(0, lambda e: e["ranks"].append(0)), r"slots\[0\]\.ranks holds 3 ranks; layers holds 2 layers"
    ),
    "rank-above-widths": (
        _slot(1, lambda e: e["ranks"].__setitem__(1, 9)),
        r"slots\[1\]\.ranks\[1\] is 9, above min\(d_out, d_in\) 8 of layers\[1\]",
    ),
    "negative-rank": (_slot(0, lambda e: e["ranks"].__setitem__(0, -1)), r"slots\[0\]\.ranks is \[-1, 2\]"),
    "negative-width": (lambda m: m["layers"][0].__setitem__(3, -8), r"layers\[0\] is \[0, 'key', 8, -8\]"),
    "rank-above-zero-widths": (
        "zero-widths", _slot(0, lambda e: e["ranks"].__setitem__(2, 3)),
        r"slots\[0\]\.ranks\[2\] is 3, above min\(d_out, d_in\) 0 of layers\[2\]",
    ),
    "huge-rank-zero-widths": (
        "zero-widths", _slot(0, lambda e: e["ranks"].__setitem__(2, 2**62)),
        r"slots\[0\]\.ranks\[2\] is 4611686018427387904, above min\(d_out, d_in\) 0 of layers\[2\]",
    ),
    # ``layers`` lists each layer once, in sorted key order, with known projections.
    "layers-unsorted": (
        lambda m: m["layers"].reverse(), r"layers\[0\]\[1\] is 'query'; persist writes 'key'"
    ),
    "layers-unsorted-merged": (
        "zero-widths", _last_layer_first,
        r"layers\[0\]\[0\] is 1; persist writes 0",
    ),
    "layer-repeated": (_repeat_first_layer, r"layers\[1\]\[1\] is 'key'; persist writes 'query'"),
    "layer-repeated-merged": (
        "zero-widths", _repeat_first_layer, r"layers\[1\]\[1\] is 'key'; persist writes 'query'"
    ),
    "unknown-proj": (
        lambda m: m["layers"][1].__setitem__(1, "gate"), r"layers\[1\]: unknown projection 'gate'"
    ),
    "negative-layer": (
        lambda m: m["layers"][0].__setitem__(0, -1), r"layers\[0\]: layer index must be >= 0, got -1"
    ),
    "no-layers-listed": (_no_layers, "layers is empty; every slot adapts at least one layer"),
    # A one-member slot's file adapts ``layers``.
    "file-geometry-differs": (
        lambda m: m["layers"][1].__setitem__(2, 7),
        r"slots\[0\]: slot_1\.kmrg adapts other layers or shapes than layers",
    ),
    "file-layer-differs": (
        lambda m: m["layers"][1].__setitem__(0, 1),
        r"slots\[0\]: slot_1\.kmrg adapts other layers or shapes than layers",
    ),
    # Nothing that persist does not write.
    "extra-top-level-key": (
        lambda m: m.__setitem__("cache_index", []), r"cache_index is \[\]; persist writes nothing there"
    ),
    "extra-slot-key": (
        _slot(0, lambda e: e.__setitem__("file", "slot_1.kmrg")),
        r"slots\[0\]\.file is 'slot_1\.kmrg'; persist writes nothing there",
    ),
    "extra-slot-key-merged": (
        _slot(1, lambda e: e.__setitem__("merge_count", 3)),
        r"slots\[1\]\.merge_count is 3; persist writes nothing there",
    ),
    # A state that ingests reach.
    "shared-task-id": (lambda m: m["ingested"].__setitem__(1, m["ingested"][0]), "share a task id"),
    "task-in-two-slots": (_slot(1, lambda e: e["tasks"].append(1)), "partition"),
    "task-in-no-slot": (_slot(1, lambda e: e["tasks"].pop()), "partition"),
    "unknown-task-index": (_slot(0, lambda e: e["tasks"].append(99)), "partition"),
    "ingested-extra": (lambda m: m["ingested"].append("task-9"), "partition"),
    "slot-without-tasks": (_move_tasks_to_first_slot, r"slots\[1\]\.tasks is empty"),
    "slots-over-budget": (lambda m: m.__setitem__("budget_k", 1), "2 slots exceed budget_k 1"),
    "scaling-on-one-member": (
        _slot(0, lambda e: e.__setitem__("scaling", 1.0)),
        r"slots\[0\] has a scaling but one task; a merged slot has two or more",
    ),
    "no-scaling": (_slot(1, lambda e: e.pop("scaling")), NO_SCALING),
    # A one-member slot's file holds its member's task id, as swapped
    # ``ingested`` entries would route each id to the other's slot; a store
    # with no slot adapts no layer.
    "task-ids-swapped": (
        lambda m: m["ingested"].insert(0, m["ingested"].pop(1)),
        r"^slots\[0\]: slot_1\.kmrg holds task 'task-0', but its member, arrival 1, is ingested\[0\] 'task-1'$",
    ),
    "slot-less-layers": (
        "no-slot", lambda m: m["layers"].append([0, "key", 8, 8]),
        r"^layers\[0\] is \[0, 'key', 8, 8\]; persist writes nothing there$",
    ),
    # An ingest appends each arrival to its slot's tasks, and allocates slots
    # in their first members' arrival order. Swapped, two merged slots would
    # route each one's tasks to the other's cache.
    "tasks-reversed": (
        _slot(1, lambda e: e["tasks"].reverse()),
        r"slots\[1\]\.tasks is \[4, 3, 2\]; a slot's tasks are in arrival order",
    ),
    "slots-swapped": (
        "mixed-geometry", lambda m: m["slots"].reverse(),
        r"slots\[1\] begins at arrival 1, before slots\[0\]; slots are allocated in arrival order",
    ),
}


# Version 5 keeps no cache of ``_persisted``'s one-member slot 1, so its entry
# names no ranks: the version-4 cases that damage them damage slot 2's here.
ONE_MEMBER_RANKS = ("text-ranks", "bool-rank", "ranks-long", "negative-rank")
DAMAGED_VERSION5_MANIFESTS = {
    **{name: case for name, case in DAMAGED_VERSION4_MANIFESTS.items() if name not in ONE_MEMBER_RANKS},
    "text-ranks-merged": (_slot(1, lambda e: e.__setitem__("ranks", "66")), r"slots\[1\]\.ranks is '66'"),
    "bool-rank-merged": (_slot(1, lambda e: e["ranks"].__setitem__(0, True)), r"slots\[1\]\.ranks is \[True, 6\]"),
    "ranks-long-merged": (
        _slot(1, lambda e: e["ranks"].append(0)), r"slots\[1\]\.ranks holds 3 ranks; layers holds 2 layers"
    ),
    "negative-rank-merged": (_slot(1, lambda e: e["ranks"].__setitem__(0, -1)), r"slots\[1\]\.ranks is \[-1, 6\]"),
    # A task added to one-member slot 1 makes it a slot whose cache is stored.
    "unknown-task-index": (_slot(0, lambda e: e["tasks"].append(99)), r"missing field 'slots\[0\]\.ranks'"),
    "unknown-task-index-merged": (_slot(1, lambda e: e["tasks"].append(99)), "partition"),
    "slot-without-tasks": (_move_tasks_to_first_slot, r"missing field 'slots\[0\]\.ranks'"),
    "first-slot-without-tasks": (_slot(0, lambda e: e["tasks"].clear()), r"slots\[0\]\.tasks is empty"),
    # Only a slot of several members stores its cache and names its ranks.
    "one-member-ranks": (
        _slot(0, lambda e: e.__setitem__("ranks", [2, 2])),
        r"slots\[0\]\.ranks is \[2, 2\]; persist writes nothing there",
    ),
    "one-member-text-ranks": (
        _slot(0, lambda e: e.__setitem__("ranks", "22")), r"slots\[0\]\.ranks is '22'; persist writes nothing there"
    ),
    # A slot of several members keeps its cache, so its entry must name
    # ranks, also when it names no scaling.
    "file-held-merged-no-ranks": (
        _slot(1, lambda e: (e.pop("scaling"), e.pop("ranks"))), r"missing field 'slots\[1\]\.ranks'"
    ),
    # A version-4 store names the ranks of one-member slot 1, which version 5
    # derives; a version-5 store names none, which version 4 requires.
    "version-4-relabelled": (
        "version-4", lambda m: m.__setitem__("version", 5),
        r"slots\[0\]\.ranks is \[2, 2\]; persist writes nothing there",
    ),
    "version-5-relabelled": (lambda m: m.__setitem__("version", 4), r"missing field 'slots\[0\]\.ranks'"),
}

DAMAGED_STORES = {
    "no-slot": lambda tmp_path, rng, version: _write_store(MergeEngine(_config(2)), tmp_path, version),
    "zero-widths": _zero_widths_persisted,
    "mixed-geometry": _mixed_geometry_persisted,
    "version-4": lambda tmp_path, rng, version: _persisted(tmp_path, rng, 4),
    "version-4-one-member-zero-widths": lambda tmp_path, rng, version: _zero_widths_persisted(tmp_path, rng, 4, 1),
}


def _check_damaged_manifest(tmp_path, rng, case, version):
    """Write the store a ``case`` names (``_persisted``'s by default) at
    manifest ``version``, damage its manifest and require ``RestoreError``
    matching the case's message."""
    *store, damage, match = case
    if store:
        DAMAGED_STORES[store[0]](tmp_path, rng, version)
    else:
        _persisted(tmp_path, rng, version)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == (4 if store and store[0].startswith("version-4") else version)
    damage(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


@pytest.mark.parametrize("case", DAMAGED_VERSION4_MANIFESTS.values(), ids=DAMAGED_VERSION4_MANIFESTS)
def test_restore_rejects_damaged_version4_manifest(tmp_path, rng, case):
    """Each damaged version-4 manifest, of a store as ``persist`` wrote it
    at that version, raises ``RestoreError`` naming the field, before the
    cache file is opened."""
    _check_damaged_manifest(tmp_path, rng, case, 4)


@pytest.mark.parametrize("case", DAMAGED_VERSION5_MANIFESTS.values(), ids=DAMAGED_VERSION5_MANIFESTS)
def test_restore_rejects_damaged_version5_manifest(tmp_path, rng, case):
    """Each damaged version-5 manifest raises ``RestoreError`` naming the
    field, before the cache file is opened."""
    _check_damaged_manifest(tmp_path, rng, case, 5)


POLICY_KEYS = ["budget_k", "variant", "threshold_s", "operator", "rank_policy"]


def test_manifest_holds_each_fact_once(tmp_path, rng):
    """The exact keys of a version-5 manifest and of its slot entries, in
    order: a merged slot's entry adds ``scaling`` and ``ranks``, and a
    one-member slot's names neither, as its cache is derived from its file.
    Shown for the default grid (merged and one-member slots), a
    mixed-geometry engine (merged slots, zero-width layers) and an engine
    with no slot."""
    top = ["version", *POLICY_KEYS, "layers", "slots", "ingested"]
    held, merged = ["tasks"], ["tasks", "scaling", "ranks"]
    cases = {
        "default-grid": (_default_grid_engine(), [merged] * 3 + [held] * 2),
        "mixed-geometry": (_mixed_geometry_engine(rng), [merged] * 2),
        "no-slot": (MergeEngine(_config(2)), []),
    }
    for name, (engine, slot_keys) in cases.items():
        engine.persist(tmp_path / name)
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert list(manifest) == top
        assert [list(entry) for entry in manifest["slots"]] == slot_keys
        assert manifest["ingested"] == [engine.task_ids[t] for t in sorted(engine.task_ids)]
        for entry, slot in zip(manifest["slots"], engine.store.slots.values()):
            assert entry["tasks"] == list(slot.tasks)
    default = json.loads((tmp_path / "default-grid" / "manifest.json").read_text())
    assert len(default["layers"]) == 16 and [len(ranks) for ranks in _ranks(default)] == [16] * 3
    mixed = json.loads((tmp_path / "mixed-geometry" / "manifest.json").read_text())
    assert mixed["layers"] == [[0, "key", 4, 0], [0, "query", 0, 3], [0, "value", 0, 0], [1, "key", 5, 6]]
    assert [entry["ranks"] for entry in mixed["slots"]] == [[0, 0, 0, 2], [0, 0, 0, 3]]
    empty = json.loads((tmp_path / "no-slot" / "manifest.json").read_text())
    assert empty == {"version": 5, **_config(2).to_dict(), "layers": [], "slots": [], "ingested": []}


def _changes(value):
    """The probe's changes of one JSON value outside the policy, by name: an
    integer moved by one or retyped, the float scaled, zeroed, made
    non-finite or retyped, a string renamed, emptied or retyped, a list or
    object made null."""
    retyped = {"made null": None, "wrapped in a list": [value]}
    if type(value) is int:
        return {"+1": value + 1, "-1": value - 1, "as float": float(value), "as bool": bool(value),
                "as str": str(value), **retyped}
    if type(value) is float:
        return {"doubled": value * 2, "negated": -value, "zeroed": 0.0, "negative zero": -0.0,
                "infinite": math.inf, "NaN": math.nan, "as int": int(value), "as bool": bool(value),
                "as str": str(value), **retyped}
    if type(value) is str:
        return {"renamed": value + "-renamed", "emptied": "", "as int": 1, **retyped}
    return {"made null": None}


def _nodes(node, keys=(), name="manifest"):
    """``(keys, name, value)`` of ``node`` and of every value below it, in
    document order: the keys that reach it and its name as restore's
    messages write it."""
    yield keys, name, node
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in items:
        child_name = f"{name}[{key}]" if type(node) is list else key if not keys else f"{name}.{key}"
        yield from _nodes(child, (*keys, key), child_name)


def _manifest_edits(manifest):
    """Each distinct edit of ``manifest`` that the probe makes, as its name ->
    the edited manifest's JSON text: every value outside the policy changed
    (:func:`_changes`); every key dropped and every object given an unknown
    key; every list item dropped or repeated, every adjacent pair swapped,
    and every list emptied or given a trailing null. An edit that leaves the
    manifest as it was, or as an earlier edit left it, is made once."""
    policy = set(POLICY_KEYS)
    original, edits = json.dumps(manifest), {}

    def edit(name, keys, change):
        edited = json.loads(original)
        change(reduce(getitem, keys, edited))
        text = json.dumps(edited)
        if text != original and text not in edits:
            edits[text] = name

    def set_to(key, value):
        return lambda parent: parent.__setitem__(key, value)

    for keys, name, node in _nodes(manifest):
        if keys and keys[0] not in policy:
            for change, value in _changes(node).items():
                edit(f"{name} {change}", keys[:-1], set_to(keys[-1], value))
        if type(node) is dict:
            for key in node:
                edit(f"{name} drops {key}", keys, lambda n, key=key: n.pop(key))
            edit(f"{name} gains a key", keys, set_to("unknown", None))
        if type(node) is list:
            for i in range(len(node)):
                edit(f"{name}[{i}] dropped", keys, lambda n, i=i: n.pop(i))
                edit(f"{name}[{i}] repeated", keys, lambda n, i=i: n.insert(i, n[i]))
            for i in range(len(node) - 1):
                edit(f"{name}[{i}] swapped with the next", keys, lambda n, i=i: n.insert(i, n.pop(i + 1)))
            edit(f"{name} emptied", keys, list.clear)
            edit(f"{name} gains a null", keys, lambda n: n.append(None))
    return {name: text for text, name in edits.items()}


PROBED_STORES = {
    "persisted": _persisted, "zero-widths": _zero_widths_persisted, "mixed-geometry": _mixed_geometry_persisted,
}


def _rescaled(*slots):
    return [f"slots[{i}].scaling {change}" for i in slots for change in ("doubled", "negated")]


def _swapped(*arrivals):
    return [f"ingested[{i}] swapped with the next" for i in arrivals]


def _renamed(*arrivals):
    return [f"ingested[{i}] {change}" for i in arrivals for change in ("renamed", "emptied")]


# The zero-widths and mixed-geometry stores' layers are [[0, "key", 4, 0],
# [0, "query", 0, 3], [0, "value", 0, 0], [1, "key", 5, 6]], and every slot
# is merged, so ``layers`` is the only record of the geometry: the widths of
# a layer every cache holds at rank 0, the last layer's widths swapped (its
# cache bytes then read as other factors) and its index are free.
MERGED_GEOMETRY = [
    "layers[0][2] swapped with the next", "layers[0][2] +1", "layers[0][2] -1", "layers[0][3] +1",
    "layers[1][2] swapped with the next", "layers[1][2] +1", "layers[1][3] +1", "layers[1][3] -1",
    "layers[2][2] +1", "layers[2][3] +1", "layers[3][2] swapped with the next", "layers[3][0] +1",
]

# The edits that restore, by store and version; only a checksum (ROADMAP
# item 7) can judge them. A merged slot's scaling doubled or negated serves
# its cache at another scaling. A merged slot's member's task id renamed,
# emptied or swapped with the next arrival's is recorded nowhere else; a
# one-member slot's file names its own. A store whose slots are all merged
# is the same store at versions 4 and 5, so its version relabels freely.
PERSISTED_EDITS = [*_rescaled(1), *_swapped(1, 2), *_renamed(1, 2, 3)]
ZERO_WIDTHS_EDITS = [*MERGED_GEOMETRY, *_rescaled(0), *_swapped(0), *_renamed(0, 1)]
MIXED_GEOMETRY_EDITS = [*MERGED_GEOMETRY, *_rescaled(0, 1), *_swapped(0, 1, 2, 3), *_renamed(0, 1, 2, 3, 4)]
RESTORING_EDITS = {
    ("persisted", 4): PERSISTED_EDITS,
    ("persisted", 5): PERSISTED_EDITS,
    ("zero-widths", 4): ["version +1", *ZERO_WIDTHS_EDITS],
    ("zero-widths", 5): ["version -1", *ZERO_WIDTHS_EDITS],
    ("mixed-geometry", 4): ["version +1", *MIXED_GEOMETRY_EDITS],
    ("mixed-geometry", 5): ["version -1", *MIXED_GEOMETRY_EDITS],
}


@pytest.mark.parametrize("store", PROBED_STORES)
@pytest.mark.parametrize("version", [4, 5])
def test_restore_rejects_every_manifest_edit(tmp_path, rng, version, store):
    """Restore rejects every edit of a manifest that :func:`_manifest_edits`
    makes with ``RestoreError`` and no other exception, but for the edits
    of ``RESTORING_EDITS``, which only a checksum can judge."""
    PROBED_STORES[store](tmp_path, rng, version)
    path = tmp_path / "manifest.json"
    restored = []
    for name, text in _manifest_edits(json.loads(path.read_text())).items():
        path.write_text(text)
        try:
            MergeEngine.restore(tmp_path)
        except RestoreError:
            continue
        restored.append(name)
    assert restored == RESTORING_EDITS[store, version]


@pytest.mark.parametrize("outside", ["parent", "absolute"])
@pytest.mark.parametrize("field", ["file", "running_cache_file"])
def test_restore_rejects_file_outside_store(tmp_path, rng, field, outside):
    """A manifest naming a file outside its store is rejected, even when
    that file exists and holds the right bytes: restore derives every file
    name, so a version-5 manifest names none."""
    store = tmp_path / "store"
    _persisted(store, rng)
    manifest = json.loads((store / "manifest.json").read_text())
    owner, name = (manifest["slots"][0], "slot_1.kmrg") if field == "file" else (manifest, "running_cache.bin")
    copy = tmp_path / name
    copy.write_bytes((store / name).read_bytes())
    owner[field] = f"../{copy.name}" if outside == "parent" else str(copy)
    (store / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=rf"{field} is '.+'; persist writes nothing there"):
        MergeEngine.restore(store)


@pytest.mark.parametrize("mode, match", [
    pytest.param("svd_truncate", r"^rank_policy\.mode is 'svd_truncate'; persist writes nothing there$",
                 id="svd_truncate"),
    pytest.param("factor_average", r"^manifest policy: unsupported rank_policy\.mode 'factor_average'$",
                 id="factor_average"),
])
def test_restore_stored_rank_mode(tmp_path, rng, mode, match):
    """No store that ``persist`` wrote at version 4 or 5 names a rank mode,
    so a store that names one is rejected, naming ``rank_policy.mode``:
    ``svd_truncate``, which a ``--config`` file may name, because the policy
    must be the one ``persist`` writes, and any other mode as the policy
    reader rejects it."""
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["rank_policy"]["mode"] = mode
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


def test_restore_invalid_policy_value(tmp_path, rng):
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["operator"]["density"] = "half"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match="policy"):
        MergeEngine.restore(tmp_path)


MISTYPED_POLICIES = {
    "bool-budget_k": ("budget_k", True),
    "fractional-budget_k": ("budget_k", 2.5),
    "number-variant": ("variant", 1),
    "text-threshold_s": ("threshold_s", "0.3"),
    "fractional-target_rank": ("rank_policy.target_rank", 3.5),
    "text-density": ("operator.density", "0.5"),
    "null-drop_rate": ("operator.drop_rate", None),
    "float-rng_seed": ("operator.rng_seed", 1.0),
}


def _set_path(data, path, value):
    *parents, last = path.split(".")
    for part in parents:
        data = data[part]
    data[last] = value


@pytest.mark.parametrize("path, value", MISTYPED_POLICIES.values(), ids=MISTYPED_POLICIES)
def test_mistyped_policy_field_rejected(tmp_path, rng, path, value):
    """A policy field of the wrong JSON type is rejected by name, both by
    ``from_dict`` and by ``restore``, instead of failing at first use."""
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    _set_path(manifest, path, value)
    with pytest.raises(ConfigError, match=path):
        PolicyConfig.from_dict(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=path):
        MergeEngine.restore(tmp_path)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_threshold_must_be_finite(tmp_path, rng, threshold):
    """A non-finite threshold is rejected when built, when read back by
    ``from_dict`` and when a store names one."""
    with pytest.raises(ConfigError, match="threshold_s must be finite"):
        _config(2, "k_merge_pp", threshold)
    engine = MergeEngine(_config(2, "k_merge_pp", 0.5))
    for a in _stream(rng, 3):
        engine.ingest(a)
    engine.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["threshold_s"] = threshold
    with pytest.raises(ConfigError, match="threshold_s must be finite"):
        PolicyConfig.from_dict(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match="threshold_s must be finite"):
        MergeEngine.restore(tmp_path)


def test_policy_numbers_may_be_integers():
    data = PolicyConfig(budget_k=2, variant="k_merge_pp", threshold_s=0.25).to_dict()
    data["threshold_s"], data["operator"]["density"], data["operator"]["drop_rate"] = 1, 1, 0
    config = PolicyConfig.from_dict(data)
    assert (config.threshold_s, config.operator.density, config.operator.drop_rate) == (1, 1, 0)


def test_restore_slot_header_missing_field(tmp_path, rng):
    _persisted(tmp_path, rng)
    rewrite_header(tmp_path / "slot_1.kmrg", lambda h: h["layers"][0].pop("d_in"))
    with pytest.raises(FormatError, match="d_in"):
        MergeEngine.restore(tmp_path)


def test_restore_slot_header_declaring_a_huge_tensor(tmp_path, rng):
    """A slot file that declares more payload than it holds is rejected
    before restore allocates the declared tensor."""
    _persisted(tmp_path, rng)
    rewrite_header(tmp_path / "slot_1.kmrg", lambda h: h["layers"][0].__setitem__("d_in", 2**45))
    with pytest.raises(FormatError, match="truncated payload"):
        MergeEngine.restore(tmp_path)


def test_restore_truncated_slot_file_is_named(tmp_path, rng):
    """A slot file that lost its last 3 bytes fails restore with the parse
    error of those bytes, its text and offset kept, behind the file's path."""
    _persisted(tmp_path, rng)
    path = tmp_path / "slot_1.kmrg"
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError) as unnamed:
        parse_adapter(path.read_bytes())
    with pytest.raises(FormatError, match="truncated payload while reading B tensor") as named:
        MergeEngine.restore(tmp_path)
    assert str(named.value) == f"{path}: {unnamed.value}"
    assert named.value.offset == unnamed.value.offset is not None


@pytest.mark.parametrize("tensor", ["A", "B"])
def test_restore_non_finite_slot_tensor_is_named(tmp_path, rng, tensor):
    """A NaN in a slot file fails restore with the parse error naming the
    file and the layer holding it."""
    _persisted(tmp_path, rng)
    path = tmp_path / "slot_1.kmrg"
    poison_tensor(path, 1, tensor, np.nan)
    with pytest.raises(FormatError) as exc:
        MergeEngine.restore(tmp_path)
    assert str(exc.value) == f"{path}: invalid tensors for layer 0.query: factor matrices must be finite"


@pytest.mark.parametrize("target", ["slot_1.kmrg", "running_cache.bin", "manifest.json"])
def test_failed_persist_leaves_no_temporary_file(tmp_path, rng, monkeypatch, target):
    """A persist that fails on ``target``, whether a directory is in the way
    of its rename or its vectored write raises after writing part of it,
    leaves no temporary file."""
    engine = MergeEngine(_config(2))
    for a in _stream(rng, 4):
        engine.ingest(a)
    blocked = tmp_path / "blocked"
    (blocked / target).mkdir(parents=True)
    with pytest.raises(OSError):
        engine.persist(blocked)
    assert (blocked / target).is_dir()
    assert not list(blocked.glob("*.tmp"))

    full = tmp_path / "full"
    writev = os.writev

    def disk_full(fd, buffers):
        tmp = full / f"{target}.tmp"
        if tmp.exists() and os.fstat(fd).st_ino == tmp.stat().st_ino:
            writev(fd, [memoryview(buffers[0])[:3]])
            raise OSError(errno.ENOSPC, "No space left on device")
        return writev(fd, buffers)

    monkeypatch.setattr(os, "writev", disk_full)
    with pytest.raises(OSError, match="No space left on device"):
        engine.persist(full)
    assert not (full / target).exists()
    assert not list(full.glob("*.tmp"))


def test_persist_and_restore_format_no_layer_names(tmp_path, rng, monkeypatch):
    """Messages naming a layer are built only when raising, so a valid
    store persists and restores without formatting any layer key."""
    engine = _persisted(tmp_path / "before", rng)

    def no_str(key):
        raise AssertionError(f"formatted layer key {key.layer}.{key.proj}")

    monkeypatch.setattr(LayerKey, "__str__", no_str)
    engine.persist(tmp_path / "store")
    restored = MergeEngine.restore(tmp_path / "store")
    assert restored.history.entries == engine.history.entries


def test_restore_builds_each_slot_once_with_its_cache(tmp_path, rng, monkeypatch, profile_builds):
    """``restore`` builds every ``SlotState`` once, with what its store
    keeps, and derives nothing: merged slot 2 is built with a cache entry
    for each layer and no adapter, one-member slot 1 with its adapter and
    no cache, and no ``slot_cache``, ``refactor`` or profile runs. The first
    merge into slot 1 derives its cache once, from its adapter."""
    engine = _persisted(tmp_path, rng)
    profile_builds.clear()
    built, derived = [], []

    def recording(adapter, cache, tasks, derivation=None, profile=None):
        slot = SlotState(adapter, cache, tasks, derivation, profile)
        built.append((slot, adapter, cache))
        return slot

    def counting(adapter):
        derived.append(adapter)
        return slot_cache(adapter)

    monkeypatch.setattr(kmerge.engine, "slot_cache", counting)
    with monkeypatch.context() as patch:
        patch.setattr(kmerge.store, "SlotState", recording)
        patch.setattr(kmerge.engine, "refactor", _no_refactor)
        restored = MergeEngine.restore(tmp_path)
    assert [id(slot) for slot, *_ in built] == [id(slot) for slot in restored.store.slots.values()]
    (one, one_adapter, one_cache), (merged, merged_adapter, merged_cache) = built
    assert one_adapter is not None and one_cache is None and one.held_cache is None
    assert merged_adapter is None and set(merged_cache) == set(engine.store.slots[2].adapter.layers)
    assert derived == [] and profile_builds == []

    # Slot 1's own member again, under a new task id, merges into slot 1.
    decision = restored.ingest(replace(one_adapter, task_id="again"))
    assert (decision.action, decision.slot_key) == (MERGED, 1)
    assert derived == [one_adapter]


@pytest.mark.parametrize("store", ["small", "default-grid"])
def test_restored_one_member_cache_is_its_allocation_cache(tmp_path, rng, store):
    """A restored one-member slot's first ``cache`` read derives the cache
    its allocation built, bit for bit, once and read-only: ``_persisted``'s
    slot 1, and the default grid's slots 4 and 5, whose 16 layers
    ``slot_cache`` stacks in batches."""
    if store == "small":
        engine, single = _persisted(tmp_path, rng), [1]
    else:
        engine, single = _default_grid_engine(), [4, 5]
        engine.persist(tmp_path)
    back = MergeEngine.restore(tmp_path)
    for k in single:
        slot, want = back.store.slots[k], engine.store.slots[k].cache
        assert len(slot.tasks) == 1 and slot.held_cache is None
        cache = slot.cache
        assert slot.cache is cache and slot.held_cache is cache
        assert list(cache) == list(want)
        for key, low in want.items():
            assert cache[key].canonical == low.canonical
            np.testing.assert_array_equal(cache[key].b, low.b)
            np.testing.assert_array_equal(cache[key].a, low.a)
            assert not cache[key].b.flags.writeable and not cache[key].a.flags.writeable


@pytest.mark.parametrize("version", [4, 5])
def test_store_of_each_version_continues_identically(tmp_path, rng, version):
    """An engine restored from its store as ``persist`` wrote it at manifest
    ``version`` continues as one never persisted, bit for bit: the same
    decisions and similarities, caches and served adapters, and then the
    same store. Every slot merges after the restore, one-member slot 3
    first, so each slot's restored cache, stored or derived, is folded."""
    stream = _stream(rng, 10)
    never_persisted, persisted = MergeEngine(_config(3)), MergeEngine(_config(3))
    for a in stream[:6]:
        never_persisted.ingest(a)
        persisted.ingest(a)
    assert [len(tasks) for tasks in persisted.history.entries.values()] == [2, 3, 1]
    _write_store(persisted, tmp_path / "old", version)
    assert json.loads((tmp_path / "old" / "manifest.json").read_text())["version"] == version
    back = MergeEngine.restore(tmp_path / "old")
    merged_since = []
    for a in stream[6:]:
        expect, got = never_persisted.ingest(a), back.ingest(a)
        assert (got.action, got.slot_key, got.similarity) == (expect.action, expect.slot_key, expect.similarity)
        merged_since.append(got.slot_key)
    assert merged_since == [3, 2, 2, 1]
    _assert_slots_equal(back, _slot_copies(never_persisted))
    back.persist(tmp_path / "again")
    never_persisted.persist(tmp_path / "never")
    assert _store_bytes(tmp_path / "again") == _store_bytes(tmp_path / "never")


@pytest.mark.parametrize("kind", ["running_average", "linear", "ties", "dare", "dare_ties"])
def test_merged_cache_rejects_width_mismatch(rng, kind):
    wide, thin = width_mismatched_pair(rng)
    slot = SlotState(adapter=wide, cache=slot_cache(wide), tasks=(1,))
    with pytest.raises(ShapeError, match="layer 0.key"):
        merged_cache(MergeOperator(kind=kind), slot, thin)


def test_persist_is_idempotent(tmp_path, rng):
    engine = _persisted(tmp_path, rng)
    first = (tmp_path / "manifest.json").read_bytes()
    engine.persist(tmp_path)
    assert (tmp_path / "manifest.json").read_bytes() == first


def test_persist_removes_slot_files_it_no_longer_names(tmp_path, rng, monkeypatch):
    """Persisting a 2-slot engine over a 5-slot store leaves only the files
    of the 2-slot store, and a persist that fails before its manifest is in
    place deletes no slot file."""
    stream = _stream(rng, 5)
    wide = MergeEngine(_config(5))
    for a in stream:
        wide.ingest(a)
    wide.persist(tmp_path)
    (tmp_path / "slot_notes.kmrg").write_bytes(b"kept")
    narrow = MergeEngine(_config(2))
    for a in stream[:2]:
        narrow.ingest(a)

    def fail(*args, **kwargs):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(kmerge.store, "_manifest", fail)
        with pytest.raises(OSError):
            narrow.persist(tmp_path)
    assert all((tmp_path / f"slot_{k}.kmrg").exists() for k in range(1, 6))

    narrow.persist(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "running_cache.bin", "slot_1.kmrg", "slot_2.kmrg", "slot_notes.kmrg",
    ]
    assert MergeEngine.restore(tmp_path).history.entries == narrow.history.entries


def _store_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _default_grid_engine(count=40):
    """A K=5 engine after the first ``count`` of the 40 adapters of the
    default generator grid."""
    engine = MergeEngine(PolicyConfig(budget_k=5))
    for adapter in generate_suite(GeneratorConfig())[0][:count]:
        engine.ingest(adapter)
    return engine


def _version5_of(oracle):
    """The bytes of an engine's version-5 store, from ``oracle``, its
    version-4 store written by ``version4_persist``: the same files but for
    each one-member slot's cache entries, cut out of ``running_cache.bin``,
    and the manifest relabelled 5 with no ``ranks`` in such a slot's entry."""
    want = _store_bytes(oracle)
    manifest = json.loads(want["manifest.json"])
    blob, kept, offset = want["running_cache.bin"], bytearray(), 0
    for entry in manifest["slots"]:
        widths = [d_out + d_in for _, _, d_out, d_in in manifest["layers"]]
        size = sum(8 * rank * width for rank, width in zip(entry["ranks"], widths))
        if len(entry["tasks"]) > 1:
            kept += blob[offset : offset + size]
        else:
            del entry["ranks"]
        offset += size
    assert offset == len(blob)
    manifest["version"] = 5
    want["running_cache.bin"] = bytes(kept)
    want["manifest.json"] = json.dumps(manifest).encode()
    return want


def _mixed_geometry_engine(rng):
    """A K=2 engine after 5 rank-1 adapters with zero-width layers."""
    engine = MergeEngine(_config(2, rank=1))
    for i in range(5):
        engine.ingest(zero_width_adapter(f"mixed-{i}", rng))
    return engine


@pytest.mark.parametrize("store, limit", [("default-grid", None), ("mixed-geometry", None), ("mixed-geometry", 7)])
def test_persist_matches_per_tensor_writer(tmp_path, rng, monkeypatch, store, limit):
    """``persist`` writes the bytes of a store written one tensor at a time
    (as :func:`_version5_of` that store), also when ``os.writev`` takes at
    most 7 bytes a call, and every byte of every file goes through
    ``os.writev``. The stores hold one-member and merged slots (the
    default grid) and merged slots only (mixed geometry)."""
    engine = _default_grid_engine() if store == "default-grid" else _mixed_geometry_engine(rng)
    version4_persist(engine, tmp_path / "want")
    writes = RecordedWrites(os.writev, limit)
    monkeypatch.setattr(os, "writev", writes)
    engine.persist(tmp_path / "got")
    want = _version5_of(tmp_path / "want")
    files = sorted(name for name in want if name.startswith("slot_"))
    assert files == {"default-grid": ["slot_4.kmrg", "slot_5.kmrg"], "mixed-geometry": []}[store]
    assert _store_bytes(tmp_path / "got") == want
    for name, data in want.items():
        assert sum(written for _, written in writes.per_file(tmp_path / "got" / name)) == len(data)


def test_persist_writes_each_file_in_vectored_calls(tmp_path, monkeypatch):
    """A K=5 default-grid store: each file takes ``ceil(buffers / IOV_MAX)``
    ``os.writev`` calls, one here, and they carry all of its bytes: each
    one-member slot file's two header parts and 32 tensors (slots 4 and 5;
    slots 1-3 are merged and keep no file), the cache's 96 factors (slots
    1-3; slots 4 and 5 keep no cache) and the manifest."""
    engine = _default_grid_engine()
    assert [len(tasks) for tasks in engine.history.entries.values()] == [25, 4, 9, 1, 1]
    writes = RecordedWrites(os.writev)
    monkeypatch.setattr(os, "writev", writes)
    engine.persist(tmp_path)
    iov_max = os.sysconf("SC_IOV_MAX")
    buffers = {f"slot_{k}.kmrg": 2 + 2 * 16 for k in (4, 5)}
    buffers.update({"running_cache.bin": 2 * 3 * 16, "manifest.json": 1})
    assert sorted(buffers) == sorted(p.name for p in tmp_path.iterdir())
    for name, count in buffers.items():
        path = tmp_path / name
        calls = writes.per_file(path)
        assert len(calls) == math.ceil(count / iov_max)
        assert sum(n for n, _ in calls) == count
        assert sum(written for _, written in calls) == path.stat().st_size
    assert len(writes.calls) == len(buffers)


def _factors(engine):
    """Every slot's cache entries and served adapter factors, keyed by slot,
    part and layer."""
    return {
        (slot_key, part, key): (pair.b, pair.a)
        for slot_key, slot in engine.store.slots.items()
        for part, pairs in (("cache", slot.cache), ("adapter", slot.adapter.layers))
        for key, pair in pairs.items()
    }


def _slot_copies(engine):
    return {name: (b.copy(), a.copy()) for name, (b, a) in _factors(engine).items()}


def _assert_slots_equal(engine, copies):
    factors = _factors(engine)
    assert factors.keys() == copies.keys()
    for name, (b, a) in copies.items():
        np.testing.assert_array_equal(factors[name][0], b)
        np.testing.assert_array_equal(factors[name][1], a)


def test_restored_cache_is_read_only(tmp_path, rng):
    """Restored caches and served adapters are read-only: views of the
    mapped store files, or, for merged slot 2, derived from them."""
    engine = _persisted(tmp_path, rng)
    back = MergeEngine.restore(tmp_path)
    _assert_slots_equal(back, _slot_copies(engine))
    for b, a in _factors(back).values():
        assert not b.flags.writeable and not a.flags.writeable
    low = back.store.slots[1].cache[K0]
    with pytest.raises(ValueError, match="read-only"):
        low.b[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        low.a *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        back.load_for_inference(2).layers[K0].a[0, 0] = 1.0


def _misalign_payload(path, misalign):
    """Pad the JSON header of the ``.kmrg`` file at ``path`` with spaces so
    that its payload starts at an offset ``misalign`` past a multiple of 4."""
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack("<4sHI", raw[:10])
    pad = (misalign - 10 - header_len) % 4
    header = raw[10 : 10 + header_len] + b" " * pad
    path.write_bytes(struct.pack("<4sHI", magic, version, len(header)) + header + raw[10 + header_len :])


def _check_restored_engine_outlives_its_store(tmp_path, rng, misalign=None):
    """Restore a K=3 store of one file-held and two merged slots, with the
    slot file's payload moved to start ``misalign`` bytes past a multiple of
    4 if given, persist over it twice and delete it; the restored engine
    must keep its factors and continue as an engine never persisted."""
    stream = _stream(rng, 10)
    never_persisted = MergeEngine(_config(3))
    for a in stream[:6]:
        never_persisted.ingest(a)
    store = tmp_path / "store"
    persisted = MergeEngine(_config(3))
    for a in stream[:6]:
        persisted.ingest(a)
    persisted.persist(store)
    assert sorted(p.name for p in store.glob("slot_*")) == ["slot_3.kmrg"]
    original_bytes = _store_bytes(store)
    if misalign is not None:
        _misalign_payload(store / "slot_3.kmrg", misalign)
    back = MergeEngine.restore(store)
    if misalign is not None:
        for fp in back.store.slots[3].adapter.layers.values():
            assert not fp.a.flags.aligned and not fp.b.flags.aligned
    before = _slot_copies(back)

    back.persist(store)
    other = MergeEngine(_config(3))
    for a in _stream(rng, 5, width=12):
        other.ingest(a)
    other.persist(store)
    shutil.rmtree(store)

    _assert_slots_equal(back, before)
    back.persist(tmp_path / "again")
    assert _store_bytes(tmp_path / "again") == original_bytes
    for a in stream[6:]:
        expect, got = never_persisted.ingest(a), back.ingest(a)
        assert (got.action, got.slot_key, got.similarity) == (
            expect.action, expect.slot_key, expect.similarity
        )
    _assert_slots_equal(back, _slot_copies(never_persisted))


def test_restored_engine_outlives_its_store(tmp_path, rng):
    """The restored caches and adapters map the store's files; persisting
    over the store, by the engine itself and then by another, and deleting
    it leave the restored engine as it was."""
    _check_restored_engine_outlives_its_store(tmp_path, rng)


@pytest.mark.parametrize("misalign", [1, 2, 3])
def test_unaligned_slot_payload_restores_bit_identically(tmp_path, rng, misalign):
    """A slot file whose payload starts ``misalign`` bytes past a multiple
    of 4 (its header length is free) restores unaligned views, and the
    engine continues bit for bit."""
    _check_restored_engine_outlives_its_store(tmp_path, rng, misalign)


def test_indented_manifest_restores_and_continues_identically(tmp_path, rng):
    """``persist`` writes the manifest compact; a store whose manifest is
    indented, as older stores' are, restores, persists again to the same
    bytes as the compact store and continues as an engine never persisted."""
    stream = _stream(rng, 10)
    never_persisted, persisted = MergeEngine(_config(2)), MergeEngine(_config(2))
    for a in stream[:6]:
        never_persisted.ingest(a)
        persisted.ingest(a)
    store = tmp_path / "store"
    persisted.persist(store)
    compact = _store_bytes(store)
    assert b"\n" not in compact["manifest.json"]
    manifest = json.loads(compact["manifest.json"])
    (store / "manifest.json").write_text(json.dumps(manifest, indent=2))
    back = MergeEngine.restore(store)
    back.persist(tmp_path / "again")
    assert _store_bytes(tmp_path / "again") == compact
    for a in stream[6:]:
        expect, got = never_persisted.ingest(a), back.ingest(a)
        assert (got.action, got.slot_key, got.similarity) == (
            expect.action, expect.slot_key, expect.similarity
        )
    _assert_slots_equal(back, _slot_copies(never_persisted))


def test_engine_without_slots_persists_and_restores(tmp_path, rng):
    engine = MergeEngine(_config(2))
    engine.persist(tmp_path / "store")
    assert (tmp_path / "store" / "running_cache.bin").stat().st_size == 0
    back = MergeEngine.restore(tmp_path / "store")
    assert back.config == engine.config
    assert back.store.slots == {} and back.task_ids == {}
    back.persist(tmp_path / "again")
    assert _store_bytes(tmp_path / "again") == _store_bytes(tmp_path / "store")
    decision = back.ingest(small_random_adapter("first", rng))
    assert decision.action == ALLOCATED and decision.slot_key == 1


def _open_descriptors():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_restore_leaves_no_open_file(tmp_path, rng, monkeypatch):
    """Restore closes every file it opens. The two mappings (the cache file
    and one-member slot 1's file; merged slot 2 keeps none) hold one
    descriptor each, released with the engine, and neither warns."""
    _persisted(tmp_path, rng)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    opened = _open_descriptors()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        back = MergeEngine.restore(tmp_path)
        gc.collect()
        assert back.store.occupied == 2
        if opened is not None:
            assert _open_descriptors() == opened + 2
        del back
        gc.collect()
    assert unraisable == []
    assert _open_descriptors() == opened


def test_rejected_merge_leaves_engine_unchanged(rng, monkeypatch):
    """A merge that fails after the fold (here in ``refactor``) must leave
    cache, adapter, history, arrival count and task ids as they were."""
    engine = MergeEngine(_config(1))
    engine.ingest(small_random_adapter("first", rng))
    slot = engine.store.slots[1]
    before = {key: (low.b.copy(), low.a.copy()) for key, low in slot.cache.items()}
    entries = {key: list(tasks) for key, tasks in engine.history.entries.items()}
    occupied, timestep, task_ids = engine.store.occupied, len(engine.task_ids), dict(engine.task_ids)

    folded = []

    def failing_refactor(cache, *args):
        folded.append(cache)
        raise ShapeError("refactor failed")

    monkeypatch.setattr(kmerge.engine, "refactor", failing_refactor)
    with pytest.raises(ShapeError, match="refactor failed"):
        engine.ingest(small_random_adapter("second", rng))

    assert len(folded) == 1 and folded[0] is not slot.cache
    assert engine.store.slots[1] is slot
    assert engine.load_for_inference(1) is slot.adapter
    for key, (b, a) in before.items():
        np.testing.assert_array_equal(slot.cache[key].b, b)
        np.testing.assert_array_equal(slot.cache[key].a, a)
    assert engine.history.entries == entries
    assert engine.store.occupied == occupied
    assert len(engine.task_ids) == timestep
    assert engine.task_ids == task_ids


def test_persisted_cache_file_layout(tmp_path, rng):
    """running_cache.bin is, for each slot of several members in order and
    each of its layers in ``layers`` order, the cache entry's b then a,
    float64 little-endian, back to back; such a slot's ``ranks`` are its
    cache entries' ranks. A one-member slot's entry names no ranks, and the
    file holds nothing of its cache."""
    engine = MergeEngine(_config(3))
    for a in _stream(rng, 5, n_keys=3):
        engine.ingest(a)
    engine.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    members = [len(entry["tasks"]) for entry in manifest["slots"]]
    assert 1 in members and max(members) > 1
    expected = bytearray()
    for slot_key, entry in enumerate(manifest["slots"], 1):
        if len(entry["tasks"]) == 1:
            assert "ranks" not in entry
            continue
        assert len(entry["ranks"]) == len(manifest["layers"]) == 3
        for (layer, proj, d_out, d_in), rank in zip(manifest["layers"], entry["ranks"]):
            low = engine.store.slots[slot_key].cache[LayerKey(layer, proj)]
            assert low.b.shape == (d_out, rank) and low.a.shape == (rank, d_in)
            expected += low.b.astype("<f8").tobytes() + low.a.astype("<f8").tobytes()
    assert len(manifest["slots"]) == 3
    assert (tmp_path / "running_cache.bin").read_bytes() == bytes(expected)


def _no_refactor(*args):
    raise AssertionError("refactor ran")


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_store_keeps_each_merged_slot_once(tmp_path, rng, monkeypatch, kind):
    """Under every operator a store holds files only for its one-member
    slots. Restore and a persist of the restored engine run no
    ``refactor``; a merged slot's first read derives the adapter it served
    before the store was written, bit for bit, once; and the restored
    engine continues as one never persisted."""
    stream = _stream(rng, 10)
    config = _config(3, operator=MergeOperator(kind=kind))
    never_persisted, persisted = MergeEngine(config), MergeEngine(config)
    for a in stream[:6]:
        never_persisted.ingest(a)
        persisted.ingest(a)
    store = tmp_path / "store"
    persisted.persist(store)
    single = [k for k, tasks in persisted.history.entries.items() if len(tasks) == 1]
    assert single == [3]
    assert sorted(p.name for p in store.glob("slot_*")) == ["slot_3.kmrg"]
    served = {k: slot.adapter for k, slot in persisted.store.slots.items()}

    with monkeypatch.context() as patch:
        patch.setattr(kmerge.engine, "refactor", _no_refactor)
        back = MergeEngine.restore(store)
        back.persist(tmp_path / "again")
    assert _store_bytes(tmp_path / "again") == _store_bytes(store)
    for k, slot in back.store.slots.items():
        assert (slot.derivation is None) == (k in single)
        assert_same_adapter(slot.adapter, served[k])
        assert back.load_for_inference(k) is slot.adapter
    for k in (1, 2):
        derivation = back.store.slots[k].derivation
        assert derivation == (2, f"slot-{k}", stream[back.history.entries[k][-1] - 1].scaling)

    for a in stream[6:]:
        expect, got = never_persisted.ingest(a), back.ingest(a)
        assert (got.action, got.slot_key, got.similarity) == (
            expect.action, expect.slot_key, expect.similarity
        )
    _assert_slots_equal(back, _slot_copies(never_persisted))
    never_persisted.persist(tmp_path / "never")
    back.persist(tmp_path / "again")
    assert _store_bytes(tmp_path / "again") == _store_bytes(tmp_path / "never")
