import gc
import json
import os
import shutil
import struct
import sys
import warnings
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from kmerge.adapters import PROJECTIONS, LayerKey
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
from kmerge.lowrank import LowRankDelta
from kmerge.merging import MergeOperator, RankPolicy, linear_merge

from conftest import (
    NaiveState,
    dense_delta_map,
    make_adapter,
    naive_policy_step,
    rewrite_header,
    small_random_adapter,
    width_mismatched_pair,
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


def _mixed_geometry_slot(rng):
    """A slot and an incoming rank-2 adapter whose layers mix shapes (6x6,
    5x9, 9x4) and cache ranks: empty caches, saturated ones (cache rank plus
    2 above the width), and, on every fifth key, a slot whose cache and
    served adapter contain the incoming layer, whose residuals are then
    dropped as noise."""
    shapes = {"key": (6, 6), "query": (5, 9), "value": (9, 4), "output": (6, 6)}
    keys = [LayerKey(layer, proj) for layer in range(16) for proj in PROJECTIONS]

    def factors(key):
        d_out, d_in = shapes[key.proj]
        return rng.standard_normal((2, d_in)), rng.standard_normal((d_out, 2))

    arrays = {key: factors(key) for key in keys}
    incoming = make_adapter("in", arrays, 2, 3.0)
    spanned = set(keys[4::5])
    served = make_adapter("served", {k: arrays[k] if k in spanned else factors(k) for k in keys}, 2, 2.0)
    cache = {}
    for key in keys:
        d_out, d_in = shapes[key.proj]
        rank = (0, 1, 2, min(d_out, d_in))[key.layer % 4]
        low = LowRankDelta(b=rng.standard_normal((d_out, rank)), a=rng.standard_normal((rank, d_in)))
        if key in spanned:
            low = LowRankDelta.combine([low, LowRankDelta.from_factors(incoming.layers[key], 1.0)], [1.0, 0.7])
        cache[key] = low.compressed()
    return SlotState(adapter=served, cache=cache, tasks=(1, 2)), incoming


@pytest.mark.parametrize("budget", [kmerge.lowrank.FOLD_BATCH_BYTES, 1, 1000])
@pytest.mark.parametrize("kind", ["running_average", "linear"])
def test_batched_fold_is_bit_identical_to_one_layer_folds(rng, monkeypatch, kind, budget):
    """A merge folds every layer of one geometry in stacked calls, in
    batches of at most ``FOLD_BATCH_BYTES`` of working set (1: one layer a
    batch; 1000: one to five); each layer's factors equal, bit for bit,
    those of folding that layer alone."""
    monkeypatch.setattr(kmerge.lowrank, "FOLD_BATCH_BYTES", budget)
    slot, incoming = _mixed_geometry_slot(rng)
    count = len(slot.tasks)
    merged = merged_cache(MergeOperator(kind=kind), slot, incoming, weight=0.3)
    if kind == "running_average":
        base, alpha, beta = slot.cache, count / (count + 1), 1.0 / (count + 1)
    else:
        base, alpha, beta = slot_cache(slot.adapter), 0.3, 0.7
    ranks = set()
    for key, fp in incoming.layers.items():
        alone = base[key].fold(alpha, beta, LowRankDelta.from_factors(fp, incoming.scaling))
        assert merged[key].canonical
        assert np.array_equal(merged[key].b, alone.b) and np.array_equal(merged[key].a, alone.a)
        ranks.add((fp.b.shape, base[key].rank_bound, alone.rank_bound))
    # Layers of one geometry keep different numbers of directions, so the
    # fold's sub-batches are exercised.
    assert len({(shape, r) for shape, r, _ in ranks}) < len(ranks)


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
        assert fp.rank == 2


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
            naive.next_key = engine.history.next_slot_key


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
    assert back.history.next_slot_key == engine.history.next_slot_key
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


def _persisted(tmp_path, rng):
    engine = MergeEngine(_config(2))
    for a in _stream(rng, 4):
        engine.ingest(a)
    engine.persist(tmp_path)
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


def test_restore_bad_version(tmp_path, rng):
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["version"] = 42
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match="version"):
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
    with pytest.raises(RestoreError, match=r"running_cache\.bin is 2032 bytes; persist writes 2048"):
        MergeEngine.restore(tmp_path)


DAMAGED_ENTRIES = {
    "no-offset": ("cache_index", lambda e: e.pop("offset"), "offset"),
    "no-b_shape": ("cache_index", lambda e: e.pop("b_shape"), "b_shape"),
    "negative-b": (
        "cache_index", lambda e: e.__setitem__("b_shape", [-1, 3]),
        r"cache_index\[0\]\.b_shape\[0\] is -1; persist writes 8",
    ),
    "negative-a": (
        "cache_index", lambda e: e.__setitem__("a_shape", [-2, 8]),
        r"cache_index\[0\]\.a_shape\[0\] is -2; persist writes 2",
    ),
    "flat-b": (
        "cache_index", lambda e: e.__setitem__("b_shape", [8]), r"cache_index\[0\]\.b_shape is not"
    ),
    "inner-mismatch": (
        "cache_index", lambda e: e["a_shape"].__setitem__(0, e["b_shape"][1] + 1),
        r"cache_index\[0\]\.a_shape\[0\] is 3; persist writes 2",
    ),
    "negative-offset": (
        "cache_index", lambda e: e.__setitem__("offset", -8),
        r"cache_index\[0\]\.offset is -8; persist writes 0",
    ),
    "huge-shape": (
        "cache_index", lambda e: e["b_shape"].__setitem__(0, 1 << 40),
        r"cache_index\[0\]\.b_shape\[0\] is 1099511627776; persist writes 8",
    ),
    "no-tasks": ("slots", lambda e: e.pop("tasks"), "tasks"),
    "no-file": ("slots", lambda e: e.pop("file"), "file"),
    "text-layer": ("cache_index", lambda e: e.__setitem__("layer", "x"), "layer"),
    "text-slot-key": ("cache_index", lambda e: e.__setitem__("slot_key", "one"), "slot_key"),
    "null-offset": ("cache_index", lambda e: e.__setitem__("offset", None), "offset"),
    "text-slot": ("slots", lambda e: e.__setitem__("slot_key", "first"), "slot_key"),
    "text-task": ("slots", lambda e: e["tasks"].__setitem__(0, "late"), "task index"),
    "scalar-tasks": ("slots", lambda e: e.__setitem__("tasks", 3), "tasks"),
    "digit-string-tasks": ("slots", lambda e: e.__setitem__("tasks", "12"), "tasks"),
    "digit-string-layer": ("cache_index", lambda e: e.__setitem__("layer", "3"), "layer"),
    "bool-offset": ("cache_index", lambda e: e.__setitem__("offset", True), "offset"),
    "float-task": ("slots", lambda e: e["tasks"].__setitem__(0, 1.0), "task index"),
    "unknown-proj": ("cache_index", lambda e: e.__setitem__("proj", "gate"), "proj"),
    "number-proj": ("cache_index", lambda e: e.__setitem__("proj", 3), "proj"),
}


@pytest.mark.parametrize("table, damage, match", DAMAGED_ENTRIES.values(), ids=DAMAGED_ENTRIES)
def test_restore_damaged_entry(tmp_path, rng, table, damage, match):
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    damage(manifest[table][0])
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
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=field):
        MergeEngine.restore(tmp_path)


def _duplicate_first_cache_entry(manifest, **changes):
    manifest["cache_index"].append({**manifest["cache_index"][0], **changes})


def _empty_second_slot(manifest):
    """Move slot 2's tasks to slot 1, so that they still partition the stream."""
    first, second = (entry["tasks"] for entry in manifest["slots"])
    first.extend(second)
    second.clear()


def _renumber_ingested(manifest):
    for i, pair in enumerate(manifest["ingested"]):
        pair[0] = len(manifest["ingested"]) - i


EXTRA_ENTRY = r"cache_index\[4\] is \{.*\}; persist writes nothing there"


INCONSISTENT_MANIFESTS = {
    "shared-task-id": (
        lambda m: m["ingested"][1].__setitem__(1, m["ingested"][0][1]), "share a task id"
    ),
    "task-in-two-slots": (
        lambda m: m["slots"][1]["tasks"].append(m["slots"][0]["tasks"][0]), "partition"
    ),
    "task-in-no-slot": (
        lambda m: max(m["slots"], key=lambda e: len(e["tasks"]))["tasks"].pop(), "partition"
    ),
    "unknown-task-index": (lambda m: m["slots"][0]["tasks"].append(99), "partition"),
    "timestep-behind-ingested": (
        lambda m: m.__setitem__("timestep", m["timestep"] - 1), "timestep"
    ),
    "next-slot-key-occupied": (lambda m: m.__setitem__("next_slot_key", 1), "next_slot_key"),
    "slot-entry-repeated": (
        lambda m: m["slots"].append({**m["slots"][0], "file": m["slots"][1]["file"]}),
        "3 slots exceed budget_k 2",
    ),
    "slot-without-tasks": (_empty_second_slot, r"slots\[1\]\.tasks is empty"),
    "slots-over-budget": (lambda m: m.__setitem__("budget_k", 1), "2 slots exceed budget_k 1"),
    # Each slot's cache must hold exactly its adapter's layers, at their shapes.
    "cache-layer-missing": (
        lambda m: m["cache_index"].pop(0), r"cache_index\[0\]\.proj is 'query'; persist writes 'key'"
    ),
    "cache-layer-extra": (lambda m: _duplicate_first_cache_entry(m, layer=99), EXTRA_ENTRY),
    "cache-b-rows": (
        lambda m: m["cache_index"][0]["b_shape"].__setitem__(0, 9),
        r"cache_index\[0\]\.b_shape\[0\] is 9; persist writes 8",
    ),
    "cache-a-columns": (
        lambda m: m["cache_index"][0]["a_shape"].__setitem__(1, 7),
        r"cache_index\[0\]\.a_shape\[1\] is 7; persist writes 8",
    ),
    "cache-unknown-slot": (lambda m: _duplicate_first_cache_entry(m, slot_key=7), EXTRA_ENTRY),
    "cache-entry-repeated": (_duplicate_first_cache_entry, EXTRA_ENTRY),
    # Each cache entry lies where persist puts it, and nowhere else.
    "cache-entry-aliased": (
        lambda m: m["cache_index"][1].update(
            {name: m["cache_index"][0][name] for name in ("offset", "b_shape", "a_shape")}
        ),
        r"cache_index\[1\]\.offset is 0; persist writes \d+",
    ),
    "ingested-renumbered": (_renumber_ingested, r"ingested\[0\]\[0\] is 4; persist writes 1"),
    "scalar-slots": (lambda m: m.__setitem__("slots", 5), "slots is not a list"),
    "null-cache-index": (lambda m: m.__setitem__("cache_index", None), "cache_index is not a list"),
    "unknown-field": (
        lambda m: m.__setitem__("comment", "x"), "comment is 'x'; persist writes nothing there"
    ),
}


@pytest.mark.parametrize("damage, match", INCONSISTENT_MANIFESTS.values(), ids=INCONSISTENT_MANIFESTS)
def test_restore_rejects_inconsistent_manifest(tmp_path, rng, damage, match):
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    damage(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


def _gap_before_last_entry(manifest, blob):
    last = manifest["cache_index"][-1]
    last["offset"] += 8
    return blob[: last["offset"] - 8] + bytes(8) + blob[last["offset"] - 8 :]


DAMAGED_CACHE_FILES = {
    "gap-before-last-entry": (
        _gap_before_last_entry, r"cache_index\[3\]\.offset is 1288; persist writes 1280"
    ),
    "bytes-appended": (
        lambda m, blob: blob + bytes(64), r"running_cache\.bin is 2112 bytes; persist writes 2048"
    ),
}


@pytest.mark.parametrize("damage, match", DAMAGED_CACHE_FILES.values(), ids=DAMAGED_CACHE_FILES)
def test_restore_rejects_damaged_cache_file(tmp_path, rng, damage, match):
    _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    blob = damage(manifest, (tmp_path / "running_cache.bin").read_bytes())
    (tmp_path / "running_cache.bin").write_bytes(blob)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=match):
        MergeEngine.restore(tmp_path)


def _integer_leaf_paths(node, path=()):
    if type(node) is int:
        yield path
    elif isinstance(node, (dict, list)):
        for name, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _integer_leaf_paths(value, (*path, name))


def test_restore_rejects_every_integer_leaf_changed(tmp_path, rng):
    """Every integer outside the policy is one that persist derives or
    restore reads typed, so restore rejects it changed by one, as a float,
    a boolean, a string or null."""
    engine = _persisted(tmp_path, rng)
    assert any(len(tasks) > 1 for tasks in engine.history.entries.values())
    original = json.loads((tmp_path / "manifest.json").read_text())
    policy = set(engine.config.to_dict())
    paths = [path for path in _integer_leaf_paths(original) if path[0] not in policy]
    accepted = []
    for *parents, last in paths:
        value = reduce(getitem, parents, original)[last]
        for changed in (value + 1, float(value), bool(value), str(value), None):
            manifest = json.loads(json.dumps(original))
            reduce(getitem, parents, manifest)[last] = changed
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            try:
                MergeEngine.restore(tmp_path)
            except RestoreError:
                continue
            accepted.append(((*parents, last), changed))
    assert len(paths) > 40 and accepted == []


@pytest.mark.parametrize("outside", ["parent", "absolute"])
@pytest.mark.parametrize("field", ["file", "running_cache_file"])
def test_restore_rejects_file_outside_store(tmp_path, rng, field, outside):
    """A manifest naming a file outside its store is rejected, even when
    that file exists and holds the right bytes."""
    store = tmp_path / "store"
    _persisted(store, rng)
    manifest = json.loads((store / "manifest.json").read_text())
    owner = manifest["slots"][0] if field == "file" else manifest
    store_file = owner[field]
    copy = tmp_path / store_file
    copy.write_bytes((store / owner[field]).read_bytes())
    owner[field] = f"../{copy.name}" if outside == "parent" else str(copy)
    (store / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(RestoreError, match=rf"{field} is '.+'; persist writes '{store_file}'"):
        MergeEngine.restore(store)


@pytest.mark.parametrize("mode, error", [
    pytest.param("svd_truncate", None, id="svd_truncate"),
    pytest.param("factor_average", RestoreError, id="factor_average"),
])
def test_restore_stored_rank_mode(tmp_path, rng, mode, error):
    """Stores that name the rank mode ``svd_truncate`` restore as before;
    any other mode is rejected, naming ``rank_policy.mode``."""
    engine = _persisted(tmp_path, rng)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["rank_policy"]["mode"] = mode
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    if error is None:
        assert MergeEngine.restore(tmp_path).config == engine.config
    else:
        with pytest.raises(error, match="rank_policy.mode"):
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


@pytest.mark.parametrize("target", ["slot_2.kmrg", "running_cache.bin", "manifest.json"])
def test_failed_persist_leaves_no_temporary_file(tmp_path, rng, target):
    engine = MergeEngine(_config(2))
    for a in _stream(rng, 4):
        engine.ingest(a)
    (tmp_path / target).mkdir()
    with pytest.raises(OSError):
        engine.persist(tmp_path)
    assert (tmp_path / target).is_dir()
    assert not list(tmp_path.glob("*.tmp"))


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
        patch.setattr(MergeEngine, "_manifest", fail)
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
    """Restored caches and served adapters are read-only views of the
    mapped store files."""
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
    """Restore a store, with its slot payloads moved to start ``misalign``
    bytes past a multiple of 4 if given, persist over it twice and delete
    it; the restored engine must keep its factors and continue as an engine
    never persisted."""
    stream = _stream(rng, 10)
    never_persisted = MergeEngine(_config(2))
    for a in stream[:6]:
        never_persisted.ingest(a)
    store = tmp_path / "store"
    persisted = MergeEngine(_config(2))
    for a in stream[:6]:
        persisted.ingest(a)
    persisted.persist(store)
    original_bytes = _store_bytes(store)
    if misalign is not None:
        for slot_key in persisted.store.slots:
            _misalign_payload(store / f"slot_{slot_key}.kmrg", misalign)
    back = MergeEngine.restore(store)
    if misalign is not None:
        for slot in back.store.slots.values():
            for fp in slot.adapter.layers.values():
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
    """Restore closes every file it opens. The ``K + 1`` mappings (the cache
    file and each slot file) hold one descriptor each, released with the
    engine, and neither warns."""
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
            assert _open_descriptors() == opened + back.store.occupied + 1
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
    next_slot_key, timestep, task_ids = engine.history.next_slot_key, len(engine.task_ids), dict(engine.task_ids)

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
    assert engine.history.next_slot_key == next_slot_key
    assert len(engine.task_ids) == timestep
    assert engine.task_ids == task_ids


def test_persisted_cache_file_layout(tmp_path, rng):
    """running_cache.bin is every index entry's b then a, float64
    little-endian, back to back in index order."""
    engine = MergeEngine(_config(2))
    for a in _stream(rng, 5, n_keys=3):
        engine.ingest(a)
    engine.persist(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    expected = bytearray()
    for entry in manifest["cache_index"]:
        low = engine.store.slots[entry["slot_key"]].cache[LayerKey(entry["layer"], entry["proj"])]
        assert entry["offset"] == len(expected)
        assert entry["b_shape"] == list(low.b.shape) and entry["a_shape"] == list(low.a.shape)
        expected += low.b.astype("<f8").tobytes() + low.a.astype("<f8").tobytes()
    assert len(manifest["cache_index"]) == 2 * 3
    assert (tmp_path / "running_cache.bin").read_bytes() == bytes(expected)


def _write_version1_caches(store, engine, stream):
    """Rewrite a persisted store the way manifest version 1 kept caches:
    each slot's mean as the concatenated, 1/n-weighted member factors."""
    manifest = json.loads((store / "manifest.json").read_text())
    blob = bytearray()
    index = []
    for slot_key in sorted(engine.history.entries):
        members = [stream[t - 1] for t in engine.history.entries[slot_key]]
        for key in sorted(members[0].layers, key=LayerKey.sort_key):
            b = np.hstack([m.scaling * m.layers[key].b.astype(np.float64) for m in members]) / len(members)
            a = np.vstack([m.layers[key].a.astype(np.float64) for m in members])
            index.append({"slot_key": slot_key, "layer": key.layer, "proj": key.proj,
                          "b_shape": list(b.shape), "a_shape": list(a.shape), "offset": len(blob)})
            blob += b.astype("<f8").tobytes() + a.astype("<f8").tobytes()
    manifest["version"] = 1
    manifest["cache_index"] = index
    (store / "running_cache.bin").write_bytes(bytes(blob))
    (store / "manifest.json").write_text(json.dumps(manifest))


def test_restore_version1_store_continues_identically(tmp_path, rng):
    stream = _stream(rng, 12, n_keys=2, width=6)
    full = MergeEngine(_config(2))
    full_decisions = [full.ingest(a) for a in stream]

    first = MergeEngine(_config(2))
    for a in stream[:8]:
        first.ingest(a)
    first.persist(tmp_path)
    _write_version1_caches(tmp_path, first, stream)
    assert max(e["b_shape"][1] for e in json.loads((tmp_path / "manifest.json").read_text())["cache_index"]) > 6

    resumed = MergeEngine.restore(tmp_path)
    for slot in resumed.store.slots.values():
        for low in slot.cache.values():
            assert low.canonical and low.rank_bound <= 6
    resumed_decisions = [resumed.ingest(a) for a in stream[8:]]

    for expect, got in zip(full_decisions[8:], resumed_decisions):
        assert (got.action, got.slot_key, got.task_index) == (
            expect.action, expect.slot_key, expect.task_index
        )
    assert resumed.history.entries == full.history.entries
    for key, slot in full.store.slots.items():
        for lkey, low in slot.cache.items():
            ref = low.materialize()
            got = resumed.store.slots[key].cache[lkey].materialize()
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)
        # Served factors are float32 and a singular vector's sign is free,
        # so the served updates are compared, at float32 precision.
        for lkey in slot.adapter.layers:
            served = dense_delta_map(resumed.store.slots[key].adapter)[lkey]
            ref = dense_delta_map(slot.adapter)[lkey]
            assert np.linalg.norm(served - ref) <= 1e-5 * np.linalg.norm(ref)

    resumed.persist(tmp_path / "again")
    assert json.loads((tmp_path / "again" / "manifest.json").read_text())["version"] == 2
