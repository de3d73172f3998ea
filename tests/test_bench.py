import struct

import numpy as np
import pytest

import kmerge.lowrank
from kmerge.adapters import LayerKey
from kmerge.bench import (
    GEOMETRY_PRESETS,
    ORDERING_KINDS,
    LLAMA_3_2_1B_MODULES,
    QWEN_2_5_1_5B_MODULES,
    GeneratorConfig,
    OrderingSpec,
    TaskSpec,
    adapter_file_bytes,
    aggregate_score,
    calibration_config,
    clustering_consistency,
    generate_suite,
    load_suite,
    lora_param_count,
    order_stream,
    run_simulation,
    save_suite,
    surrogate_metric,
    threshold_sweep,
)
from kmerge.engine import ALLOCATED, MERGED, MergeEngine, MergeHistory, PolicyConfig
from kmerge.errors import ConfigError
from kmerge.merging import RankPolicy
from kmerge.similarity import adapter_similarity, calibrate_threshold

from conftest import make_adapter, random_control_consistency, small_random_adapter

SMALL = GeneratorConfig(
    alpha_types=3,
    beta_langs=3,
    rank=3,
    n_layers=1,
    layer_spec=((16, 16),) * 4,
    seed=11,
)


def _policy(k, variant="k_merge", s=None, rank=3):
    return PolicyConfig(
        budget_k=k,
        variant=variant,
        threshold_s=s,
        rank_policy=RankPolicy(target_rank=rank),
    )


def test_generator_grid_shape():
    adapters, tasks = generate_suite(SMALL)
    assert len(adapters) == len(tasks) == SMALL.gamma == 9
    assert tasks[0].task_index == 1
    assert tasks[-1].task_index == 9
    assert adapters[0].task_id == "type0-lang0"
    assert adapters[-1].task_id == "type2-lang2"
    for adapter in adapters:
        assert adapter.rank == SMALL.rank
        for key, fp in adapter.layers.items():
            assert fp.a.shape == (3, 16)
            assert fp.b.shape == (16, 3)
    assert set(adapters[0].layers) == set(SMALL.keys())


def test_generator_tasks_follow_the_grid():
    _, tasks = generate_suite(SMALL)
    assert tasks == [
        TaskSpec(3 * p + l + 1, f"type{p}-lang{l}", f"type{p}", f"lang{l}")
        for p in range(3)
        for l in range(3)
    ]


def test_generator_deterministic():
    a1, _ = generate_suite(SMALL)
    a2, _ = generate_suite(SMALL)
    for x, y in zip(a1, a2):
        for key in x.layers:
            np.testing.assert_array_equal(x.layers[key].a, y.layers[key].a)
            np.testing.assert_array_equal(x.layers[key].b, y.layers[key].b)


def test_generator_seed_changes_output():
    a1, _ = generate_suite(SMALL)
    a2, _ = generate_suite(GeneratorConfig(**{**SMALL.__dict__, "seed": 12}))
    key = next(iter(a1[0].layers))
    assert not np.array_equal(a1[0].layers[key].a, a2[0].layers[key].a)


def test_generator_cluster_structure():
    adapters, tasks = generate_suite(SMALL)
    within, same_lang, cross = [], [], []
    for i in range(len(adapters)):
        for j in range(i + 1, len(adapters)):
            sim = adapter_similarity(adapters[i], adapters[j])
            if tasks[i].problem_type == tasks[j].problem_type:
                within.append(sim)
            elif tasks[i].language == tasks[j].language:
                same_lang.append(sim)
            else:
                cross.append(sim)
    assert min(within) > max(same_lang)
    assert np.mean(same_lang) > np.mean(cross)


def test_generator_rejects_bad_strengths():
    with pytest.raises(ConfigError):
        GeneratorConfig(lang_strength=0.0, noise_strength=0.0)
    with pytest.raises(ConfigError):
        GeneratorConfig(type_strength=0.1, lang_strength=0.5)
    with pytest.raises(ConfigError):
        GeneratorConfig(rank=2)


def test_generator_tiny_side_components():
    """Nearly pure type signal: within-type similarity approaches 1."""
    config = GeneratorConfig(
        alpha_types=2,
        beta_langs=2,
        rank=3,
        n_layers=1,
        layer_spec=((16, 16),) * 4,
        lang_strength=1e-5,
        noise_strength=1e-6,
    )
    adapters, tasks = generate_suite(config)
    assert adapter_similarity(adapters[0], adapters[1]) > 0.999


def test_suite_save_load_roundtrip(tmp_path):
    adapters, tasks = generate_suite(SMALL)
    save_suite(adapters, tmp_path)
    back_adapters, back_tasks = load_suite(tmp_path)
    assert back_tasks == tasks
    for x, y in zip(adapters, back_adapters):
        assert x.task_id == y.task_id
        for key in x.layers:
            np.testing.assert_array_equal(x.layers[key].a, y.layers[key].a)


def test_save_suite_pads_names_past_999_tasks(tmp_path, rng):
    """Past 999 tasks every name gains a digit, so name order stays suite
    order, and the shorter names of the suite saved before are deleted."""
    adapters = [small_random_adapter(f"t{n}", rng, n_keys=1, width=2) for n in range(1000)]
    save_suite(adapters[:12], tmp_path)
    save_suite(adapters, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"task_{n:04d}.kmrg" for n in range(1, 1001)]
    back, tasks = load_suite(tmp_path)
    assert [a.task_id for a in back] == [a.task_id for a in adapters]
    assert tasks[-1] == TaskSpec(1000, "t999", "t", "l")


def test_surrogate_identity(rng):
    adapter = small_random_adapter("x", rng)
    assert surrogate_metric(adapter, adapter) == 1.0


def test_surrogate_clamps_at_zero(rng):
    adapter = small_random_adapter("x", rng, n_keys=1)
    fp = adapter.layers[LayerKey(0, "key")]
    flipped = make_adapter("neg", {LayerKey(0, "key"): (fp.a, -fp.b)}, adapter.rank, adapter.scale_numerator)
    assert surrogate_metric(flipped, adapter) == 0.0


def test_budget_equal_to_grid_scores_one():
    adapters, tasks = generate_suite(SMALL)
    report = run_simulation(adapters, tasks, OrderingSpec("random", 0), _policy(SMALL.gamma))
    assert all(row.action == ALLOCATED for row in report.rows)
    assert report.final_score == 1.0
    assert report.consistency == 1.0
    assert report.occupied == SMALL.gamma


def test_budget_one_merges_everything():
    adapters, tasks = generate_suite(SMALL)
    report = run_simulation(adapters, tasks, OrderingSpec("random", 0), _policy(1))
    actions = [row.action for row in report.rows]
    assert actions[0] == ALLOCATED
    assert actions[1:] == [MERGED] * (SMALL.gamma - 1)
    assert report.occupied == 1


def test_simulation_deterministic_modulo_elapsed():
    adapters, tasks = generate_suite(SMALL)
    spec = OrderingSpec("random", 3)
    r1 = run_simulation(adapters, tasks, spec, _policy(3))
    r2 = run_simulation(adapters, tasks, spec, _policy(3))
    for a, b in zip(r1.rows, r2.rows):
        assert (a.timestep, a.task_index, a.action, a.slot_key) == (
            b.timestep,
            b.task_index,
            b.action,
            b.slot_key,
        )
        assert a.score == b.score
        assert a.similarity == b.similarity
    assert r1.final_score == r2.final_score


MIXED = GeneratorConfig(
    alpha_types=3,
    beta_langs=4,
    rank=4,
    n_layers=2,
    layer_spec=((16, 16), (16, 16), (8, 16), (16, 16)),
    seed=21,
)


def _full_recount_rows(adapters, tasks, ordering, config):
    """The simulation with every seen task rescored after every ingest,
    one pair at a time, as the harness did before scoring went incremental."""
    engine = MergeEngine(config)
    seen, rows = [], []
    for position in order_stream(tasks, ordering):
        decision = engine.ingest(adapters[position])
        seen.append((decision.task_index, adapters[position]))
        ratios = [
            surrogate_metric(engine.load_for_inference(engine.route(t)), original)
            for t, original in seen
        ]
        assert aggregate_score(engine, seen) == (float(np.mean(ratios)), ratios)
        rows.append((decision.action, decision.slot_key, decision.similarity,
                     float(np.mean(ratios)), engine.store.occupied))
    return rows


@pytest.mark.parametrize("kind", ORDERING_KINDS)
# The ids keep naming the served form, svd_truncate, so the test names stay stable.
# At twice the suite's rank, with a batch budget of two of the suite's layers,
# merged slots batch one layer at a time and their profiles' plans differ from
# the arrivals', so their scores stack each arrival per call.
@pytest.mark.parametrize(
    "variant, target_rank",
    [
        pytest.param("k_merge", MIXED.rank, id="k_merge-svd_truncate"),
        pytest.param("k_merge_pp", MIXED.rank, id="k_merge_pp-svd_truncate"),
        pytest.param("k_merge", 2 * MIXED.rank, id="k_merge-svd_truncate-rank8"),
        pytest.param("k_merge_pp", 2 * MIXED.rank, id="k_merge_pp-svd_truncate-rank8"),
    ],
)
def test_incremental_scores_equal_full_recount(variant, target_rank, kind, monkeypatch):
    if target_rank != MIXED.rank:
        monkeypatch.setattr(kmerge.lowrank, "FOLD_BATCH_BYTES", 2 * 8 * 32 * MIXED.rank)
    adapters, tasks = generate_suite(MIXED)
    config = PolicyConfig(
        budget_k=3,
        variant=variant,
        threshold_s=calibrate_threshold(adapters) if variant == "k_merge_pp" else None,
        rank_policy=RankPolicy(target_rank=target_rank),
    )
    ordering = OrderingSpec(kind, 4)
    report = run_simulation(adapters, tasks, ordering, config)
    got = [(r.action, r.slot_key, r.similarity, r.score, r.occupied) for r in report.rows]
    assert got == _full_recount_rows(adapters, tasks, ordering, config)
    assert any(row[0] == MERGED for row in got)


def test_aggregate_score_of_no_task_is_zero():
    """As an empty simulation's final score; the mean of no ratios would be
    nan, with numpy's "Mean of empty slice" warning."""
    assert aggregate_score(MergeEngine(_policy(3)), []) == (0.0, [])


@pytest.mark.parametrize("variant", ["k_merge", "k_merge_pp"])
def test_simulation_builds_each_profile_once(variant, profile_builds):
    """One profile per arrival, which its slot keeps if it allocates one, and
    one per merged slot state, built at its first scoring: no adapter is
    profiled twice, and every served adapter is profiled once."""
    adapters, tasks = generate_suite(GeneratorConfig())
    threshold = calibrate_threshold(adapters[:8]) if variant == "k_merge_pp" else None
    profile_builds.clear()
    report = run_simulation(adapters, tasks, OrderingSpec("random", 0), PolicyConfig(5, variant, threshold))
    merges = sum(row.action == MERGED for row in report.rows)
    assert merges > 0
    assert len(profile_builds) == len(adapters) + merges
    assert len({id(a) for a in profile_builds}) == len(profile_builds)


def test_simulation_report_files(tmp_path):
    adapters, tasks = generate_suite(SMALL)
    report = run_simulation(adapters, tasks, OrderingSpec("random", 0), _policy(3))
    report.to_csv(tmp_path / "r.csv")
    report.to_json(tmp_path / "r.json")
    lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    assert lines[0] == "timestep,S,occupied,action,similarity,elapsed_us"
    assert len(lines) == 1 + len(report.rows)
    import json

    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["final_score"] == report.final_score
    assert len(payload["rows"]) == len(report.rows)


def test_simulation_persists_store(tmp_path):
    adapters, tasks = generate_suite(SMALL)
    run_simulation(adapters, tasks, OrderingSpec("random", 0), _policy(3), store_dir=tmp_path)
    restored = MergeEngine.restore(tmp_path)
    assert len(restored.task_ids) == SMALL.gamma
    assert restored.store.occupied == 3


def test_threshold_sweep_extremes():
    adapters, tasks = generate_suite(SMALL)
    spec = OrderingSpec("random", 0)
    table = threshold_sweep(adapters, tasks, _policy(4, "k_merge_pp", s=0.0), [2.0, -1.1])
    # s above any cosine: merge only when full, i.e. plain k_merge
    baseline = run_simulation(adapters, tasks, spec, _policy(4))
    assert table[0]["final_score"] == baseline.final_score
    assert table[0]["occupied"] == baseline.occupied
    # s below any cosine: everything collapses into one slot
    assert table[1]["occupied"] == 1


def test_threshold_sweep_requires_pp():
    adapters, tasks = generate_suite(SMALL)
    with pytest.raises(ConfigError):
        threshold_sweep(adapters, tasks, _policy(4), [0.5])


def test_calibrated_threshold_clusters_default_suite():
    held_out, _ = generate_suite(calibration_config())
    s = calibrate_threshold(held_out)
    adapters, tasks = generate_suite(GeneratorConfig(seed=5))
    report = run_simulation(
        adapters,
        tasks,
        OrderingSpec("random", 1),
        _policy(5, "k_merge_pp", s=s, rank=4),
    )
    assert report.consistency == 1.0
    assert report.occupied == 5


def test_clustering_consistency_hand_counts():
    history = MergeHistory(entries={1: [1, 2, 3], 2: [4, 5]})
    tasks = {
        1: TaskSpec(1, "a", "A", "x"),
        2: TaskSpec(2, "b", "A", "x"),
        3: TaskSpec(3, "c", "B", "x"),
        4: TaskSpec(4, "d", "B", "x"),
        5: TaskSpec(5, "e", "B", "x"),
    }
    # slot 1 modal type A covers 2 of 3; slot 2 modal B covers 2 of 2
    assert clustering_consistency(history, tasks) == pytest.approx(4 / 5)


def test_clustering_consistency_empty():
    assert clustering_consistency(MergeHistory(), {}) == 0.0


def test_random_assignment_is_weaker():
    _, tasks = generate_suite(GeneratorConfig(seed=5))
    values = [
        random_control_consistency(tasks, OrderingSpec("random", 1), 5, seed)
        for seed in range(10)
    ]
    assert np.mean(values) < 0.6
    assert values[0] == random_control_consistency(tasks, OrderingSpec("random", 1), 5, 0)


def test_order_stream_random_is_permutation():
    _, tasks = generate_suite(SMALL)
    order = order_stream(tasks, OrderingSpec("random", 7))
    assert sorted(order) == list(range(len(tasks)))
    assert order == order_stream(tasks, OrderingSpec("random", 7))
    assert order != order_stream(tasks, OrderingSpec("random", 8))


def test_order_stream_worst_is_lexicographic():
    _, tasks = generate_suite(SMALL)
    order = order_stream(tasks, OrderingSpec("worst"))
    keys = [(tasks[i].problem_type, tasks[i].language) for i in order]
    assert keys == sorted(keys)


def test_order_stream_problem_types_groups_contiguously():
    _, tasks = generate_suite(SMALL)
    order = order_stream(tasks, OrderingSpec("problem_types", 3))
    types = [tasks[i].problem_type for i in order]
    seen = []
    for t in types:
        if not seen or seen[-1] != t:
            seen.append(t)
    assert len(seen) == len(set(types))  # each type appears in one block
    assert sorted(order) == list(range(len(tasks)))


def test_ordering_spec_validation():
    with pytest.raises(ConfigError):
        OrderingSpec("alphabetical")


def test_lora_param_count_hand_check():
    assert lora_param_count([(4, 6)], rank=2) == 2 * (4 + 6)
    assert lora_param_count([(4, 6), (3, 3)], rank=2) == 20 + 12


def test_llama_geometry_matches_published_count():
    params = lora_param_count(LLAMA_3_2_1B_MODULES, rank=32)
    assert params == pytest.approx(22.5e6, rel=0.02)
    assert abs(params - 23e6) / 23e6 < 0.10


def test_qwen_geometry_matches_published_count():
    params = lora_param_count(QWEN_2_5_1_5B_MODULES, rank=32)
    assert abs(params - 37e6) / 37e6 < 0.10
    assert set(GEOMETRY_PRESETS) == {"llama-3.2-1b", "qwen-2.5-1.5b"}


def test_adapter_file_bytes_matches_actual_file(tmp_path):
    adapters, tasks = generate_suite(SMALL)
    save_suite(adapters[:1], tmp_path)
    raw = (tmp_path / "task_001.kmrg").read_bytes()
    magic, version, header_len = struct.unpack("<4sHI", raw[:10])
    assert magic == b"KMRG"
    params = sum(fp.a.size + fp.b.size for fp in adapters[0].layers.values())
    assert len(raw) == adapter_file_bytes(header_len, params)
