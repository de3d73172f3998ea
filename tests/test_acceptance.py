"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports a single
"criterion NN PASS/FAIL" line in the terminal summary (see the
``pytest_terminal_summary`` hook in conftest.py).
"""

import functools
import itertools
import time

import numpy as np

from kmerge.bench import (
    LLAMA_3_2_1B_MODULES,
    GeneratorConfig,
    OrderingSpec,
    adapter_file_bytes,
    aggregate_score,
    calibration_config,
    generate_suite,
    lora_param_count,
    run_simulation,
    surrogate_metric,
)
from kmerge.cli import main as cli_main
from kmerge.engine import MergeEngine, PolicyConfig
from kmerge.merging import RankPolicy, dare_preprocess, ties_merge
from kmerge.similarity import calibrate_threshold
from kmerge.adapters import LayerKey, write_adapter

from conftest import (
    NaiveState,
    dense_delta_map,
    make_adapter,
    naive_policy_step,
    naive_ties,
    random_control_consistency,
    similarity_pairs,
    small_random_adapter,
)

RESULTS: list[str] = []

K0 = LayerKey(0, "key")


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"criterion {number:2d} FAIL  {description}")
                raise
            line = f"criterion {number:2d} PASS  {description}"
            if extra:
                line += f"  [{extra}]"
            RESULTS.append(line)

        return wrapper

    return deco


def _tiny_policy(k, variant="k_merge", s=None):
    return PolicyConfig(
        budget_k=k,
        variant=variant,
        threshold_s=s,
        rank_policy=RankPolicy(target_rank=2),
    )


def _fold_cache(rng_adapters):
    """Engine-style running fold over one layer; returns the final cache."""
    engine = MergeEngine(_tiny_policy(1))
    for adapter in rng_adapters:
        engine.ingest(adapter)
    return engine.store.slots[1].cache[K0].materialize()


@criterion(1, "running fold is order-invariant (1e-9 relative Frobenius)")
def test_criterion_01_order_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for trial in range(100):
        size = int(rng.integers(2, 9))
        base = [
            small_random_adapter(f"c1-{trial}-{i}", rng, rank=2, n_keys=1, width=6)
            for i in range(size)
        ]
        if size <= 5:
            perms = list(itertools.permutations(range(size)))
        else:
            perms = [tuple(rng.permutation(size)) for _ in range(20)]
        reference = None
        for perm in perms:
            ordered = []
            for j, p in enumerate(perm):
                a = base[p]
                # fresh task ids so each permutation replays cleanly
                ordered.append(
                    type(a)(
                        task_id=f"{a.task_id}-p{j}",
                        problem_type=a.problem_type,
                        language=a.language,
                        rank=a.rank,
                        scale_numerator=a.scale_numerator,
                        layers=a.layers,
                    )
                )
            result = _fold_cache(ordered)
            if reference is None:
                reference = result
                ref_norm = np.linalg.norm(reference)
            else:
                assert np.linalg.norm(result - reference) <= 1e-9 * max(ref_norm, 1e-30)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    return f"100 multisets, {elapsed:.1f}s"


@criterion(2, "running average equals the batch mean (1e-9)")
def test_criterion_02_batch_mean():
    rng = np.random.default_rng(200)
    for trial in range(100):
        size = int(rng.integers(2, 7))
        cluster = [
            small_random_adapter(f"c2-{trial}-{i}", rng, rank=2, n_keys=1, width=6)
            for i in range(size)
        ]
        engine = MergeEngine(_tiny_policy(1))
        for adapter in cluster:
            engine.ingest(adapter)
        result = engine.store.slots[1].cache[K0].materialize()
        batch = np.mean([dense_delta_map(a)[K0] for a in cluster], axis=0)
        assert np.linalg.norm(result - batch) <= 1e-9 * max(np.linalg.norm(batch), 1e-30)
    return "100 clusters"


@criterion(3, "decision branches match a naive policy reference on 1000 fuzzed streams")
def test_criterion_03_policy_conformance():
    rng = np.random.default_rng(300)
    for trial in range(1000):
        k = int(rng.integers(1, 9))
        variant = "k_merge" if trial % 2 == 0 else "k_merge_pp"
        s = float(rng.uniform(-1.0, 1.0)) if variant == "k_merge_pp" else None
        engine = MergeEngine(_tiny_policy(k, variant, s))
        naive = NaiveState(adapters={}, history={})
        length = int(rng.integers(2, 9))
        for i in range(length):
            incoming = small_random_adapter(f"c3-{trial}-{i}", rng, rank=2, n_keys=1, width=6)
            expect_action, expect_key, _ = naive_policy_step(naive, incoming, variant, k, s)
            decision = engine.ingest(incoming)
            assert decision.action == expect_action
            assert decision.slot_key == expect_key
            # invariants at every step
            assert engine.store.occupied <= k
            seen = sorted(t for ts in engine.history.entries.values() for t in ts)
            assert seen == list(range(1, i + 2))
            naive.adapters = dict(engine.store.adapters_by_slot())
            naive.next_key = engine.store.occupied + 1
    return "1000 streams, K in [1,8]"


@criterion(4, "threshold +2 reduces the extended policy to the plain one")
def test_criterion_04_degenerate_threshold():
    rng = np.random.default_rng(400)
    for trial in range(50):
        k = int(rng.integers(1, 6))
        plain = MergeEngine(_tiny_policy(k, "k_merge"))
        extended = MergeEngine(_tiny_policy(k, "k_merge_pp", s=2.0))
        for i in range(int(rng.integers(2, 9))):
            incoming = small_random_adapter(f"c4-{trial}-{i}", rng, rank=2, n_keys=1, width=6)
            a = plain.ingest(incoming)
            b = extended.ingest(incoming)
            assert (a.action, a.slot_key) == (b.action, b.slot_key)
        assert plain.history.entries == extended.history.entries
    return "50 streams"


@criterion(5, "threshold calibration equals the sort-based median oracle")
def test_criterion_05_median_rule():
    rng = np.random.default_rng(500)
    for trial in range(200):
        n = int(rng.integers(2, 21))
        suite = [small_random_adapter(f"c5-{trial}-{i}", rng, n_keys=1, width=6) for i in range(n)]
        pairs = sorted(similarity_pairs(suite))
        m = len(pairs)
        if m % 2:
            assert calibrate_threshold(suite) == pairs[m // 2]
        else:
            expected = 0.5 * (pairs[m // 2 - 1] + pairs[m // 2])
            assert abs(calibrate_threshold(suite) - expected) <= 1e-12
    return "200 suites, sizes 2-20"


@criterion(6, "trim/elect/mean and random-drop operators match their oracles")
def test_criterion_06_operator_oracles():
    rng = np.random.default_rng(600)
    for trial in range(500):
        density = (0.25, 0.5, 1.0)[trial % 3]
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 13))
        vecs = [rng.standard_normal(n) for _ in range(m)]
        merged = ties_merge([{K0: v.reshape(1, n)} for v in vecs], density)
        np.testing.assert_allclose(
            merged.dense()[K0].reshape(-1), naive_ties(vecs, density), rtol=1e-12, atol=1e-15
        )

    # random-drop preprocessing: unbiased across seeds, identity at zero drop
    value = rng.standard_normal((4, 16)) + 0.5
    acc = np.zeros_like(value)
    n_seeds = 200
    for seed in range(n_seeds):
        acc += dare_preprocess({K0: value}, 0.5, seed)[K0]
    mean = acc / n_seeds
    sigma = np.abs(value) / np.sqrt(n_seeds)  # per-entry std of the mean at p=0.5
    assert np.all(np.abs(mean - value) <= 3.0 * np.maximum(sigma, 1e-12))
    np.testing.assert_array_equal(dare_preprocess({K0: value}, 0.0, 0)[K0], value)
    return "500 tensors, 200 seeds"


@criterion(7, "calibrated threshold recovers the planted clusters; random control does not")
def test_criterion_07_cluster_recovery():
    held_out, _ = generate_suite(calibration_config())
    s = calibrate_threshold(held_out)
    adapters, tasks = generate_suite(GeneratorConfig())
    config = PolicyConfig(
        budget_k=5,
        variant="k_merge_pp",
        threshold_s=s,
        rank_policy=RankPolicy(target_rank=4),
    )
    for seed in (0, 1, 2):
        report = run_simulation(adapters, tasks, OrderingSpec("random", seed), config)
        assert report.consistency == 1.0
    controls = [
        random_control_consistency(tasks, OrderingSpec("random", seed), 5, seed)
        for seed in range(10)
    ]
    assert np.mean(controls) < 0.6
    return f"s={s:.4f}, control={np.mean(controls):.3f}"


@criterion(8, "threshold variant is at least as good under the worst ordering, gap > 0 at K=5")
def test_criterion_08_worst_ordering():
    start = time.perf_counter()
    held_out, _ = generate_suite(calibration_config())
    s = calibrate_threshold(held_out)
    gaps = {}
    for k in (3, 5, 7):
        plain_scores, pp_scores = [], []
        for gen_seed in (0, 1, 2):
            adapters, tasks = generate_suite(GeneratorConfig(seed=gen_seed))
            ordering = OrderingSpec("worst")
            plain = run_simulation(
                adapters,
                tasks,
                ordering,
                PolicyConfig(budget_k=k, rank_policy=RankPolicy(target_rank=4)),
            )
            pp = run_simulation(
                adapters,
                tasks,
                ordering,
                PolicyConfig(
                    budget_k=k,
                    variant="k_merge_pp",
                    threshold_s=s,
                    rank_policy=RankPolicy(target_rank=4),
                ),
            )
            plain_scores.append(plain.final_score)
            pp_scores.append(pp.final_score)
        gaps[k] = float(np.mean(pp_scores) - np.mean(plain_scores))
        assert np.mean(pp_scores) >= np.mean(plain_scores)
    assert gaps[5] > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return f"gap@K5={gaps[5]:.4f}, {elapsed:.0f}s"


@criterion(9, "score protocol: full budget scores 1.0, zero adapter 0, persisted store recomputes")
def test_criterion_09_score_protocol(tmp_path):
    config = GeneratorConfig(
        alpha_types=3, beta_langs=3, rank=3, n_layers=1, layer_spec=((16, 16),) * 4, seed=9
    )
    adapters, tasks = generate_suite(config)
    policy = PolicyConfig(budget_k=config.gamma, rank_policy=RankPolicy(target_rank=3))
    report = run_simulation(adapters, tasks, OrderingSpec("random", 0), policy)
    assert all(row.score == 1.0 for row in report.rows)

    zero = make_adapter(
        "zero", {key: (np.zeros((3, 16)), np.zeros((16, 3))) for key in config.keys()}, 3, 3
    )
    assert surrogate_metric(zero, adapters[0]) == 0.0

    policy = PolicyConfig(budget_k=3, rank_policy=RankPolicy(target_rank=3))
    report = run_simulation(
        adapters, tasks, OrderingSpec("random", 0), policy, store_dir=tmp_path
    )
    restored = MergeEngine.restore(tmp_path)
    seen = []
    from kmerge.bench import order_stream

    for position in order_stream(tasks, OrderingSpec("random", 0)):
        seen.append((len(seen) + 1, adapters[position]))
    recomputed, _ = aggregate_score(restored, seen)
    assert abs(recomputed - report.final_score) <= 1e-12
    return None


@criterion(10, "per-ingest time grows at most linearly in occupied slots at production shapes")
def test_criterion_10_timing():
    """Median time of three forced merges into a store of ``m`` unstructured
    adapters (16 layers, width 2048, rank 32), each ``m`` from seed 0."""
    timings = {}
    for m in (2, 8):
        rng = np.random.default_rng(0)
        engine = MergeEngine(PolicyConfig(budget_k=m, rank_policy=RankPolicy(target_rank=32)))

        def adapter(name):
            return small_random_adapter(name, rng, rank=32, n_keys=4 * 16, width=2048, scale_numerator=4.0 * 32)

        for i in range(m):
            engine.ingest(adapter(f"fill-{i}"))
        timings[m] = float(np.median([engine.ingest(adapter(f"probe-{i}")).elapsed for i in range(3)]))
        del engine
    assert timings[8] <= 6.0 * timings[2]
    return f"t(2)={timings[2]:.3f}s, t(8)={timings[8]:.3f}s"


@criterion(11, "persist/restore mid-stream continues identically on 20 fuzzed streams")
def test_criterion_11_persistence(tmp_path):
    rng = np.random.default_rng(1100)
    for trial in range(20):
        k = int(rng.integers(1, 5))
        variant = "k_merge" if trial % 2 == 0 else "k_merge_pp"
        s = float(rng.uniform(-0.3, 0.3)) if variant == "k_merge_pp" else None
        length = int(rng.integers(4, 10))
        cut = int(rng.integers(1, length))
        stream = [
            small_random_adapter(f"c11-{trial}-{i}", rng, rank=2, n_keys=2, width=6)
            for i in range(length)
        ]

        full = MergeEngine(_tiny_policy(k, variant, s))
        full_decisions = [full.ingest(a) for a in stream]

        first = MergeEngine(_tiny_policy(k, variant, s))
        for a in stream[:cut]:
            first.ingest(a)
        store = tmp_path / f"trial{trial}"
        first.persist(store)
        resumed = MergeEngine.restore(store)
        resumed_decisions = [resumed.ingest(a) for a in stream[cut:]]

        for expect, got in zip(full_decisions[cut:], resumed_decisions):
            assert (got.action, got.slot_key, got.task_index) == (
                expect.action,
                expect.slot_key,
                expect.task_index,
            )
        assert resumed.history.entries == full.history.entries
        for slot_key in full.store.slots:
            a, b = full.store.slots[slot_key], resumed.store.slots[slot_key]
            for lkey in a.cache:
                ref = a.cache[lkey].materialize()
                np.testing.assert_allclose(
                    b.cache[lkey].materialize(), ref, rtol=0, atol=1e-9 * max(1.0, np.abs(ref).max())
                )
            for lkey in a.adapter.layers:
                np.testing.assert_allclose(
                    b.adapter.layers[lkey].a, a.adapter.layers[lkey].a, atol=1e-9
                )
                np.testing.assert_allclose(
                    b.adapter.layers[lkey].b, a.adapter.layers[lkey].b, atol=1e-9
                )
    return "20 streams"


@criterion(12, "storage accounting reproduces published parameter counts and exact file bytes")
def test_criterion_12_storage(tmp_path, capsys):
    params = lora_param_count(LLAMA_3_2_1B_MODULES, rank=32)
    assert abs(params - 23e6) / 23e6 < 0.10

    assert cli_main(["inspect", "--geometry", "llama-3.2-1b", "--rank", "32"]) == 0
    out = capsys.readouterr().out
    printed = int(out.split("parameters per adapter (rank 32): ")[1].split("\n")[0])
    assert printed == params

    # byte-size formula verified against an actual written file
    rng = np.random.default_rng(1200)
    adapter = small_random_adapter("bytes-check", rng, rank=3, n_keys=4, width=16)
    path = tmp_path / "a.kmrg"
    write_adapter(adapter, path)
    raw = path.read_bytes()
    import struct

    _, _, header_len = struct.unpack("<4sHI", raw[:10])
    stored = sum(fp.a.size + fp.b.size for fp in adapter.layers.values())
    assert len(raw) == adapter_file_bytes(header_len, stored)
    # deterministic: a rewrite produces identical bytes
    write_adapter(adapter, path)
    assert path.read_bytes() == raw
    return f"llama-3.2-1b rank 32: {params} params"
