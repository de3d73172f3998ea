import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kmerge.engine

from kmerge.adapters import FactorPair, LayerKey, LoraAdapter, read_adapter, write_adapter
from kmerge.bench import GEOMETRY_PRESETS, OrderingSpec, load_suite, lora_param_count, threshold_sweep
from kmerge.cli import main
from kmerge.engine import MergeEngine, PolicyConfig, SlotState, merged_cache, slot_cache
from kmerge.errors import FormatError
from kmerge.merging import MergeOperator, RankPolicy, refactor

from conftest import (
    rewrite_header,
    small_random_adapter,
    version4_persist,
    width_mismatched_pair,
)

GEN = [
    "gen",
    "--alpha", "3", "--beta", "3", "--rank", "3", "--layers", "1",
    "--width", "16", "--seed", "11",
]


@pytest.fixture
def suite_dir(tmp_path):
    out = tmp_path / "suite"
    assert main(GEN + ["--out", str(out)]) == 0
    return out


def _suite_names(count):
    return [f"task_{n:03d}.kmrg" for n in range(1, count + 1)]


def test_gen_writes_suite(suite_dir, capsys):
    """A suite is its adapter files alone: no index is written beside them."""
    assert sorted(p.name for p in suite_dir.iterdir()) == _suite_names(9)
    assert read_adapter(suite_dir / "task_001.kmrg").task_id == "type0-lang0"


def test_gen_over_a_larger_suite_leaves_only_its_own_tasks(tmp_path):
    out = tmp_path / "suite"
    assert main(["gen", "--layers", "1", "--width", "16", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == _suite_names(40)
    (out / "notes.txt").write_text("kept")
    assert main(GEN + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", *_suite_names(9)]
    assert len(load_suite(out)[0]) == 9


def test_run_and_sweep_read_a_bare_directory_of_adapters(suite_dir, tmp_path):
    """Any directory of ``.kmrg`` files is a suite: task ``i`` is the
    ``i``-th file in name order, named by its own header."""
    bare = tmp_path / "bare"
    bare.mkdir()
    for path in suite_dir.iterdir():
        adapter = read_adapter(path)
        # language first, so name order is not the generator's order
        (bare / f"{adapter.language}.{adapter.problem_type}.kmrg").write_bytes(path.read_bytes())
    ids = [read_adapter(path).task_id for path in sorted(bare.iterdir())]
    assert ids[:2] == ["type0-lang0", "type1-lang0"]

    assert main(["run", "--suite", str(bare), "--k", "3", "--target-rank", "3",
                 "--seeds", "0", "--out", str(tmp_path / "r")]) == 0
    rows = json.loads((tmp_path / "r_seed0.json").read_text())["rows"]
    assert sorted((row["task_index"], row["task_id"]) for row in rows) == list(enumerate(ids, 1))

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--suite", str(bare), "--k", "4", "--target-rank", "3",
                 "--s-values", "0.2", "0.5", "--out", str(out)]) == 0
    adapters, tasks = load_suite(bare)
    config = PolicyConfig(budget_k=4, variant="k_merge_pp", threshold_s=0.0,
                          rank_policy=RankPolicy(target_rank=3))
    assert json.loads(out.read_text()) == threshold_sweep(
        adapters, tasks, config, [0.2, 0.5], OrderingSpec("random", 0)
    )


def test_suite_ignores_a_tasks_index(suite_dir, tmp_path):
    """A ``tasks.json`` left by an older suite, even a garbage one, changes
    nothing: the adapter headers describe the tasks."""
    def rows(tag):
        assert main(["run", "--suite", str(suite_dir), "--k", "3", "--target-rank", "3",
                     "--seeds", "0", "--out", str(tmp_path / tag)]) == 0
        report = json.loads((tmp_path / f"{tag}_seed0.json").read_text())
        return [{k: v for k, v in row.items() if k != "elapsed_us"} for row in report["rows"]]

    plain = rows("plain")
    (suite_dir / "tasks.json").write_text('[{"task_index": "garbage"')
    assert rows("indexed") == plain


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(GEN + ["--out", str(a)])
    main(GEN + ["--out", str(b)])
    assert (a / "task_001.kmrg").read_bytes() == (b / "task_001.kmrg").read_bytes()


def test_calibrate_prints_median(suite_dir, capsys):
    assert main(["calibrate", str(suite_dir)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert -1.0 <= value <= 1.0


def test_run_writes_reports(suite_dir, tmp_path, capsys):
    out = tmp_path / "reports" / "r"
    code = main([
        "run", "--suite", str(suite_dir), "--k", "3", "--target-rank", "3",
        "--seeds", "0", "1", "--out", str(out),
    ])
    assert code == 0
    for seed in (0, 1):
        payload = json.loads((tmp_path / "reports" / f"r_seed{seed}.json").read_text())
        assert len(payload["rows"]) == 9
    assert "final S: mean=" in capsys.readouterr().out


def test_run_deterministic_scores(suite_dir, tmp_path):
    def score(tag):
        out = tmp_path / tag
        main(["run", "--suite", str(suite_dir), "--k", "3", "--target-rank", "3",
              "--seeds", "2", "--out", str(out)])
        return json.loads((tmp_path / f"{tag}_seed2.json").read_text())["final_score"]

    assert score("x") == score("y")


def test_run_rejects_repeated_seed(suite_dir, tmp_path, capsys):
    """A repeated seed would write its reports twice and count its score
    twice in the mean; it exits 2 before any report is written."""
    code = main(["run", "--suite", str(suite_dir), "--k", "3", "--seeds", "0", "1", "0",
                 "--out", str(tmp_path / "r"), "--store-dir", str(tmp_path / "store")])
    assert code == 2
    assert capsys.readouterr().err == "error: --seeds repeats a seed: [0, 1, 0]\n"
    assert not list(tmp_path.glob("r_seed*")) and not (tmp_path / "store").exists()


def test_run_store_dir_restores(suite_dir, tmp_path):
    store = tmp_path / "store"
    main(["run", "--suite", str(suite_dir), "--k", "3", "--target-rank", "3",
          "--seeds", "0", "--out", str(tmp_path / "r"), "--store-dir", str(store)])
    engine = MergeEngine.restore(store)
    assert len(engine.task_ids) == 9


def test_run_config_file(suite_dir, tmp_path):
    config = {
        "budget_k": 2,
        "variant": "k_merge",
        "threshold_s": None,
        "operator": {"kind": "running_average", "density": 0.5, "drop_rate": 0.5, "rng_seed": 0},
        "rank_policy": {"mode": "svd_truncate", "target_rank": 3},
    }
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--suite", str(suite_dir), "--k", "99",
                 "--config", str(path), "--seeds", "0", "--out", str(tmp_path / "r")])
    assert code == 0
    payload = json.loads((tmp_path / "r_seed0.json").read_text())
    assert payload["config"]["budget_k"] == 2


def test_run_config_without_k(suite_dir, tmp_path):
    config = PolicyConfig(budget_k=2, rank_policy=RankPolicy(target_rank=3)).to_dict()
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--suite", str(suite_dir), "--config", str(path),
                 "--seeds", "0", "--out", str(tmp_path / "r")])
    assert code == 0
    assert json.loads((tmp_path / "r_seed0.json").read_text())["config"]["budget_k"] == 2


def test_run_needs_k_or_config(suite_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--suite", str(suite_dir), "--seeds", "0", "--out", str(tmp_path / "r")])
    assert err.value.code == 2
    assert "--k is required unless --config is given" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        (json.dumps({"budget_k": 2, "variant": "k_merge", "threshold_s": None,
                     "rank_policy": {"mode": "svd_truncate", "target_rank": 3}}), "operator"),
        ('{"budget_k": 2,', "not valid JSON"),
        (b'{"\xff\xfebudget_k": 2}', "not valid JSON"),
        (json.dumps({**PolicyConfig(budget_k=2).to_dict(),
                     "rank_policy": {"mode": "factor_average", "target_rank": 3}}), "rank_policy.mode"),
        (json.dumps({**PolicyConfig(budget_k=2).to_dict(), "budget_k": True}), "budget_k"),
        (json.dumps({**PolicyConfig(budget_k=2).to_dict(),
                     "rank_policy": {"target_rank": 3.5}}), "rank_policy.target_rank"),
    ],
    ids=["missing-operator", "invalid-json", "not-utf8", "unknown-rank-mode", "bool-budget_k",
         "fractional-target_rank"],
)
def test_run_config_errors_exit_2(suite_dir, tmp_path, capsys, text, problem):
    path = tmp_path / "policy.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(["run", "--suite", str(suite_dir), "--k", "2",
                 "--config", str(path), "--seeds", "0", "--out", str(tmp_path / "r")])
    assert code == 2
    assert problem in capsys.readouterr().err


def test_run_pp_requires_threshold(suite_dir, tmp_path):
    code = main(["run", "--suite", str(suite_dir), "--k", "3",
                 "--variant", "k-merge-pp", "--seeds", "0", "--out", str(tmp_path / "r")])
    assert code == 2


def _command_args(command, suite_dir, tmp_path):
    """Everything but the policy flags that ``command`` needs to run."""
    if command == "merge":
        inputs = [str(p) for p in sorted(suite_dir.glob("*.kmrg"))[:2]]
        return [*inputs, "--op", "running-average", "--out", str(tmp_path / "m.kmrg")]
    if command == "sweep":
        return ["--suite", str(suite_dir), "--s-values", "0.5"]
    return ["--suite", str(suite_dir), "--seeds", "0", "--out", str(tmp_path / "r")]


@pytest.mark.parametrize(
    "flags, field, value",
    [
        (["run", "--k", "0"], "budget_k", 0),
        (["run", "--k", "2", "--target-rank", "0"], "rank_policy.target_rank", 0),
        (["run", "--k", "2", "--density", "0"], "operator.density", 0.0),
        (["run", "--k", "2", "--drop-rate", "1"], "operator.drop_rate", 1.0),
        (["run", "--k", "2", "--variant", "k-merge-pp"], "variant", "k_merge_pp"),
        (["run", "--k", "2", "--threshold", "5.0"], "threshold_s", 5.0),
        (["run", "--k", "2", "--variant", "k-merge-pp", "--threshold", "nan"], "threshold_s",
         float("nan")),
        (["run", "--k", "2", "--variant", "k-merge-pp", "--threshold=-inf"], "threshold_s",
         float("-inf")),
        (["sweep", "--k", "0"], "budget_k", 0),
        (["merge", "--density", "0"], "operator.density", 0.0),
        (["merge", "--target-rank", "0"], "rank_policy.target_rank", 0),
    ],
    ids=["run-k", "run-target-rank", "run-density", "run-drop-rate", "run-pp-no-threshold",
         "run-plain-threshold", "run-nan-threshold", "run-infinite-threshold", "sweep-k",
         "merge-density", "merge-target-rank"],
)
def test_policy_flag_errors_match_config(suite_dir, tmp_path, capsys, flags, field, value):
    command, *policy_flags = flags
    assert main([command, *_command_args(command, suite_dir, tmp_path), *policy_flags]) == 2
    flag_error = capsys.readouterr().err
    policy = PolicyConfig(budget_k=2).to_dict()
    *parents, name = field.split(".")
    node = policy
    for part in parents:
        node = node[part]
    node[name] = value
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy))
    assert main(["run", "--config", str(path), *_command_args("run", suite_dir, tmp_path)]) == 2
    assert flag_error.startswith("error: ")
    assert flag_error == capsys.readouterr().err
    assert not (tmp_path / "m.kmrg").exists()


def test_report_config_reruns_through_config(suite_dir, tmp_path):
    common = ["--suite", str(suite_dir), "--seeds", "0"]
    assert main(["run", *common, "--k", "2", "--variant", "k-merge-pp", "--threshold", "0.3",
                 "--operator", "dare-ties", "--density", "0.7", "--drop-rate", "0.3",
                 "--op-seed", "5", "--target-rank", "3", "--out", str(tmp_path / "a")]) == 0
    first = json.loads((tmp_path / "a_seed0.json").read_text())
    assert first["config"] == PolicyConfig(
        budget_k=2, variant="k_merge_pp", threshold_s=0.3,
        operator=MergeOperator("dare_ties", density=0.7, drop_rate=0.3, rng_seed=5),
        rank_policy=RankPolicy(target_rank=3),
    ).to_dict()
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(first["config"]))
    assert main(["run", *common, "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    second = json.loads((tmp_path / "b_seed0.json").read_text())
    assert second["config"] == first["config"]
    for report in (first, second):
        for row in report["rows"]:
            row.pop("elapsed_us")
    assert second["rows"] == first["rows"]


def test_sweep_prints_table(suite_dir, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--suite", str(suite_dir), "--k", "4", "--target-rank", "3",
                 "--s-values", "2.0", "-1.1", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert table[1]["occupied"] == 1
    assert "s=2.0000" in capsys.readouterr().out


def test_sweep_drops_ignored_options(suite_dir, tmp_path):
    for extra in (["--variant", "k-merge"], ["--threshold", "0.5"], ["--seeds", "1"]):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--suite", str(suite_dir), "--k", "4", "--s-values", "0.1", *extra])
        assert err.value.code == 2


def test_sweep_seed_orders_the_stream(suite_dir, tmp_path):
    out = tmp_path / "sweep.json"
    values = [2.0, 0.2, -1.1]
    assert main(["sweep", "--suite", str(suite_dir), "--k", "4", "--target-rank", "3",
                 "--s-values", *map(str, values), "--seed", "3", "--out", str(out)]) == 0
    adapters, tasks = load_suite(suite_dir)
    config = PolicyConfig(budget_k=4, variant="k_merge_pp", threshold_s=0.0,
                          rank_policy=RankPolicy(target_rank=3))
    expected = threshold_sweep(adapters, tasks, config, values, OrderingSpec("random", 3))
    assert json.loads(out.read_text()) == expected
    assert expected != threshold_sweep(adapters, tasks, config, values, OrderingSpec("random", 0))


def _unclose_header(path):
    raw = bytearray(path.read_bytes())
    header_end = 10 + int.from_bytes(raw[6:10], "little")
    raw[header_end - 1 : header_end] = b" "
    path.write_bytes(bytes(raw))


DAMAGED_KMRG_SUITES = {
    "invalid-json": (_unclose_header, "unparseable JSON header"),
    "no-task_id": (lambda path: rewrite_header(path, lambda h: h.pop("task_id")), "task_id"),
    "truncated-payload": (lambda path: path.write_bytes(path.read_bytes()[:-1]),
                          "truncated payload"),
}


@pytest.mark.parametrize("damage, problem", DAMAGED_KMRG_SUITES.values(), ids=DAMAGED_KMRG_SUITES)
def test_run_damaged_kmrg_suite_exits_1(suite_dir, tmp_path, capsys, damage, problem):
    """One damaged adapter file fails the whole suite with its reason, behind
    the file's path, and its byte offset."""
    path = suite_dir / "task_004.kmrg"
    damage(path)
    with pytest.raises(FormatError, match=problem) as caught:
        load_suite(suite_dir)
    assert str(caught.value).startswith(f"{path}: ")
    assert caught.value.offset is not None
    code = main(["run", "--suite", str(suite_dir), "--k", "2", "--seeds", "0",
                 "--out", str(tmp_path / "r")])
    assert code == 1
    assert problem in capsys.readouterr().err


def test_merge_command(tmp_path, rng, capsys):
    x = small_random_adapter("left", rng, rank=3, n_keys=4)
    y = small_random_adapter("right", rng, rank=3, n_keys=4)
    write_adapter(x, tmp_path / "x.kmrg")
    write_adapter(y, tmp_path / "y.kmrg")
    out, report = tmp_path / "m.kmrg", tmp_path / "m.json"
    code = main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                 "--op", "running-average", "--out", str(out), "--report", str(report)])
    assert code == 0
    merged = read_adapter(out)
    assert merged.rank == 3
    payload = json.loads(report.read_text())
    assert payload["merge_count"] == 2
    assert len(payload["per_layer_residuals"]) == 4


def test_merge_running_average_matches_engine(tmp_path, rng):
    # Equal scalings, then unequal ones: both serve at the incoming scaling.
    for scalings in ((None, None), (6.0, 24.0)):
        x = small_random_adapter("left", rng, rank=3, n_keys=4, scale_numerator=scalings[0])
        y = small_random_adapter("right", rng, rank=3, n_keys=4, scale_numerator=scalings[1])
        write_adapter(x, tmp_path / "x.kmrg")
        write_adapter(y, tmp_path / "y.kmrg")
        out = tmp_path / "m.kmrg"
        assert main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                     "--op", "running-average", "--out", str(out)]) == 0
        engine = MergeEngine(PolicyConfig(budget_k=1, rank_policy=RankPolicy(target_rank=3)))
        engine.ingest(x)
        engine.ingest(y)
        served, merged = engine.load_for_inference(1), read_adapter(out)
        assert (merged.rank, merged.scale_numerator) == (served.rank, served.scale_numerator)
        assert set(merged.layers) == set(served.layers)
        for key, fp in served.layers.items():
            np.testing.assert_array_equal(merged.layers[key].a, fp.a)
            np.testing.assert_array_equal(merged.layers[key].b, fp.b)


def test_merge_all_operators(tmp_path, rng):
    x = small_random_adapter("a", rng, rank=2, n_keys=2)
    y = small_random_adapter("b", rng, rank=2, n_keys=2)
    write_adapter(x, tmp_path / "x.kmrg")
    write_adapter(y, tmp_path / "y.kmrg")
    for op in ("running-average", "linear", "ties", "dare", "dare-ties"):
        out = tmp_path / f"{op}.kmrg"
        assert main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                     "--op", op, "--out", str(out)]) == 0
        assert out.exists()


@pytest.mark.parametrize("op, builds", [
    ("running-average", 1), ("linear", 1), ("ties", 0), ("dare", 0), ("dare-ties", 0),
])
def test_merge_builds_a_cache_only_to_fold(tmp_path, rng, monkeypatch, op, builds):
    """``kmerge merge`` builds a ``slot_cache`` only for an operator that
    folds into one: once for the running average and for ``linear``, and
    never for TIES and DARE, which merge in dense space. It writes the
    adapter that merging into a slot built with its cache serves."""
    x = small_random_adapter("left", rng, rank=3, n_keys=4)
    y = small_random_adapter("right", rng, rank=3, n_keys=4)
    write_adapter(x, tmp_path / "x.kmrg")
    write_adapter(y, tmp_path / "y.kmrg")
    operator = MergeOperator(kind=op.replace("-", "_"), density=0.5, drop_rate=0.5, rng_seed=0)
    cache = merged_cache(operator, SlotState(adapter=x, cache=slot_cache(x), tasks=(1,)), y)
    write_adapter(refactor(cache, 3, "merged-left-right", y.scaling).adapter, tmp_path / "want.kmrg")
    built = []

    def counting(adapter):
        built.append(adapter)
        return slot_cache(adapter)

    monkeypatch.setattr(kmerge.engine, "slot_cache", counting)
    out = tmp_path / "m.kmrg"
    assert main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"), "--op", op, "--out", str(out)]) == 0
    assert len(built) == builds
    assert out.read_bytes() == (tmp_path / "want.kmrg").read_bytes()


@pytest.mark.parametrize("op", ["running-average", "linear", "ties", "dare", "dare-ties"])
def test_merge_width_mismatch_exits_1(tmp_path, rng, capsys, op):
    """Same keys, different widths: every operator exits 1 naming the layer
    and writes nothing, instead of crashing or broadcasting the 1-row layer."""
    for adapter, name in zip(width_mismatched_pair(rng), ("x", "y")):
        write_adapter(adapter, tmp_path / f"{name}.kmrg")
    out = tmp_path / "m.kmrg"
    code = main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                 "--op", op, "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "layer 0.key" in capsys.readouterr().err


def test_merge_linear_weight_out_of_range(tmp_path, rng, capsys):
    for name in ("x", "y"):
        write_adapter(small_random_adapter(name, rng), tmp_path / f"{name}.kmrg")
    out = tmp_path / "m.kmrg"
    for weight in ("1.5", "2", "-0.1", "nan"):
        code = main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                     "--op", "linear", "--weight", weight, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: --weight must be in [0, 1], got {float(weight)}\n"


@pytest.mark.parametrize("op", ["running-average", "ties", "dare", "dare-ties"])
def test_merge_weight_needs_linear(tmp_path, rng, capsys, op):
    for name in ("x", "y"):
        write_adapter(small_random_adapter(name, rng), tmp_path / f"{name}.kmrg")
    out = tmp_path / "m.kmrg"
    code = main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                 "--op", op, "--weight", "0.7", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: --weight applies only to --op linear")


def test_sim_csv(suite_dir, tmp_path, capsys):
    csv = tmp_path / "m.csv"
    assert main(["sim", str(suite_dir), "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 10  # header + 9 rows
    values = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    np.testing.assert_allclose(np.diag(values), 1.0, atol=1e-6)


def test_route_command(suite_dir, tmp_path, capsys):
    store = tmp_path / "store"
    main(["run", "--suite", str(suite_dir), "--k", "1", "--target-rank", "3",
          "--seeds", "0", "--out", str(tmp_path / "r"), "--store-dir", str(store)])
    capsys.readouterr()
    assert main(["route", "--store", str(store), "--task", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_route_unknown_task_exit_code(suite_dir, tmp_path, capsys):
    store = tmp_path / "store"
    main(["run", "--suite", str(suite_dir), "--k", "1", "--target-rank", "3",
          "--seeds", "0", "--out", str(tmp_path / "r"), "--store-dir", str(store)])
    assert main(["route", "--store", str(store), "--task", "99"]) == 1


def test_inspect_store(suite_dir, tmp_path, capsys):
    store = tmp_path / "store"
    main(["run", "--suite", str(suite_dir), "--k", "2", "--target-rank", "3",
          "--seeds", "0", "--out", str(tmp_path / "r"), "--store-dir", str(store)])
    capsys.readouterr()
    assert main(["inspect", "--store", str(store), "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["budget_k"] == 2
    assert manifest == json.loads((store / "manifest.json").read_text())


def _check_inspect_table(tmp_path, rng, capsys, monkeypatch, store, forms):
    """``kmerge inspect --store`` of a K=3 engine's ``store`` prints one line
    per slot: its key, member count, what the store keeps of it (its
    adapter file, its cache or both: ``forms``), those bytes and the kept
    cache's largest rank, each recomputed here from the store's files: a
    slot keeps ``slot_<key>.kmrg`` if that file is there, and a cache if
    its manifest entry names ``ranks``, of 8 bytes per entry of each
    layer's ``b`` and ``a`` at its rank. The rows add up to every file but
    the manifest, and the table derives no cache or adapter."""
    engine = MergeEngine(PolicyConfig(budget_k=3, rank_policy=RankPolicy(target_rank=2)))
    for i in range(6):
        engine.ingest(small_random_adapter(f"t{i}", rng, rank=2, n_keys=3, width=8))
    assert [len(tasks) for tasks in engine.history.entries.values()] == [3, 2, 1]
    path = tmp_path / "store"
    if store == "current":
        engine.persist(path)
    else:
        version4_persist(engine, path)
    manifest = json.loads((path / "manifest.json").read_text())
    monkeypatch.setattr(kmerge.engine, "slot_cache", _no_derivation)
    monkeypatch.setattr(kmerge.engine, "refactor", _no_derivation)
    assert main(["inspect", "--store", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["slot", "members", "stored", "as", "stored", "bytes", "cache", "rank"]
    want = []
    widths = [d_out + d_in for _, _, d_out, d_in in manifest["layers"]]
    for slot_key, entry in enumerate(manifest["slots"], 1):
        file = path / f"slot_{slot_key}.kmrg"
        kept, size, rank = [], 0, "-"
        if file.exists():
            kept.append("file")
            size += len(file.read_bytes())
        if "ranks" in entry:
            kept.append("cache")
            size += sum(8 * r * width for r, width in zip(entry["ranks"], widths))
            rank = str(max(entry["ranks"]))
        want.append([str(slot_key), str(len(entry["tasks"])), "+".join(kept), str(size), rank])
    assert [line.split() for line in lines[1:]] == want
    assert [row[2] for row in want] == forms
    files = sum(len(p.read_bytes()) for p in path.iterdir() if p.name != "manifest.json")
    assert sum(int(row[3]) for row in want) == files


def test_inspect_store_prints_one_line_per_slot(tmp_path, rng, capsys, monkeypatch):
    """The current store keeps merged slots 1 and 2 as their caches and
    one-member slot 3 as its adapter file."""
    _check_inspect_table(tmp_path, rng, capsys, monkeypatch, "current", ["cache", "cache", "file"])


@pytest.mark.parametrize("store, forms", [("version-4", ["cache", "cache", "file+cache"])], ids=["version-4"])
def test_inspect_store_prints_what_older_stores_keep(tmp_path, rng, capsys, monkeypatch, store, forms):
    """A version-4 store keeps one-member slot 3's cache beside its file."""
    _check_inspect_table(tmp_path, rng, capsys, monkeypatch, store, forms)


def _no_derivation(*args):
    raise AssertionError("inspect derived a slot's cache or adapter")


def test_inspect_damaged_store(tmp_path, capsys):
    for json_flag in ([], ["--json"]):
        (tmp_path / "manifest.json").unlink(missing_ok=True)
        assert main(["inspect", "--store", str(tmp_path), *json_flag]) == 1
        assert "no manifest.json" in capsys.readouterr().err
        (tmp_path / "manifest.json").write_text("{bad")
        assert main(["inspect", "--store", str(tmp_path), *json_flag]) == 1
        assert "not valid JSON" in capsys.readouterr().err
    (tmp_path / "manifest.json").write_bytes(b'{"\xff\xfeversion": 2}')
    for command in (["inspect", "--store", str(tmp_path)], ["inspect", "--store", str(tmp_path), "--json"],
                    ["route", "--store", str(tmp_path), "--task", "1"]):
        assert main(command) == 1
        assert "manifest.json is not valid JSON" in capsys.readouterr().err


def test_inspect_geometry(capsys):
    for rank in (["--rank", "32"], []):  # rank 32 is the default
        assert main(["inspect", "--geometry", "llama-3.2-1b", *rank]) == 0
        out = capsys.readouterr().out
        params = int(out.split("parameters per adapter (rank 32): ")[1].split("\n")[0])
        assert abs(params - 22.5e6) / 22.5e6 < 0.02


def test_inspect_geometry_counts_a_merged_slot_file(tmp_path, capsys):
    """The file size printed for a geometry is that of the file
    ``write_adapter`` writes for slot 1 of that geometry after a merge,
    whose header ``_header_dict`` builds; the header spelled out below is
    the oracle of both."""
    modules = GEOMETRY_PRESETS["llama-3.2-1b"]
    layers = {LayerKey(i, "query"): FactorPair(a=np.zeros((2, d_in)), b=np.zeros((d_out, 2)))
              for i, (d_in, d_out) in enumerate(modules)}
    write_adapter(LoraAdapter("slot-1", "merged", "merged", 2, 128.0, layers), tmp_path / "slot_1.kmrg")
    header = {
        "task_id": "slot-1", "problem_type": "merged", "language": "merged", "rank": 2,
        "scale_numerator": 128.0,
        "layers": [{"layer": i, "proj": "query", "d_in": d_in, "d_out": d_out}
                   for i, (d_in, d_out) in enumerate(modules)],
    }
    size = (tmp_path / "slot_1.kmrg").stat().st_size
    assert size == 10 + len(json.dumps(header).encode()) + 4 * lora_param_count(modules, 2)
    assert main(["inspect", "--geometry", "llama-3.2-1b", "--rank", "2"]) == 0
    assert capsys.readouterr().out == (
        f"geometry: llama-3.2-1b\nadapted modules: {len(modules)}\n"
        f"parameters per adapter (rank 2): {lora_param_count(modules, 2)}\nfile bytes per adapter: {size}\n"
    )


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_inspect_geometry_rank_below_1_exits_2(capsys, rank):
    assert main(["inspect", "--geometry", "llama-3.2-1b", "--rank", rank]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --rank must be >= 1, got {rank}\n"
    assert captured.out == ""


def test_inspect_geometry_refuses_json():
    """``--json`` prints a store's manifest; beside ``--geometry`` it would
    be ignored, so it is a usage error."""
    with pytest.raises(SystemExit) as err:
        main(["inspect", "--geometry", "llama-3.2-1b", "--json"])
    assert err.value.code == 2


@pytest.mark.parametrize("rank", ["32", "-5"])
def test_inspect_store_refuses_rank(tmp_path, rank):
    """``--rank`` sizes a ``--geometry``; beside ``--store`` it would be
    ignored, so it is a usage error whatever its value."""
    with pytest.raises(SystemExit) as err:
        main(["inspect", "--store", str(tmp_path), "--rank", rank])
    assert err.value.code == 2


def test_closed_stdout_exits_141(tmp_path, rng):
    """A reader that closes the pipe after one line (``kmerge inspect
    --store S --json | head -1``) ends the command as SIGPIPE would: exit
    141 and nothing on stderr. The manifest of 5 one-member slots of 4096
    layers, printed indented, is several times a pipe's 64 KiB buffer, so
    the write fails."""
    engine = MergeEngine(PolicyConfig(budget_k=5, rank_policy=RankPolicy(target_rank=1)))
    for i in range(5):
        engine.ingest(small_random_adapter(f"t{i}", rng, rank=1, n_keys=4096, width=2))
    engine.persist(tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    assert len(json.dumps(manifest, indent=2)) > 3 * 65536
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "kmerge.cli", "inspect", "--store", str(tmp_path / "store"), "--json"]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert child.returncode == 141
    assert err == b""


def test_inspect_requires_target():
    for targets in ([], ["--store", "s", "--geometry", "llama-3.2-1b"]):
        with pytest.raises(SystemExit) as err:
            main(["inspect", *targets])
        assert err.value.code == 2


def test_missing_suite_is_runtime_error(tmp_path, capsys):
    assert main(["calibrate", str(tmp_path / "nope")]) == 1


def test_suite_path_to_a_file_exits_1(suite_dir, tmp_path, capsys):
    path = suite_dir / "task_001.kmrg"
    code = main(["run", "--suite", str(path), "--k", "2",
                 "--seeds", "0", "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == f"error: suite {path} is not a directory\n"


@pytest.mark.parametrize("command", ["calibrate", "sim", "run", "sweep"])
@pytest.mark.parametrize("suite, problem", [("nope", "is not a directory"),
                                            ("empty", "holds no .kmrg file")])
def test_missing_or_empty_suite_exits_1(tmp_path, capsys, command, suite, problem):
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "tasks.json").write_text("[]")
    path = str(tmp_path / suite)
    argv = {
        "calibrate": ["calibrate", path],
        "sim": ["sim", path],
        "run": ["run", "--suite", path, "--k", "2", "--out", str(tmp_path / "r")],
        "sweep": ["sweep", "--suite", path, "--k", "2", "--s-values", "0.2"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: suite {tmp_path / suite} {problem}\n"


@pytest.mark.parametrize("command, what", [("sim", "similarity matrix"),
                                           ("calibrate", "threshold calibration")])
def test_one_file_suite_exits_1(tmp_path, rng, capsys, command, what):
    write_adapter(small_random_adapter("only", rng), tmp_path / "task_001.kmrg")
    assert main([command, str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {what} needs at least 2 adapters\n"


def test_merge_out_to_a_directory_exits_1(tmp_path, rng, capsys):
    """An ``--out`` the merged file cannot be renamed onto exits 1 and
    leaves no temporary file behind."""
    for name in ("x", "y"):
        write_adapter(small_random_adapter(name, rng), tmp_path / f"{name}.kmrg")
    out = tmp_path / "taken"
    out.mkdir()
    code = main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                 "--op", "linear", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.is_dir() and not list(out.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "x.kmrg", "y.kmrg"]


def test_bad_generator_flags_exit_2(tmp_path):
    assert main(["gen", "--rank", "2", "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize(
    "command, problem",
    [
        (["gen", "--seed", "-1"], "seed must be >= 0"),
        (["gen", "--width", "-1"], "layer_spec widths must be >= 1"),
        (["gen", "--width", "0"], "layer_spec widths must be >= 1"),
        (["run", "--k", "2", "--seeds", "0", "-1"], "seed must be >= 0"),
        (["sweep", "--k", "2", "--s-values", "0.5", "--seed", "-1"], "seed must be >= 0"),
    ],
    ids=["gen-seed", "gen-negative-width", "gen-zero-width", "run-seeds", "sweep-seed"],
)
def test_infeasible_seed_or_width_exits_2(suite_dir, tmp_path, capsys, command, problem):
    """Generator and ordering values that numpy would reject, or that
    build empty layers, are configuration errors; no output is written."""
    name, *flags = command
    target = ["--out", str(tmp_path / "out")]
    if name != "gen":
        target = ["--suite", str(suite_dir), *target]
    assert main([name, *target, *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {problem}, got ")
    assert list(tmp_path.iterdir()) == [suite_dir]


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "kmerge 0.1.0" in capsys.readouterr().out


def test_console_entry_point_runs():
    """``python -m kmerge.cli`` runs ``entrypoint``, the console script."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "kmerge.cli", "--version"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("kmerge 0.1.0 ")
