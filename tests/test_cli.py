import json

import numpy as np
import pytest

from kmerge.adapters import read_adapter, write_adapter
from kmerge.bench import OrderingSpec, load_suite, threshold_sweep
from kmerge.cli import main
from kmerge.engine import MergeEngine, PolicyConfig
from kmerge.errors import FormatError
from kmerge.merging import MergeOperator, RankPolicy

from conftest import small_random_adapter, width_mismatched_pair

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


def test_gen_writes_suite(suite_dir, capsys):
    assert (suite_dir / "tasks.json").exists()
    files = sorted(suite_dir.glob("*.kmrg"))
    assert len(files) == 9
    assert read_adapter(files[0]).task_id == "type0-lang0"


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


def test_run_store_dir_restores(suite_dir, tmp_path):
    store = tmp_path / "store"
    main(["run", "--suite", str(suite_dir), "--k", "3", "--target-rank", "3",
          "--seeds", "0", "--out", str(tmp_path / "r"), "--store-dir", str(store)])
    engine = MergeEngine.restore(store)
    assert engine.timestep == 9


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
        (json.dumps({**PolicyConfig(budget_k=2).to_dict(),
                     "rank_policy": {"mode": "factor_average", "target_rank": 3}}), "rank_policy.mode"),
        (json.dumps({**PolicyConfig(budget_k=2).to_dict(), "budget_k": True}), "budget_k"),
        (json.dumps({**PolicyConfig(budget_k=2).to_dict(),
                     "rank_policy": {"target_rank": 3.5}}), "rank_policy.target_rank"),
    ],
    ids=["missing-operator", "invalid-json", "unknown-rank-mode", "bool-budget_k",
         "fractional-target_rank"],
)
def test_run_config_errors_exit_2(suite_dir, tmp_path, capsys, text, problem):
    path = tmp_path / "policy.json"
    path.write_text(text)
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
        (["sweep", "--k", "0"], "budget_k", 0),
        (["merge", "--density", "0"], "operator.density", 0.0),
        (["merge", "--target-rank", "0"], "rank_policy.target_rank", 0),
    ],
    ids=["run-k", "run-target-rank", "run-density", "run-drop-rate", "run-pp-no-threshold",
         "sweep-k", "merge-density", "merge-target-rank"],
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


DAMAGED_SUITES = {
    "invalid-json": (lambda text: text[:-2], "not valid JSON"),
    "no-task_id": (lambda text: _edit_first(text, lambda e: e.pop("task_id")), "task_id"),
    "fractional-task_index": (
        lambda text: _edit_first(text, lambda e: e.__setitem__("task_index", 1.7)), "task_index"
    ),
    "file-outside-suite": (
        lambda text: _edit_first(text, lambda e: e.__setitem__("file", "../" + e["file"])), "file"
    ),
}


def _edit_first(text, change):
    index = json.loads(text)
    change(index[0])
    return json.dumps(index)


@pytest.mark.parametrize("damage, problem", DAMAGED_SUITES.values(), ids=DAMAGED_SUITES)
def test_run_damaged_suite_exits_1(suite_dir, tmp_path, capsys, damage, problem):
    index = suite_dir / "tasks.json"
    index.write_text(damage(index.read_text()))
    (tmp_path / "task_001.kmrg").write_bytes((suite_dir / "task_001.kmrg").read_bytes())
    with pytest.raises(FormatError, match=problem):
        load_suite(suite_dir)
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
        assert merged.key_set() == served.key_set()
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
    code = main(["merge", str(tmp_path / "x.kmrg"), str(tmp_path / "y.kmrg"),
                 "--op", "linear", "--weight", "1.5", "--out", str(out)])
    assert code != 0 and not out.exists()
    assert "weight" in capsys.readouterr().err


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
    assert main(["inspect", "--store", str(store)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["budget_k"] == 2


def test_inspect_damaged_store(tmp_path, capsys):
    assert main(["inspect", "--store", str(tmp_path)]) == 1
    assert "no manifest.json" in capsys.readouterr().err
    (tmp_path / "manifest.json").write_text("{bad")
    assert main(["inspect", "--store", str(tmp_path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_inspect_geometry(capsys):
    assert main(["inspect", "--geometry", "llama-3.2-1b", "--rank", "32"]) == 0
    out = capsys.readouterr().out
    params = int(out.split("parameters per adapter (rank 32): ")[1].split("\n")[0])
    assert abs(params - 22.5e6) / 22.5e6 < 0.02


def test_inspect_requires_target():
    with pytest.raises(SystemExit) as err:
        main(["inspect"])
    assert err.value.code == 2


def test_missing_suite_is_runtime_error(tmp_path, capsys):
    assert main(["calibrate", str(tmp_path / "nope")]) == 1


def test_bad_generator_flags_exit_2(tmp_path):
    assert main(["gen", "--rank", "2", "--out", str(tmp_path / "s")]) == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "kmerge 0.1.0" in capsys.readouterr().out
