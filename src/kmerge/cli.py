"""Command-line front door.

Exit codes: 0 success, 1 runtime/domain error or any OS error (a missing,
unreadable or unwritable path), 2 usage or configuration error, 141 (128 +
SIGPIPE) when the reader of standard output closes it early. Every
subcommand is deterministic given its flags and seeds, apart from
measured wall-clock fields in reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adapters import FORMAT_VERSION, LayerKey, _header_dict, read_adapter, write_adapter
from .bench import (
    GEOMETRY_PRESETS,
    GeneratorConfig,
    OrderingSpec,
    adapter_file_bytes,
    generate_suite,
    load_suite,
    lora_param_count,
    run_simulation,
    save_suite,
    threshold_sweep,
)
from .engine import (
    MANIFEST_VERSION, VARIANTS, MergeEngine, PolicyConfig, SlotState, merged_cache, read_manifest,
    slot_cache,
)
from .errors import ConfigError, KMergeError
from .merging import OPERATOR_KINDS, MergeOperator, RankPolicy, refactor
from .similarity import calibrate_threshold, similarity_matrix

OPERATOR_FLAGS = tuple(kind.replace("_", "-") for kind in OPERATOR_KINDS)


def _operator_from_flags(args) -> MergeOperator:
    return MergeOperator(
        kind=args.operator.replace("-", "_"),
        density=args.density,
        drop_rate=args.drop_rate,
        rng_seed=args.op_seed,
    )


def _policy_from_flags(args, variant: str, threshold_s: float | None) -> PolicyConfig:
    return PolicyConfig(
        budget_k=args.k,
        variant=variant,
        threshold_s=threshold_s,
        operator=_operator_from_flags(args),
        rank_policy=RankPolicy(target_rank=args.target_rank),
    )


def _policy_from_config_file(path: str) -> PolicyConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return PolicyConfig.from_dict(data)


def cmd_gen(args) -> int:
    config = GeneratorConfig(
        alpha_types=args.alpha,
        beta_langs=args.beta,
        rank=args.rank,
        n_layers=args.layers,
        layer_spec=((args.width, args.width),) * 4,
        type_strength=args.type_strength,
        lang_strength=args.lang_strength,
        noise_strength=args.noise_strength,
        seed=args.seed,
    )
    adapters, _ = generate_suite(config)
    save_suite(adapters, args.out)
    print(f"wrote {len(adapters)} adapters to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    adapters, _ = load_suite(args.suite)
    s = calibrate_threshold(adapters)
    print(f"{s:.6f}")
    return 0


def cmd_run(args) -> int:
    adapters, tasks = load_suite(args.suite)
    if args.config:
        base = _policy_from_config_file(args.config)
    else:
        base = _policy_from_flags(args, args.variant.replace("-", "_"), args.threshold)
    if len(set(args.seeds)) != len(args.seeds):
        raise ConfigError(f"--seeds repeats a seed: {args.seeds}")
    orderings = [OrderingSpec(kind=args.ordering.replace("-", "_"), seed=seed) for seed in args.seeds]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    scores = []
    for seed, ordering in zip(args.seeds, orderings):
        store_dir = args.store_dir if seed == args.seeds[-1] else None
        report = run_simulation(adapters, tasks, ordering, base, store_dir=store_dir)
        report.to_json(f"{out}_seed{seed}.json")
        report.to_csv(f"{out}_seed{seed}.csv")
        scores.append(report.final_score)
    print(f"final S: mean={np.mean(scores):.4f} std={np.std(scores):.4f} over seeds {args.seeds}")
    return 0


def cmd_sweep(args) -> int:
    adapters, tasks = load_suite(args.suite)
    # threshold_sweep replaces the threshold with each swept value in turn.
    config = _policy_from_flags(args, "k_merge_pp", args.s_values[0])
    table = threshold_sweep(
        adapters, tasks, config, args.s_values, OrderingSpec("random", args.seed)
    )
    for row in table:
        print(f"s={row['s']:.4f}  S={row['final_score']:.4f}  occupied={row['occupied']}")
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=2))
    return 0


def cmd_merge(args) -> int:
    x = read_adapter(args.inputs[0])
    y = read_adapter(args.inputs[1])
    operator = _operator_from_flags(args)
    if args.weight is not None and operator.kind != "linear":
        raise ConfigError(f"--weight applies only to --op linear, not --op {args.operator}")
    if args.weight is not None and not 0.0 <= args.weight <= 1.0:
        raise ConfigError(f"--weight must be in [0, 1], got {args.weight}")
    weight = 0.5 if args.weight is None else args.weight
    rank_policy = RankPolicy(max(x.rank, y.rank) if args.target_rank is None else args.target_rank)
    cache = merged_cache(operator, SlotState(adapter=x, cache=slot_cache(x), tasks=(1,)), y, weight)
    result = refactor(cache, rank_policy.target_rank, f"merged-{x.task_id}-{y.task_id}", y.scaling)
    write_adapter(result.adapter, args.out)
    report = {
        "operator": operator.kind,
        "merge_count": 2,
        "target_rank": rank_policy.target_rank,
        "per_layer_residuals": {str(k): v for k, v in sorted(result.residuals.items(), key=lambda kv: kv[0].sort_key())},
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2))
    print(f"wrote merged adapter to {args.out}")
    return 0


def cmd_sim(args) -> int:
    adapters, _ = load_suite(args.suite)
    matrix = similarity_matrix(adapters)
    if args.csv:
        matrix.to_csv(args.csv)
        print(f"wrote {len(matrix.adapter_ids)}x{len(matrix.adapter_ids)} matrix to {args.csv}")
    else:
        for name, row in zip(matrix.adapter_ids, matrix.values):
            print(name, " ".join(f"{v:+.4f}" for v in row))
    return 0


def cmd_route(args) -> int:
    engine = MergeEngine.restore(args.store)
    slot = engine.route(args.task)
    print(slot)
    return 0


def cmd_inspect(args) -> int:
    if args.geometry:
        rank = 32 if args.rank is None else args.rank
        if rank < 1:
            raise ConfigError(f"--rank must be >= 1, got {rank}")
        modules = GEOMETRY_PRESETS[args.geometry]
        params = lora_param_count(modules, rank)
        # The header of a merged slot adapter of this geometry.
        fields = {"task_id": "slot-1", "problem_type": "merged", "language": "merged",
                  "rank": rank, "scale_numerator": 128.0}
        geometry = {LayerKey(i, "query"): (d_out, d_in) for i, (d_in, d_out) in enumerate(modules)}
        header = json.dumps(_header_dict(fields, geometry)).encode()
        size = adapter_file_bytes(len(header), params)
        print(f"geometry: {args.geometry}")
        print(f"adapted modules: {len(modules)}")
        print(f"parameters per adapter (rank {rank}): {params}")
        print(f"file bytes per adapter: {size}")
        return 0
    if args.json:
        print(json.dumps(read_manifest(args.store), indent=2))
        return 0
    # Derives nothing: no merged slot's adapter, no one-member slot's cache.
    engine = MergeEngine.restore(args.store)
    print(f"{'slot':>4}  {'members':>7}  {'stored as':<10}  {'stored bytes':>12}  {'cache rank':>10}")
    for slot_key, slot in engine.store.slots.items():
        forms, size, rank = [], 0, "-"
        if slot.derivation is None:
            forms.append("file")
            size += (Path(args.store) / f"slot_{slot_key}.kmrg").stat().st_size
        if (cache := slot.held_cache) is not None:
            forms.append("cache")
            size += sum(low.b.nbytes + low.a.nbytes for low in cache.values())
            rank = max((low.rank_bound for low in cache.values()), default=0)
        print(f"{slot_key:>4}  {len(slot.tasks):>7}  {'+'.join(forms):<10}  {size:>12}  {rank:>10}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmerge",
        description="Budget-constrained continual merging of low-rank adapters.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"kmerge {__version__} (adapter format v{FORMAT_VERSION}, manifest v{MANIFEST_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic adapter suite")
    p.add_argument("--alpha", type=int, default=5)
    p.add_argument("--beta", type=int, default=8)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--type-strength", type=float, default=1.0)
    p.add_argument("--lang-strength", type=float, default=0.1)
    p.add_argument("--noise-strength", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("calibrate", help="median pairwise similarity of a held-out suite")
    p.add_argument("suite")
    p.set_defaults(func=cmd_calibrate)

    def operator_flags(p):
        p.add_argument("--operator", choices=list(OPERATOR_FLAGS), default="running-average")
        p.add_argument("--density", type=float, default=0.5)
        p.add_argument("--drop-rate", type=float, default=0.5)
        p.add_argument("--op-seed", type=int, default=0)
        p.add_argument("--target-rank", type=int, default=4)

    p = sub.add_parser("run", help="replay a stream and write score reports")
    p.add_argument("--suite", required=True)
    p.add_argument("--k", type=int, help="slot budget; required unless --config is given")
    p.add_argument("--variant", choices=[v.replace("_", "-") for v in VARIANTS], default="k-merge")
    p.add_argument("--threshold", type=float, default=None)
    operator_flags(p)
    p.add_argument("--config", help="JSON policy config (manifest schema); overrides flags")
    p.add_argument("--ordering", choices=["random", "problem-types", "worst"], default="random")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--store-dir", help="persist the final store of the last seed here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="threshold ablation for k-merge-pp")
    p.add_argument("--suite", required=True)
    p.add_argument("--k", type=int, required=True)
    operator_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the random stream ordering")
    p.add_argument("--s-values", type=float, nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("merge", help="one-shot merge of two adapter files")
    p.add_argument("inputs", nargs=2, metavar="ADAPTER")
    p.add_argument("--op", dest="operator", choices=list(OPERATOR_FLAGS), required=True)
    p.add_argument("--weight", type=float, help="first input's weight; --op linear only, default 0.5")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--drop-rate", type=float, default=0.5)
    p.add_argument("--seed", dest="op_seed", type=int, default=0)
    p.add_argument("--target-rank", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write a JSON merge report here")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("sim", help="pairwise similarity matrix of a suite")
    p.add_argument("suite")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("route", help="look up the slot serving a task index")
    p.add_argument("--store", required=True)
    p.add_argument("--task", type=int, required=True)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("inspect", help="a store's slots, or a geometry's storage cost")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--store", help="print one line per slot: members, what the store keeps of it "
                        "(its adapter file, its cache or both), those bytes and the kept cache's largest rank")
    target.add_argument("--geometry", choices=sorted(GEOMETRY_PRESETS))
    p.add_argument("--rank", type=int, help="adapter rank for --geometry, default 32")
    p.add_argument("--json", action="store_true", help="with --store, print the raw manifest instead")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.k is None and not args.config:
        parser.error("--k is required unless --config is given")
    if args.command == "inspect" and args.store and args.rank is not None:
        parser.error("--rank applies only to --geometry")
    if args.command == "inspect" and args.geometry and args.json:
        parser.error("--json applies only to --store")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`kmerge inspect --store S | head -1`).
        # Point stdout at devnull so the flush at interpreter exit writes
        # nothing, and exit as a process ended by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (KMergeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
