"""Synthetic adapter suites, surrogate scoring, stream orderings, the
simulation harness, clustering consistency, and storage accounting.

The surrogate task metric is the clamped cosine between a candidate
adapter and the task's own single-task adapter. A task served by its
own adapter therefore scores exactly 1, so the normalized aggregate
score keeps its meaning without any model in the loop.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .adapters import (
    PROJECTIONS,
    FactorPair,
    LayerKey,
    LoraAdapter,
    _HEAD,
    delete_stale,
    read_adapter,
    write_adapter,
)
from .engine import MergeEngine, MergeHistory, PolicyConfig
from .errors import ConfigError, FormatError
from .similarity import Profile, adapter_similarity, similarities

ORDERING_KINDS = ("random", "problem_types", "worst")


@dataclass(frozen=True)
class TaskSpec:
    task_index: int
    task_id: str
    problem_type: str
    language: str


@dataclass(frozen=True)
class GeneratorConfig:
    alpha_types: int = 5
    beta_langs: int = 8
    rank: int = 4
    n_layers: int = 4
    layer_spec: tuple[tuple[int, int], ...] = ((64, 64),) * 4  # (d_in, d_out) per projection
    type_strength: float = 1.0
    lang_strength: float = 0.1
    noise_strength: float = 0.05
    scale_numerator: float = 16.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha_types < 1 or self.beta_langs < 1:
            raise ConfigError("alpha_types and beta_langs must be >= 1")
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if len(self.layer_spec) != len(PROJECTIONS):
            raise ConfigError(f"layer_spec needs one (d_in, d_out) per projection ({len(PROJECTIONS)})")
        if min(min(shape) for shape in self.layer_spec) < 1:
            raise ConfigError(f"layer_spec widths must be >= 1, got {self.layer_spec}")
        if not self.type_strength > self.lang_strength > self.noise_strength > 0:
            raise ConfigError("strengths must satisfy type > lang > noise > 0")
        if self.rank < 3:
            raise ConfigError("rank must be >= 3 to host type, language, and noise components")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def gamma(self) -> int:
        return self.alpha_types * self.beta_langs

    def keys(self) -> list[LayerKey]:
        return [
            LayerKey(layer, proj)
            for layer in range(self.n_layers)
            for proj in PROJECTIONS
        ]

    def shape_of(self, key: LayerKey) -> tuple[int, int]:
        return self.layer_spec[PROJECTIONS.index(key.proj)]

    def component_ranks(self) -> tuple[int, int, int]:
        r_lang = max(1, self.rank // 4)
        r_noise = max(1, self.rank // 4)
        r_type = self.rank - r_lang - r_noise
        return r_type, r_lang, r_noise


def _unit_factors(rng: np.random.Generator, d_in: int, d_out: int, rank: int):
    """Random rank-limited factors scaled to a unit-Frobenius dense product."""
    b = rng.standard_normal((d_out, rank))
    a = rng.standard_normal((rank, d_in))
    norm = math.sqrt(max(np.sum((b.T @ b) * (a @ a.T)), 1e-300))
    return b / norm, a


def generate_suite(config: GeneratorConfig) -> tuple[list[LoraAdapter], list[TaskSpec]]:
    """Synthetic grid of alpha x beta adapters with planted cluster structure.

    Each layer's update is type_strength * P_type + lang_strength * D_lang
    + noise_strength * E, where each component is a fresh unit-norm
    rank-limited matrix. The factors are concatenated, so every adapter
    is exactly the configured rank with no truncation. Deterministic in
    the seed.
    """
    rng = np.random.default_rng(config.seed)
    keys = config.keys()
    r_type, r_lang, r_noise = config.component_ranks()

    type_protos = [
        {key: _unit_factors(rng, *config.shape_of(key), r_type) for key in keys}
        for _ in range(config.alpha_types)
    ]
    lang_protos = [
        {key: _unit_factors(rng, *config.shape_of(key), r_lang) for key in keys}
        for _ in range(config.beta_langs)
    ]

    adapters = []
    for p in range(config.alpha_types):
        for l in range(config.beta_langs):
            layers = {}
            for key in keys:
                d_in, d_out = config.shape_of(key)
                tb, ta = type_protos[p][key]
                lb, la = lang_protos[l][key]
                nb, na = _unit_factors(rng, d_in, d_out, r_noise)
                b = np.hstack(
                    [
                        config.type_strength * tb,
                        config.lang_strength * lb,
                        config.noise_strength * nb,
                    ]
                )
                a = np.vstack([ta, la, na])
                layers[key] = FactorPair(a=a.astype(np.float32), b=b.astype(np.float32))
            adapters.append(
                LoraAdapter(
                    task_id=f"type{p}-lang{l}",
                    problem_type=f"type{p}",
                    language=f"lang{l}",
                    rank=config.rank,
                    scale_numerator=config.scale_numerator,
                    layers=layers,
                )
            )
    return adapters, suite_tasks(adapters)


# -- suite directories -----------------------------------------------------

def suite_tasks(adapters: Sequence[LoraAdapter]) -> list[TaskSpec]:
    """The tasks of a suite: task ``i`` (from 1) is its ``i``-th adapter,
    described by that adapter's own header fields."""
    return [TaskSpec(i, a.task_id, a.problem_type, a.language) for i, a in enumerate(adapters, 1)]


def save_suite(adapters: Sequence[LoraAdapter], directory: str | Path) -> None:
    """Write ``adapters`` to ``directory`` as ``task_<n>.kmrg``, ``n`` counted
    from 1 and zero-padded to at least three digits so that name order is
    suite order, then delete every other ``task_<digits>.kmrg`` there, so
    that no task of an earlier suite is loaded with this one."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(3, len(str(len(adapters))))
    names = [f"task_{n:0{width}d}.kmrg" for n in range(1, len(adapters) + 1)]
    for name, adapter in zip(names, adapters):
        write_adapter(adapter, directory / name)
    delete_stale(directory, "task", names)


def load_suite(directory: str | Path) -> tuple[list[LoraAdapter], list[TaskSpec]]:
    """The suite in ``directory``: every ``*.kmrg`` file in name order, task
    ``i`` being the ``i``-th file (:func:`suite_tasks`). Any other file is
    ignored. A path that is not a directory, or a directory with no
    ``.kmrg`` file, raises :class:`FormatError`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"suite {directory} is not a directory")
    adapters = [read_adapter(path) for path in sorted(directory.glob("*.kmrg"))]
    if not adapters:
        raise FormatError(f"suite {directory} holds no .kmrg file")
    return adapters, suite_tasks(adapters)


def calibration_config(seed: int = 97) -> GeneratorConfig:
    """Held-out suite used to calibrate the merge threshold.

    Deliberately diverse: few problem types, many languages, and a
    stronger language component. With this grid the median pairwise
    similarity falls between the cross-cluster and within-cluster
    similarity levels of a default suite, so it separates "merge" from
    "allocate" decisions.
    """
    return GeneratorConfig(
        alpha_types=2,
        beta_langs=8,
        lang_strength=0.5,
        noise_strength=0.05,
        seed=seed,
    )


# -- stream orderings ------------------------------------------------------

@dataclass(frozen=True)
class OrderingSpec:
    kind: str = "random"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ORDERING_KINDS:
            raise ConfigError(f"unknown ordering kind {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def order_stream(tasks: Sequence[TaskSpec], spec: OrderingSpec) -> list[int]:
    """Arrival order as positions into the task list.

    ``worst`` places all tasks of each problem type consecutively, types
    and languages in lexicographic order. ``problem_types`` also groups
    by type but shuffles the type order and within-type order with the
    seed.
    """
    positions = list(range(len(tasks)))
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        return [int(i) for i in rng.permutation(len(tasks))]
    if spec.kind == "worst":
        return sorted(positions, key=lambda i: (tasks[i].problem_type, tasks[i].language))
    rng = np.random.default_rng(spec.seed)
    types = sorted({t.problem_type for t in tasks})
    types = [types[int(i)] for i in rng.permutation(len(types))]
    ordered = []
    for ptype in types:
        members = [i for i in positions if tasks[i].problem_type == ptype]
        ordered.extend(members[int(i)] for i in rng.permutation(len(members)))
    return ordered


# -- scoring ---------------------------------------------------------------

def surrogate_metric(candidate: LoraAdapter, single_task: LoraAdapter) -> float:
    """Clamped cosine to the task's own adapter; the single-task adapter
    scores exactly 1 on its own task."""
    return max(0.0, adapter_similarity(candidate, single_task))


def aggregate_score(
    engine: MergeEngine, seen: Sequence[tuple[int, LoraAdapter | Profile]]
) -> tuple[float, list[float]]:
    """Mean surrogate ratio over the seen tasks; ``seen`` pairs each
    arrival index with the task's original single-task adapter or its
    profile. No task seen scores 0.0, as an empty simulation does.

    Tasks are grouped by the slot that serves them, and each slot's served
    adapter, through the slot's profile, is compared against its tasks'
    originals in one similarity call. Each ratio equals
    ``surrogate_metric(served, original)``; the ratios are returned in the
    order of ``seen``.
    """
    if not seen:
        return 0.0, []
    by_slot: dict[int, list[int]] = {}
    for position, (arrival_index, _) in enumerate(seen):
        by_slot.setdefault(engine.route(arrival_index), []).append(position)
    ratios = [0.0] * len(seen)
    for slot_key, positions in by_slot.items():
        candidate = engine.store.slots[slot_key].profile
        scores = similarities(candidate, [seen[i][1] for i in positions])
        for position, score in zip(positions, scores):
            ratios[position] = max(0.0, score)
    return float(np.mean(ratios)), ratios


def clustering_consistency(
    history: MergeHistory, tasks_by_arrival: dict[int, TaskSpec]
) -> float:
    """Fraction of tasks matching their cluster's modal problem type."""
    clusters = [[tasks_by_arrival[t] for t in members] for members in history.entries.values()]
    total = sum(map(len, clusters))
    matches = sum(max(Counter(t.problem_type for t in members).values()) for members in clusters)
    return matches / total if total else 0.0


# -- simulation harness ----------------------------------------------------

@dataclass
class SimulationRow:
    timestep: int
    task_index: int
    task_id: str
    action: str
    slot_key: int
    similarity: float | None
    occupied: int
    score: float
    elapsed: float


@dataclass
class SimulationReport:
    rows: list[SimulationRow]
    final_score: float
    consistency: float
    occupied: int
    config: dict  # PolicyConfig.to_dict() of the simulated policy
    ordering: dict

    def to_json(self, path: str | Path) -> None:
        payload = {
            "config": self.config,
            "ordering": self.ordering,
            "final_score": self.final_score,
            "clustering_consistency": self.consistency,
            "occupied": self.occupied,
            "rows": [asdict(row) for row in self.rows],
        }
        for row in payload["rows"]:
            row["elapsed_us"] = row.pop("elapsed") * 1e6
        Path(path).write_text(json.dumps(payload, indent=2))

    def to_csv(self, path: str | Path) -> None:
        lines = ["timestep,S,occupied,action,similarity,elapsed_us"]
        for row in self.rows:
            sim = "" if row.similarity is None else f"{row.similarity:.12g}"
            lines.append(
                f"{row.timestep},{row.score:.12g},{row.occupied},{row.action},{sim},{row.elapsed * 1e6:.1f}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def run_simulation(
    adapters: Sequence[LoraAdapter],
    tasks: Sequence[TaskSpec],
    ordering: OrderingSpec,
    config: PolicyConfig,
    store_dir: str | Path | None = None,
) -> SimulationReport:
    """Replay the stream through a fresh engine, scoring after every step.

    The score after a step is the mean surrogate ratio over every task
    seen so far, in arrival order. An ingest changes only the served
    adapter of the slot it touched, so only that slot's tasks are
    rescored; the others keep their ratios. Each arrival's profile is
    built once, ingested and kept for its rescoring. Deterministic given
    the seeds, except for the wall-clock ``elapsed`` fields, which are
    measurements.
    """
    if len(adapters) != len(tasks):
        raise ConfigError("adapters and tasks must align")
    engine = MergeEngine(config)
    order = order_stream(tasks, ordering)
    rows: list[SimulationRow] = []
    profiles: dict[int, Profile] = {}  # each arrival's, by arrival index
    ratios: dict[int, float] = {}  # by arrival index, in arrival order
    tasks_by_arrival: dict[int, TaskSpec] = {}
    for position in order:
        profile, task = Profile(adapters[position]), tasks[position]
        decision = engine.ingest(profile)
        profiles[decision.task_index] = profile
        tasks_by_arrival[decision.task_index] = task
        members = engine.store.slots[decision.slot_key].tasks
        _, rescored = aggregate_score(engine, [(t, profiles[t]) for t in members])
        ratios.update(zip(members, rescored))
        score = float(np.mean(list(ratios.values())))
        rows.append(
            SimulationRow(
                timestep=decision.task_index,
                task_index=task.task_index,
                task_id=task.task_id,
                action=decision.action,
                slot_key=decision.slot_key,
                similarity=decision.similarity,
                occupied=engine.store.occupied,
                score=score,
                elapsed=decision.elapsed,
            )
        )
    if store_dir is not None:
        engine.persist(store_dir)
    return SimulationReport(
        rows=rows,
        final_score=rows[-1].score if rows else 0.0,
        consistency=clustering_consistency(engine.history, tasks_by_arrival),
        occupied=engine.store.occupied,
        config=config.to_dict(),
        ordering={"kind": ordering.kind, "seed": ordering.seed},
    )


def threshold_sweep(
    adapters: Sequence[LoraAdapter],
    tasks: Sequence[TaskSpec],
    config: PolicyConfig,
    s_values: Sequence[float],
    ordering: OrderingSpec | None = None,
) -> list[dict]:
    """One simulation per threshold value; reports the final score."""
    if config.variant != "k_merge_pp":
        raise ConfigError("threshold sweep requires the k_merge_pp variant")
    ordering = ordering or OrderingSpec("random", 0)
    table = []
    for s in s_values:
        report = run_simulation(adapters, tasks, ordering, replace(config, threshold_s=float(s)))
        table.append(
            {
                "s": float(s),
                "final_score": report.final_score,
                "occupied": report.occupied,
                "consistency": report.consistency,
            }
        )
    return table


# -- storage accounting ----------------------------------------------------

def lora_param_count(modules: Sequence[tuple[int, int]], rank: int) -> int:
    """Adapter parameter count: rank * (d_in + d_out) per adapted module."""
    return sum(rank * (d_in + d_out) for d_in, d_out in modules)


def adapter_file_bytes(header_len: int, param_count: int) -> int:
    """Exact file size per the binary format: 10-byte head, JSON header,
    then 4 bytes per stored parameter."""
    return _HEAD.size + header_len + 4 * param_count


def _repeat_layers(per_layer: Sequence[tuple[int, int]], n_layers: int) -> list[tuple[int, int]]:
    return [shape for _ in range(n_layers) for shape in per_layer]


# Public architecture constants for the two on-device model geometries,
# all linear projections adapted (attention q/k/v/o plus MLP gate/up/down).
LLAMA_3_2_1B_MODULES = _repeat_layers(
    [
        (2048, 2048),  # q
        (2048, 512),   # k (8 KV heads x 64)
        (2048, 512),   # v
        (2048, 2048),  # o
        (2048, 8192),  # gate
        (2048, 8192),  # up
        (8192, 2048),  # down
    ],
    16,
)
QWEN_2_5_1_5B_MODULES = _repeat_layers(
    [
        (1536, 1536),  # q
        (1536, 256),   # k (2 KV heads x 128)
        (1536, 256),   # v
        (1536, 1536),  # o
        (1536, 8960),  # gate
        (1536, 8960),  # up
        (8960, 1536),  # down
    ],
    28,
)

GEOMETRY_PRESETS = {
    "llama-3.2-1b": LLAMA_3_2_1B_MODULES,
    "qwen-2.5-1.5b": QWEN_2_5_1_5B_MODULES,
}
