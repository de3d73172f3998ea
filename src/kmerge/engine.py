"""Online continual-merging state machine.

Maintains at most ``budget_k`` storage slots. Each slot holds the
servable rank-controlled adapter, an exact float64 running delta cache in
canonical thin-SVD form and its members' arrival indices (see
:class:`SlotState`). Similarity is always measured against the stored
adapter (what the device actually holds); the running-average update is
applied to the exact cache, which keeps the fold order-invariant
regardless of rank truncation. The engine holds only its policy, its
slots and each arrival's task id; the next slot key, the arrival index
and :attr:`MergeEngine.history` are derived from them.

A store's format is kept in one place: :func:`_cache_layout` places each
running-cache entry in ``running_cache.bin`` and :meth:`MergeEngine._manifest`
builds ``manifest.json``. ``persist`` writes them; ``restore`` derives them
again from the state it reads and accepts no store that differs. Version-2
caches are canonical and restore as read-only views of the mapped cache
file; version-1 caches, concatenated factors, are canonicalised once. Each
restored slot adapter is a read-only view of its mapped ``slot_<key>.kmrg``
until the slot is next merged, so a restored engine with ``K`` slots holds
``K + 1`` mappings and one file descriptor for each. ``persist`` renames new
files over old ones, which leaves every mapping valid.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .adapters import (
    LayerKey, LoraAdapter, check_compatible, delete_stale, parse_adapter, replace_file, write_adapter,
    read_adapter,  # unused here; perfbench/tracing.py wraps kmerge.engine.read_adapter by name
)
from .errors import (
    ConfigError,
    DuplicateTask,
    RestoreError,
    ShapeError,
    SlotVacant,
    UnknownTask,
)
from .jsonfields import json_field, json_value
from .lowrank import LowRankDelta, fold_layers
from .merging import (
    MergeOperator,
    RankPolicy,
    dare_merge,
    dare_ties_merge,
    delta_map,
    linear_merge,  # unused here; perfbench/tracing.py wraps kmerge.engine.linear_merge by name
    refactor,
    ties_merge,
)
from .similarity import most_similar

VARIANTS = ("k_merge", "k_merge_pp")

ALLOCATED = "allocated_new_slot"
MERGED = "merged_into"

MANIFEST_VERSION = 2  # 2: running caches are stored in canonical form

# Restore maps the running cache and the slot adapters with their page tables
# filled, so that the first read of a restored slot, or a persist of it, takes
# no page faults.
_MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)

# Field types of the policy's nested records, which ``PolicyConfig.from_dict``
# requires of their JSON values; resolved once, as resolving is slow.
_FIELD_TYPES = {kind: get_type_hints(kind) for kind in (MergeOperator, RankPolicy)}


@dataclass(frozen=True)
class PolicyConfig:
    budget_k: int
    variant: str = "k_merge"
    threshold_s: float | None = None
    operator: MergeOperator = field(default_factory=MergeOperator)
    rank_policy: RankPolicy = field(default_factory=RankPolicy)

    def __post_init__(self):
        if self.budget_k < 1:
            raise ConfigError("budget_k must be >= 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.threshold_s is not None and not math.isfinite(self.threshold_s):
            raise ConfigError(f"threshold_s must be finite, got {self.threshold_s}")
        if self.variant == "k_merge_pp" and self.threshold_s is None:
            raise ConfigError("k_merge_pp requires threshold_s")
        if self.variant == "k_merge" and self.threshold_s is not None:
            raise ConfigError("k_merge takes no threshold_s; only k_merge_pp uses one")

    def to_dict(self) -> dict:
        """The policy as the JSON object stored in manifests and read by ``--config``."""
        # As ``asdict``, without its deep copy: every restore builds this too.
        nested = {name: dict(vars(getattr(self, name))) for name in ("operator", "rank_policy")}
        return {**vars(self), **nested}

    @classmethod
    def from_dict(cls, data) -> "PolicyConfig":
        """Inverse of :meth:`to_dict`. Every field is required and must be a
        JSON value of the field's type (``threshold_s`` may be null); a
        missing or mistyped one raises :class:`ConfigError` naming it, and
        the records reject values out of range with the same error. Other
        keys are ignored, so a whole manifest is a valid input. Older
        policies name a rank mode; ``rank_policy.mode`` ``"svd_truncate"``,
        the served form that remains, is accepted and any other mode
        rejected."""
        kwargs = {
            "budget_k": json_field(data, "budget_k", ConfigError, int),
            "variant": json_field(data, "variant", ConfigError, str),
        }
        threshold = json_field(data, "threshold_s", ConfigError)
        if threshold is not None:
            json_value(threshold, float, ConfigError, "threshold_s")
        kwargs["threshold_s"] = threshold
        rank_policy = json_field(data, "rank_policy", ConfigError)
        if isinstance(rank_policy, dict) and rank_policy.get("mode", "svd_truncate") != "svd_truncate":
            raise ConfigError(f"unsupported rank_policy.mode {rank_policy['mode']!r}")
        for name, kind in (("operator", MergeOperator), ("rank_policy", RankPolicy)):
            types = _FIELD_TYPES[kind]
            kwargs[name] = kind(**{
                f.name: json_field(data, f"{name}.{f.name}", ConfigError, types[f.name])
                for f in fields(kind)
            })
        return cls(**kwargs)


@dataclass(frozen=True)
class IngestDecision:
    task_index: int
    task_id: str
    action: str
    slot_key: int
    similarity: float | None
    elapsed: float


@dataclass(frozen=True)
class SlotState:
    """One slot: the served adapter, the exact running cache and its members.

    ``cache`` holds, per layer, a canonical :class:`LowRankDelta` (a
    balanced thin SVD with descending singular values): under the running
    average, the exact mean of the slot's member deltas, into which a merge
    folds the incoming delta by projection onto its singular bases; under
    a pairwise operator, that operator's last output. ``adapter`` is, for a
    slot with one member, that member; after a merge it is the
    rank-``target_rank`` slice of the cache (its leading columns of ``b``
    and rows of ``a``, zero-padded, by :func:`kmerge.merging.refactor`),
    which is the best approximation at that rank. ``tasks``, the members'
    arrival indices in arrival order, is the only record of membership. An
    ingest replaces a slot's state whole and never mutates it.

    The factors may be read-only: those of a restored slot are views of
    the store's mapped ``running_cache.bin`` (the cache) and its mapped
    ``slot_<key>.kmrg`` (the adapter) until the slot is next merged, which
    builds new arrays.
    """

    adapter: LoraAdapter
    cache: dict[LayerKey, LowRankDelta]
    tasks: tuple[int, ...]


def slot_cache(adapter: LoraAdapter) -> dict[LayerKey, LowRankDelta]:
    """The running cache of a slot whose only member is ``adapter``."""
    return {
        key: LowRankDelta.from_factors(fp, adapter.scaling).compressed()
        for key, fp in adapter.layers.items()
    }


def merged_cache(
    operator: MergeOperator,
    slot: SlotState,
    incoming: LoraAdapter,
    weight: float = 0.5,
) -> dict[LayerKey, LowRankDelta]:
    """The running cache of ``slot`` after merging ``incoming`` into it;
    ``slot`` is left unchanged.

    The running average folds ``incoming`` into the slot's cache with
    weights ``n/(n+1)`` and ``1/(n+1)``, ``n = len(slot.tasks)``; ``linear``
    folds it into the served adapter's cache with ``weight`` and ``1 - weight``, both by
    projection, all layers in one :func:`kmerge.lowrank.fold_layers` call.
    TIES and DARE vote and drop per entry, so they merge the served adapter
    with ``incoming`` in dense space and store the canonical form of the
    output.
    """
    check_compatible(slot.adapter, incoming)
    if operator.kind == "running_average":
        count = len(slot.tasks)
        base, alpha, beta = slot.cache, count / (count + 1), 1.0 / (count + 1)
    elif operator.kind == "linear":
        if not 0.0 <= weight <= 1.0:
            raise ShapeError("weight must be in [0, 1]")
        base, alpha, beta = slot_cache(slot.adapter), weight, 1.0 - weight
    else:
        if operator.kind == "ties":
            merged = ties_merge([delta_map(slot.adapter), delta_map(incoming)], operator.density)
        elif operator.kind == "dare":
            merged = dare_merge(slot.adapter, incoming, operator)
        else:
            merged = dare_ties_merge(slot.adapter, incoming, operator)
        return {key: LowRankDelta.from_dense(d) for key, d in merged.dense().items()}
    keys = list(incoming.layers)
    caches, layers = [base[key] for key in keys], [incoming.layers[key] for key in keys]
    return dict(zip(keys, fold_layers(alpha, beta, caches, layers, incoming.scaling)))


@dataclass
class AdapterStore:
    slots: dict[int, SlotState] = field(default_factory=dict)

    @property
    def occupied(self) -> int:
        return len(self.slots)

    def adapters_by_slot(self) -> dict[int, LoraAdapter]:
        return {key: slot.adapter for key, slot in self.slots.items()}


@dataclass
class MergeHistory:
    """Slot key -> members' arrival indices; a view, so mutating it changes nothing."""

    entries: dict[int, list[int]] = field(default_factory=dict)

    @property
    def next_slot_key(self) -> int:  # no slot is ever freed
        return len(self.entries) + 1


def read_manifest(directory: str | Path) -> dict:
    """The parsed ``manifest.json`` of a store directory; raises
    :class:`RestoreError` when it is missing or not valid UTF-8 JSON."""
    manifest_path = Path(directory) / "manifest.json"
    if not manifest_path.exists():
        raise RestoreError(f"no manifest.json in {directory}")
    try:
        return json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RestoreError(f"manifest.json is not valid JSON: {exc}") from None


class MergeEngine:
    """Serialized ingest pipeline over an :class:`AdapterStore`."""

    def __init__(self, config: PolicyConfig):
        self.config = config
        self.store = AdapterStore()
        self.task_ids: dict[int, str] = {}

    # -- queries ----------------------------------------------------------

    @property
    def history(self) -> MergeHistory:
        """Each slot's members, as a fresh view; mutating it changes nothing."""
        return MergeHistory({key: list(slot.tasks) for key, slot in self.store.slots.items()})

    def route(self, task_index: int) -> int:
        """Slot whose members include arrival ``task_index``."""
        for slot_key, slot in self.store.slots.items():
            if task_index in slot.tasks:
                return slot_key
        raise UnknownTask(f"task index {task_index} was never ingested")

    def route_task_id(self, task_id: str) -> int:
        for index, known in self.task_ids.items():
            if known == task_id:
                return self.route(index)
        raise UnknownTask(f"task id {task_id!r} was never ingested")

    def load_for_inference(self, slot_key: int) -> LoraAdapter:
        slot = self.store.slots.get(slot_key)
        if slot is None:
            raise SlotVacant(f"slot {slot_key} is vacant")
        return slot.adapter

    # -- ingest -----------------------------------------------------------

    def ingest(self, incoming: LoraAdapter) -> IngestDecision:
        start = time.perf_counter()
        if incoming.task_id in self.task_ids.values():
            raise DuplicateTask(f"task {incoming.task_id!r} already ingested")
        t = len(self.task_ids) + 1

        best_key, best_score = None, None
        if self.store.slots:
            best_key, best_score = most_similar(incoming, self.store.adapters_by_slot())

        occupied = self.store.occupied
        if self.config.variant == "k_merge":
            do_merge = occupied >= self.config.budget_k
        else:
            do_merge = occupied == self.config.budget_k or (
                occupied > 0 and best_score >= self.config.threshold_s
            )

        if do_merge:
            slot_key, action, similarity = best_key, MERGED, best_score
            slot = self._merged_slot(slot_key, incoming, t)
        else:
            slot_key, action, similarity = occupied + 1, ALLOCATED, None
            slot = SlotState(adapter=incoming, cache=slot_cache(incoming), tasks=(t,))

        # Everything above may raise and changes no engine state; the commit
        # below cannot raise, so an ingest is all-or-nothing.
        self.store.slots[slot_key] = slot
        self.task_ids[t] = incoming.task_id
        return IngestDecision(
            task_index=t,
            task_id=incoming.task_id,
            action=action,
            slot_key=slot_key,
            similarity=similarity,
            elapsed=time.perf_counter() - start,
        )

    def _merged_slot(self, slot_key: int, incoming: LoraAdapter, t: int) -> SlotState:
        """The slot after merging ``incoming`` (arrival ``t``), built without changing it."""
        slot = self.store.slots[slot_key]
        cache = merged_cache(self.config.operator, slot, incoming)
        served = refactor(
            cache, self.config.rank_policy.target_rank, f"slot-{slot_key}", incoming.scaling
        )
        return SlotState(adapter=served.adapter, cache=cache, tasks=slot.tasks + (t,))

    # -- persistence ------------------------------------------------------

    def persist(self, directory: str | Path) -> None:
        """Write slot adapters, the exact running caches, and a manifest.

        Caches are stored in canonical form as raw float64 little-endian
        tensors, each written straight to the cache file where
        :func:`_cache_layout` puts it, so a restored engine continues from
        the same exact state. The manifest is :meth:`_manifest`. Each file
        is written through :func:`~kmerge.adapters.replace_file`, so a write
        that fails leaves no temporary file. Slot files of an earlier store
        that the new manifest does not name are deleted only once it is in place.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        slots = self.store.slots
        for slot_key, slot in slots.items():
            write_adapter(slot.adapter, directory / f"slot_{slot_key}.kmrg")
        layout, _ = _cache_layout(slots, lambda slot_key, key: slots[slot_key].cache[key].rank_bound)

        def write_cache(out):
            for slot_key, key, *_ in layout:
                low = slots[slot_key].cache[key]
                for factor in (low.b, low.a):
                    out.write(np.ascontiguousarray(factor, dtype="<f8"))

        replace_file(directory / "running_cache.bin", write_cache)
        manifest = json.dumps(self._manifest(layout, version=MANIFEST_VERSION), indent=2).encode()
        replace_file(directory / "manifest.json", lambda out: out.write(manifest))
        delete_stale(directory, "slot", {f"slot_{slot_key}.kmrg" for slot_key in slots})

    def _manifest(self, layout: list, version: int) -> dict:
        """This engine's manifest with its caches at ``layout`` (see
        :func:`_cache_layout`): what ``persist`` writes and ``restore`` requires."""
        return {
            "version": version,
            **self.config.to_dict(),
            "slots": [
                {"slot_key": k, "file": f"slot_{k}.kmrg", "tasks": list(t), "merge_count": len(t)}
                for k, t in sorted(self.history.entries.items())
            ],
            "running_cache_file": "running_cache.bin",
            "cache_index": [
                {"slot_key": k, "layer": key.layer, "proj": key.proj,
                 "b_shape": list(b_shape), "a_shape": list(a_shape), "offset": offset}
                for k, key, b_shape, a_shape, offset in layout
            ],
            "next_slot_key": self.store.occupied + 1,
            "timestep": len(self.task_ids),
            "ingested": [[t, self.task_ids[t]] for t in sorted(self.task_ids)],
        }

    @classmethod
    def restore(cls, directory: str | Path) -> "MergeEngine":
        """The engine that :meth:`persist` wrote to ``directory``.

        Accepts exactly the stores that ``persist`` writes, at manifest
        version 1 or 2; any other raises :class:`RestoreError`. It reads the
        policy, each slot's tasks (slot ``i`` is entry ``i``, in
        ``slot_<i>.kmrg``), the ingested task ids (arrival ``i`` has index
        ``i``) and each cache entry's rank. Every other field must equal, in
        value and JSON type, the one :meth:`_manifest` derives from these.

        The running cache file and each slot's adapter file are mapped once,
        read-only, with their pages populated: each cache entry's ``b`` and
        ``a``, and each slot adapter's factors, are read-only views of them,
        until the slot is next merged. That is ``K + 1`` mappings for ``K``
        slots, each holding one file descriptor until nothing refers to it.
        ``persist`` renames a new file over the old one, so persisting over
        the store or deleting it leaves every mapping as it was; the files
        must not be edited or truncated in place while the engine lives.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        version = json_field(manifest, "version", RestoreError, int)
        if version not in (1, MANIFEST_VERSION):
            raise RestoreError(f"unsupported manifest version {version}")
        try:
            config = PolicyConfig.from_dict(manifest)
        except ConfigError as exc:
            raise RestoreError(f"manifest policy: {exc}") from None
        tasks = [
            [
                json_value(t, int, RestoreError, "task index of slot {}", slot_key)
                for t in json_field(entry, "tasks", RestoreError, list)
            ]
            for slot_key, entry in enumerate(json_field(manifest, "slots", RestoreError, list), 1)
        ]
        ingested = json_field(manifest, "ingested", RestoreError, list)
        try:
            task_ids = [json_value(name, str, RestoreError, "ingested task id") for _, name in ingested]
        except (TypeError, ValueError):
            raise RestoreError("field 'ingested' is not a list of [index, task id] pairs") from None
        ranks = []
        for i, entry in enumerate(json_field(manifest, "cache_index", RestoreError, list)):
            shape = entry.get("b_shape") if type(entry) is dict else None
            if type(shape) is not list or len(shape) != 2 or type(shape[1]) is not int or shape[1] < 0:
                raise RestoreError(f"cache_index[{i}].b_shape is not [rows, rank]: {shape!r}")
            ranks.append(shape[1])

        # The parts must describe a state that ingests reach.
        if [] in tasks:
            raise RestoreError(f"slots[{tasks.index([])}].tasks is empty")
        if len(tasks) > config.budget_k:
            raise RestoreError(f"{len(tasks)} slots exceed budget_k {config.budget_k}")
        if len(set(task_ids)) != len(task_ids):
            raise RestoreError("two ingested tasks share a task id")
        if sorted(t for slot_tasks in tasks for t in slot_tasks) != list(range(1, len(task_ids) + 1)):
            raise RestoreError("slot task lists do not partition the ingested task indices")

        engine = cls(config)
        engine.task_ids = dict(enumerate(task_ids, 1))
        for slot_key, slot_tasks in enumerate(tasks, 1):
            adapter_path = directory / f"slot_{slot_key}.kmrg"
            if not adapter_path.exists():
                raise RestoreError(f"adapter file for slot {slot_key} is missing")
            with open(adapter_path, "rb") as fh:
                adapter = parse_adapter(_mapped(fh, os.fstat(fh.fileno()).st_size))
            # The cache is filled in once the manifest is accepted.
            engine.store.slots[slot_key] = SlotState(adapter, {}, tuple(slot_tasks))
        # Entries past the declared ones get rank 0; the comparison rejects them.
        declared = iter(ranks)
        layout, cache_bytes = _cache_layout(engine.store.slots, lambda *_: next(declared, 0))
        derived = engine._manifest(layout, version)
        # ``from_dict`` alone judges the policy. ``==`` takes ``true`` for 1
        # and ``2.0`` for 2, which persist never writes.
        stored = {**manifest, **{f.name: derived[f.name] for f in fields(PolicyConfig)}}
        if stored != derived or not all(type(n) is int for n in _integers(stored)):
            raise RestoreError(_difference(stored, derived))

        cache_path = directory / "running_cache.bin"
        if not cache_path.exists():
            raise RestoreError(f"running cache file {cache_path.name} is missing")
        with open(cache_path, "rb") as blob:
            size = os.fstat(blob.fileno()).st_size
            if size != cache_bytes:
                raise RestoreError(f"{cache_path.name} is {size} bytes; persist writes {cache_bytes}")
            mapped = _mapped(blob, size)
        for slot_key, key, b_shape, a_shape, offset in layout:
            b_size = b_shape[0] * b_shape[1]
            b = np.frombuffer(mapped, "<f8", b_size, offset).reshape(b_shape)
            a = np.frombuffer(mapped, "<f8", a_shape[0] * a_shape[1], offset + 8 * b_size)
            # Version-1 stores kept concatenated factors; canonicalise them once.
            low = LowRankDelta(b=b, a=a.reshape(a_shape), canonical=version == MANIFEST_VERSION)
            engine.store.slots[slot_key].cache[key] = low.compressed()
        return engine


def _mapped(fh, size: int):
    """The ``size`` bytes of the open file ``fh``, mapped read-only with their
    page tables filled; ``b""`` for an empty file, which cannot be mapped. The
    mapping holds its own file descriptor, so ``fh`` may be closed."""
    if size == 0:
        return b""
    return mmap.mmap(fh.fileno(), size, flags=mmap.MAP_SHARED | _MAP_POPULATE, prot=mmap.PROT_READ)


def _cache_layout(slots: dict[int, SlotState], rank_of) -> tuple[list, int]:
    """The ``(slot_key, key, b_shape, a_shape, offset)`` of each running-cache
    entry of ``slots`` in ``running_cache.bin``, and the file's length: slots
    in key order, each slot's layers in sorted order, each layer's ``b`` then
    ``a`` in float64, back to back from 0. Shapes follow each slot's served
    adapter; ``rank_of(slot_key, key)`` gives each cache rank, in that order."""
    layout, offset = [], 0
    for slot_key in sorted(slots):
        adapter = slots[slot_key].adapter
        for key in adapter.sorted_keys():
            fp = adapter.layers[key]
            rank = rank_of(slot_key, key)
            layout.append((slot_key, key, (fp.d_out, rank), (rank, fp.d_in), offset))
            offset += 8 * rank * (fp.d_out + fp.d_in)
    return layout, offset


def _integers(manifest: dict) -> list:
    """The values where a manifest that equals a derived one holds integers
    that restore does not read typed."""
    return [
        manifest["next_slot_key"], manifest["timestep"], *(t for t, _ in manifest["ingested"]),
        *(n for e in manifest["slots"] for n in (e["slot_key"], e["merge_count"])),
        *(n for e in manifest["cache_index"]
          for n in (e["slot_key"], e["layer"], e["offset"], *e["b_shape"], *e["a_shape"])),
    ]


def _difference(stored, derived, path: str = "") -> str | None:
    """A message naming the first field where ``stored`` differs from
    ``derived`` in value or JSON type; ``None`` if it differs nowhere."""
    kind = type(derived)
    if kind not in (dict, list) or type(stored) is not kind:
        same = type(stored) is kind and stored == derived
        return None if same else f"{path} is {stored!r}; persist writes {derived!r}"
    if kind is list:
        stored, derived = dict(enumerate(stored)), dict(enumerate(derived))
    for name in {**derived, **stored}:
        here = f"{path}[{name}]" if kind is list else f"{path}.{name}".lstrip(".")
        if name not in derived:
            return f"{here} is {stored[name]!r}; persist writes nothing there"
        if name not in stored:
            return f"{here} is missing; persist writes {derived[name]!r}"
        if found := _difference(stored[name], derived[name], here):
            return found
    return None
