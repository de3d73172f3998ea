"""Online continual-merging state machine.

Maintains at most ``budget_k`` storage slots. Each slot holds the
servable rank-controlled adapter plus an exact float64 running delta
cache in canonical thin-SVD form (see :class:`SlotState`). Similarity is
always measured against the stored adapter (what the device actually
holds); the running-average update is applied to the exact cache, which
keeps the fold order-invariant regardless of rank truncation.

Stores written with manifest version 2 hold canonical caches and restore
as they are: a restored engine maps the store's ``running_cache.bin``
read-only, and its caches are views of the mapping, not copies. Version-1
stores, which held concatenated factors, are canonicalised once on
restore, which copies them.
"""

from __future__ import annotations

import json
import mmap
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .adapters import LayerKey, LoraAdapter, check_compatible, read_adapter, write_adapter
from .errors import (
    ConfigError,
    DuplicateTask,
    RestoreError,
    ShapeError,
    SlotVacant,
    UnknownTask,
)
from .jsonfields import json_field, json_file_name, json_value
from .lowrank import LowRankDelta
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

# Restore maps the running cache with its page tables filled, so that the
# first read of a restored cache, or a persist of it, takes no page faults.
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
        if self.variant == "k_merge_pp" and self.threshold_s is None:
            raise ConfigError("k_merge_pp requires threshold_s")
        if self.variant == "k_merge" and self.threshold_s is not None:
            raise ConfigError("k_merge takes no threshold_s; only k_merge_pp uses one")

    def to_dict(self) -> dict:
        """The policy as the JSON object stored in manifests and read by ``--config``."""
        return asdict(self)

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
    """One slot: the served adapter and the exact running cache.

    ``cache`` holds, per layer, a canonical :class:`LowRankDelta` (a
    balanced thin SVD with descending singular values): under the running
    average, the exact mean of the slot's member deltas, into which a merge
    folds the incoming delta by projection onto its singular bases; under
    a pairwise operator, that operator's last output. ``adapter`` is, for a
    slot with one member, that member; after a merge it is the
    rank-``target_rank`` slice of the cache (its leading columns of ``b``
    and rows of ``a``, zero-padded, by :func:`kmerge.merging.refactor`),
    which is the best approximation at that rank. An ingest replaces a
    slot's state whole and never mutates it.

    The cache's factors may be read-only: those of a restored slot are
    views of the store's mapped ``running_cache.bin`` until the slot is
    next merged, which builds new arrays.
    """

    adapter: LoraAdapter
    cache: dict[LayerKey, LowRankDelta]


def slot_cache(adapter: LoraAdapter) -> dict[LayerKey, LowRankDelta]:
    """The running cache of a slot whose only member is ``adapter``."""
    return {
        key: LowRankDelta.from_factors(fp, adapter.scaling).compressed()
        for key, fp in adapter.layers.items()
    }


def merged_cache(
    operator: MergeOperator,
    slot: SlotState,
    count: int,
    incoming: LoraAdapter,
    weight: float = 0.5,
) -> dict[LayerKey, LowRankDelta]:
    """The running cache of ``slot``, which has ``count`` members, after
    merging ``incoming`` into it; ``slot`` is left unchanged.

    The running average folds ``incoming`` into the slot's cache with
    weights ``count/(count+1)`` and ``1/(count+1)``; ``linear`` folds it into
    the served adapter's cache with ``weight`` and ``1 - weight``, both by
    projection (``LowRankDelta.fold``). TIES and DARE vote and drop per
    entry, so they merge the served adapter with ``incoming`` in dense space
    and store the canonical form of the output.
    """
    check_compatible(slot.adapter, incoming)
    if operator.kind == "running_average":
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
    return {
        key: base[key].fold(alpha, beta, LowRankDelta.from_factors(fp, incoming.scaling))
        for key, fp in incoming.layers.items()
    }


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
    entries: dict[int, list[int]] = field(default_factory=dict)
    next_slot_key: int = 1


def read_manifest(directory: str | Path) -> dict:
    """The parsed ``manifest.json`` of a store directory; raises
    :class:`RestoreError` when it is missing or not valid JSON."""
    manifest_path = Path(directory) / "manifest.json"
    if not manifest_path.exists():
        raise RestoreError(f"no manifest.json in {directory}")
    try:
        return json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise RestoreError(f"manifest.json is not valid JSON: {exc}") from None


def route(history: MergeHistory, task_index: int) -> int:
    """Slot whose history set contains ``task_index``."""
    for slot_key, tasks in history.entries.items():
        if task_index in tasks:
            return slot_key
    raise UnknownTask(f"task index {task_index} was never ingested")


class MergeEngine:
    """Serialized ingest pipeline over an :class:`AdapterStore`."""

    def __init__(self, config: PolicyConfig):
        self.config = config
        self.store = AdapterStore()
        self.history = MergeHistory()
        self.timestep = 0
        self.task_ids: dict[int, str] = {}

    # -- queries ----------------------------------------------------------

    def route(self, task_index: int) -> int:
        return route(self.history, task_index)

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

    def merge_count(self, slot_key: int) -> int:
        return len(self.history.entries[slot_key])

    # -- ingest -----------------------------------------------------------

    def ingest(self, incoming: LoraAdapter) -> IngestDecision:
        start = time.perf_counter()
        if incoming.task_id in self.task_ids.values():
            raise DuplicateTask(f"task {incoming.task_id!r} already ingested")
        t = self.timestep + 1

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
            slot = self._merged_slot(slot_key, incoming)
            tasks = self.history.entries[slot_key] + [t]
        else:
            slot_key, action, similarity = self.history.next_slot_key, ALLOCATED, None
            slot = SlotState(adapter=incoming, cache=slot_cache(incoming))
            tasks = [t]

        # Everything above may raise and changes no engine state; the commit
        # below cannot raise, so an ingest is all-or-nothing.
        self.store.slots[slot_key] = slot
        self.history.entries[slot_key] = tasks
        if action == ALLOCATED:
            self.history.next_slot_key += 1
        self.timestep = t
        self.task_ids[t] = incoming.task_id
        return IngestDecision(
            task_index=t,
            task_id=incoming.task_id,
            action=action,
            slot_key=slot_key,
            similarity=similarity,
            elapsed=time.perf_counter() - start,
        )

    def _merged_slot(self, slot_key: int, incoming: LoraAdapter) -> SlotState:
        """The slot after merging ``incoming`` into it, built without changing it."""
        slot = self.store.slots[slot_key]
        cache = merged_cache(self.config.operator, slot, self.merge_count(slot_key), incoming)
        served = refactor(
            cache, self.config.rank_policy.target_rank, f"slot-{slot_key}", incoming.scaling
        )
        return SlotState(adapter=served.adapter, cache=cache)

    # -- persistence ------------------------------------------------------

    def persist(self, directory: str | Path) -> None:
        """Write slot adapters, the exact running caches, and a manifest.

        Caches are stored as raw float64 little-endian tensors, in their
        canonical form, so a restored engine continues from the same exact
        state. Each tensor is written straight to the cache file.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        cache_index = []
        slot_entries = []
        offset = 0
        tmp_cache = directory / "running_cache.bin.tmp"
        with open(tmp_cache, "wb") as out:
            for slot_key in sorted(self.store.slots):
                slot = self.store.slots[slot_key]
                file_name = f"slot_{slot_key}.kmrg"
                write_adapter(slot.adapter, directory / file_name)
                slot_entries.append(
                    {
                        "slot_key": slot_key,
                        "file": file_name,
                        "tasks": list(self.history.entries[slot_key]),
                        "merge_count": len(self.history.entries[slot_key]),
                    }
                )
                for key in sorted(slot.cache, key=LayerKey.sort_key):
                    low = slot.cache[key]
                    cache_index.append(
                        {
                            "slot_key": slot_key,
                            "layer": key.layer,
                            "proj": key.proj,
                            "b_shape": list(low.b.shape),
                            "a_shape": list(low.a.shape),
                            "offset": offset,
                        }
                    )
                    for factor in (low.b, low.a):
                        offset += out.write(np.ascontiguousarray(factor, dtype="<f8"))

        manifest = {
            "version": MANIFEST_VERSION,
            **self.config.to_dict(),
            "slots": slot_entries,
            "running_cache_file": "running_cache.bin",
            "cache_index": cache_index,
            "next_slot_key": self.history.next_slot_key,
            "timestep": self.timestep,
            "ingested": [[t, self.task_ids[t]] for t in sorted(self.task_ids)],
        }
        tmp_cache.replace(directory / "running_cache.bin")
        tmp = directory / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=2))
        tmp.replace(directory / "manifest.json")

    @classmethod
    def restore(cls, directory: str | Path) -> "MergeEngine":
        """The engine that :meth:`persist` wrote to ``directory``.

        Every manifest field, file name, slot and cache entry is checked
        first; a damaged store raises :class:`RestoreError`. The running
        cache file is mapped once, read-only, with its pages populated, and
        each cache entry's ``b`` and ``a`` are read-only views of it at the
        entry's offset. The mapping holds one file descriptor and lives
        until no cache refers to it: until every restored slot has been
        merged again, or the engine is dropped. ``persist`` replaces the
        file by renaming a new one over it, so persisting over the store,
        or deleting it, leaves the mapped contents as they were; the file
        must not be edited or truncated in place while the engine lives.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        version = json_field(manifest, "version", RestoreError)
        if version not in (1, MANIFEST_VERSION):
            raise RestoreError(f"unsupported manifest version {version}")
        try:
            config = PolicyConfig.from_dict(manifest)
        except ConfigError as exc:
            raise RestoreError(f"manifest policy: {exc}") from None
        engine = cls(config)
        engine.history.next_slot_key = json_field(manifest, "next_slot_key", RestoreError, int)
        engine.timestep = json_field(manifest, "timestep", RestoreError, int)
        try:
            ingested = [
                (
                    json_value(t, int, RestoreError, "ingested task index"),
                    json_value(name, str, RestoreError, "ingested task id"),
                )
                for t, name in json_field(manifest, "ingested", RestoreError)
            ]
        except (TypeError, ValueError):
            raise RestoreError("field 'ingested' is not a list of [index, task id] pairs") from None
        engine.task_ids = dict(ingested)

        adapters: dict[int, LoraAdapter] = {}
        for entry in json_field(manifest, "slots", RestoreError):
            slot_key, file_name, tasks = (
                json_field(entry, name, RestoreError) for name in ("slot_key", "file", "tasks")
            )
            slot_key = json_value(slot_key, int, RestoreError, "slot entry slot_key")
            if slot_key in adapters:
                raise RestoreError(f"two slot entries for slot {slot_key}")
            adapter_path = directory / json_file_name(
                file_name, RestoreError, "file of slot {}", slot_key
            )
            if not adapter_path.exists():
                raise RestoreError(f"adapter file for slot {slot_key} is missing")
            adapters[slot_key] = read_adapter(adapter_path)
            engine.history.entries[slot_key] = [
                json_value(t, int, RestoreError, "task index of slot {}", slot_key)
                for t in json_value(tasks, list, RestoreError, "tasks of slot {}", slot_key)
            ]

        cache_path = directory / json_file_name(
            json_field(manifest, "running_cache_file", RestoreError),
            RestoreError,
            "running_cache_file",
        )
        if not cache_path.exists():
            raise RestoreError(f"running cache file {cache_path.name} is missing")
        caches: dict[int, dict[LayerKey, LowRankDelta]] = {slot_key: {} for slot_key in adapters}
        with open(cache_path, "rb") as blob:
            size = os.fstat(blob.fileno()).st_size
            # A 0-byte cache file (an engine with no slots) cannot be mapped.
            mapped = b"" if size == 0 else mmap.mmap(
                blob.fileno(), size, flags=mmap.MAP_SHARED | _MAP_POPULATE, prot=mmap.PROT_READ
            )
        for entry in json_field(manifest, "cache_index", RestoreError):
            slot_key, layer, proj, b_shape, a_shape, offset = (
                json_field(entry, name, RestoreError)
                for name in ("slot_key", "layer", "proj", "b_shape", "a_shape", "offset")
            )
            slot_key = json_value(slot_key, int, RestoreError, "cache entry slot_key")
            layer = json_value(layer, int, RestoreError, "cache entry layer of slot {}", slot_key)
            try:
                key = LayerKey(layer, proj)
            except (ShapeError, TypeError) as exc:
                raise RestoreError(f"bad cache entry key for slot {slot_key}: {exc}") from None
            offset = json_value(
                offset, int, RestoreError, "cache entry offset of slot {} layer {}", slot_key, key
            )
            shapes_ok = all(
                isinstance(s, list) and len(s) == 2
                and all(type(d) is int and d >= 0 for d in s)
                for s in (b_shape, a_shape)
            )
            if not shapes_ok or b_shape[1] != a_shape[0] or offset < 0:
                raise RestoreError(
                    f"bad cache entry for slot {slot_key} layer {key}: "
                    f"shapes {b_shape} x {a_shape} at offset {offset}"
                )
            b_size, a_size = b_shape[0] * b_shape[1], a_shape[0] * a_shape[1]
            if offset + 8 * (b_size + a_size) > size:
                raise RestoreError(
                    f"running cache truncated for slot {slot_key} layer {key}"
                )
            # Each slot's cache holds its adapter's layers, once each, at their shapes.
            if slot_key not in adapters:
                raise RestoreError(f"cache entry names slot {slot_key}, which the manifest lacks")
            fp = adapters[slot_key].layers.get(key)
            if fp is None:
                raise RestoreError(
                    f"cache entry for slot {slot_key} names layer {key}, which its adapter lacks"
                )
            if key in caches[slot_key]:
                raise RestoreError(f"two cache entries for slot {slot_key} layer {key}")
            if b_shape[0] != fp.d_out or a_shape[1] != fp.d_in:
                raise RestoreError(
                    f"cache entry for slot {slot_key} layer {key} is {b_shape[0]} x "
                    f"{a_shape[1]}, its adapter's layer is {fp.d_out} x {fp.d_in}"
                )
            b = np.frombuffer(mapped, "<f8", b_size, offset).reshape(b_shape)
            a = np.frombuffer(mapped, "<f8", a_size, offset + 8 * b_size).reshape(a_shape)
            # Version-1 stores kept concatenated factors; canonicalise them once.
            low = LowRankDelta(b=b, a=a, canonical=version == MANIFEST_VERSION)
            caches[slot_key][key] = low.compressed()

        for slot_key, adapter in adapters.items():
            if len(caches[slot_key]) != len(adapter.layers):
                raise RestoreError(f"running cache of slot {slot_key} lacks layers of its adapter")
            engine.store.slots[slot_key] = SlotState(adapter=adapter, cache=caches[slot_key])

        # The parts must describe one state: the next ingest takes index
        # timestep + 1 and, if it allocates, slot next_slot_key.
        arrivals = list(range(1, engine.timestep + 1))
        if len(ingested) != engine.timestep or sorted(t for t, _ in ingested) != arrivals:
            raise RestoreError(f"ingested task indices are not 1..{engine.timestep} (timestep)")
        if len(set(engine.task_ids.values())) != len(ingested):
            raise RestoreError("two ingested tasks share a task id")
        if sorted(t for tasks in engine.history.entries.values() for t in tasks) != arrivals:
            raise RestoreError("slot task lists do not partition the ingested task indices")
        if engine.store.slots and engine.history.next_slot_key <= max(engine.store.slots):
            raise RestoreError(
                f"next_slot_key {engine.history.next_slot_key} does not exceed every slot key"
            )
        return engine

