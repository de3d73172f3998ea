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

A store's format lives in two pure functions of the state persist holds and
restore reads: :func:`_cache_layout` places each cache entry of
``running_cache.bin`` from the slots' geometries and :func:`_manifest`
builds ``manifest.json``. ``persist`` writes them, each file in one vectored
write; ``restore`` derives them again and accepts no store that differs
before it builds each slot once. A version-5 manifest holds only what
restore cannot derive: the policy, the one geometry every slot adapts, each
slot's tasks, scaling (if merged) and cache ranks (if its cache is stored),
and the task ids. A store keeps each slot once. A merged slot's adapter is
the leading slice of its cache, so the store keeps the cache and the scaling
it is served at. A one-member slot's cache is :func:`slot_cache` of its
adapter, so the store keeps only the adapter, in ``slot_<key>.kmrg``. Only a
slot restored from a version-1 or 2 store with several members and not
merged since keeps both. Versions 1 to 3 spelt out every cache entry's place
and shapes; restore reads the version-4 facts from them
(:func:`_version4_facts`), and then every version alike, with every slot's
cache stored up to version 4. Version-2 and later caches are canonical
read-only slices of one view of the mapped cache file; version-1 caches are
canonicalised once. Each restored file-held adapter is a read-only view of
its mapped file until the slot is next merged: one mapping for each
file-held slot plus one for the cache, one file descriptor each, which
``persist`` leaves valid, as it renames new files over old ones. A restored
slot derives what its store does not keep at its first read, once: a merged
slot's adapter pays one :func:`~kmerge.merging.refactor` of its cache (about
40 ms a slot at width 2048), and a one-member slot's cache one
:func:`slot_cache` (about 0.3 s a slot of 64 layers at width 2048).
"""

from __future__ import annotations

import json
import math
import mmap
import os
import time
from dataclasses import dataclass, field, fields
from operator import gt
from pathlib import Path
from typing import Mapping, NamedTuple, get_type_hints

import numpy as np

from .adapters import (
    LayerKey, LoraAdapter, check_compatible, delete_stale, parse_adapter, replace_file, write_adapter,
    read_adapter,  # unused here; perfbench/tracing.py wraps kmerge.engine.read_adapter by name
)
from .errors import (
    ConfigError,
    DuplicateTask,
    FormatError,
    RestoreError,
    ShapeError,
    SlotVacant,
    UnknownTask,
)
from .jsonfields import json_field, json_value
from .lowrank import LowRankDelta, batches, canonical_batch, fold_layers, scaled_stacks
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
from .similarity import Profile, most_similar

VARIANTS = ("k_merge", "k_merge_pp")

ALLOCATED = "allocated_new_slot"
MERGED = "merged_into"

# 2: running caches are stored in canonical form; 3: a merged slot keeps no
# adapter file, only the scaling its adapter is derived at; 4: the manifest
# keeps each fact once, one geometry for every slot and each slot's cache
# ranks, and no field that restore derives; 5: a one-member slot keeps no
# cache, only its adapter file, and its entry no ranks.
MANIFEST_VERSION = 5

# Restore maps the running cache and the file-held slot adapters with their
# page tables filled, so that the first read of a restored slot, or a persist
# of it, takes no page faults.
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


class Derivation(NamedTuple):
    """How a merged slot serves: its adapter is ``refactor(cache, *derivation)``."""

    target_rank: int
    task_id: str
    scaling: float


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
    arrival indices in arrival order, is the only record of membership. A
    slot is built whole, with its cache, and replaced whole, never mutated.

    ``derivation`` says which of two kinds a slot is. ``None``: the slot is
    held by its adapter, which a store keeps in a file; it has one member,
    or was restored from a version-1 or 2 store and not merged since, so its
    adapter is not known to be the slice of its cache. A
    :class:`Derivation`: the slot is merged and its adapter is
    ``refactor(cache, *derivation)``, which a store keeps as the
    derivation's scaling alone. A merged slot is built with its adapter
    when it is merged; one restored from a store is built without it, and
    the first read of ``adapter`` derives it, once: every later read
    returns the same object. A one-member slot's ``cache`` is
    :func:`slot_cache` of its adapter, which a store does not keep: an
    allocation builds the slot with it, a restore without it, and the first
    read of ``cache`` derives it the same way, once, read-only. ``profile``,
    the adapter's :class:`~kmerge.similarity.Profile`, which scores the
    slot, is derived the same way: a slot that an ingest allocates after
    scoring holds the incoming adapter's profile, and any other builds its
    own at the first read, so restore builds none.

    The factors may be read-only: those of a restored slot are views of
    the store's mapped ``running_cache.bin`` (the cache) and, for a
    file-held slot, its mapped ``slot_<key>.kmrg`` (the adapter) until the
    slot is next merged, which builds new arrays.
    """

    __slots__ = ("tasks", "derivation", "_adapter", "_cache", "_profile")

    def __init__(
        self,
        adapter: LoraAdapter | None,
        cache: dict[LayerKey, LowRankDelta] | None,
        tasks: tuple[int, ...],
        derivation: Derivation | None = None,
        profile: Profile | None = None,
    ):
        self._adapter, self._cache, self.tasks, self.derivation = adapter, cache, tasks, derivation
        self._profile = profile

    @property
    def adapter(self) -> LoraAdapter:
        if self._adapter is None:
            self._adapter = refactor(self.cache, *self.derivation).adapter
        return self._adapter

    @property
    def cache(self) -> dict[LayerKey, LowRankDelta]:
        if self._cache is None:
            cache = slot_cache(self.adapter)
            for low in cache.values():
                low.b.flags.writeable = low.a.flags.writeable = False
            self._cache = cache
        return self._cache

    @property
    def held_cache(self) -> dict[LayerKey, LowRankDelta] | None:
        """``cache`` if the slot holds it, ``None`` if its first read would
        derive it; derives nothing."""
        return self._cache

    @property
    def profile(self) -> Profile:
        if self._profile is None:
            self._profile = Profile(self.adapter)
        return self._profile


def slot_cache(adapter: LoraAdapter) -> dict[LayerKey, LowRankDelta]:
    """The running cache of a slot whose only member is ``adapter``: each
    layer's float64 delta ``adapter.scaling * b @ a`` in canonical form,
    computed in the stacked calls of :func:`kmerge.lowrank.canonical_batch`,
    one per batch of :func:`kmerge.lowrank.batches` over the adapter's
    geometry, with the bits of one layer at a time."""
    keys = list(adapter.layers)
    cache = [None] * len(keys)
    shapes = [(d_out, d_in, adapter.rank) for d_out, d_in in adapter.geometry.values()]
    for batch in batches(shapes):
        b, a = scaled_stacks([adapter.layers[keys[i]] for i in batch], adapter.scaling)
        for i, low in zip(batch, canonical_batch(b, a)):
            cache[i] = low
    return dict(zip(keys, cache))


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


def read_manifest(directory: str | Path) -> dict:
    """The parsed ``manifest.json`` of a store directory; raises
    :class:`RestoreError` when it is missing or not valid UTF-8 JSON."""
    try:
        return json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RestoreError(f"no manifest.json in {directory}") from None
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

    def ingest(self, incoming: LoraAdapter | Profile) -> IngestDecision:
        """Route ``incoming``, an adapter or its profile, to a slot. An
        ingest that scores does so through the incoming profile, built here
        if none is given, and hands it to the slot it allocates."""
        start = time.perf_counter()
        profile = incoming if isinstance(incoming, Profile) else None
        if profile is not None:
            incoming = profile.adapter
        if incoming.task_id in self.task_ids.values():
            raise DuplicateTask(f"task {incoming.task_id!r} already ingested")
        t = len(self.task_ids) + 1

        occupied, budget_k = self.store.occupied, self.config.budget_k
        best_key, best_score = None, None
        if self.config.variant == "k_merge" and occupied < budget_k:
            # Below its budget k_merge allocates whatever the scores, so none
            # is computed. The incoming adapter must still meet every slot, as
            # a similarity would check; all slots share one geometry, so slot
            # 1, the first a similarity checks, stands for them. No slot has
            # merged yet, so its adapter is its one member's.
            if occupied:
                check_compatible(incoming, self.store.slots[1].adapter)
            do_merge = False
        else:
            if occupied:
                if profile is None:
                    profile = Profile(incoming)
                slots = {slot_key: slot.profile for slot_key, slot in self.store.slots.items()}
                best_key, best_score = most_similar(profile, slots)
            do_merge = occupied >= budget_k or (occupied > 0 and best_score >= self.config.threshold_s)

        if do_merge:
            slot_key, action, similarity = best_key, MERGED, best_score
            slot = self._merged_slot(slot_key, incoming, t)
        else:
            slot_key, action, similarity = occupied + 1, ALLOCATED, None
            slot = SlotState(adapter=incoming, cache=slot_cache(incoming), tasks=(t,), profile=profile)

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
        derivation = Derivation(self.config.rank_policy.target_rank, f"slot-{slot_key}", incoming.scaling)
        # Served here, not at first read, so that ``refactor``'s checks reject
        # a merge before the ingest commits.
        served = refactor(cache, *derivation)
        return SlotState(served.adapter, cache, slot.tasks + (t,), derivation)

    # -- persistence ------------------------------------------------------

    def persist(self, directory: str | Path) -> None:
        """Write the file-held slots' adapters, the running caches that
        cannot be derived, and a manifest.

        A slot's cache is stored unless it has one member: its cache is then
        :func:`slot_cache` of its adapter, which its file holds. Caches are
        stored in canonical form as raw float64 little-endian tensors, back
        to back where :func:`_cache_layout` puts them, so a restored engine
        continues from the same exact state. The manifest is
        :func:`_manifest`, which holds only what restore cannot derive: the
        policy; ``layers``, the one geometry every slot adapts, as ``[layer,
        proj, d_out, d_in]`` in sorted key order; each slot's ``tasks``, its
        ``scaling`` if it is merged (a file-held slot has none, and its file
        is ``slot_<key>.kmrg``) and, if its cache is stored, its cache
        ``ranks`` in ``layers`` order; and the task ids in arrival order,
        ``ingested``. A stored cache gives its slot's geometry and a
        one-member slot's adapter gives its own, so persist never builds a
        merged slot's adapter nor reads a one-member slot's cache. Each file
        (every file-held slot adapter, through
        :func:`~kmerge.adapters.write_adapter`; the cache; the manifest) is
        one vectored write of its buffers, uncopied, through
        :func:`~kmerge.adapters.replace_file`, so a write that fails leaves
        no temporary file. Slot files of an earlier store that are no
        file-held slot's are deleted only once the new manifest is in place.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        slots = self.store.slots
        held = [slot_key for slot_key, slot in slots.items() if slot.derivation is None]
        for slot_key in held:
            write_adapter(slots[slot_key].adapter, directory / f"slot_{slot_key}.kmrg")
        stored = {slot_key: slot.cache for slot_key, slot in slots.items() if len(slot.tasks) > 1}
        geometries = {
            slot_key: {key: (low.b.shape[0], low.a.shape[1]) for key, low in cache.items()}
            for slot_key, cache in stored.items()
        }
        layout, _ = _cache_layout(geometries, lambda slot_key, key: stored[slot_key][key].rank_bound)
        caches = (stored[slot_key][key] for slot_key, key, *_ in layout)
        factors = [np.ascontiguousarray(f, dtype="<f8") for low in caches for f in (low.b, low.a)]
        replace_file(directory / "running_cache.bin", factors)
        entries = {
            slot_key: (slot.tasks, None if slot.derivation is None else slot.derivation.scaling)
            for slot_key, slot in slots.items()
        }
        # Every ingest checks that the slots adapt one geometry, slot 1's; a
        # one-member slot 1 is file-held, so its adapter is not derived here.
        geometry = geometries[1] if 1 in geometries else slots[1].adapter.geometry if slots else {}
        # Compact, as only without ``indent`` does CPython encode in C.
        manifest = json.dumps(_manifest(self.config, geometry, entries, self.task_ids, layout))
        replace_file(directory / "manifest.json", [manifest.encode()])
        delete_stale(directory, "slot", {f"slot_{slot_key}.kmrg" for slot_key in held})

    @classmethod
    def restore(cls, directory: str | Path) -> "MergeEngine":
        """The engine that :meth:`persist` wrote to ``directory``.

        Accepts exactly the stores that ``persist`` writes, at manifest
        version 5, and those of versions 1 to 4 as they were written; any
        other raises :class:`RestoreError`, or the
        :class:`~kmerge.errors.FormatError` of a damaged slot file, which
        names that file. One reader, :func:`_plan`, reads every version: it
        reads typed the policy and the version-4 facts (which versions 1 to
        3 spelt out in ``cache_index``): ``layers``, each slot's tasks (slot
        ``i`` is entry ``i``), scaling and cache ranks (from version 2 on,
        each at most its layer's ``min(d_out, d_in)``; at version 5 only a
        slot of several members has them), and the ingested task ids
        (arrival ``i`` is entry ``i``). The task lists must be non-empty, at
        most ``budget_k``, in arrival order within and across slots, and
        partition the arrivals, and the task ids distinct. It then parses the
        file-held slots' ``slot_<i>.kmrg`` files, whose geometry must be
        ``layers``, and requires the stored manifest to equal the one derived
        from those facts. Only then is the cache file opened, and it must be
        exactly as long as the layout.

        Each file is opened with no ``exists()`` probe before it; a missing
        one raises :class:`RestoreError`. The running cache file and each
        file-held slot's adapter file are mapped once, read-only, with their
        pages populated: the cache is viewed once, as one float64 array, and
        each cache entry's ``b`` and ``a`` are read-only slices of that view;
        each file-held adapter's factors are read-only views of its file's
        mapping. Both last until the slot is next merged. That is one
        mapping per file-held slot plus the cache's, each holding one file
        descriptor until nothing refers to it. Each slot is built once, with
        what its store keeps, and nothing is derived here: a merged slot is
        built without its adapter, and the first read of ``slot.adapter``
        runs its ``refactor``; a version-5 one-member slot is built without
        its cache, and the first read of ``slot.cache`` runs its
        :func:`slot_cache`. ``persist`` renames a new file over the old one,
        so persisting over the store or deleting it leaves every mapping as
        it was; the files must not be edited or truncated in place while the
        engine lives.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        version = json_field(manifest, "version", RestoreError, int)
        if version not in (1, 2, 3, 4, MANIFEST_VERSION):
            raise RestoreError(f"unsupported manifest version {version}")
        try:
            config = PolicyConfig.from_dict(manifest)
        except ConfigError as exc:
            raise RestoreError(f"manifest policy: {exc}") from None
        tasks, scalings, task_ids, adapters, layout, cache_bytes = _plan(directory, manifest, config, version)

        cache_path = directory / "running_cache.bin"
        with _opened(cache_path, f"running cache file {cache_path.name} is missing") as blob:
            size = os.fstat(blob.fileno()).st_size
            if size != cache_bytes:
                raise RestoreError(f"{cache_path.name} is {size} bytes; persist writes {cache_bytes}")
            whole = np.frombuffer(_mapped(blob, size), "<f8")
        caches = {}
        for i, (slot_key, key, b_shape, a_shape, offset) in enumerate(layout):
            first = offset // 8
            middle = first + b_shape[0] * b_shape[1]
            try:
                b = whole[first:middle].reshape(b_shape)
                a = whole[middle:middle + a_shape[0] * a_shape[1]].reshape(a_shape)
            except ValueError:  # numpy's size limit, reachable when the other dimension is 0
                shapes = f"b_shape {list(b_shape)}, a_shape {list(a_shape)}"
                raise RestoreError(f"cache_index[{i}] is too large: {shapes}") from None
            # Version-1 stores kept concatenated factors; canonicalise them once.
            caches.setdefault(slot_key, {})[key] = LowRankDelta(b=b, a=a, canonical=version > 1).compressed()
        engine = cls(config)
        for k in tasks:
            derivation = None if scalings[k] is None else Derivation(
                config.rank_policy.target_rank, f"slot-{k}", scalings[k]
            )
            engine.store.slots[k] = SlotState(adapters.get(k), caches.get(k), tasks[k], derivation)
        engine.task_ids = task_ids
        return engine


def _plan(directory: Path, manifest: dict, config: PolicyConfig, version: int) -> tuple:
    """What :meth:`MergeEngine.restore` builds from the store of manifest
    ``version`` in ``directory``: each slot's tasks and scaling (``None``
    when file-held) and each file-held slot's adapter, by slot key; each
    arrival's task id; and the cache's layout and length.

    The version-4 facts, ``manifest`` itself from version 4 on or
    :func:`_version4_facts` of an older one, are read typed; ``manifest``
    must then equal the one they derive (:func:`_manifest` or
    :func:`_legacy_manifest`) in value and JSON type, which
    :func:`_difference` compares. A version-4 or 5 manifest holds only
    facts, so ``==`` is that comparison there. Up to version 4 every slot
    stores its cache; at version 5 only a slot of several members does, so
    only its ranks are read, and a one-member entry that names ranks
    differs from the derived manifest."""
    facts = manifest if version >= 4 else _version4_facts(manifest, version)
    geometry, bounds = {}, []
    for i, entry in enumerate(json_field(facts, "layers", RestoreError, list)):
        if type(entry) is not list or list(map(type, entry)) != [int, str, int, int] or min(entry[2:]) < 0:
            raise RestoreError(f"layers[{i}] is {entry!r}; persist writes [layer, proj, d_out, d_in]")
        layer, proj, d_out, d_in = entry
        try:
            geometry[LayerKey(layer, proj)] = (d_out, d_in)
        except ShapeError as exc:
            raise RestoreError(f"layers[{i}]: {exc}") from None
        # A canonical cache has at most as many directions as its layer's
        # smaller side; version-1 caches were not canonical.
        bounds.append(min(d_out, d_in) if version > 1 else math.inf)
    tasks, scalings, ranks, stored = [], {}, [], []
    for i, entry in enumerate(json_field(facts, "slots", RestoreError, list)):
        if type(entry) is not dict:
            raise RestoreError(f"slots[{i}] is {entry!r}; persist writes an object")
        tasks.append(_naturals(entry, i, "tasks"))
        scalings[i + 1] = _scaling(entry, i + 1) if "scaling" in entry else None
        if version >= 5 and len(tasks[i]) < 2:
            continue  # a one-member slot's cache is derived from its adapter
        stored.append(i + 1)
        slot_ranks = _naturals(entry, i, "ranks")
        if len(slot_ranks) != len(bounds):
            raise RestoreError(
                f"slots[{i}].ranks holds {len(slot_ranks)} ranks; layers holds {len(bounds)} layers"
            )
        if any(map(gt, slot_ranks, bounds)):
            j = next(j for j, bound in enumerate(bounds) if slot_ranks[j] > bound)
            raise RestoreError(
                f"slots[{i}].ranks[{j}] is {slot_ranks[j]}, above min(d_out, d_in) {bounds[j]} of layers[{j}]"
            )
        ranks.extend(slot_ranks)
    ingested = json_field(facts, "ingested", RestoreError, list)
    if not all(type(name) is str for name in ingested):
        i = next(i for i, name in enumerate(ingested) if type(name) is not str)
        raise RestoreError(f"ingested[{i}] is {ingested[i]!r}; persist writes a task id")
    if tasks and not geometry:
        raise RestoreError("layers is empty; every slot adapts at least one layer")
    _check_state(config, tasks, scalings, ingested)

    adapters = _held_adapters(directory, [k for k, scaling in scalings.items() if scaling is None])
    for slot_key, adapter in adapters.items():
        if adapter.geometry != geometry:
            raise RestoreError(
                f"slots[{slot_key - 1}]: slot_{slot_key}.kmrg adapts other layers or shapes than layers"
            )
    declared = iter(ranks)
    layout, cache_bytes = _cache_layout(dict.fromkeys(stored, geometry), lambda *_: next(declared))
    tasks, task_ids = dict(enumerate(map(tuple, tasks), 1)), dict(enumerate(ingested, 1))
    entries = {k: (tasks[k], scalings[k]) for k in tasks}
    if version >= 4:
        derived = _manifest(config, geometry, entries, task_ids, layout, version)
    else:
        derived = _legacy_manifest(config, entries, task_ids, layout, version)
    found = _with_policy(manifest, derived)
    if found != derived or version < 4:
        if fault := _difference(found, derived):
            raise RestoreError(fault)
    return tasks, scalings, task_ids, adapters, layout, cache_bytes


def _version4_facts(manifest: dict, version: int) -> dict:
    """The version-4 facts of ``manifest``, of ``version`` 1 to 3:
    ``layers`` from slot 1's ``cache_index`` entries; each slot's
    ``tasks``, ``scaling`` (only a version-3 entry names one) and
    ``ranks``, its cache entries' ``b_shape[1]``; and the ``ingested`` task
    ids. Values are copied as found (``None`` where a cache entry holds
    none) and checked by :func:`_plan`."""
    index = json_field(manifest, "cache_index", RestoreError, list)
    slots = []
    for slot_key, entry in enumerate(json_field(manifest, "slots", RestoreError, list), 1):
        if type(entry) is dict:
            names = ("tasks", "scaling") if version == 3 else ("tasks",)
            ranks = [_at(e, "b_shape", 1) for e in index if _at(e, "slot_key") == slot_key]
            entry = {**{name: entry[name] for name in names if name in entry}, "ranks": ranks}
        slots.append(entry)
    return {
        "layers": [
            [_at(e, "layer"), _at(e, "proj"), _at(e, "b_shape", 0), _at(e, "a_shape", 1)]
            for e in index if _at(e, "slot_key") == 1
        ],
        "slots": slots,
        "ingested": [
            pair[1] if type(pair) is list and len(pair) == 2 else pair
            for pair in json_field(manifest, "ingested", RestoreError, list)
        ],
    }


def _at(node, *path):
    """``node[path[0]][path[1]]...`` of parsed JSON, or ``None`` if there is none."""
    try:
        for step in path:
            node = node[step]
    except (KeyError, IndexError, TypeError):
        return None
    return node


def _check_state(config: PolicyConfig, tasks: list, scalings: dict, task_ids: list) -> None:
    """Raise :class:`RestoreError` unless the slots' task lists and
    scalings (slot key -> ``None`` for a file-held slot) and the arrivals'
    task ids describe a state that ingests reach."""
    if [] in tasks:
        raise RestoreError(f"slots[{tasks.index([])}].tasks is empty")
    # A merge adds a member to a slot that has one, so a merged slot has two.
    for i, slot_tasks in enumerate(tasks):
        if len(slot_tasks) == 1 and scalings[i + 1] is not None:
            raise RestoreError(f"slots[{i}] has a scaling but one task; a merged slot has two or more")
    if len(tasks) > config.budget_k:
        raise RestoreError(f"{len(tasks)} slots exceed budget_k {config.budget_k}")
    if len(set(task_ids)) != len(task_ids):
        raise RestoreError("two ingested tasks share a task id")
    if sorted(t for slot_tasks in tasks for t in slot_tasks) != list(range(1, len(task_ids) + 1)):
        raise RestoreError("slot task lists do not partition the ingested task indices")
    # An ingest appends its arrival to one slot's tasks, and allocates the
    # next slot key at its arrival.
    for i, slot_tasks in enumerate(tasks):
        if sorted(slot_tasks) != slot_tasks:
            raise RestoreError(f"slots[{i}].tasks is {slot_tasks}; a slot's tasks are in arrival order")
        if i and slot_tasks[0] < tasks[i - 1][0]:
            raise RestoreError(
                f"slots[{i}] begins at arrival {slot_tasks[0]}, before slots[{i - 1}]; "
                "slots are allocated in arrival order"
            )


def _held_adapters(directory: Path, slot_keys: list) -> dict[int, LoraAdapter]:
    """The adapter of each file-held slot of ``slot_keys``, parsed from its
    mapped ``slot_<key>.kmrg``; a parse error names the file."""
    adapters = {}
    for slot_key in slot_keys:
        path = directory / f"slot_{slot_key}.kmrg"
        with _opened(path, f"adapter file for slot {slot_key} is missing") as fh:
            try:
                adapters[slot_key] = parse_adapter(_mapped(fh, os.fstat(fh.fileno()).st_size))
            except FormatError as exc:
                raise exc.in_file(path) from None
    return adapters


def _naturals(entry: dict, i: int, name: str) -> list:
    """Field ``name`` of version-4 slot entry ``i``: a list of non-negative
    integers, as ``persist`` writes ``tasks`` and ``ranks``."""
    try:
        values = entry[name]
    except KeyError:
        raise RestoreError(f"missing field 'slots[{i}].{name}'") from None
    if type(values) is not list or not all(type(n) is int and n >= 0 for n in values):
        raise RestoreError(f"slots[{i}].{name} is {values!r}; persist writes a list of non-negative integers")
    return values


def _scaling(entry: dict, slot_key: int) -> float:
    """The scaling a slot entry derives its merged adapter at: a finite
    nonzero float, as ``persist`` writes it."""
    scaling = entry["scaling"]
    if type(scaling) is not float or not math.isfinite(scaling) or scaling == 0:
        raise RestoreError(
            f"slots[{slot_key - 1}].scaling is {scaling!r}; persist writes a finite nonzero float"
        )
    return scaling


def _opened(path: Path, missing: str):
    """``path`` opened for reading, with no ``exists()`` probe before it;
    :class:`RestoreError` ``missing`` when there is no such file."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise RestoreError(missing) from None


def _mapped(fh, size: int):
    """The ``size`` bytes of the open file ``fh``, mapped read-only with their
    page tables filled; ``b""`` for an empty file, which cannot be mapped. The
    mapping holds its own file descriptor, so ``fh`` may be closed."""
    if size == 0:
        return b""
    return mmap.mmap(fh.fileno(), size, flags=mmap.MAP_SHARED | _MAP_POPULATE, prot=mmap.PROT_READ)


def _cache_layout(geometries: dict[int, Mapping[LayerKey, tuple[int, int]]], rank_of) -> tuple[list, int]:
    """The ``(slot_key, key, b_shape, a_shape, offset)`` of each running-cache
    entry in ``running_cache.bin``, and the file's length, for slots of
    ``geometries`` (slot key -> each layer's ``(d_out, d_in)``): slots in
    key order, each slot's layers in sorted order, each layer's ``b`` then
    ``a`` in float64, back to back from 0.
    ``rank_of(slot_key, key)`` gives each cache rank, in that order."""
    layout, offset = [], 0
    for slot_key, geometry in sorted(geometries.items()):
        for key in sorted(geometry, key=LayerKey.sort_key):
            d_out, d_in = geometry[key]
            rank = rank_of(slot_key, key)
            layout.append((slot_key, key, (d_out, rank), (rank, d_in), offset))
            offset += 8 * rank * (d_out + d_in)
    return layout, offset


def _manifest(
    config: PolicyConfig, geometry: Mapping, slots: dict, task_ids: dict, layout: list,
    version: int = MANIFEST_VERSION,
) -> dict:
    """The manifest of a store with policy ``config``, whose slots all adapt
    ``geometry`` (each layer's ``(d_out, d_in)``), with its ``slots`` (slot
    key -> ``(tasks, scaling)``: the members' arrival indices, and ``None``
    for a file-held slot or the scaling a merged one is derived at), each
    arrival's task id ``task_ids`` and its stored caches at ``layout`` (see
    :func:`_cache_layout`): what ``persist`` writes and ``restore``
    requires. A slot entry names ``ranks`` only if ``layout`` stores its
    cache, as version 4 did every slot's and version 5 (``version``) does
    a slot's of several members. It holds each fact once and nothing that
    ``restore`` derives: no file name, offset, shape or count."""
    ranks = {}
    for slot_key, _, (_, rank), *_ in layout:
        ranks.setdefault(slot_key, []).append(rank)
    return {
        "version": version,
        **config.to_dict(),
        "layers": [[key.layer, key.proj, *geometry[key]] for key in sorted(geometry, key=LayerKey.sort_key)],
        "slots": [
            {"tasks": list(t), **({} if scaling is None else {"scaling": scaling}),
             **({"ranks": ranks[k]} if k in ranks else {})}
            for k, (t, scaling) in sorted(slots.items())
        ],
        "ingested": [task_ids[t] for t in sorted(task_ids)],
    }


def _legacy_manifest(config: PolicyConfig, slots: dict, task_ids: dict, layout: list, version: int) -> dict:
    """The manifest that version ``version`` (1 to 3) of ``persist`` wrote
    for a store with the arguments of :func:`_manifest`, and no shared
    geometry: it spelt out each slot's file or scaling and member count,
    each cache entry's slot, layer, shapes and offset, the next slot key,
    the arrival count and each arrival's index. :func:`_plan` requires it
    of such a store."""
    return {
        "version": version,
        **config.to_dict(),
        "slots": [
            {"slot_key": k, **({"file": f"slot_{k}.kmrg"} if scaling is None else {"scaling": scaling}),
             "tasks": list(t), "merge_count": len(t)}
            for k, (t, scaling) in sorted(slots.items())
        ],
        "running_cache_file": "running_cache.bin",
        "cache_index": [
            {"slot_key": k, "layer": key.layer, "proj": key.proj,
             "b_shape": list(b_shape), "a_shape": list(a_shape), "offset": offset}
            for k, key, b_shape, a_shape, offset in layout
        ],
        "next_slot_key": len(slots) + 1,
        "timestep": len(task_ids),
        "ingested": [[t, task_ids[t]] for t in sorted(task_ids)],
    }


def _with_policy(manifest: dict, derived: dict) -> dict:
    """``manifest`` with ``derived``'s policy fields: ``PolicyConfig.from_dict``
    alone judges the policy, as it reads older policies too."""
    return {**manifest, **{f.name: derived[f.name] for f in fields(PolicyConfig)}}


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
