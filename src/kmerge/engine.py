"""Online continual-merging state machine.

Maintains at most ``budget_k`` storage slots. Each slot holds the
servable rank-controlled adapter, an exact float64 running delta cache in
canonical thin-SVD form and its members' arrival indices (see
:class:`SlotState`). Similarity is always measured against the stored
adapter (what the device actually holds); the running-average update is
applied to the exact cache, which keeps the fold order-invariant
regardless of rank truncation. The engine holds only its policy, its
slots and each arrival's task id; the next slot key, the arrival index
and :attr:`MergeEngine.history` are derived from them. This module opens
no file: :mod:`kmerge.store` writes and reads an engine's store, and
:meth:`MergeEngine.persist` and :meth:`MergeEngine.restore` call it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .adapters import (
    LayerKey, LoraAdapter, check_compatible,
    # unused here; perfbench/tracing.py wraps kmerge.engine.write_adapter and read_adapter by name
    read_adapter, write_adapter,
)
from .errors import (
    ConfigError,
    DuplicateTask,
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

    ``derivation`` says which of two kinds a slot is. ``None``: the slot
    has one member, which is its adapter, and a store keeps it in a file.
    A :class:`Derivation`: the slot is merged and its adapter is
    ``refactor(cache, *derivation)``, which a store keeps as its cache and
    the derivation's scaling alone. A merged slot is built with its adapter
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
    one-member slot, its mapped ``slot_<key>.kmrg`` (the adapter) until the
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
        """Write the engine's store to ``directory``: :func:`kmerge.store.persist`."""
        from . import store  # the store builds engines, so it imports this module

        store.persist(self, directory)

    @classmethod
    def restore(cls, directory: str | Path) -> "MergeEngine":
        """The engine whose store is in ``directory``: :func:`kmerge.store.restore`."""
        from . import store

        return store.restore(directory)
