"""A merge engine's store: the directory that :meth:`MergeEngine.persist`
writes and :meth:`MergeEngine.restore` reads.

A store is ``manifest.json``, ``running_cache.bin`` and one
``slot_<key>.kmrg`` (:func:`slot_file`) per one-member slot, and it keeps
each slot once. A slot is one of two kinds, told apart by its
``derivation`` (see :class:`~kmerge.engine.SlotState`). A one-member slot
is held by its adapter, which its file keeps; its cache is
:func:`~kmerge.engine.slot_cache` of that adapter, which the store does not
keep. A merged slot's adapter is the leading slice of its cache, so the
store keeps the cache, in ``running_cache.bin``, and the scaling the
adapter is served at.

The format lives in two pure functions of the state persist holds and
restore reads: :func:`_cache_layout` places each cache entry of
``running_cache.bin`` from the one geometry and the slots' cache ranks, and
:func:`_manifest` builds ``manifest.json``. ``persist`` writes them, each
file in one vectored write; ``restore`` derives them again and accepts no
store whose manifest differs in any field, the policy too, before it builds
each slot once. A version-5 manifest holds only what restore cannot derive:
the policy, the one geometry every slot adapts, each slot's tasks, scaling
(if merged) and cache ranks (if its cache is stored), and the task ids.

``restore`` reads two versions: 5, which ``persist`` writes, and 4, which
kept every slot's cache, also a one-member slot's; any other raises
:class:`RestoreError`. A restored slot derives what its store does not keep
at its first read, once: a merged slot's adapter pays one
:func:`~kmerge.merging.refactor` of its cache (about 40 ms a slot at width
2048), and a one-member slot's cache one ``slot_cache`` (about 0.3 s a slot
of 64 layers at width 2048).
"""

from __future__ import annotations

import json
import math
import mmap
import os
from operator import gt
from pathlib import Path
from typing import Mapping

import numpy as np

from .adapters import LayerKey, LoraAdapter, delete_stale, parse_adapter, replace_file, write_adapter
from .engine import Derivation, MergeEngine, PolicyConfig, SlotState
from .errors import ConfigError, FormatError, RestoreError, ShapeError
from .jsonfields import json_field
from .lowrank import LowRankDelta

# 5: a one-member slot keeps no cache, only its adapter file, and its entry
# no ranks.
MANIFEST_VERSION = 5

# The versions ``restore`` reads: this one and the one before it. Version 4
# keeps every slot's cache, a one-member slot's too.
READ_VERSIONS = (4, MANIFEST_VERSION)

# Restore maps the running cache and the one-member slots' adapters with
# their page tables filled, so that the first read of a restored slot, or a
# persist of it, takes no page faults.
_MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)


def slot_file(slot_key: int) -> str:
    """The name of the file that keeps one-member slot ``slot_key``'s adapter."""
    return f"slot_{slot_key}.kmrg"


def read_manifest(directory: str | Path) -> dict:
    """The parsed ``manifest.json`` of a store directory; raises
    :class:`RestoreError` when it is missing or not valid UTF-8 JSON."""
    try:
        return json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RestoreError(f"no manifest.json in {directory}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RestoreError(f"manifest.json is not valid JSON: {exc}") from None


def persist(engine: MergeEngine, directory: str | Path) -> None:
    """Write ``engine``'s one-member slots' adapters, its merged slots'
    caches and a manifest to ``directory``.

    Caches are stored in canonical form as raw float64 little-endian
    tensors, back to back where :func:`_cache_layout` puts them, so a
    restored engine continues from the same exact state. The manifest is
    :func:`_manifest`, which holds only what restore cannot derive: the
    policy; ``layers``, the one geometry every slot adapts, as ``[layer,
    proj, d_out, d_in]`` in sorted key order; each slot's ``tasks``, and a
    merged slot's ``scaling`` and cache ``ranks`` in ``layers`` order; and
    the task ids in arrival order, ``ingested``. The geometry is slot 1's:
    its adapter if it has one member, its cache's shapes if merged, so
    persist never builds a merged slot's adapter nor reads a one-member
    slot's cache. Each file (every one-member slot's adapter, through
    :func:`~kmerge.adapters.write_adapter`; the cache; the manifest) is one
    vectored write of its buffers, uncopied, through
    :func:`~kmerge.adapters.replace_file`, so a write that fails leaves no
    temporary file. Slot files of an earlier store that are no one-member
    slot's are deleted only once the new manifest is in place.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slots, geometry = engine.store.slots, {}
    if slots:  # every ingest checks that the slots adapt one geometry, slot 1's
        first = slots[1]
        held = first.derivation is None
        geometry = first.adapter.geometry if held else {key: low.shape for key, low in first.cache.items()}
    keys, entries = sorted(geometry, key=LayerKey.sort_key), {}
    for slot_key, slot in slots.items():
        if slot.derivation is None:
            write_adapter(slot.adapter, directory / slot_file(slot_key))
            entries[slot_key] = (slot.tasks, None, None)
        else:
            entries[slot_key] = (slot.tasks, slot.derivation.scaling, [slot.cache[key].rank_bound for key in keys])
    layout, _ = _cache_layout(geometry, entries)
    caches = (slots[slot_key].cache[key] for slot_key, key, *_ in layout)
    factors = [np.ascontiguousarray(f, dtype="<f8") for low in caches for f in (low.b, low.a)]
    replace_file(directory / "running_cache.bin", factors)
    # Compact, as only without ``indent`` does CPython encode in C.
    manifest = json.dumps(_manifest(engine.config, geometry, entries, engine.task_ids))
    replace_file(directory / "manifest.json", [manifest.encode()])
    delete_stale(directory, "slot", {slot_file(k) for k, (_, scaling, _) in entries.items() if scaling is None})


def restore(directory: str | Path) -> MergeEngine:
    """The engine that :func:`persist` wrote to ``directory``.

    Accepts exactly the stores that ``persist`` writes, at manifest
    version 5, and those of version 4 as they were written; any other
    raises :class:`RestoreError`, or the :class:`~kmerge.errors.FormatError`
    of a damaged slot file, which names that file. :func:`_plan` reads typed
    the policy, ``layers``, each slot's tasks (slot ``i`` is entry ``i``),
    scaling and cache ranks (each at most its layer's ``min(d_out, d_in)``;
    at version 5 only a merged slot has them), and the ingested task ids
    (arrival ``i`` is entry ``i``). The task lists must be non-empty, at
    most ``budget_k``, in arrival order within and across slots, and
    partition the arrivals, the task ids distinct, and a slot must name a
    scaling exactly when it has several members. It then parses the
    one-member slots' ``slot_<i>.kmrg`` files, whose geometry must be
    ``layers`` and whose task id must be their member's in ``ingested``, and
    requires the stored manifest to equal the one derived from those facts
    in every field, with no exception: the policy as ``persist`` writes it
    (so no ``rank_policy.mode``), and ``layers`` empty when there is no
    slot. Only then is the cache file opened, and it must be exactly as
    long as the layout.

    Each file is opened with no ``exists()`` probe before it; a missing one
    raises :class:`RestoreError`. The running cache file and each
    one-member slot's adapter file are mapped once, read-only, with their
    pages populated: the cache is viewed once, as one float64 array, and
    each cache entry's ``b`` and ``a`` are read-only slices of that view;
    each one-member slot's adapter factors are read-only views of its
    file's mapping. Both last until the slot is next merged. That is one
    mapping per one-member slot plus the cache's, each holding one file
    descriptor until nothing refers to it. Each slot is built once, with
    what its store keeps, and nothing is derived here: a merged slot is
    built without its adapter, and the first read of ``slot.adapter`` runs
    its ``refactor``; a version-5 one-member slot is built without its
    cache, and the first read of ``slot.cache`` runs its ``slot_cache``.
    ``persist`` renames a new file over the old one, so persisting over the
    store or deleting it leaves every mapping as it was; the files must not
    be edited or truncated in place while the engine lives.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    version = json_field(manifest, "version", RestoreError, int)
    if version not in READ_VERSIONS:
        raise RestoreError(f"unsupported manifest version {version}")
    try:
        config = PolicyConfig.from_dict(manifest)
    except ConfigError as exc:
        raise RestoreError(f"manifest policy: {exc}") from None
    slots, task_ids, adapters, layout, cache_bytes = _plan(directory, manifest, config, version)

    cache_path = directory / "running_cache.bin"
    with _opened(cache_path, f"running cache file {cache_path.name} is missing") as blob:
        size = os.fstat(blob.fileno()).st_size
        if size != cache_bytes:
            raise RestoreError(f"{cache_path.name} is {size} bytes; persist writes {cache_bytes}")
        whole = np.frombuffer(_mapped(blob, size), "<f8")
    caches = {}
    for slot_key, key, b_shape, a_shape, offset in layout:
        first = offset // 8
        middle = first + b_shape[0] * b_shape[1]
        try:
            b = whole[first:middle].reshape(b_shape)
            a = whole[middle:middle + a_shape[0] * a_shape[1]].reshape(a_shape)
        except ValueError:  # numpy's size limit, reachable when the other dimension is 0
            shapes = f"b_shape {list(b_shape)}, a_shape {list(a_shape)}"
            raise RestoreError(f"slots[{slot_key - 1}]: the cache of layer {key} is too large: {shapes}") from None
        caches.setdefault(slot_key, {})[key] = LowRankDelta(b=b, a=a, canonical=True)
    engine = MergeEngine(config)
    for k, (tasks, scaling, _) in slots.items():
        derivation = None if scaling is None else Derivation.of(config, k, scaling)
        engine.store.slots[k] = SlotState(adapters.get(k), caches.get(k), tuple(tasks), derivation)
    engine.task_ids = task_ids
    return engine


def _plan(directory: Path, manifest: dict, config: PolicyConfig, version: int) -> tuple:
    """What :func:`restore` builds from the store of manifest ``version`` in
    ``directory``: each slot's ``(tasks, scaling, ranks)`` and each
    one-member slot's adapter, by slot key; each arrival's task id; and the
    cache's layout and length.

    The facts of ``manifest`` are read typed; ``manifest`` must then equal
    the one they derive, :func:`_manifest`, in every field, the policy
    included, in value and JSON type, which :func:`_difference` compares. A
    manifest holds only facts, so ``==`` is that comparison. At version 4
    every slot stores its cache; at version 5 only a merged slot does, so
    only its ranks are read, and a one-member entry that names ranks
    differs from the derived manifest. The geometry is derived from
    ``layers`` only when there is a slot, so a slot-less manifest that
    lists a layer differs too. Each one-member slot's file must adapt
    ``layers`` and hold its member's task id."""
    geometry, bounds = {}, []
    for i, entry in enumerate(json_field(manifest, "layers", RestoreError, list)):
        if type(entry) is not list or list(map(type, entry)) != [int, str, int, int] or min(entry[2:]) < 0:
            raise RestoreError(f"layers[{i}] is {entry!r}; persist writes [layer, proj, d_out, d_in]")
        layer, proj, d_out, d_in = entry
        try:
            geometry[LayerKey(layer, proj)] = (d_out, d_in)
        except ShapeError as exc:
            raise RestoreError(f"layers[{i}]: {exc}") from None
        # A canonical cache has at most as many directions as its layer's smaller side.
        bounds.append(min(d_out, d_in))
    slots = {}
    for i, entry in enumerate(json_field(manifest, "slots", RestoreError, list)):
        if type(entry) is not dict:
            raise RestoreError(f"slots[{i}] is {entry!r}; persist writes an object")
        tasks = _naturals(entry, i, "tasks")
        scaling = _scaling(entry, i + 1) if "scaling" in entry else None
        # At version 5 a one-member slot's cache is derived from its adapter.
        ranks = None if version >= 5 and len(tasks) < 2 else _naturals(entry, i, "ranks")
        if ranks is not None and len(ranks) != len(bounds):
            raise RestoreError(f"slots[{i}].ranks holds {len(ranks)} ranks; layers holds {len(bounds)} layers")
        if ranks is not None and any(map(gt, ranks, bounds)):
            j = next(j for j, bound in enumerate(bounds) if ranks[j] > bound)
            raise RestoreError(
                f"slots[{i}].ranks[{j}] is {ranks[j]}, above min(d_out, d_in) {bounds[j]} of layers[{j}]"
            )
        slots[i + 1] = (tasks, scaling, ranks)
    ingested = json_field(manifest, "ingested", RestoreError, list)
    if not all(type(name) is str for name in ingested):
        i = next(i for i, name in enumerate(ingested) if type(name) is not str)
        raise RestoreError(f"ingested[{i}] is {ingested[i]!r}; persist writes a task id")
    if slots and not geometry:
        raise RestoreError("layers is empty; every slot adapts at least one layer")
    _check_state(config, slots, ingested)

    adapters = _held_adapters(directory, [k for k, (_, scaling, _) in slots.items() if scaling is None])
    for slot_key, adapter in adapters.items():
        if adapter.geometry != geometry:
            raise RestoreError(
                f"slots[{slot_key - 1}]: {slot_file(slot_key)} adapts other layers or shapes than layers"
            )
        t = slots[slot_key][0][0]
        if adapter.task_id != ingested[t - 1]:
            raise RestoreError(
                f"slots[{slot_key - 1}]: {slot_file(slot_key)} holds task {adapter.task_id!r}, "
                f"but its member, arrival {t}, is ingested[{t - 1}] {ingested[t - 1]!r}"
            )
    layout, cache_bytes = _cache_layout(geometry, slots)
    task_ids = dict(enumerate(ingested, 1))
    derived = _manifest(config, geometry if slots else {}, slots, task_ids, version)
    if manifest != derived:
        raise RestoreError(_difference(manifest, derived))
    return slots, task_ids, adapters, layout, cache_bytes


def _check_state(config: PolicyConfig, slots: dict, task_ids: list) -> None:
    """Raise :class:`RestoreError` unless the slots (slot key -> ``(tasks,
    scaling, ranks)``, with ``None`` the scaling of a one-member slot) and
    the arrivals' task ids describe a state that ingests reach."""
    tasks = [slot_tasks for slot_tasks, _, _ in slots.values()]
    if [] in tasks:
        raise RestoreError(f"slots[{tasks.index([])}].tasks is empty")
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
    # A merge adds a member to a slot, and serves the slot at a scaling.
    for i, (slot_tasks, scaling, _) in enumerate(slots.values()):
        if len(slot_tasks) == 1 and scaling is not None:
            raise RestoreError(f"slots[{i}] has a scaling but one task; a merged slot has two or more")
        if len(slot_tasks) > 1 and scaling is None:
            raise RestoreError(f"slots[{i}] has {len(slot_tasks)} tasks but no scaling; a merged slot has one")


def _held_adapters(directory: Path, slot_keys: list) -> dict[int, LoraAdapter]:
    """The adapter of each one-member slot of ``slot_keys``, parsed from its
    mapped ``slot_<key>.kmrg``; a parse error names the file."""
    adapters = {}
    for slot_key in slot_keys:
        path = directory / slot_file(slot_key)
        with _opened(path, f"adapter file for slot {slot_key} is missing") as fh:
            try:
                adapters[slot_key] = parse_adapter(_mapped(fh, os.fstat(fh.fileno()).st_size))
            except FormatError as exc:
                raise exc.in_file(path) from None
    return adapters


def _naturals(entry: dict, i: int, name: str) -> list:
    """Field ``name`` of slot entry ``i``: a list of non-negative integers,
    as ``persist`` writes ``tasks`` and ``ranks``."""
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


def _cache_layout(geometry: Mapping[LayerKey, tuple[int, int]], slots: dict) -> tuple[list, int]:
    """The ``(slot_key, key, b_shape, a_shape, offset)`` of each running-cache
    entry in ``running_cache.bin``, and the file's length, for ``slots``
    (slot key -> ``(tasks, scaling, ranks)``) that all adapt ``geometry``
    (each layer's ``(d_out, d_in)``). A slot whose ``ranks`` is ``None``
    has no stored cache; any other has one entry per layer, at the rank
    ``ranks`` gives in sorted layer order. Slots are in key order, each
    slot's layers in sorted order, each layer's ``b`` then ``a`` in float64,
    back to back from 0."""
    keys, layout, offset = sorted(geometry, key=LayerKey.sort_key), [], 0
    for slot_key, (_, _, ranks) in sorted(slots.items()):
        for key, rank in zip(keys, ranks or ()):
            d_out, d_in = geometry[key]
            layout.append((slot_key, key, (d_out, rank), (rank, d_in), offset))
            offset += 8 * rank * (d_out + d_in)
    return layout, offset


def _manifest(
    config: PolicyConfig, geometry: Mapping, slots: dict, task_ids: dict, version: int = MANIFEST_VERSION
) -> dict:
    """The manifest of a store with policy ``config``, whose slots all adapt
    ``geometry`` (each layer's ``(d_out, d_in)``), with its ``slots`` (slot
    key -> ``(tasks, scaling, ranks)``: the members' arrival indices; ``None``
    for a one-member slot or the scaling a merged one is derived at; and
    ``None`` for a slot whose cache the store does not keep or its cache
    ranks in sorted layer order) and each arrival's task id ``task_ids``:
    what ``persist`` writes and ``restore`` requires. A slot entry names
    ``ranks`` only if the store keeps its cache, as version 4 did every
    slot's and version 5 (``version``) does a merged slot's. It holds each
    fact once and nothing that ``restore`` derives: no file name, offset,
    shape or count."""
    return {
        "version": version,
        **config.to_dict(),
        "layers": [[key.layer, key.proj, *geometry[key]] for key in sorted(geometry, key=LayerKey.sort_key)],
        "slots": [
            {"tasks": list(tasks), **({} if scaling is None else {"scaling": scaling}),
             **({} if ranks is None else {"ranks": ranks})}
            for _, (tasks, scaling, ranks) in sorted(slots.items())
        ],
        "ingested": [task_ids[t] for t in sorted(task_ids)],
    }


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
