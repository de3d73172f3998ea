"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's computation paths:
dense materialization uses explicit loops or plain numpy expressions,
and the policy reference re-implements the decision branches naively.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from kmerge.adapters import PROJECTIONS, FactorPair, LayerKey, LoraAdapter, _header_dict
from kmerge.bench import clustering_consistency, order_stream
from kmerge.engine import MergeHistory, SlotState, _cache_layout, _legacy_manifest
from kmerge.lowrank import NOISE_TOL, LowRankDelta
from kmerge.merging import RefactorResult
from kmerge.similarity import Profile, adapter_similarity


def make_adapter(task_id, layer_arrays, rank, scale_numerator, problem_type="t", language="l"):
    """Adapter from {LayerKey: (a, b)} float arrays."""
    layers = {
        key: FactorPair(a=np.asarray(a, dtype=np.float32), b=np.asarray(b, dtype=np.float32))
        for key, (a, b) in layer_arrays.items()
    }
    return LoraAdapter(
        task_id=task_id,
        problem_type=problem_type,
        language=language,
        rank=rank,
        scale_numerator=scale_numerator,
        layers=layers,
    )


def small_random_adapter(task_id, rng, rank=2, n_keys=2, width=8, scale_numerator=None):
    """Tiny unstructured adapter for oracle comparisons."""
    if scale_numerator is None:
        scale_numerator = float(rank)  # unit applied scaling
    keys = [LayerKey(i // len(PROJECTIONS), PROJECTIONS[i % len(PROJECTIONS)]) for i in range(n_keys)]
    layers = {
        key: (
            rng.standard_normal((rank, width)),
            rng.standard_normal((width, rank)),
        )
        for key in keys
    }
    return make_adapter(task_id, layers, rank, scale_numerator)


def zero_width_adapter(task_id, rng):
    """A rank-1 adapter whose layers have a zero ``d_in``, a zero ``d_out``,
    both, or neither."""
    shapes = {
        LayerKey(0, "key"): (4, 0), LayerKey(0, "query"): (0, 3),
        LayerKey(0, "value"): (0, 0), LayerKey(1, "key"): (5, 6),
    }
    layers = {key: (rng.standard_normal((1, d_in)), rng.standard_normal((d_out, 1)))
              for key, (d_out, d_in) in shapes.items()}
    return make_adapter(task_id, layers, 1, 1.0)


def factor_delta(fp, scaling):
    """The float64 delta ``scaling * fp.b @ fp.a`` of one layer, unfactorised:
    ``b`` converted and then scaled, as ``kmerge.lowrank.scaled_stacks``
    stacks it."""
    return LowRankDelta(b=fp.b.astype(np.float64) * scaling, a=fp.a.astype(np.float64))


def width_mismatched_pair(rng):
    """An adapter whose one layer is 8 x 8, and one with the same key and
    rank whose layer is 1 x 8."""
    key = LayerKey(0, "key")
    wide, thin = (
        make_adapter(name, {key: (rng.standard_normal((2, 8)), rng.standard_normal((d_out, 2)))}, 2, 2.0)
        for name, d_out in (("wide", 8), ("thin", 1))
    )
    return wide, thin


def rewrite_header(path, change):
    """Apply ``change`` to the JSON header of the ``.kmrg`` file at ``path``,
    keeping its tensor payload."""
    raw = path.read_bytes()
    magic, version, header_len = struct.unpack("<4sHI", raw[:10])
    header = json.loads(raw[10 : 10 + header_len])
    change(header)
    encoded = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sHI", magic, version, len(encoded)) + encoded + raw[10 + header_len :])


def poison_tensor(path, index, tensor, value):
    """Set the first entry of tensor ``tensor`` ("A" or "B") of the
    ``index``-th layer of the ``.kmrg`` file at ``path`` to ``value``."""
    raw = bytearray(path.read_bytes())
    header_len = struct.unpack_from("<I", raw, 6)[0]
    header = json.loads(raw[10 : 10 + header_len])
    offset, rank = 10 + header_len, header["rank"]
    for entry in header["layers"][:index]:
        offset += 4 * rank * (entry["d_in"] + entry["d_out"])
    if tensor == "B":
        offset += 4 * rank * header["layers"][index]["d_in"]
    struct.pack_into("<f", raw, offset, value)
    path.write_bytes(bytes(raw))


def mixed_geometry_slot(rng):
    """A slot and an incoming rank-2 adapter whose layers mix shapes (6x6,
    5x9, 9x4) and cache ranks: empty caches, saturated ones (cache rank plus
    2 above the width), and, on every fifth key, a slot whose cache and
    served adapter contain the incoming layer, whose residuals are then
    dropped as noise."""
    shapes = {"key": (6, 6), "query": (5, 9), "value": (9, 4), "output": (6, 6)}
    keys = [LayerKey(layer, proj) for layer in range(16) for proj in PROJECTIONS]

    def factors(key):
        d_out, d_in = shapes[key.proj]
        return rng.standard_normal((2, d_in)), rng.standard_normal((d_out, 2))

    arrays = {key: factors(key) for key in keys}
    incoming = make_adapter("in", arrays, 2, 3.0)
    spanned = set(keys[4::5])
    served = make_adapter("served", {k: arrays[k] if k in spanned else factors(k) for k in keys}, 2, 2.0)
    cache = {}
    for key in keys:
        d_out, d_in = shapes[key.proj]
        rank = (0, 1, 2, min(d_out, d_in))[key.layer % 4]
        low = LowRankDelta(b=rng.standard_normal((d_out, rank)), a=rng.standard_normal((rank, d_in)))
        if key in spanned:
            low = LowRankDelta.combine([low, factor_delta(incoming.layers[key], 1.0)], [1.0, 0.7])
        cache[key] = low.compressed()
    return SlotState(adapter=served, cache=cache, tasks=(1, 2)), incoming


# -- file format oracles ---------------------------------------------------

def per_tensor_write_adapter(adapter, path):
    """Write ``adapter`` as a ``.kmrg`` file one buffered ``write`` per
    header part and per tensor, the oracle of ``write_adapter``'s one
    vectored write."""
    header = json.dumps(_header_dict(vars(adapter), adapter.geometry)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHI", b"KMRG", 1, len(header)))
        fh.write(header)
        for key in adapter.sorted_keys():
            fh.write(np.ascontiguousarray(adapter.layers[key].a, dtype="<f4"))
            fh.write(np.ascontiguousarray(adapter.layers[key].b, dtype="<f4"))


def per_tensor_persist(engine, directory):
    """Write ``engine``'s store to ``directory`` at manifest version 2, one
    buffered ``write`` per tensor: every slot's adapter, merged or not,
    through :func:`per_tensor_write_adapter`, each cache entry's ``b`` then
    ``a`` in ``_cache_layout`` order, and the compact manifest naming every
    slot's file. It is the oracle of ``persist``'s vectored writes, which
    write the same slot files for file-held slots and the same cache, and
    it writes the version-2 stores that restore must still read."""
    directory.mkdir(parents=True, exist_ok=True)
    slots = engine.store.slots
    for slot_key, slot in slots.items():
        per_tensor_write_adapter(slot.adapter, directory / f"slot_{slot_key}.kmrg")
    geometries = {slot_key: slot.adapter.geometry for slot_key, slot in slots.items()}
    layout, _ = _cache_layout(geometries, lambda slot_key, key: slots[slot_key].cache[key].rank_bound)
    with open(directory / "running_cache.bin", "wb") as fh:
        for slot_key, key, *_ in layout:
            for factor in (slots[slot_key].cache[key].b, slots[slot_key].cache[key].a):
                fh.write(np.ascontiguousarray(factor, dtype="<f8"))
    entries = {slot_key: (slot.tasks, None) for slot_key, slot in slots.items()}
    manifest = _legacy_manifest(engine.config, entries, engine.task_ids, layout, 2)
    (directory / "manifest.json").write_bytes(json.dumps(manifest).encode())


def version3_persist(engine, directory):
    """Write ``engine``'s store to ``directory`` at manifest version 3, the
    bytes that ``persist`` wrote at that version: the version-2 store of
    :func:`per_tensor_persist` without a merged slot's adapter file, whose
    entry names the scaling its adapter is derived at instead. It writes
    the version-3 stores that restore must still read."""
    per_tensor_persist(engine, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["version"] = 3
    for i, entry in enumerate(manifest["slots"]):
        derivation = engine.store.slots[entry["slot_key"]].derivation
        if derivation is not None:
            (directory / entry.pop("file")).unlink()
            manifest["slots"][i] = {"slot_key": entry.pop("slot_key"), "scaling": derivation.scaling, **entry}
    (directory / "manifest.json").write_bytes(json.dumps(manifest).encode())


def version4_persist(engine, directory):
    """Write ``engine``'s store to ``directory`` at manifest version 4, the
    bytes that ``persist`` wrote at that version: the files of
    :func:`version3_persist` (every slot's cache, and a file for each slot
    that is not merged) and a compact manifest holding each fact once: the
    policy, ``layers`` read from slot 1's cache entries, each slot's tasks,
    its scaling if it is merged and its cache entries' ranks, and the
    ingested task ids. It writes the version-4 stores that restore must
    still read."""
    version3_persist(engine, directory)
    old = json.loads((directory / "manifest.json").read_text())
    index = old["cache_index"]
    manifest = {
        "version": 4,
        **{name: old[name] for name in engine.config.to_dict()},
        "layers": [[e["layer"], e["proj"], e["b_shape"][0], e["a_shape"][1]] for e in index if e["slot_key"] == 1],
        "slots": [
            {"tasks": entry["tasks"], **({"scaling": entry["scaling"]} if "scaling" in entry else {}),
             "ranks": [e["b_shape"][1] for e in index if e["slot_key"] == entry["slot_key"]]}
            for entry in old["slots"]
        ],
        "ingested": [task_id for _, task_id in old["ingested"]],
    }
    (directory / "manifest.json").write_bytes(json.dumps(manifest).encode())


def assert_same_adapter(got, want):
    """``got`` equals ``want`` field for field, with its layers in the same
    order and each factor of the same dtype, shape and bits."""
    fields = ("task_id", "problem_type", "language", "rank", "scale_numerator")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert type(got.scale_numerator) is type(want.scale_numerator)
    assert list(got.layers) == list(want.layers)
    for key, pair in want.layers.items():
        for x, y in ((got.layers[key].a, pair.a), (got.layers[key].b, pair.b)):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()


class RecordedWrites:
    """A stand-in for ``os.writev`` that records each call's file (by inode,
    which a rename keeps), buffer count and bytes written. With ``limit``, it
    writes at most that many bytes a call, taken across buffer boundaries,
    as a short write may. A writer that makes no progress fails after
    ``MAX_CALLS`` calls instead of looping forever."""

    MAX_CALLS = 100_000

    def __init__(self, writev, limit=None):
        self.writev, self.limit, self.calls = writev, limit, []

    def __call__(self, fd, buffers):
        assert len(self.calls) < self.MAX_CALLS, f"os.writev called {self.MAX_CALLS} times"
        sent = buffers
        if self.limit is not None:
            sent = [bytearray()]
            for buffer in buffers:
                sent[0] += bytes(memoryview(buffer)[: self.limit - len(sent[0])])
                if len(sent[0]) == self.limit:
                    break
        written = self.writev(fd, sent)
        self.calls.append((os.fstat(fd).st_ino, len(buffers), written))
        return written

    def per_file(self, path):
        """The ``(buffer count, bytes written)`` of each call that wrote ``path``."""
        inode = path.stat().st_ino
        return [(count, written) for ino, count, written in self.calls if ino == inode]


# -- dense oracles ---------------------------------------------------------

def dense_delta(adapter, key):
    fp = adapter.layers[key]
    scale = adapter.scale_numerator / adapter.rank
    return scale * (fp.b.astype(np.float64) @ fp.a.astype(np.float64))


def dense_delta_map(adapter):
    return {key: dense_delta(adapter, key) for key in adapter.layers}


def dense_cosine(x, y, key):
    vx = dense_delta(x, key).reshape(-1)
    vy = dense_delta(y, key).reshape(-1)
    nx, ny = np.linalg.norm(vx), np.linalg.norm(vy)
    if nx < 1e-12 or ny < 1e-12:
        return 0.0
    return float(vx @ vy / (nx * ny))


def dense_adapter_similarity(x, y):
    return float(np.mean([dense_cosine(x, y, key) for key in x.layers]))


def similarity_pairs(adapters):
    """``adapter_similarity`` of every pair, one pair a call, in the order of
    the upper triangle of the similarity matrix."""
    return [adapter_similarity(x, y) for i, x in enumerate(adapters) for y in adapters[i + 1:]]


def naive_matmul(b, a):
    """Triple-loop product, independent of numpy matmul."""
    d_out, r = b.shape
    _, d_in = a.shape
    out = np.zeros((d_out, d_in))
    for i in range(d_out):
        for j in range(d_in):
            acc = 0.0
            for k in range(r):
                acc += float(b[i, k]) * float(a[k, j])
            out[i, j] = acc
    return out


def naive_ties(vectors, density):
    """Literal trim / elect / disjoint-mean on a list of 1-D arrays."""
    m = len(vectors)
    n = vectors[0].size
    k = math.ceil(density * n)
    trimmed = []
    for v in vectors:
        ranked = sorted(range(n), key=lambda i: (-abs(v[i]), i))
        keep = set(ranked[:k])
        trimmed.append(np.array([v[i] if i in keep else 0.0 for i in range(n)]))
    out = np.zeros(n)
    for i in range(n):
        total = sum(t[i] for t in trimmed)
        elected = 1.0 if total >= 0 else -1.0
        matching = [t[i] for t in trimmed if np.sign(t[i]) == elected]
        out[i] = sum(matching) / len(matching) if matching else 0.0
    return out


def naive_refactor(cache, target_rank, task_id, scaling):
    """``refactor`` one layer at a time, the oracle of its stacked calls:
    each layer's ``svd_truncate`` slice, divided by the served scaling and
    cast to float32, and its residual from the full spectrum."""
    r = target_rank
    scale_numerator = scaling * r
    layers, residuals = {}, {}
    for key, low in cache.items():
        truncated, singvals = low.svd_truncate(r)
        total = float(np.sum(singvals**2))
        tail = float(np.sum(singvals[r:] ** 2))
        residuals[key] = math.sqrt(max(0.0, tail) / total) if total > 0 else 0.0
        layers[key] = FactorPair(
            a=truncated.a.astype(np.float32),
            b=(truncated.b / (scale_numerator / r)).astype(np.float32),
        )
    adapter = LoraAdapter(task_id, "merged", "merged", r, scale_numerator, layers)
    return RefactorResult(adapter=adapter, residuals=residuals)


def naive_slot_cache(adapter):
    """``slot_cache`` one layer at a time, the oracle of its stacked calls:
    each layer's ``factor_delta`` brought to canonical form by two QRs and
    an SVD of its own."""
    cache = {}
    for key, fp in adapter.layers.items():
        low = factor_delta(fp, adapter.scaling)
        qb, rb = np.linalg.qr(low.b)
        qa, ra = np.linalg.qr(low.a.T)
        u, s, vt = np.linalg.svd(rb @ ra.T)
        r = int(np.count_nonzero(s > s[:1] * 1e-14))
        root = np.sqrt(s[:r])
        cache[key] = LowRankDelta(b=(qb @ u[:, :r]) * root, a=root[:, None] * (vt[:r] @ qa.T), canonical=True)
    return cache


def naive_split(basis, block, norm):
    """The fold's residual split with the residual's own thin SVD (LAPACK
    ``gesdd``), the oracle of ``kmerge.lowrank._split``: ``(coords, q, sig,
    z, kept)`` with ``block = basis coords + q[:, :kept] (sig[:kept, None]
    * z[:kept])`` per layer of the stacks, ``q`` formed."""
    basis_t = basis.transpose(0, 2, 1)
    coords = basis_t @ block
    resid = block - basis @ coords
    again = basis_t @ resid
    coords += again
    resid -= basis @ again
    q, sig, z = np.linalg.svd(resid, full_matrices=False)
    kept = np.count_nonzero(sig > NOISE_TOL * norm[:, None], axis=1)
    return coords, q, sig, z, kept


def random_control_consistency(tasks, ordering, budget_k, seed):
    """Control: the similarity rule replaced by a uniform random slot choice
    once the budget is exhausted, scored by ``clustering_consistency``."""
    rng = np.random.default_rng(seed)
    entries, by_arrival = {}, {}
    for t, position in enumerate(order_stream(tasks, ordering), 1):
        slot = len(entries) + 1 if len(entries) < budget_k else int(rng.integers(len(entries))) + 1
        entries.setdefault(slot, []).append(t)
        by_arrival[t] = tasks[position]
    return clustering_consistency(MergeHistory(entries), by_arrival)


# -- naive policy reference ------------------------------------------------

@dataclass
class NaiveState:
    adapters: dict  # slot_key -> LoraAdapter (stored form, updated externally)
    history: dict   # slot_key -> list of task indices
    next_key: int = 1


def naive_policy_step(state, incoming, variant, budget_k, threshold_s):
    """Branch of the decision rule, re-implemented literally.

    Returns (action, slot_key, similarity-or-None). The caller is
    responsible for refreshing stored adapters after a merge, mirroring
    whatever the system under test holds.
    """
    occupied = len(state.adapters)
    best_key, best_sim = None, None
    if occupied > 0:
        for slot_key in sorted(state.adapters):
            sim = dense_adapter_similarity(incoming, state.adapters[slot_key])
            if best_sim is None or sim > best_sim:
                best_key, best_sim = slot_key, sim
    if variant == "k_merge":
        merge = occupied >= budget_k
    else:
        merge = occupied == budget_k or (occupied > 0 and best_sim >= threshold_s)
    if merge:
        return "merged_into", best_key, best_sim
    key = state.next_key
    state.next_key += 1
    return "allocated_new_slot", key, None


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def profile_builds(monkeypatch):
    """The adapters whose :class:`Profile` is built during the test, in order."""
    built = []
    build = Profile.__init__

    def counting(self, adapter):
        built.append(adapter)
        build(self, adapter)

    monkeypatch.setattr(Profile, "__init__", counting)
    return built


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, when that suite ran."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
