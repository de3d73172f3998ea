"""Spans around calls into kmerge's public functions, installed at run time.

The benchmark wraps module attributes and class methods of the installed
``kmerge`` package for the duration of a traced section and restores the
originals afterwards. Nothing under ``src/`` knows about tracing. A span
records ``module.function``, start, end, its parent span and a trace id:
every span below one top-level call (an ingest, a persist, one scoring
round) shares that call's trace id. Spans stay in memory until the
benchmark writes them out at exit.

Functions are patched in the namespace they are called from. For example
``MergeEngine.ingest`` calls ``kmerge.engine.most_similar``, so that name
is wrapped, not only ``kmerge.similarity.most_similar``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

import kmerge.bench
import kmerge.engine
import kmerge.lowrank
import kmerge.merging
import kmerge.similarity

OPERATORS = (
    "merging.linear_merge",
    "merging.ties_merge",
    "merging.dare_merge",
    "merging.dare_ties_merge",
)
LAYERS = ("similarity", "lowrank", "merging", "engine", "adapters", "bench")


def _dense_bytes(mapping) -> int:
    return sum(v.nbytes for v in mapping.values() if isinstance(v, np.ndarray))


def _after_ingest(result, args):
    return {"engine.merges" if result.action == kmerge.engine.MERGED else "engine.allocations": 1}


def _after_operator(result, args):
    return {"merging.dense_bytes": _dense_bytes(result.layers)}


def _after_dense_map(result, args):
    return {"merging.dense_bytes": _dense_bytes(result)}


def _after_write(result, args):
    return {"adapters.bytes_written": os.path.getsize(args[1])}


def _after_read(result, args):
    return {"adapters.bytes_read": os.path.getsize(args[0])}


def _patch_table():
    """(owner, attribute, span name or None for count-only, after-hook)."""
    eng, sim, mrg, bch = kmerge.engine, kmerge.similarity, kmerge.merging, kmerge.bench
    low = kmerge.lowrank.LowRankDelta
    table = [
        (eng, "most_similar", "similarity.most_similar", None),
        (sim, "most_similar", "similarity.most_similar", None),
        (sim, "adapter_similarity", "similarity.adapter_similarity", None),
        (bch, "adapter_similarity", "similarity.adapter_similarity", None),
        (sim, "calibrate_threshold", "similarity.calibrate_threshold", None),
        (low, "svd_truncate", "lowrank.svd_truncate", None),
        (low, "compressed", "lowrank.compressed", None),
        (low, "combine", "lowrank.combine", None),
        (low, "from_dense", "lowrank.from_dense", None),
        (eng, "refactor", "merging.refactor", None),
        (mrg, "ties_merge", "merging.ties_merge", _after_operator),
        (mrg, "delta_map", None, _after_dense_map),
        (eng, "delta_map", None, _after_dense_map),
        (mrg, "dare_preprocess", None, _after_dense_map),
        (eng.MergeEngine, "ingest", "engine.ingest", _after_ingest),
        (eng.MergeEngine, "persist", "engine.persist", None),
        (eng.MergeEngine, "restore", "engine.restore", None),
        (eng, "write_adapter", "adapters.write_adapter", _after_write),
        (eng, "read_adapter", "adapters.read_adapter", _after_read),
        (bch, "run_simulation", "bench.run_simulation", None),
        (bch, "aggregate_score", "bench.aggregate_score", None),
        (bch, "surrogate_metric", "bench.surrogate_metric", None),
        (bch, "generate_suite", "bench.generate_suite", None),
    ]
    # dare_ties_merge returns the result of its inner ties_merge call,
    # whose own wrapper already counts those bytes.
    for name in OPERATORS:
        after = None if name == "merging.dare_ties_merge" else _after_operator
        table.append((eng, name.split(".")[1], name, after))
    return table


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # (span id, parent id, trace id, name, start, end, phase, counts)
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[tuple[int, int]] = []
        self._next_span = 0
        self._next_trace = 0
        self._phase = None

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Install every wrapper, tag spans with ``phase``, then uninstall."""
        saved = []
        try:
            for owner, attr, name, after in _patch_table():
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, after)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, after))
            self._phase = phase
            yield
        finally:
            self._phase = None
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def add(self, phase: str, counts: dict) -> None:
        self.counts[phase].update(counts)

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[tracer._phase].update(after(result, args))
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_span
            tracer._next_span += 1
            if tracer._stack:
                parent, trace = tracer._stack[-1]
            else:
                tracer._next_trace += 1
                parent, trace = None, tracer._next_trace
            tracer._stack.append((span_id, trace))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = after(result, args) if after else None
            if counts:
                tracer.counts[tracer._phase].update(counts)
            tracer.spans.append(
                (span_id, parent, trace, name, start, end, tracer._phase, counts)
            )
            return result

        return counted if name is None else traced

    # -- aggregation ------------------------------------------------------

    def phase_metrics(self, phase: str, wall: float) -> dict[str, float]:
        """Per-layer figures for one phase whose timed sections took ``wall`` s."""
        spans = [s for s in self.spans if s[6] == phase]
        by_id = {s[0]: s for s in spans}
        child_time: Counter = Counter()
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]

        def self_time(s):
            return s[5] - s[4] - child_time[s[0]]

        def inclusive(names):
            # Time inside any span of ``names``, counting nested ones once.
            total = 0.0
            for s in spans:
                if s[3] not in names:
                    continue
                parent = by_id.get(s[1])
                while parent is not None and parent[3] not in names:
                    parent = by_id.get(parent[1])
                if parent is None:
                    total += s[5] - s[4]
            return total

        calls = Counter(s[3] for s in spans)
        self_by_name: Counter = Counter()
        for s in spans:
            self_by_name[s[3]] += self_time(s)
        counts = self.counts[phase]
        out = {
            "similarity.most_similar_s": inclusive({"similarity.most_similar"}),
            "similarity.most_similar.calls": calls["similarity.most_similar"],
            "similarity.adapter_similarity_s": inclusive({"similarity.adapter_similarity"}),
            "similarity.adapter_similarity.calls": calls["similarity.adapter_similarity"],
            "lowrank.svd_truncate_s": inclusive({"lowrank.svd_truncate"}),
            "lowrank.svd_truncate.calls": calls["lowrank.svd_truncate"],
            "lowrank.compressed_s": inclusive({"lowrank.compressed"}),
            "lowrank.combine_s": inclusive({"lowrank.combine"}),
            "lowrank.from_dense_s": inclusive({"lowrank.from_dense"}),
            "lowrank.cache_rank_max": counts["lowrank.cache_rank_max"],
            "lowrank.cache_bytes": counts["lowrank.cache_bytes"],
            "merging.refactor_s": inclusive({"merging.refactor"}),
            "merging.refactor.calls": calls["merging.refactor"],
            "merging.operator_s": inclusive(set(OPERATORS)),
            "merging.dense_bytes": counts["merging.dense_bytes"],
            "engine.ingest.self_s": self_by_name["engine.ingest"],
            "engine.ingest.calls": calls["engine.ingest"],
            "engine.merge_s": sum(
                s[5] - s[4] for s in spans if s[3] == "engine.ingest" and "engine.merges" in (s[7] or {})
            ),
            "engine.merges": counts["engine.merges"],
            "engine.allocations": counts["engine.allocations"],
            "engine.persist.self_s": self_by_name["engine.persist"],
            "engine.restore.self_s": self_by_name["engine.restore"],
            "adapters.write_s": inclusive({"adapters.write_adapter"}),
            "adapters.bytes_written": counts["adapters.bytes_written"],
            "adapters.read_s": inclusive({"adapters.read_adapter"}),
            "adapters.bytes_read": counts["adapters.bytes_read"],
            "bench.aggregate_score_s": inclusive({"bench.aggregate_score"}),
            "bench.surrogate_metric.calls": calls["bench.surrogate_metric"],
        }
        roots = sum(s[5] - s[4] for s in spans if s[1] is None)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                t for name, t in self_by_name.items() if name.startswith(layer + ".")
            )
        out["layer.harness.self_s"] = wall - roots
        out["trace.spans"] = len(spans)
        return out

    def generate_suite_s(self, phase: str) -> float:
        return sum(
            s[5] - s[4] for s in self.spans if s[6] == phase and s[3] == "bench.generate_suite"
        )
