"""kmerge benchmark: one workload per invocation, results as one JSON line.

    python3 perfbench/run.py --workload prod-stream --seed 1 --seconds 10 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the checkout this file sits in, never from site-packages. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics, the tracing overhead
among them, and writes every span to ``perfbench/out/``. Metric names and
units come from BENCHMARK.json. The last line of standard output is the
result object; lines before it are for people.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much time is spent, for a steady median
def single_blas_thread() -> int:
    """One BLAS thread. On a 2-vCPU VM a second BLAS thread made repeated
    runs of one seed vary by 30% instead of 10%, and it was slower on the
    tall-skinny QR that dominates prod-stream."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def import_kmerge():
    src = ROOT / "src"
    if not (src / "kmerge" / "__init__.py").is_file():
        sys.exit(f"benchmark: no kmerge package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import kmerge

    if Path(kmerge.__file__).resolve().parent != (src / "kmerge").resolve():
        sys.exit(f"benchmark: imported kmerge from {kmerge.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = single_blas_thread()
    import_kmerge()
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS, Clock, Reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(nproc)
    print("env " + json.dumps(env))
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    reference = Reference()

    setups = []
    while len(setups) < SETUP_REPS or (sum(setups) < SETUP_MIN_S and len(setups) < 50):
        clock = Clock(reference, tracer, f"setup-{len(setups)}")
        with clock.section():
            workload.setup()
        setups.append(clock.wall)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    passes, traced, untraced = [], [], []
    try:
        warm = [workload.run_pass(Clock(reference), workdir)] if workload.WARM_UP_PASS else []
        measured = 0.0
        while not passes or measured < args.seconds or (args.trace and not traced):
            trace_this = bool(args.trace) and len(untraced) > len(traced)
            phase = f"pass-{len(passes)}"
            clock = Clock(reference, tracer if trace_this else None, phase)
            result = workload.run_pass(clock, workdir)
            if tracer is not None:
                tracer.add(phase, result.counts)
            (traced if trace_this else untraced).append((phase, clock.wall))
            passes.append(result)
            measured += clock.wall
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir)

    failures = [f for r in warm + passes for f in r.failures]
    attempted = sum(r.attempted for r in warm + passes)
    for failure in failures:
        print("CHECK FAILED " + failure)
    ingest_ms = [ms for r in passes for ms in r.ingest_ms]
    merge_ms = [ms for r in passes for ms in r.merge_ms]
    print(f"passes {len(passes)} after {len(warm)} warm-up; ingests {len(ingest_ms)}; merges {len(merge_ms)}; "
          f"setups {len(setups)}; attempted {attempted}; failed {len(failures)}; "
          f"error_rate {len(failures) / attempted:.6g}")

    ref_s = reference.seconds
    wall = {
        "ingests_per_s": (len(ingest_ms) / sum(r.ingest_wall for r in passes), "1/s", len(ingest_ms)),
        "merge_p50_ms": (statistics.median(merge_ms), "ms", len(merge_ms)),
        "ingest_p95_ms": (float(np.percentile(ingest_ms, 95)), "ms", len(ingest_ms)),
        "persist_s": (statistics.median(r.persist_s for r in passes), "s", sum(r.persists for r in passes)),
        "restore_s": (statistics.median(r.restore_s for r in passes), "s", sum(r.restores for r in passes)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    print(f"reference kernel {1e3 * ref_s:.4g} ms (median of {len(reference.samples)})")
    for name, (value, unit, count) in wall.items():
        print(f"wall-clock {name:29s} {value:>18.6g} {unit}  (n={count})")

    if args.trace:
        values = trace_metrics(tracer, traced, untraced, setups, args)
    else:
        values = {
            "setup_s": wall["setup_s"][0],
            "ingests_per_ref": wall["ingests_per_s"][0] * ref_s,
            "merge_p50_ref": wall["merge_p50_ms"][0] / 1e3 / ref_s,
            "ingest_p95_ref": wall["ingest_p95_ms"][0] / 1e3 / ref_s,
            "persist_ref": wall["persist_s"][0] / ref_s,
            "restore_ref": wall["restore_s"][0] / ref_s,
            "store_bytes": statistics.median(r.store_bytes for r in passes),
            "peak_rss_mib": peak_rss_mib,
            "final_score": statistics.median(r.final_score for r in passes),
            "consistency": statistics.median(r.consistency for r in passes),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>18.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


def trace_metrics(tracer, traced, untraced, setups, args) -> dict:
    per_pass = [tracer.phase_metrics(phase, wall) for phase, wall in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["bench.generate_suite_s"] = statistics.median(
        tracer.generate_suite_s(f"setup-{i}") for i in range(len(setups))
    )
    wall = statistics.median(w for _, w in traced)
    base = statistics.median(w for _, w in untraced)
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": base,
        "trace.overhead_s": wall - base,
        "trace.overhead_share": (wall - base) / base,
    })
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "columns": ["span", "parent", "trace", "name", "start", "end", "phase", "counts"],
        "spans": tracer.spans,
    }))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
