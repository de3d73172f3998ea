"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py --workload sim-grid --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median, its quartiles (``statistics.quantiles`` with
n=4), the spread (third minus first quartile, as a share of the median) and
the bound from BENCHMARK.json. A spread above a third of its bound is
flagged, except for ``setup_s``, whose spread is not bounded. The spreads
of the raw wall-clock figures follow, for comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, help="also write every run's result here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # Wall-clock figures are printed for people; keep them to show how
        # far the reference kernel narrows their spread.
        wall = {line.split()[1]: float(line.split()[2]) for line in lines if line.startswith("wall-clock ")}
        runs.append({"seed": seed, **result, "wall_clock": wall})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    worst = 0.0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:16s} median {statistics.median(values):14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
              f"  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    for name in runs[0]["wall_clock"]:
        values = [run["wall_clock"][name] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"wall-clock {name:16s} median {statistics.median(values):14.6g}"
              f"  spread {(q3 - q1) / statistics.median(values):7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
