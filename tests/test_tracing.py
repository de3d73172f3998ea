"""The benchmark's tracer patches kmerge attributes by name; each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_patch_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing._patch_table()
        if attr not in owner.__dict__
    ]
    assert not missing, f"perfbench/tracing.py wraps attributes that no longer exist: {missing}"
