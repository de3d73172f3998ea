"""Every demo script loads: its imports and module-level code run against
the package. ``main()`` is not called; full demo runs take seconds each."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_loads(path):
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
