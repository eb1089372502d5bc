"""The benchmark tracer's layer targets name functions that exist.

perfbench/tracer.py only warns about a target it cannot find, and that
target's per-layer metrics then read 0; a rename in the library would zero
them silently.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_to_a_library_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, path in tracer.TARGETS:
        owner = importlib.import_module(f"torushecke.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{path}"
