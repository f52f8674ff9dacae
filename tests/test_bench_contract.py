"""The benchmark's tracer binds prs4d names; a refactor must keep them.

perfbench/tracing.py shims functions by module attribute and reads some of
their arguments by name. A renamed function or argument there would drop a
per-layer metric silently, so this checks the contract directly.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_callable(tracing):
    for name, places in tracing.TARGETS.items():
        for mod, attr in places:
            module = importlib.import_module(f"prs4d.{mod}")
            assert callable(getattr(module, attr, None)), f"{name}: {mod}.{attr}"


@pytest.mark.parametrize("mod, attr, params", [
    ("channel", "ssfm_span", ("signal", "fiber", "step_km")),
    ("demapper", "llrs_for_points", ("y", "c", "model")),
])
def test_counted_arguments_keep_their_names(mod, attr, params):
    fn = getattr(importlib.import_module(f"prs4d.{mod}"), attr)
    assert tuple(inspect.signature(fn).parameters)[:3] == params
