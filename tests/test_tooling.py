"""The benchmark's tracer wraps package names; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _targets()])
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
