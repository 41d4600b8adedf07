"""The benchmark's tooling: the names its tracer wraps must still exist, and
importing the CLI must load no scipy module.  The package's public names,
each module's __all__, must resolve too."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mildsim
from mildsim import solver
from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.operators import OperatorSuite

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _tracing().TARGETS])
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_counts_the_kernels_work():
    # The tracer reads simulate_batch's v0 and dW and resolvent_sweep's
    # node row by their positions: 5 paths of 5 steps on 51 nodes, in two
    # chunks, then one resolvent
    tracing = _tracing()
    g = Grid.uniform(1.0, 51, 0.5)
    model = CoefficientModel(g, modes=(ModeFunction("constant", c=0.1),), drift="hjm")
    suite = OperatorSuite(g)
    cfg = solver.SolverConfig(dt=0.02, t_final=0.1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ens = solver.run_ensemble(GridFunction.constant(g, 0.01), suite, model, cfg, 5, seed=1,
                                  chunk_size=3)
        suite.resolvent(GridFunction.constant(g, 1.0), 0.1)
    finally:
        tracer.uninstall()
    assert ens.neg_energy.shape == (5, 6)
    tot, outlasted = tracer.round_totals(0)
    assert outlasted == 0
    assert tot["kernels.simulate_batch"]["calls"] == 2
    assert tot["kernels.resolvent_sweep"]["calls"] == 1
    metrics = tracing.layer_metrics(tot)
    assert metrics["kernels.path_steps"] == 5 * 5
    assert metrics["kernels.node_steps"] == 5 * 5 * 51
    assert tot["kernels.resolvent_sweep"]["nodes"] == 51


def test_cli_import_loads_no_scipy():
    # scipy loads on first use: a top-level scipy.signal import once took
    # most of the CLI's import time, which the benchmark's setup_s counts
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, mildsim.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip() == "[]"


# cli has no __all__: its public face is the command line
@pytest.mark.parametrize("module", ["mildsim"] + [f"mildsim.{m.name}" for m in
                                                  pkgutil.iter_modules(mildsim.__path__)
                                                  if m.name != "cli"])
def test_public_names_resolve(module):
    # a stale name in an __all__ breaks only `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
