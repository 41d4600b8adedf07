"""The benchmark's tooling: the names its tracer wraps must still exist and
record spans, and the CLI must validate a config without loading numpy or
scipy.  The package's public names, each module's __all__, must resolve
too."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _small_cfgs

import mildsim
from mildsim import solver
from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.operators import OperatorSuite

TESTS = Path(__file__).resolve().parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"


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


def _fresh(code, *args):
    """The stdout of a fresh interpreter that runs code with args as sys.argv[1:]."""
    src = str(TESTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


# modules that a config check must not load, and the expression for those loaded
_HEAVY = ("numpy", "scipy", "mildsim.kernels", "mildsim.noise")
_LOADED = f"sorted(m for m in sys.modules if m.startswith({_HEAVY!r}))"


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy loads on first use: a top-level scipy.signal import once took
    # most of the CLI's import time, which the benchmark's setup_s counts.
    # numpy, the kernels and the noise streams load when a run starts, so
    # the package import, --validate-only and a config error load none
    assert _fresh(f"import sys, mildsim.cli; print({_LOADED})").strip() == "[]"
    assert _fresh(f"import sys, mildsim; print({_LOADED})").strip() == "[]"
    run = f"import sys; from mildsim.cli import main; print(main(sys.argv[1:]), {_LOADED})"
    for experiment, cfg in _small_cfgs().items():
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(cfg))
        argv = [experiment, "--config", str(path), "--out", str(tmp_path / "out")]
        out = _fresh(run, *argv, "--validate-only").splitlines()
        assert out == ["config valid", "0 []"], experiment
    # a grid whose tail weight is too large: exit 2 from the parser's last check
    argv = ["hjm", "--config", str(tmp_path / "hjm.json"), "--out", str(tmp_path / "out")]
    out = _fresh(run, *argv, "--set", "grid.alpha=1e-300").splitlines()
    assert out == ["2 []"] and not (tmp_path / "out").exists()


def _traced_spans(argvs, install_first):
    """The span names a Tracer records over cli.main runs of argvs; it is
    installed before any run, or after one run of argvs[0]."""
    from mildsim import cli

    tracer = _tracing().Tracer()
    if install_first:  # the runners' names are not bound yet
        assert "lambda_convergence_study" not in vars(cli)
    else:
        assert cli.main(argvs[0]) == 0
    tracer.install()
    try:
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return sorted({span[0] for span in tracer.spans})


@pytest.mark.parametrize("install_first", [True, False], ids=["before-a-run", "after-a-run"])
def test_tracer_records_through_the_cli_lazy_names(tmp_path, install_first):
    # the CLI binds its runners' names when the first run starts; a tracer
    # that looked them up before must keep its wrappers, in a fresh
    # interpreter where nothing has run yet
    cfgs = _small_cfgs()
    argvs = []
    for experiment in ("hjm", "ito-check", "lambda-study"):
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(cfgs[experiment]))
        argvs.append([experiment, "--config", str(path), "--out", str(tmp_path / experiment)])
    code = (f"import json, sys; sys.path.insert(0, {str(TESTS)!r}); "
            "from test_tooling import _traced_spans; "
            f"print(json.dumps(_traced_spans(json.loads(sys.argv[1]), {install_first})))")
    spans = json.loads(_fresh(code, json.dumps(argvs)).splitlines()[-1])
    assert {"config.load_config", "cli.write", "solver.run_ensemble", "smoothing.ito_residual",
            "solver.lambda_convergence_study"} <= set(spans)


# cli has no __all__: its public face is the command line
@pytest.mark.parametrize("module", ["mildsim"] + [f"mildsim.{m.name}" for m in
                                                  pkgutil.iter_modules(mildsim.__path__)
                                                  if m.name != "cli"])
def test_public_names_resolve(module):
    # a stale name in an __all__ breaks only `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
