import json

import numpy as np
import pytest

from mildsim.cli import main
from mildsim.coefficients import ModeFunction, PositivityReport
from mildsim.grids import Grid, GridFunction
from mildsim.hjm import (
    NEG_THRESHOLD,
    SUPERMART_TOL,
    VERDICTS,
    bond_curve,
    build_hjm,
    positivity_verdict,
    simulate_forward_rates,
)
from mildsim.noise import NoiseConfig
from mildsim.solver import EnsembleStats, SolverConfig, simulate_path
from test_noise import step_once


def flat(x_max, n_nodes, alpha, r):
    """The flat curve r on a grid of these sizes."""
    return GridFunction.constant(Grid.uniform(x_max, n_nodes, alpha), r)


def test_spec_initial_forms():
    direct = flat(1.0, 101, 0.5, 0.02)
    ug = build_hjm((), direct, check_samples=5).u0
    assert np.array_equal(ug.values, direct.values) and ug.tail_value == 0.02
    # the model and the operators live on the curve's own grid
    built = build_hjm((), flat(1.0, 101, 0.5, 0.03), check_samples=5)
    assert np.all(built.u0.values == 0.03) and built.u0.tail_value == 0.03
    assert built.model.grid is built.u0.grid and built.suite.grid is built.u0.grid
    for bad in ("flat", 0.03, lambda x: 0.01 + 0.02 * x):
        with pytest.raises(TypeError):
            build_hjm((), bad, check_samples=5)


def test_build_wiring_with_alpha_in_drift(tmp_path):
    modes = (ModeFunction("proportional-capped", c=2.0, cap=1e-3),)
    for alpha_in_drift in (True, False):
        built = build_hjm(modes, flat(1.0, 201, 0.5, 0.02), alpha_in_drift,
                          check_samples=20, check_seed=1)
        assert built.suite.shifted == alpha_in_drift
        assert built.model.alpha_correction == (0.5 if alpha_in_drift else 0.0)
        assert built.model.drift == "hjm"
        assert built.model.modes == modes
        # the manifest records the drift terms the model ran with
        cfg = {"experiment": "hjm", "grid": {"x_max": 1.0, "n_nodes": 201, "alpha": 0.5},
               "model": {"modes": [{"kind": "proportional-capped", "c": 2.0, "cap": 1e-3}],
                         "initial": {"flat": 0.02}, "alpha_in_drift": alpha_in_drift},
               "run": {"dt": 5e-3, "t_final": 1e-2, "n_paths": 2},
               "check": {"n_samples": 20, "seed": 1}}
        path, out = tmp_path / "hjm.json", tmp_path / str(alpha_in_drift)
        path.write_text(json.dumps(cfg))
        assert main(["hjm", "--config", str(path), "--out", str(out)]) == 0
        model = json.loads((out / "manifest.json").read_text())["config"]["model"]
        m = built.model
        assert (model["drift"], model["drift_c"], model["alpha_correction"]) == (
            m.drift, m.drift_c, m.alpha_correction)


def test_build_rejects_bad_modes():
    with pytest.raises(TypeError):
        build_hjm(("constant",), flat(1.0, 101, 0.5, 0.02))


def test_c_const_folds_infinite_estimate_to_zero():
    flat_vol = (ModeFunction("constant", c=0.2),)
    built = build_hjm(flat_vol, flat(1.0, 201, 0.5, 0.01), check_samples=20)
    assert built.report.violations >= 1
    assert built.report.c_const == 0.0
    capped = (ModeFunction("proportional-capped", c=8.0, cap=2e-4),)
    built2 = build_hjm(capped, flat(1.0, 501, 0.5, 4e-4), check_samples=50)
    assert built2.report.violations == 0
    assert built2.report.c_const == built2.report.estimated_c


def _stats(frac_final, supermart_final, level=NEG_THRESHOLD):
    times = np.array([0.0, 1.0])
    return EnsembleStats(
        times=times,
        neg_energy_mean=np.array([0.0, supermart_final]),
        neg_energy_p95=np.zeros(2),
        min_value_min=np.zeros(2),
        supermartingale_mean=np.array([0.0, supermart_final]),
        frac_below={level: np.array([0.0, frac_final])},
    )


def test_verdict_branches():
    ok = PositivityReport(10, 0.4, 0.4, 0)
    bad = PositivityReport(10, 100.0, np.inf, 2)
    assert positivity_verdict(ok, _stats(0.0, 0.0)) == "consistent-with-theorem"
    assert positivity_verdict(bad, _stats(0.3, 1.0)) == "counterexample-regime"
    # admissible coefficients with observed negativity prove nothing
    assert positivity_verdict(ok, _stats(0.3, 1.0)) == "inconclusive"
    # inadmissible coefficients without negativity prove nothing either
    assert positivity_verdict(bad, _stats(0.0, 0.0)) == "inconclusive"
    # a discounted energy above SUPERMART_TOL blocks the consistent verdict; at it, it does not
    assert positivity_verdict(ok, _stats(0.0, 1e-6)) == "inconclusive"
    assert positivity_verdict(ok, _stats(0.0, SUPERMART_TOL)) == "consistent-with-theorem"
    assert positivity_verdict(ok, _stats(0.0, np.nextafter(SUPERMART_TOL, 1))) == "inconclusive"
    # the bounds the README states; hand-made stats without the -1e-3 level raise
    assert (NEG_THRESHOLD, SUPERMART_TOL) == (-1e-3, 1e-8)
    with pytest.raises(KeyError):
        positivity_verdict(ok, _stats(0.0, 0.0, level=-0.5))
    for v in VERDICTS:
        assert isinstance(v, str)


def test_forward_rate_run_capped_model_is_consistent():
    capped = (ModeFunction("proportional-capped", c=8.0, cap=2e-4),)
    built = build_hjm(capped, flat(1.0, 1001, 0.5, 4e-4), check_samples=50)
    ens, stats, verdict = simulate_forward_rates(built, dt=2e-3, t_final=0.05, n_paths=20,
                                                 seed=2026)
    assert ens.n_paths == 20
    assert ens.n_aborted == 0
    assert verdict == "consistent-with-theorem"
    assert stats.frac_below[-1e-3][-1] == 0.0


def test_forward_rate_run_flat_vol_goes_negative():
    flat_vol = (ModeFunction("constant", c=0.2),)
    built = build_hjm(flat_vol, flat(1.0, 501, 0.5, 0.01), check_samples=20)
    _, stats, verdict = simulate_forward_rates(built, dt=2e-3, t_final=0.2, n_paths=200, seed=7)
    assert built.report.violations >= 1
    assert stats.frac_below[-1e-3][-1] > 0.0
    assert verdict == "counterexample-regime"


def test_alpha_placement_is_second_order():
    # absorbing the weight exponent into the operator and compensating
    # in the drift must agree with dropping it entirely, to O((alpha dt)^2)
    mode = (ModeFunction("constant", c=0.2),)
    u0 = GridFunction.from_callable(Grid.uniform(0.02, 201, 0.01),
                                    lambda x: 0.05 + 0.01 * np.sin(300.0 * x))
    a = build_hjm(mode, u0, alpha_in_drift=True, check_samples=5)
    b = build_hjm(mode, u0, alpha_in_drift=False, check_samples=5)
    cfg = SolverConfig(dt=1e-4, t_final=1e-3)
    pa = simulate_path(a.u0, a.suite, a.model, cfg, NoiseConfig(5))
    pb = simulate_path(b.u0, b.suite, b.model, cfg, NoiseConfig(5))
    assert np.abs(pa.final_values[0] - pb.final_values[0]).max() < 1e-10


def _mild_solution_error(n_nodes, dt, t_final=0.5):
    # deterministic oracle: with the noise switched off the scheme must
    # track the closed-form mild solution of the decaying-volatility
    # model at first order in dt
    c, x_max = 0.3, 4.0
    u0 = GridFunction.from_callable(Grid.uniform(x_max, n_nodes, 0.5),
                                    lambda x: 0.02 + 0.01 * np.exp(-x))
    built = build_hjm((ModeFunction("exponential-decay", c=c),), u0, alpha_in_drift=False,
                      check_samples=5)
    cfg = SolverConfig(dt=dt, t_final=dt)
    u = built.u0
    n_steps = int(round(t_final / dt))
    zero = np.zeros(1)
    for _ in range(n_steps):
        u = step_once(u, built.suite, built.model, cfg, zero)
    x = built.model.grid.nodes
    shifted = 0.02 + 0.01 * np.exp(-(x + t_final))
    drift_part = c * c * (
        np.exp(-x) * (1.0 - np.exp(-t_final))
        - 0.5 * np.exp(-2.0 * x) * (1.0 - np.exp(-2.0 * t_final))
    )
    exact = shifted + drift_part
    keep = x <= x_max - t_final - 0.1
    return float(np.abs(u.values[keep] - exact[keep]).max())


def test_zero_noise_matches_mild_solution():
    err = _mild_solution_error(801, 5e-3)
    assert err < 7e-5


def test_zero_noise_error_is_first_order_in_dt():
    e1 = _mild_solution_error(801, 5e-3)
    e2 = _mild_solution_error(1601, 2.5e-3)
    assert 1.9 < e1 / e2 < 2.1


def test_bond_curve_flat_rate():
    g = Grid.uniform(10.0, 2001, 1.0)
    u = GridFunction.constant(g, 0.03)
    x, p = bond_curve(u)
    assert np.array_equal(x, g.nodes)
    assert np.allclose(p, np.exp(-0.03 * g.nodes), rtol=1e-13)
    assert np.all(np.diff(p) < 0.0)
    assert p[0] == 1.0
