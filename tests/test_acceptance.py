"""End-to-end acceptance gate.

Every test here prints exactly one [PASS]/[FAIL] line with its key
measurements; run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they complete.  Tolerances and time budgets are asserted
as well, so a plain pytest run fails loudly without the printout.
The one-time import of scipy.signal, which the resolvent sweeps load on
first use, happens once in a fixture and never counts against a time
budget.
"""

import json
import math
import time

import numpy as np
import pytest

from mildsim.cli import main as cli_main
from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.hjm import build_hjm, simulate_forward_rates
from mildsim.noise import NoiseConfig
from mildsim.operators import OperatorSuite, run_contraction_battery, run_submarkov_battery
from mildsim.smoothing import (ito_residual, penalty_eval, run_jensen_battery,
                               run_pairing_battery, smooth_energy)
from mildsim.solver import SolverConfig, lambda_convergence_study


@pytest.fixture(scope="module", autouse=True)
def _warm():
    import scipy.signal  # noqa: F401


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def test_a_resolvent_closed_forms():
    t0 = time.perf_counter()
    g = Grid.uniform(30.0, 2000, 3.0)
    suite = OperatorSuite(g)
    worst_const = 0.0
    for lam in (1e-4, 1e-2, 1.0, 100.0):
        f = GridFunction.constant(g, 2.0)
        got = suite.resolvent(f, lam)
        want = 2.0 / (1.0 + lam * g.alpha)
        err = max(np.abs(got.values - want).max(), abs(got.tail_value - want))
        worst_const = max(worst_const, err / want)
    f = GridFunction.from_callable(g, lambda x: np.exp(-x))
    got = suite.resolvent(f, 1e-4)
    want = np.exp(-g.nodes) / (1.0 + 1e-4 * (g.alpha + 1.0))
    decay_err = float(np.abs(got.values - want).max())
    dt_s = time.perf_counter() - t0
    ok = worst_const <= 1e-10 and decay_err <= 1e-6 and dt_s < 1.0
    _report(
        "resolvent-closed-forms",
        ok,
        f"const rel err {worst_const:.2e} (tol 1e-10), "
        f"decay-mode sup err {decay_err:.2e} (tol 1e-6), {dt_s:.2f}s",
    )
    assert ok


def test_b_order_and_contraction_batteries():
    t0 = time.perf_counter()
    g = Grid.uniform(10.0, 200001, 1.0)
    suite = OperatorSuite(g)
    sub = run_submarkov_battery(suite, 500, seed=2026)
    con = run_contraction_battery(suite, 500, seed=2027)
    dt_s = time.perf_counter() - t0
    ok = sub.passed and con.passed and dt_s < 30.0
    _report(
        "order-and-contraction-batteries",
        ok,
        f"submarkov {sub.n_violations}/500 over tol (worst {sub.worst_excess:.2e}), "
        f"l1-contraction {con.n_violations}/500 (worst {con.worst_excess:.2e}), {dt_s:.1f}s",
    )
    assert ok


def test_c_pairing_and_jensen_batteries():
    t0 = time.perf_counter()
    g = Grid.uniform(10.0, 200001, 1.0)
    suite = OperatorSuite(g)
    pair = run_pairing_battery(suite, 1000, seed=2028)
    jen = run_jensen_battery(suite, 1000, seed=2029)
    dt_s = time.perf_counter() - t0
    ok = pair.passed and jen.passed and dt_s < 60.0
    _report(
        "pairing-and-jensen-batteries",
        ok,
        f"monotone-pairing {pair.n_violations}/1000 over tol (worst {pair.worst_excess:.2e}), "
        f"jensen-chain {jen.n_violations}/1000 (worst {jen.worst_excess:.2e}), {dt_s:.1f}s",
    )
    assert ok


def test_d_penalty_family_closed_forms():
    t0 = time.perf_counter()
    r = np.linspace(-10.0, 10.0, 40001)
    neg = np.minimum(r, 0.0)
    limit = neg * neg / 2.0
    eg = Grid.uniform(40.0, 4001, 1.0)
    flat = GridFunction.constant(eg, -1.0)
    problems = []
    prev = None
    for n in (1.0, 10.0, 100.0, 1000.0):
        want_deep = 0.5 - 1.0 / (2.0 * n) + 1.0 / (6.0 * n * n)
        if penalty_eval(n, -1.0) != pytest.approx(want_deep, rel=1e-12):
            problems.append(f"deep value n={n}")
        if penalty_eval(n, -0.5 / n) != pytest.approx(1.0 / (48.0 * n * n), rel=1e-12):
            problems.append(f"knee-region value n={n}")
        dev = np.abs(penalty_eval(n, r, 1) - neg)
        bound = 1.0 / (2.0 * n)
        if not (dev.max() <= bound + 5e-13 and dev.max() >= bound - 5e-13):
            problems.append(f"derivative bound n={n}")
        vals = penalty_eval(n, r)
        if not (vals <= limit + 1e-15).all():
            problems.append(f"from-below n={n}")
        if prev is not None and not (vals >= prev - 1e-15).all():
            problems.append(f"monotone in n at n={n}")
        prev = vals
        want_e = 0.25 - 1.0 / (4.0 * n) + 1.0 / (12.0 * n * n)
        if smooth_energy(n, flat) != pytest.approx(want_e, rel=1e-12):
            problems.append(f"flat energy n={n}")
    dt_s = time.perf_counter() - t0
    if dt_s >= 1.0:
        problems.append("slow")
    ok = not problems
    _report(
        "penalty-family-closed-forms",
        ok,
        f"n in {{1,10,100,1000}}, derivative bound within 5e-13, {dt_s:.2f}s"
        + ("" if ok else f"; problems: {problems}"),
    )
    assert ok, problems


def test_e_energy_identity_convergence():
    t0 = time.perf_counter()
    g = Grid.uniform(5.0, 251, 1.0)
    v0 = GridFunction.from_callable(g, lambda x: 0.3 * np.sin(1.7 * x) - 0.05)
    drift = GridFunction.from_callable(g, lambda x: 0.4 * np.cos(x) - 0.2)
    n = 50.0
    det = []
    for dt, steps in ((1e-2, 100), (5e-3, 200), (2.5e-3, 400)):
        det.append(ito_residual(n, v0, drift, dt=dt, n_steps=steps).totals[0])
    orders = [math.log2(det[i] / det[i + 1]) for i in (0, 1)]
    m1 = GridFunction.from_callable(g, lambda x: 0.25 * np.exp(-0.3 * x))
    m2 = GridFunction.constant(g, 0.1)
    means = []
    streams = [NoiseConfig(314, p) for p in range(1000)]
    for dt, steps in ((1e-2, 100), (2.5e-3, 400)):
        rep = ito_residual(n, v0, drift, (m1, m2), dt=dt, n_steps=steps, noise_cfgs=streams)
        tot = 0.0
        for total in rep.totals:
            tot += abs(total)
        means.append(tot / 1000.0)
    dt_s = time.perf_counter() - t0
    ok = all(o >= 0.9 for o in orders) and means[1] < means[0] and dt_s < 120.0
    _report(
        "energy-identity-convergence",
        ok,
        f"deterministic orders {orders[0]:.3f}/{orders[1]:.3f} (need >=0.9), "
        f"noisy mean residual {means[0]:.3e} -> {means[1]:.3e} over 1000 paths, {dt_s:.1f}s",
    )
    assert ok


def test_f_capped_volatility_stays_positive():
    t0 = time.perf_counter()
    built = build_hjm(
        modes=(ModeFunction("proportional-capped", c=8.0, cap=2e-4),),
        u0=GridFunction.constant(Grid.uniform(1.0, 1001, 0.5), 4e-4),
    )
    rep_ok = built.report.violations == 0 and 0.0 < built.report.estimated_c < 10.0
    ens_a, stats_a, verdict_a = simulate_forward_rates(built, 2e-3, 1.0, 1000, 2026)
    ens_b, stats_b, verdict_b = simulate_forward_rates(built, 1e-3, 1.0, 1000, 2026)
    frac_a = float(stats_a.frac_below[-1e-3][-1])
    frac_b = float(stats_b.frac_below[-1e-3][-1])
    e_a = float(stats_a.neg_energy_mean[-1])
    e_b = float(stats_b.neg_energy_mean[-1])
    ratio_ok = e_b == 0.0 or e_a / e_b >= 1.8
    s = (np.exp(-2.0 * built.report.c_const * stats_a.times)[None, :]
         * ens_a.neg_energy)
    d = np.diff(s, axis=1)
    mean_inc = d.mean(axis=0)
    se_inc = d.std(axis=0, ddof=1) / math.sqrt(d.shape[0])
    n_up = int((mean_inc > 2.0 * se_inc + 1e-16).sum())
    dt_s = time.perf_counter() - t0
    ok = (
        rep_ok
        and ens_a.n_aborted == 0
        and ens_b.n_aborted == 0
        and frac_a == 0.0
        and frac_b == 0.0
        and ratio_ok
        and n_up == 0
        and verdict_a == "consistent-with-theorem"
        and verdict_b == "consistent-with-theorem"
        and dt_s < 300.0
    )
    ratio_txt = "inf" if e_b == 0.0 else f"{e_a / e_b:.1f}"
    _report(
        "capped-volatility-stays-positive",
        ok,
        f"admissible (c={built.report.c_const:.3g}), frac below -1e-3: {frac_a:.0%}/{frac_b:.0%}, "
        f"neg-energy halving ratio {ratio_txt} (need >=1.8), "
        f"{n_up} upward drift steps, verdicts {verdict_a}/{verdict_b}, {dt_s:.1f}s",
    )
    assert ok


def test_g_flat_volatility_goes_negative():
    t0 = time.perf_counter()
    built = build_hjm(
        modes=(ModeFunction("constant", c=0.2),),
        u0=GridFunction.constant(Grid.uniform(1.0, 501, 0.5), 0.01),
    )
    ens, _, verdict = simulate_forward_rates(built, 2e-3, 1.0, 10000, 7)
    p_neg = float((ens.final_values[:, 0] < 0.0).mean())
    target = 0.44038
    dt_s = time.perf_counter() - t0
    ok = (
        built.report.violations > 0
        and ens.n_aborted == 0
        and abs(p_neg - target) <= 0.02
        and verdict == "counterexample-regime"
        and dt_s < 300.0
    )
    _report(
        "flat-volatility-goes-negative",
        ok,
        f"coefficient check violations {built.report.violations}, "
        f"P(short rate < 0 at t=1) = {p_neg:.4f} vs {target} (tol 0.02), "
        f"verdict {verdict}, {dt_s:.1f}s",
    )
    assert ok


def test_h_regularized_paths_converge():
    t0 = time.perf_counter()
    g = Grid.uniform(2.0, 401, 0.5)
    suite = OperatorSuite(g)
    model = CoefficientModel(
        g,
        (ModeFunction("level-scaled", c=0.3, cap=0.05, decay=1.0),),
        drift="hjm",
        alpha_correction=0.5,
    )
    u0 = GridFunction.from_callable(g, lambda x: 0.02 + 0.01 * np.exp(-x))
    cfg = SolverConfig(dt=5e-3, t_final=0.5)
    lams = (0.2, 0.1, 0.05, 0.025)
    good = 0
    streams = [NoiseConfig(seed) for seed in range(100, 120)]
    for ds in lambda_convergence_study(u0, suite, model, cfg, streams, lams)[0]:
        if all(d > 0.0 for d in ds) and all(ds[i] > ds[i + 1] for i in range(len(ds) - 1)):
            good += 1
    dt_s = time.perf_counter() - t0
    ok = good == 20 and dt_s < 300.0
    _report(
        "regularized-paths-converge",
        ok,
        f"{good}/20 seeds strictly decreasing over lam {lams}, {dt_s:.1f}s",
    )
    assert ok


def test_i_cli_reruns_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "experiment": "hjm",
        "grid": {"x_max": 1.0, "n_nodes": 201, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "proportional-capped", "c": 8.0, "cap": 2e-4}],
            "initial": {"flat": 4e-4},
        },
        "run": {"dt": 5e-3, "t_final": 0.05, "n_paths": 10, "seed": 2026},
        "check": {"n_samples": 20, "seed": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(["hjm", "--config", str(path), "--out", str(d1)])
    rc2 = cli_main(["hjm", "--config", str(path), "--out", str(d2)])
    names = ("ensemble.csv", "curve.csv", "manifest.json")
    same = [(d1 / f).read_bytes() == (d2 / f).read_bytes() for f in names]
    dt_s = time.perf_counter() - t0
    ok = rc1 == 0 and rc2 == 0 and all(same)
    _report(
        "cli-reruns-are-byte-identical",
        ok,
        f"exit codes {rc1}/{rc2}, identical files {sum(same)}/3, {dt_s:.1f}s",
    )
    assert ok
