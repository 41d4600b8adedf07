"""Command line front end.

    mildsim EXPERIMENT --config run.json [options]

Experiments: simulate, hjm, coeff-check, operator-tests, lambda-study,
ito-check.  Every run writes a manifest.json plus experiment-specific
CSV files into the output directory; file contents are byte-identical
across reruns of the same configuration.

Exit codes: 0 success, 2 invalid configuration, an output directory
that cannot be made or a run whose arrays cannot be allocated, 3 an
--assert condition failed, 4 a simulated path aborted (blow-up or
non-finite state).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .coefficients import estimate_positivity_constant
from .config import (
    EXPERIMENTS,
    Config,
    ConfigError,
    as_json,
    build_grid,
    build_initial,
    build_model,
    build_modes,
    load_config,
)
from .hjm import NEG_THRESHOLD, build_hjm, simulate_forward_rates
from .noise import NoiseConfig
# the run_*_battery names stay for perfbench/tracing.py, which wraps them here
from .operators import (CONTRACTION, SUBMARKOV, OperatorSuite, run_battery,  # noqa: F401
                        run_contraction_battery, run_submarkov_battery)
from .smoothing import (JENSEN, PAIRING, ito_residual, run_jensen_battery,  # noqa: F401
                        run_pairing_battery)
from .solver import (
    DEFAULT_THRESHOLDS,
    SolverConfig,
    ensemble_stats,
    lambda_convergence_study,
    run_ensemble,
)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _json_safe(x):
    """x with each non-finite float as the string _fmt prints for it: inf, -inf or nan."""
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return _fmt(x) if isinstance(x, float) and not np.isfinite(x) else x


def _write_manifest(outdir: Path, payload: dict) -> None:
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    (outdir / "manifest.json").write_text(text + "\n")


def _stats_rows(stats):
    cols = [stats.times, stats.neg_energy_mean, stats.neg_energy_p95,
            stats.min_value_min, stats.supermartingale_mean]
    cols += [stats.frac_below[float(t)] for t in DEFAULT_THRESHOLDS]
    return np.column_stack(cols)


_STATS_HEADER = [
    "t",
    "neg_energy_mean",
    "neg_energy_p95",
    "min_value_min",
    "supermartingale_mean",
] + [f"frac_below_{abs(t):.0e}" for t in DEFAULT_THRESHOLDS]


def _curve_rows(ens):
    vals = ens.final_values[ens.aborted < 0]
    if len(vals) == 0:  # every path aborted
        return np.column_stack([ens.grid.nodes] + [np.full(ens.grid.n, np.nan)] * 3)
    mean = vals.mean(axis=0)
    p5 = np.percentile(vals, 5, axis=0)
    p95 = np.percentile(vals, 95, axis=0)
    return np.column_stack([ens.grid.nodes, mean, p5, p95])


_CURVE_HEADER = ["x", "u_mean", "u_p5", "u_p95"]


def _model_and_initial(cfg: Config):
    grid = build_grid(cfg.grid)
    return build_model(cfg.model, grid), build_initial(cfg.model.initial, grid)


def _exp_simulate(cfg: Config, outdir: Path) -> tuple[dict, bool, bool]:
    model, u0 = _model_and_initial(cfg)
    suite = OperatorSuite(model.grid, shifted=True)
    r = cfg.run
    scfg = SolverConfig(r.dt, r.t_final, r.scheme, r.lam, blow_threshold=r.blow_threshold)
    ens = run_ensemble(u0, suite, model, scfg, r.n_paths, r.seed, r.stream_base, r.chunk_size)
    c_const = r.c_const
    if c_const is None:  # the check section asks for the estimate (parse_config)
        ck = cfg.check
        c_const = estimate_positivity_constant(model, n_samples=ck.n_samples, seed=ck.seed).c_const
    stats = ensemble_stats(ens, c_const=c_const)
    _write_csv(outdir / "ensemble.csv", _STATS_HEADER, _stats_rows(stats))
    results = {
        "n_paths": ens.n_paths,
        "n_aborted": ens.n_aborted,
        "c_const": c_const,
        "final_neg_energy_mean": float(stats.neg_energy_mean[-1]),
        "final_min_value": float(stats.min_value_min[-1]),
    }
    aborted = ens.n_aborted > 0
    return {"results": results, "outputs": ["ensemble.csv"]}, not aborted, aborted


def _exp_hjm(cfg: Config, outdir: Path) -> tuple[dict, bool, bool]:
    m, r = cfg.model, cfg.run
    grid = build_grid(cfg.grid)
    built = build_hjm(build_modes(m, grid), build_initial(m.initial, grid), m.alpha_in_drift,
                      cfg.check.n_samples, cfg.check.seed)
    ens, stats, verdict = simulate_forward_rates(built, r.dt, r.t_final, r.n_paths, r.seed,
                                                 r.scheme, r.chunk_size)
    _write_csv(outdir / "ensemble.csv", _STATS_HEADER, _stats_rows(stats))
    _write_csv(outdir / "curve.csv", _CURVE_HEADER, _curve_rows(ens))
    results = {
        "verdict": verdict,
        "check": asdict(built.report),
        "c_const": built.report.c_const,
        "n_paths": ens.n_paths,
        "n_aborted": ens.n_aborted,
        "final_neg_energy_mean": float(stats.neg_energy_mean[-1]),
        "final_frac_below_1e-03": float(stats.frac_below[NEG_THRESHOLD][-1]),
    }
    aborted = ens.n_aborted > 0
    passed = not aborted
    if cfg.expect_verdict is not None:
        passed = passed and (verdict == cfg.expect_verdict)
    return {"results": results, "outputs": ["ensemble.csv", "curve.csv"]}, passed, aborted


def _exp_coeff_check(cfg: Config, outdir: Path) -> tuple[dict, bool, bool]:
    grid = build_grid(cfg.grid)
    model = build_model(cfg.model, grid)
    ck = cfg.check
    rep = estimate_positivity_constant(model, n_samples=ck.n_samples, seed=ck.seed)
    results = {**asdict(rep), "admissible": rep.admissible}
    return {"results": results, "outputs": []}, rep.admissible == ck.expect_admissible, False


def _exp_operator_tests(cfg: Config, outdir: Path) -> tuple[dict, bool, bool]:
    # The resolvent sweeps import scipy.signal on first use.  Importing it
    # before the grid arrays keeps its long-lived objects from sitting
    # above them in the heap, which held peak memory 0.7 MB higher on
    # repeated 200k-node runs in one process.
    import scipy.signal  # noqa: F401

    suite = OperatorSuite(build_grid(cfg.grid), shifted=True)
    n, seed, tol = cfg.check.n_samples, cfg.check.seed, cfg.check.tol
    reports = run_battery(suite, [SUBMARKOV, CONTRACTION, PAIRING, JENSEN], n, seed, tol=tol)
    results = {rep.label: {k: v for k, v in asdict(rep).items() if k != "label"} for rep in reports}
    _write_csv(
        outdir / "operator_tests.csv",
        ["worst_excess", "n_violations", "n_checks"],
        [[rep.worst_excess, rep.n_violations, rep.n_checks] for rep in reports],
    )
    passed = all(rep.passed for rep in reports)
    return {"results": results, "outputs": ["operator_tests.csv"]}, passed, False


def _exp_lambda_study(cfg: Config, outdir: Path) -> tuple[dict, bool, bool]:
    model, u0 = _model_and_initial(cfg)
    suite = OperatorSuite(model.grid, shifted=True)
    r = cfg.run
    # the study sets lam and snapshot_stride itself
    scfg = SolverConfig(r.dt, r.t_final, r.scheme, blow_threshold=r.blow_threshold)
    lams, n_seeds, seed0 = cfg.lambda_study.lams, cfg.lambda_study.n_seeds, r.seed
    streams = [NoiseConfig(model.n_modes, seed0 + i) for i in range(n_seeds)]
    study = lambda_convergence_study(u0, suite, model, scfg, streams, lams)
    rows = [[seed0 + i, lam, d] for i, ds in enumerate(study) for lam, d in zip(lams, ds)]
    all_monotone = not (study[:, 1:] >= study[:, :-1]).any()
    sums = np.add.accumulate(study)[-1]  # the seeds in order, as a sequential sum
    _write_csv(outdir / "lambda_study.csv", ["seed", "lam", "sup_distance"], rows)
    results = {
        "lams": list(lams),
        "mean_sup_distance": [float(s) / n_seeds for s in sums],
        "n_seeds": n_seeds,
        "all_seeds_monotone": all_monotone,
    }
    return {"results": results, "outputs": ["lambda_study.csv"]}, all_monotone, False


def _exp_ito_check(cfg: Config, outdir: Path) -> tuple[dict, bool, bool]:
    model, u0 = _model_and_initial(cfg)
    it = cfg.ito
    n, dts, t_final, n_paths, seed = it.n, it.dt_values, it.t_final, it.n_paths, it.seed
    modes, drift = model.coefficients(u0)
    det_tot = []
    sto_mean = []
    for dt in dts:
        n_steps = int(round(t_final / dt))
        rep = ito_residual(n, u0, drift, (), dt=dt, n_steps=n_steps)
        det_tot.append(abs(rep.totals[0]))
        if modes:
            streams = [NoiseConfig(len(modes), seed, stream_id=p) for p in range(n_paths)]
            sto = ito_residual(n, u0, drift, modes, dt=dt, n_steps=n_steps, noise_cfgs=streams)
            acc = 0.0
            for total in sto.totals:  # a sequential sum in path order fixes the rounding
                acc += abs(total)
            sto_mean.append(acc / n_paths)
        else:
            sto_mean.append(0.0)
    orders = [
        float(np.log(det_tot[i] / det_tot[i + 1]) / np.log(dts[i] / dts[i + 1]))
        for i in range(len(dts) - 1)
        if det_tot[i + 1] > 0
    ]
    det_order = min(orders) if orders else float("inf")
    sto_decreasing = all(b < a for a, b in zip(sto_mean, sto_mean[1:])) if modes else True
    rows = [[dt, d, s] for dt, d, s in zip(dts, det_tot, sto_mean)]
    _write_csv(outdir / "ito_check.csv", ["dt", "det_total_abs", "sto_mean_abs"], rows)
    results = {
        "penalty_n": n,
        "dt_values": dts,
        "det_total_abs": [float(x) for x in det_tot],
        "det_order": det_order,
        "sto_mean_abs": [float(x) for x in sto_mean],
        "sto_decreasing": sto_decreasing,
    }
    # a run with no measured order has not shown the first-order residual
    passed = bool(orders) and det_order >= 0.9 and sto_decreasing
    return {"results": results, "outputs": ["ito_check.csv"]}, passed, False


def _check_outdir(outdir: Path, made: list) -> None:
    """Raise the OSError that making made, outdir's missing part, would raise, without making it."""
    probe = made[-1].parent if made else outdir
    # lstat's errors but FileNotFoundError, such as a name too long, are mkdir's
    for path in (outdir, *(probe / d.name for d in made)):
        with contextlib.suppress(FileNotFoundError):
            os.lstat(path)
    if not probe.is_dir():  # outdir, or a dangling link above it
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST))
    if made and not os.access(probe, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _fail(problem: str, made: list) -> int:
    """Exit code 2 after a config error line; each of made goes while it is empty."""
    print(f"config error: {problem}", file=sys.stderr)
    for d in made:
        with contextlib.suppress(OSError):
            d.rmdir()
    return 2


_RUNNERS = {
    "simulate": _exp_simulate,
    "hjm": _exp_hjm,
    "coeff-check": _exp_coeff_check,
    "operator-tests": _exp_operator_tests,
    "lambda-study": _exp_lambda_study,
    "ito-check": _exp_ito_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mildsim",
        description="Simulate mild solutions of stochastic transport equations "
        "and run their positivity diagnostics.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                        help="override one config value (JSON-parsed)")
    parser.add_argument("--seed", type=int, help="shorthand for --set run.seed=...")
    parser.add_argument("--paths", type=int, help="shorthand for --set run.n_paths=...")
    parser.add_argument("--dt", type=float, help="shorthand for --set run.dt=...")
    parser.add_argument("--out", help="output directory (default: config, then $MILDSIM_OUT)")
    parser.add_argument("--assert", dest="do_assert", action="store_true",
                        help="exit 3 unless the experiment's pass condition holds")
    parser.add_argument("--validate-only", action="store_true",
                        help="check the configuration and exit")
    args = parser.parse_args(argv)

    overrides = list(args.set)
    for key, value in (("seed", args.seed), ("n_paths", args.paths), ("dt", args.dt)):
        if value is not None:
            overrides.append(f"run.{key}={value}")
    try:
        cfg = load_config(args.config, args.experiment, overrides)
    except ConfigError as e:
        for line in e.problems:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    outdir = Path(
        args.out
        or cfg.output.dir
        or os.environ.get("MILDSIM_OUT")
        or "mildsim-out"
    )
    made = [d for d in (outdir, *outdir.parents) if not os.path.lexists(d)]  # deepest first
    try:
        if args.validate_only:
            _check_outdir(outdir, made)
        else:
            outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        return _fail(f"output directory {outdir}: {e.strerror}", made)
    if args.validate_only:
        print("config valid")
        return 0

    try:
        payload, passed, aborted = _RUNNERS[cfg.experiment](cfg, outdir)
    except (MemoryError, OSError) as e:
        if isinstance(e, OSError) and e.errno != errno.ENOMEM:
            raise
        return _fail("the run's arrays need more memory than this machine can allocate", made)
    manifest = {
        "tool": "mildsim",
        "version": __version__,
        "backend": kernels.BACKEND,
        "experiment": cfg.experiment,
        "config": as_json(cfg),
        "passed": passed,
        **payload,
    }
    _write_manifest(outdir, manifest)
    print(f"experiment {cfg.experiment}: {'pass' if passed else 'FAIL'} "
          f"(outputs in {outdir})")
    if aborted:
        print("at least one path aborted", file=sys.stderr)
        return 4
    if args.do_assert and not passed:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
