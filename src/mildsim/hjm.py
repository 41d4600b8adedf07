"""Forward-rate curves in moving coordinates with no-arbitrage drift.

The curve x -> u(t, x) holds instantaneous forward rates at time to
maturity x.  Its arbitrage-free dynamics pair the left shift with the
quadratic drift sum_k sigma_k * integral sigma_k, which is exactly the
"hjm" drift of CoefficientModel.  The weight exponent alpha can either
stay inside the operator (damped shift plus a compensating +alpha*u
drift term, the default) or be dropped entirely from both.  The two
runs differ at first order in dt: at dt = 2e-3 the Ho-Lee oracle of
tests/test_oracle.py reads an error of 3.36e-5 with alpha in the drift
and 1.60e-5 without; the gap shrinks like dt.

Building a model always runs the positivity diagnostics, and ensemble
runs are summarized into a verdict: negativity that the theory rules
out counts against the implementation, negativity where the
coefficients fail the admissibility inequality is the expected
counterexample regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (CoefficientModel, ModeFunction, PositivityReport,
                           estimate_positivity_constant)
from .grids import GridFunction
from .kernels import Outputs
from .operators import OperatorSuite
from .solver import EnsembleStats, SolverConfig, ensemble_stats, run_ensemble
from .spec import CHECK_SAMPLES, CHECK_SEED, DEFAULT_CHUNK_SIZE, hjm_drift

__all__ = [
    "BuiltHJM",
    "build_hjm",
    "simulate_forward_rates",
    "bond_curve",
    "positivity_verdict",
    "NEG_THRESHOLD",
    "SUPERMART_TOL",
]

NEG_THRESHOLD = -1e-3  # the verdict's level of frac_below, one of DEFAULT_THRESHOLDS
SUPERMART_TOL = 1e-8  # the verdict's bound on the final supermartingale mean


@dataclass
class BuiltHJM:
    suite: OperatorSuite
    model: CoefficientModel
    u0: GridFunction
    report: PositivityReport


def build_hjm(modes, u0: GridFunction, alpha_in_drift: bool = True,
              check_samples: int = CHECK_SAMPLES, check_seed: int = CHECK_SEED) -> BuiltHJM:
    """Assemble operators and coefficients on u0's grid, then vet the model."""
    if not isinstance(u0, GridFunction):
        raise TypeError("u0 must be a GridFunction")
    grid = u0.grid
    model = CoefficientModel(grid, modes, **hjm_drift(grid.alpha, alpha_in_drift))
    if not all(isinstance(m, ModeFunction) for m in model.modes):
        raise TypeError("modes must be ModeFunction instances")
    suite = OperatorSuite(grid, shifted=alpha_in_drift)
    report = estimate_positivity_constant(model, n_samples=check_samples, seed=check_seed)
    return BuiltHJM(suite, model, u0, report)


def positivity_verdict(report: PositivityReport, stats: EnsembleStats) -> str:
    """Classify an ensemble against the positivity theory.

    consistent-with-theorem: the coefficients pass the admissibility
    inequality, no path ever went below NEG_THRESHOLD, and the
    discounted negative-part energy stayed at or below SUPERMART_TOL at
    the final time.  counterexample-regime: the coefficients fail the
    inequality and paths do go negative, the regime the theory does not
    protect.  Everything else is inconclusive.
    """
    neg_seen = float(stats.frac_below[NEG_THRESHOLD][-1]) > 0.0
    if report.violations == 0 and not neg_seen and float(stats.supermartingale_mean[-1]) <= SUPERMART_TOL:
        return "consistent-with-theorem"
    if report.violations > 0 and neg_seen:
        return "counterexample-regime"
    return "inconclusive"


def simulate_forward_rates(
    built: BuiltHJM,
    dt: float,
    t_final: float,
    n_paths: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[Outputs, EnsembleStats, str]:
    """run_ensemble's Outputs for built's model, its statistics at step dt, and their verdict."""
    cfg = SolverConfig(dt=dt, t_final=t_final)
    ens = run_ensemble(
        built.u0, built.suite, built.model, cfg, n_paths, seed, chunk_size=chunk_size
    )
    stats = ensemble_stats(ens, dt, c_const=built.report.c_const)
    return ens, stats, positivity_verdict(built.report, stats)


def bond_curve(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Zero-coupon prices over maturities from one forward curve.

    price(T) = exp(-integral_0^T u), trapezoid on the grid nodes.
    """
    g = u.grid
    integ = np.zeros(g.n)
    np.cumsum(0.5 * g.spacing * (u.values[1:] + u.values[:-1]), out=integ[1:])
    return g.nodes.copy(), np.exp(-integ)
