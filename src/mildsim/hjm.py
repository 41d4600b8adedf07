"""Forward-rate curves in moving coordinates with no-arbitrage drift.

The curve x -> u(t, x) holds instantaneous forward rates at time to
maturity x.  Its arbitrage-free dynamics pair the left shift with the
quadratic drift sum_k sigma_k * integral sigma_k, which is exactly the
"hjm" drift of CoefficientModel.  The weight exponent alpha can either
stay inside the operator (damped shift plus a compensating +alpha*u
drift term, the default) or be dropped entirely from both; the two
runs differ at second order in alpha*dt.

Building a model always runs the positivity diagnostics, and ensemble
runs are summarized into a verdict: negativity that the theory rules
out counts against the implementation, negativity where the
coefficients fail the admissibility inequality is the expected
counterexample regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CHECK_SAMPLES,
    CoefficientModel,
    ModeFunction,
    PositivityReport,
    estimate_positivity_constant,
)
from .grids import GridFunction
from .operators import OperatorSuite
from .solver import (DEFAULT_CHUNK_SIZE, DEFAULT_SCHEME, DEFAULT_THRESHOLDS, EnsembleResult,
                     EnsembleStats, SolverConfig, ensemble_stats, run_ensemble)

__all__ = [
    "hjm_drift",
    "BuiltHJM",
    "build_hjm",
    "simulate_forward_rates",
    "bond_curve",
    "positivity_verdict",
    "VERDICTS",
    "NEG_THRESHOLD",
]

VERDICTS = ("consistent-with-theorem", "counterexample-regime", "inconclusive")
NEG_THRESHOLD = -1e-3  # the verdict's level of frac_below, one of DEFAULT_THRESHOLDS


def hjm_drift(alpha: float, alpha_in_drift: bool) -> dict:
    """The HJM model's drift terms, as CoefficientModel keywords.

    The no-arbitrage drift with no linear part, plus +alpha*u exactly when
    alpha_in_drift; the operator suite is shifted exactly then too.
    """
    return {"drift": "hjm", "drift_c": 0.0, "alpha_correction": alpha if alpha_in_drift else 0.0}


@dataclass
class BuiltHJM:
    suite: OperatorSuite
    model: CoefficientModel
    u0: GridFunction
    report: PositivityReport


def build_hjm(modes, u0: GridFunction, alpha_in_drift: bool = True,
              check_samples: int = CHECK_SAMPLES, check_seed: int = 1) -> BuiltHJM:
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


def positivity_verdict(
    report: PositivityReport,
    stats: EnsembleStats,
    neg_threshold: float = NEG_THRESHOLD,
    supermart_tol: float = 1e-8,
) -> str:
    """Classify an ensemble against the positivity theory.

    consistent-with-theorem: the coefficients pass the admissibility
    inequality, no path ever went below neg_threshold, and the
    discounted negative-part energy stayed below supermart_tol at the
    final time.  counterexample-regime: the coefficients fail the
    inequality and paths do go negative, the regime the theory does not
    protect.  Everything else is inconclusive.
    """
    frac = stats.frac_below.get(float(neg_threshold))
    if frac is None:
        raise KeyError(f"stats carry no threshold {neg_threshold}")
    neg_seen = float(frac[-1]) > 0.0
    if report.violations == 0 and not neg_seen and float(stats.supermartingale_mean[-1]) <= supermart_tol:
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
    scheme: str = DEFAULT_SCHEME,
    snapshot_stride: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[EnsembleResult, EnsembleStats, str]:
    """The ensemble of built's model, its statistics and their verdict."""
    cfg = SolverConfig(dt=dt, t_final=t_final, scheme=scheme, snapshot_stride=snapshot_stride)
    ens = run_ensemble(
        built.u0, built.suite, built.model, cfg, n_paths, seed, chunk_size=chunk_size
    )
    stats = ensemble_stats(ens, c_const=built.report.c_const, thresholds=DEFAULT_THRESHOLDS)
    return ens, stats, positivity_verdict(built.report, stats)


def bond_curve(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Zero-coupon prices over maturities from one forward curve.

    price(T) = exp(-integral_0^T u), trapezoid on the grid nodes.
    """
    g = u.grid
    integ = np.zeros(g.n)
    np.cumsum(0.5 * g.spacing * (u.values[1:] + u.values[:-1]), out=integ[1:])
    return g.nodes.copy(), np.exp(-integ)
