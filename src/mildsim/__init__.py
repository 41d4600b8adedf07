"""Numerical engine for mild solutions of stochastic transport equations.

States are forward curves on the half line stored on weighted grids;
the evolution splits an exact shift semigroup from drift and diffusion
reactions.  The package also carries the diagnostic machinery for
positivity: operator check batteries, smoothed penalty functionals,
coefficient admissibility estimates and ensemble verdicts, with the
forward-rate model family as the flagship application.
"""

__version__ = "0.1.0"

from .grids import Grid, GridFunction, LatticeParts, lattice_parts, norm, weighted_inner
from .kernels import BACKEND
from .operators import OperatorSuite, random_bumps
from .coefficients import (
    CoefficientModel,
    ModeFunction,
    PositivityReport,
    estimate_positivity_constant,
    positivity_functional,
)
from .noise import NoiseConfig, Z_BOUND, gaussian_block, increment_block
from .smoothing import (
    ito_residual,
    penalty_eval,
    smooth_energy,
    supermartingale_stat,
)
from .solver import (
    EnsembleResult,
    EnsembleStats,
    SolverConfig,
    ensemble_stats,
    lambda_convergence_study,
    run_ensemble,
    simulate_path,
    simulate_regularized,
)
from .hjm import (
    BuiltHJM,
    bond_curve,
    build_hjm,
    positivity_verdict,
    simulate_forward_rates,
)

__all__ = [
    "__version__",
    "BACKEND",
    "Grid",
    "GridFunction",
    "LatticeParts",
    "lattice_parts",
    "norm",
    "weighted_inner",
    "OperatorSuite",
    "random_bumps",
    "CoefficientModel",
    "ModeFunction",
    "PositivityReport",
    "estimate_positivity_constant",
    "positivity_functional",
    "NoiseConfig",
    "Z_BOUND",
    "gaussian_block",
    "increment_block",
    "ito_residual",
    "penalty_eval",
    "smooth_energy",
    "supermartingale_stat",
    "SolverConfig",
    "EnsembleResult",
    "EnsembleStats",
    "ensemble_stats",
    "run_ensemble",
    "simulate_path",
    "simulate_regularized",
    "lambda_convergence_study",
    "BuiltHJM",
    "build_hjm",
    "bond_curve",
    "positivity_verdict",
    "simulate_forward_rates",
]
