"""Numerical engine for mild solutions of stochastic transport equations.

States are forward curves on the half line stored on weighted grids;
the evolution splits an exact shift semigroup from drift and diffusion
reactions.  The package also carries the diagnostic machinery for
positivity: operator check batteries, smoothed penalty functionals,
coefficient admissibility estimates and ensemble verdicts, with the
forward-rate model family as the flagship application.
"""

__version__ = "0.1.0"

import importlib

# Each public name and the module that defines it.  The names load on first
# access (PEP 562), so that importing the package, as `python -m
# mildsim.cli` does, loads no numerical module.
_SOURCES = {
    "grids": ("Grid", "GridFunction", "LatticeParts", "lattice_parts", "norm", "weighted_inner"),
    "kernels": ("BACKEND",),
    "operators": ("OperatorSuite", "random_bumps"),
    "coefficients": ("CoefficientModel", "ModeFunction", "PositivityReport",
                     "estimate_positivity_constant", "positivity_functional"),
    "noise": ("NoiseConfig", "Z_BOUND", "gaussian_block", "increment_block"),
    "smoothing": ("ito_residual", "penalty_eval", "smooth_energy", "supermartingale_stat"),
    "solver": ("EnsembleResult", "EnsembleStats", "SolverConfig", "ensemble_stats",
               "lambda_convergence_study", "run_ensemble", "simulate_path",
               "simulate_regularized"),
    "hjm": ("BuiltHJM", "bond_curve", "build_hjm", "positivity_verdict",
            "simulate_forward_rates"),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
