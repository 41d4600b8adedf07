"""Numerical engine for mild solutions of stochastic transport equations.

States are forward curves on the half line stored on weighted grids;
the evolution splits an exact shift semigroup from drift and diffusion
reactions.  The package also carries the diagnostic machinery for
positivity: operator check batteries, smoothed penalty functionals,
coefficient admissibility estimates and ensemble verdicts, with the
forward-rate model family as the flagship application.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
