"""The model's kinds, defaults and input rules, without numpy.

A run config is checked against these names before anything is
simulated, so this module imports nothing from the numerical stack and
the command line validates a config without loading it.  Each name is
defined here once; the numerical modules import it from here.
"""

from __future__ import annotations

import math

__all__ = [
    "LEVEL_CONST", "LEVEL_LINEAR", "LEVEL_CAPPED", "MODE_TABLE", "DRIFT_KINDS", "VERDICTS",
    "CHECK_SAMPLES", "CHECK_SEED", "BATTERY_TOL", "DEFAULT_CHUNK_SIZE", "DEFAULT_MODE_C",
    "DEFAULT_DECAY", "DEFAULT_DRIFT", "DEFAULT_DRIFT_C", "DEFAULT_ALPHA_CORRECTION", "DEFAULT_LAM",
    "DEFAULT_BLOW_THRESHOLD", "TAIL_HEADROOM", "check_mode", "tail_weight", "whole_multiple",
    "hjm_drift",
]

# level codes: how a mode's spatial profile is scaled by the state
LEVEL_CONST = 0
LEVEL_LINEAR = 1
LEVEL_CAPPED = 2

# per mode kind: the level code, the profile form and the config keys it
# reads besides its kind; the ModeFunction docstring gives the formulas
MODE_TABLE = {
    "constant": (LEVEL_CONST, "flat", ("c",)),
    "proportional": (LEVEL_LINEAR, "flat", ("c",)),
    "proportional-capped": (LEVEL_CAPPED, "flat", ("c", "cap")),
    "exponential-decay": (LEVEL_CONST, "decay", ("c", "decay")),
    "level-scaled": (LEVEL_CAPPED, "decay", ("c", "cap", "decay")),
    "custom": (LEVEL_CONST, "table", ("c", "table", "tail")),
}

DRIFT_KINDS = ("zero", "linear-decay", "hjm")
VERDICTS = ("consistent-with-theorem", "counterexample-regime", "inconclusive")

CHECK_SAMPLES = 200  # random probes of the admissibility estimate, by default
CHECK_SEED = 1  # the estimate's seed, by default
BATTERY_TOL = 1e-8  # an operator battery's excess above it is a violation
DEFAULT_CHUNK_SIZE = 2048  # paths per integrator call

# defaults of the library records, which the run config applies too
DEFAULT_MODE_C = 1.0  # ModeFunction.c
DEFAULT_DECAY = 1.0  # ModeFunction.decay
DEFAULT_DRIFT = "zero"  # CoefficientModel.drift
DEFAULT_DRIFT_C = 0.0  # CoefficientModel.drift_c
DEFAULT_ALPHA_CORRECTION = 0.0  # CoefficientModel.alpha_correction
DEFAULT_LAM = 0.0  # SolverConfig.lam
DEFAULT_BLOW_THRESHOLD = 1e12  # SolverConfig.blow_threshold: a path's energy above it aborts

# A tail weight times this must stay finite.  Norms multiply the tail
# weight by the square of a tail value, so tails up to 2**32 in size,
# far beyond what the coefficient probes and the operator batteries
# reach, square into a finite weighted sum.
TAIL_HEADROOM = 2.0**64


def check_mode(kind: str, cap, table) -> None:
    """Raise ValueError unless a mode of this kind has the cap and table it needs."""
    if kind not in MODE_TABLE:
        raise ValueError(f"unknown mode kind: {kind!r}")
    keys = MODE_TABLE[kind][2]
    if "cap" in keys and (cap is None or not (cap > 0.0)):
        raise ValueError(f"mode kind {kind!r} needs a positive cap")
    if "table" in keys and table is None:
        raise ValueError("custom mode needs a table")


def tail_weight(alpha: float, x_max: float, exp=math.exp) -> float:
    """The weight e^(-alpha*x_max)/alpha of the half line beyond x_max.

    Raises ValueError when it leaves no TAIL_HEADROOM below the float
    range, or when alpha*x_max overflows, so that the node weights
    e^(-alpha*x) cannot be formed.  Grid.uniform passes numpy's exp,
    whose value its grids keep.
    """
    if alpha * x_max == math.inf:  # Python floats: inf, no warning
        raise ValueError("alpha*x_max overflows")
    tw = float(exp(-alpha * x_max)) / float(alpha)
    if tw * TAIL_HEADROOM == math.inf:
        raise ValueError("the tail weight e^(-alpha*x_max)/alpha times 2**64 overflows")
    return tw


def whole_multiple(t: float, unit: float) -> int | None:
    """t / unit when that is a whole number (to 1e-9 relative), else None."""
    m = t / unit if unit > 0.0 else math.nan
    if not math.isfinite(m):
        return None
    k = round(m)
    return k if abs(m - k) <= 1e-9 * max(1.0, abs(m)) else None


def hjm_drift(alpha: float, alpha_in_drift: bool) -> dict:
    """The HJM model's drift terms, as CoefficientModel keywords.

    The no-arbitrage drift with no linear part, plus +alpha*u exactly when
    alpha_in_drift; the operator suite is shifted exactly then too.
    """
    return {"drift": "hjm", "drift_c": 0.0, "alpha_correction": alpha if alpha_in_drift else 0.0}
