"""Drift and diffusion coefficient models on a grid.

A model bundles a family of diffusion modes sigma_k(x, r) given as a
spatial profile times a pointwise level function of the state, plus a
drift choice.  The "hjm" drift is the no-arbitrage quadratic
sum_k sigma_k(x, u) * integral_0^x sigma_k(y, u) dy; kernels.coefficient_rows
computes it with unweighted trapezoids, exact for constant profiles.

The positivity functional measures how strongly the coefficients push
an already nonnegative-violating state further down at its negative
set; models admitting a finite constant C with
functional(h) <= C * ||h_-||^2 in the weighted L2 norm are the ones the
positivity verdict machinery accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .grids import Grid, GridFunction, lattice_parts, norm, weighted_inner
from .operators import random_bumps
from .spec import (CHECK_SAMPLES, CHECK_SEED, DEFAULT_ALPHA_CORRECTION, DEFAULT_DECAY,
                   DEFAULT_DRIFT, DEFAULT_DRIFT_C, DEFAULT_MODE_C, DRIFT_KINDS, MODE_KINDS,
                   MODE_TABLE, check_mode)

__all__ = [
    "MODE_KINDS",
    "DRIFT_KINDS",
    "ModeFunction",
    "CoefficientModel",
    "positivity_functional",
    "PositivityReport",
    "estimate_positivity_constant",
]

L2_TOL = 1e-12  # a probe with ||h_-|| at most this lies on the zero boundary,
FUNC_TOL = 1e-10  # where a functional above this is a violation

_DRIFT_CODE = {
    "zero": kernels.DRIFT_ZERO,
    "linear-decay": kernels.DRIFT_DECAY,
    "hjm": kernels.DRIFT_HJM,
}


@dataclass(frozen=True)
class ModeFunction:
    """One diffusion mode sigma(x, r) = profile(x) * level(r).

    kind            level(r)            profile(x)
    constant        1                   c
    proportional    r                   c
    proportional-capped  min(r+, cap)   c
    exponential-decay    1              c * e^{-decay x}
    level-scaled    min(r+, cap)        c * e^{-decay x}
    custom          1                   tabulated GridFunction
    """

    kind: str
    c: float = DEFAULT_MODE_C
    cap: float | None = None
    decay: float = DEFAULT_DECAY
    table: GridFunction | None = None

    def __post_init__(self) -> None:
        check_mode(self.kind, self.cap, self.table)

    @property
    def level_code(self) -> int:
        return MODE_TABLE[self.kind][0]

    def profile(self, grid: Grid) -> tuple[np.ndarray, float]:
        form = MODE_TABLE[self.kind][1]
        if form == "table":
            t = self.table
            if not t.grid.same(grid):
                raise ValueError("custom mode table lives on a different grid")
            return self.c * t.values, self.c * t.tail_value
        if form == "decay":
            vals = self.c * np.exp(-self.decay * grid.nodes)
            return vals, float(vals[-1])
        return np.full(grid.n, self.c), self.c


@dataclass(frozen=True)
class CoefficientModel:
    grid: Grid
    modes: tuple[ModeFunction, ...] = ()
    drift: str = DEFAULT_DRIFT
    drift_c: float = DEFAULT_DRIFT_C
    alpha_correction: float = DEFAULT_ALPHA_CORRECTION

    def __post_init__(self) -> None:
        if self.drift not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind: {self.drift!r}")
        object.__setattr__(self, "modes", tuple(self.modes))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def kernel_args(self) -> kernels.Coefficients:
        """The model as the kernels' Coefficients record."""
        g = self.grid
        K = self.n_modes
        profiles = np.zeros((K, g.n))
        ptails = np.zeros(K)
        codes = np.zeros(K, dtype=np.int64)
        caps = np.zeros(K)
        for k, mode in enumerate(self.modes):
            profiles[k], ptails[k] = mode.profile(g)
            codes[k] = mode.level_code
            caps[k] = 0.0 if mode.cap is None else float(mode.cap)
        return kernels.Coefficients(
            spacing=g.spacing,
            profiles=profiles,
            profile_tails=ptails,
            level_codes=codes,
            caps=caps,
            drift_code=_DRIFT_CODE[self.drift],
            drift_c=float(self.drift_c),
            alpha_corr=float(self.alpha_correction),
        )

    @cached_property
    def _row_kernel(self) -> tuple[kernels.Coefficients, tuple]:
        # coefficients' kernel record and one-row scratch, built once per model
        coef = self.kernel_args()
        return coef, kernels.coefficient_scratch(coef, 1)

    def coefficients(self, u: GridFunction) -> tuple[list, GridFunction]:
        """The diffusion modes and the full drift at the state u.

        One row of kernels.coefficient_rows, the function every step of
        the integrator evaluates, so the checks judge the coefficients
        that drive the paths.  The rows are copied out of the model's
        scratch, so results of earlier calls stay as they were.
        """
        g = self.grid
        coef, scratch = self._row_kernel
        sig, sigt, drift, dtail = kernels.coefficient_rows(
            coef, u.values[None, :], np.array([u.tail_value]), scratch)
        modes = [GridFunction(g, s[0].copy(), st[0]) for s, st in zip(sig, sigt)]
        return modes, GridFunction(g, drift[0].copy(), dtail[0])


def positivity_functional(model: CoefficientModel, h: GridFunction) -> float:
    """Downward push of the coefficients at the negative set of h.

    -<F(h), h_-> plus half the weighted energy of each diffusion mode
    restricted to {h < 0}.  Nonpositive multiples of ||h_-||^2 certify
    that negativity is not self-amplifying; see
    estimate_positivity_constant for the sampled bound.
    """
    modes, drift = model.coefficients(h)
    return _functional(lattice_parts(h), modes, drift)


def _functional(parts, modes: list, drift: GridFunction) -> float:
    """positivity_functional from h's lattice parts and the coefficients at h."""
    neg = parts.negative
    ind = parts.indicator
    val = -weighted_inner(drift, neg)
    for s in modes:
        masked = GridFunction(neg.grid, s.values * ind.values, s.tail_value * ind.tail_value)
        val += 0.5 * weighted_inner(masked, masked)
    return float(val)


def _row(a: np.ndarray, i: int):
    """Row i of an array coefficient_rows returns; one-row arrays broadcast."""
    return a[i if len(a) > 1 else 0]


@dataclass(frozen=True)
class PositivityReport:
    samples: int
    worst_ratio: float
    estimated_c: float
    violations: int

    @property
    def admissible(self) -> bool:
        return self.violations == 0

    @property
    def c_const(self) -> float:
        """Discount rate for the supermartingale statistic; an infinite C discounts nothing."""
        return self.estimated_c if np.isfinite(self.estimated_c) else 0.0


def estimate_positivity_constant(
    model: CoefficientModel,
    n_samples: int = CHECK_SAMPLES,
    seed: int = CHECK_SEED,
) -> PositivityReport:
    """Sample the positivity functional and bound its ratio to ||h_-||^2.

    Random bump curves are augmented with deterministic constant probes
    slightly below zero, including one so shallow that ||h_-|| falls
    under L2_TOL; a functional value above FUNC_TOL there means the
    coefficients push down even at the zero boundary and no finite
    constant exists (a violation).
    """
    g = model.grid
    rng = np.random.default_rng(seed)
    eps_tiny = 0.5 * L2_TOL * np.sqrt(g.alpha)
    probes = itertools.chain(
        (random_bumps(g, rng) for _ in range(n_samples)),
        (GridFunction.constant(g, -eps) for eps in (1.0, 0.1, 0.01, 0.001, eps_tiny)))
    # the coefficients are evaluated on blocks of probes, each block about
    # kernels.BLOCK_BYTES; each probe's row is the one it gives alone
    coef, _ = model._row_kernel
    rows = max(1, kernels.BLOCK_BYTES // (8 * g.n))
    scratch = kernels.coefficient_scratch(coef, rows)
    block, tails = np.empty((rows, g.n)), np.empty(rows)
    worst = -np.inf
    violations = 0
    count = 0
    while hs := list(itertools.islice(probes, rows)):
        m = len(hs)
        for i, h in enumerate(hs):
            block[i], tails[i] = h.values, h.tail_value
        sig, sigt, drift, dtail = kernels.coefficient_rows(coef, block[:m], tails[:m], scratch)
        for i, h in enumerate(hs):
            count += 1
            parts = lattice_parts(h)
            nrm = norm(parts.negative, "l2")
            modes = [GridFunction(g, _row(s, i), _row(st, i)) for s, st in zip(sig, sigt)]
            val = _functional(parts, modes, GridFunction(g, _row(drift, i), _row(dtail, i)))
            if nrm <= L2_TOL:
                if val > FUNC_TOL:
                    violations += 1
                continue
            worst = max(worst, val / (nrm * nrm))
    if not np.isfinite(worst):
        worst = 0.0
    est = float("inf") if violations > 0 else max(worst, 0.0)
    return PositivityReport(count, float(worst), est, violations)
