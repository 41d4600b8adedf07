"""Transport semigroup, resolvent and Yosida approximation.

The generator is the negative spatial derivative, so the semigroup is
the left shift f(. + t).  A suite is "shifted" when the weight exponent
alpha is absorbed into the operator: the semigroup then carries the
damping factor e^{-alpha t} and the resolvent inverts I + lam*(A +
alpha*I).  That version is order preserving and contracts both the
supremum and the weighted absolute integral, which the check batteries
probe on random curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .grids import Grid, GridFunction, norm, whole_multiple

__all__ = [
    "OperatorSuite",
    "BatteryReport",
    "random_bumps",
    "submarkov_excess",
    "l1_contraction_excess",
    "run_submarkov_battery",
    "run_contraction_battery",
]


@dataclass(frozen=True)
class OperatorSuite:
    grid: Grid
    shifted: bool = True

    @property
    def alpha_eff(self) -> float:
        return self.grid.alpha if self.shifted else 0.0

    def steps_for_time(self, t: float) -> int:
        """Number of whole grid cells the shift by t covers.

        Raises when t is not a node multiple; the scheme moves states
        between lattice nodes only, there is no interpolation.
        """
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        m = whole_multiple(t, self.grid.spacing)
        if m is None:
            raise ValueError(f"t={t} is not a multiple of the grid spacing {self.grid.spacing}")
        return m

    def damping(self, t: float) -> float:
        return float(np.exp(-self.alpha_eff * t)) if self.shifted else 1.0

    def semigroup(self, f: GridFunction, t: float) -> GridFunction:
        """Shift f left by t (a node multiple), damped when shifted."""
        m = self.steps_for_time(t)
        v = f.values
        n = v.shape[0]
        out = np.empty_like(v)
        if m >= n:
            out[:] = f.tail_value
        elif m > 0:
            out[: n - m] = v[m:]
            out[n - m :] = f.tail_value
        else:
            out[:] = v
        d = self.damping(t)
        return GridFunction(self.grid, out * d, f.tail_value * d)

    def resolvent(self, f: GridFunction, lam: float, out=None, cells=None) -> GridFunction:
        """Apply (I + lam*(A + alpha_eff*I))^{-1} via the backward sweep.

        out, a node row, receives the values and cells, a row one shorter,
        the sweep's cell contributions; both are allocated when not given.
        """
        res = kernels.resolvent_coeffs(self.grid.spacing, lam, self.alpha_eff)
        y, ytail = kernels.resolvent_sweep(f.values, f.tail_value, res, out, cells)
        return GridFunction(self.grid, y, ytail)

    def yosida(self, f: GridFunction, lam: float, out=None, cells=None) -> GridFunction:
        """Bounded approximation (f - resolvent(f)) / lam of the generator.

        out and cells are scratch rows as in resolvent.
        """
        d = f.minus(self.resolvent(f, lam, out, cells), out=out)
        d.values /= lam
        return GridFunction(self.grid, d.values, d.tail_value / lam)


def random_bumps(grid: Grid, rng: np.random.Generator, nonneg: bool = False, out=None,
                 tmp=None) -> GridFunction:
    """Sum of 1 to 5 Gaussian bumps with random centers, widths, signs, into out if given."""
    n = int(rng.integers(1, 6))
    x = grid.nodes
    vals = np.empty_like(x) if out is None else out
    vals.fill(0.0)
    t = np.empty_like(x) if tmp is None else tmp  # each bump, a * exp(-(x - c)^2 / (2 w^2))
    for _ in range(n):
        c = rng.uniform(0.0, grid.x_max)
        w = rng.uniform(0.1, 5.0)
        a = rng.uniform(-2.0, 2.0)
        np.subtract(x, c, out=t)
        np.square(t, out=t)
        np.divide(t, -(2.0 * w * w), out=t)
        np.exp(t, out=t)
        t *= a
        vals += t
    if nonneg:
        np.abs(vals, out=vals)
    return GridFunction(grid, vals, float(vals[-1]))


def scratch_rows(work, k: int) -> tuple:
    """k node rows of work, then a cell row for a resolvent sweep.

    work holds k + 1 node rows that a battery allocates once for all its
    samples (see work_rows), or is None: then every row is None and each
    operation allocates its own result.
    """
    if work is None:
        return (None,) * (k + 1)
    return (*work[:k], work[k][:-1])


def work_rows(grid: Grid, k: int) -> list:
    """Scratch for scratch_rows(., k) on grid.

    Separate rows, not one (k + 1, N) block: freeing a block larger than
    the arrays the samples allocate raises malloc's mmap threshold above
    them, and their heap then held 2.5 MB more at peak on 200,001
    nodes.
    """
    return [np.empty(grid.n) for _ in range(k + 1)]


def submarkov_excess(suite: OperatorSuite, f: GridFunction, lam: float, work=None) -> float:
    """Worst violation of 0 <= resolvent(f) <= sup f for nonnegative f.

    work: optional scratch, work_rows(grid, 1).
    """
    g = suite.resolvent(f, lam, *scratch_rows(work, 1))
    hi = max(float(f.values.max()), f.tail_value)
    lo = min(float(g.values.min()), g.tail_value)
    over = max(float(g.values.max()), g.tail_value) - hi
    return max(-lo, over, 0.0)


def l1_contraction_excess(
    suite: OperatorSuite, f: GridFunction, g: GridFunction, lam: float, work=None
) -> float:
    """How much the resolvent expands the weighted L1 distance of a pair.

    work: optional scratch, work_rows(grid, 2).
    """
    d, rg, cells = scratch_rows(work, 2)
    before = norm(f.minus(g, out=d), "l1", out=d)
    rf = suite.resolvent(f, lam, d, cells)
    after = norm(rf.minus(suite.resolvent(g, lam, rg, cells), out=d), "l1", out=d)
    return after - before


@dataclass(frozen=True)
class BatteryReport:
    label: str
    n_checks: int
    worst_excess: float
    n_violations: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


# the resolvent parameters that a battery's samples cycle through
BATTERY_LAMS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)


def run_battery(label: str, suite: OperatorSuite, n_samples: int, seed: int, lams: tuple,
                tol: float, n_work: int, excess: Callable, worst: float = 0.0) -> BatteryReport:
    """The sampling loop of every battery.

    Sample i's check is excess(rng, lams[i % len(lams)], i, work), with
    one generator made from seed and work = work_rows(grid, n_work) for
    all samples; a sample's bumps go to work's last rows, with work[0] as
    scratch.  worst_excess is the max of worst and every excess, and
    n_violations counts those above tol.
    """
    rng = np.random.default_rng(seed)
    work = work_rows(suite.grid, n_work)
    bad = 0
    for i in range(n_samples):
        e = excess(rng, lams[i % len(lams)], i, work)
        worst = max(worst, e)
        if e > tol:
            bad += 1
    return BatteryReport(label, n_samples, float(worst), bad, tol)


def run_submarkov_battery(suite: OperatorSuite, n_samples: int, seed: int,
                          lams: tuple[float, ...] = BATTERY_LAMS,
                          tol: float = 1e-8) -> BatteryReport:
    """Order and sup bounds of the resolvent on random nonnegative curves."""

    def excess(rng, lam, i, work):
        f = random_bumps(suite.grid, rng, nonneg=True, out=work[-1], tmp=work[0])
        return submarkov_excess(suite, f, lam, work)

    return run_battery("submarkov", suite, n_samples, seed, lams, tol, 2, excess)


def run_contraction_battery(suite: OperatorSuite, n_samples: int, seed: int,
                            lams: tuple[float, ...] = BATTERY_LAMS,
                            tol: float = 1e-8) -> BatteryReport:
    """Weighted L1 distance contraction on random signed pairs."""

    def excess(rng, lam, i, work):
        f = random_bumps(suite.grid, rng, out=work[-1], tmp=work[0])
        g = random_bumps(suite.grid, rng, out=work[-2], tmp=work[0])
        return l1_contraction_excess(suite, f, g, lam, work)

    return run_battery("l1-contraction", suite, n_samples, seed, lams, tol, 4, excess,
                       worst=-np.inf)
