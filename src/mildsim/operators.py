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

import mmap
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .grids import Grid, GridFunction, norm
from .spec import BATTERY_TOL, whole_multiple

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


def bump_params(grid: Grid, rng: np.random.Generator) -> list:
    """random_bumps' draws: 1 to 5 (center, width, amplitude) triples."""
    return [(rng.uniform(0.0, grid.x_max), rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
            for _ in range(int(rng.integers(1, 6)))]


def bumps(grid: Grid, params: list, nonneg: bool = False, out=None, tmp=None) -> GridFunction:
    """The sum of the Gaussian bumps of bump_params' triples, into out if given."""
    x = grid.nodes
    vals = np.empty_like(x) if out is None else out
    vals.fill(0.0)
    t = np.empty_like(x) if tmp is None else tmp  # each bump, a * exp(-(x - c)^2 / (2 w^2))
    for c, w, a in params:
        np.subtract(x, c, out=t)
        np.square(t, out=t)
        np.divide(t, -(2.0 * w * w), out=t)
        np.exp(t, out=t)
        t *= a
        vals += t
    if nonneg:
        np.abs(vals, out=vals)
    return GridFunction(grid, vals, float(vals[-1]))


def random_bumps(grid: Grid, rng: np.random.Generator, nonneg: bool = False, out=None,
                 tmp=None) -> GridFunction:
    """Sum of 1 to 5 Gaussian bumps with random centers, widths, signs, into out if given."""
    return bumps(grid, bump_params(grid, rng), nonneg, out, tmp)


def scratch_rows(work, k: int) -> tuple:
    """k node rows of work, then a cell row for a resolvent sweep.

    work holds k + 1 node rows that run_battery allocates once for all the
    samples of a share (see work_rows), or is None: then every row is None
    and each operation allocates its own result.
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
        # a battery that checked nothing has not passed
        return self.n_checks > 0 and self.n_violations == 0


# the resolvent parameters that a battery's samples cycle through
BATTERY_LAMS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)

# The least node-samples (samples x nodes) that run_battery splits across
# processes.  On a 2-vCPU host a fork and its reap took 5 to 29 ms, and a
# sample 30 to 60 ns per node: this is 0.1 to 0.25 s of samples.
_SPLIT_NODE_SAMPLES = 2**22


class Battery(NamedTuple):
    """Sample i checks excess(suite, curves, lam, i, work); worst_excess starts at worst.

    curves are n_curves bump curves, nonnegative if nonneg, in work's last
    rows, with work[0] as scratch; work is work_rows(grid, 4).
    """

    label: str
    n_curves: int
    nonneg: bool
    excess: Callable
    worst: float = 0.0


def run_battery(suite: OperatorSuite, batteries: list, n_samples: int, seed: int,
                tol: float = BATTERY_TOL) -> list:
    """The sampling loop of every battery; one BatteryReport per battery.

    The k-th battery's bumps are all drawn first, from one generator made
    from seed + k.  Its sample i checks BATTERY_LAMS[i], cyclically, after the
    earlier batteries' samples: in one contiguous share per usable core
    once all come to _SPLIT_NODE_SAMPLES node-samples, all but the first
    in forked children (kernels._split) that write into one shared vector.
    worst_excess is Python's max of worst and each excess in sample
    order, n_violations the count above tol.
    """
    grid = suite.grid
    rngs = [np.random.default_rng(seed + k) for k in range(len(batteries))]
    draws = [[bump_params(grid, rng) for _ in range(b.n_curves)]
             for b, rng in zip(batteries, rngs) for _ in range(n_samples)]
    total = len(draws)
    excesses = np.frombuffer(mmap.mmap(-1, 8 * max(1, total)))[:total]

    def run(lo, hi):
        work = work_rows(grid, 4)  # as many as the Jensen checks and the contraction's pair use
        for j in range(lo, hi):
            b, i = batteries[j // n_samples], j % n_samples
            curves = [bumps(grid, p, b.nonneg, work[-1 - c], work[0])
                      for c, p in enumerate(draws[j])]
            excesses[j] = b.excess(suite, curves, BATTERY_LAMS[i % len(BATTERY_LAMS)], i, work)

    workers = 1
    if total * grid.n >= _SPLIT_NODE_SAMPLES:
        workers = min(kernels._usable_cores(), total)
        from scipy.signal import lfilter  # noqa: F401  imported once, before the fork
    kernels._split(run, [total * w // workers for w in range(workers)] + [total])
    es = [excesses[k * n_samples : (k + 1) * n_samples].tolist() for k in range(len(batteries))]
    return [BatteryReport(b.label, n_samples, float(reduce(max, e, b.worst)),
                          sum(x > tol for x in e), tol) for b, e in zip(batteries, es)]


SUBMARKOV = Battery("submarkov", 1, True,
                    lambda suite, curves, lam, i, work: submarkov_excess(suite, *curves, lam, work))
CONTRACTION = Battery("l1-contraction", 2, False, lambda suite, curves, lam, i, work:
                      l1_contraction_excess(suite, *curves, lam, work), worst=-np.inf)


def run_submarkov_battery(suite: OperatorSuite, n_samples: int, seed: int) -> BatteryReport:
    """Order and sup bounds of the resolvent on random nonnegative curves."""
    return run_battery(suite, [SUBMARKOV], n_samples, seed)[0]


def run_contraction_battery(suite: OperatorSuite, n_samples: int, seed: int) -> BatteryReport:
    """Weighted L1 distance contraction on random signed pairs."""
    return run_battery(suite, [CONTRACTION], n_samples, seed)[0]
