"""Smoothed negative-part penalties and the estimates built on them.

penalty_eval gives a C^2 family indexed by n approximating r -> (r_-)^2/2
from below: zero on [0, inf), quadratic second derivative ramp on
[-1/n, 0), and exactly (r_-)^2/2 up to O(1/n) terms below -1/n.  Its
first derivative stays within 1/(2n) of -r_- everywhere, which is what
makes the penalized energies track the true negative-part energy.

The module also carries the two structural checks used by the proof
machinery (monotone pairing against the Yosida approximation, convex
contraction through the resolvent), the Ito residual probe for the
penalized energy along explicit paths, and the discounted
supermartingale statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import GridFunction, norm, weighted_inner, weighted_sum
from .noise import NoiseConfig, increment_block
# random_bumps is not called here any more, but perfbench/tracing.py wraps it here
from .operators import (Battery, BatteryReport, OperatorSuite, random_bumps,  # noqa: F401
                        run_battery, scratch_rows)

__all__ = [
    "penalty_eval",
    "smooth_energy",
    "apply_pointwise",
    "MONOTONE_GRAPHS",
    "CONVEX_FUNCTIONS",
    "pairing_value",
    "monotone_pairing_excess",
    "run_pairing_battery",
    "run_jensen_battery",
    "ItoReport",
    "ito_residual",
    "supermartingale_stat",
]


def penalty_eval(n: float, r, order: int = 0):
    """The n-th penalty at r, or its first or second derivative.

    Closed forms, exact to roundoff:
      order 2: 0 on r >= 0, -n r on [-1/n, 0), 1 below -1/n
      order 1: 0, -n r^2 / 2, r + 1/(2n)
      order 0: 0, -n r^3 / 6, r^2/2 + r/(2n) + 1/(6 n^2)
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    (out,) = _penalty_orders(n, r, (order,))
    if np.ndim(r) == 0:
        return float(out)
    return out


def _penalty_orders(n: float, r, orders: tuple) -> list:
    """penalty_eval's arrays for each of orders, from one pair of masks."""
    if not (n > 0):
        raise ValueError("n must be positive")
    n = np.float64(n)  # extreme n gives inf or 0, not a Python float exception
    arr = np.asarray(r, dtype=np.float64)
    knee = -1.0 / n
    mid = (arr < 0.0) & (arr >= knee)
    lo = arr < knee
    rm = arr[mid]
    rl = arr[lo]
    outs = []
    for order in orders:
        out = np.zeros_like(arr)
        if order == 0:
            out[mid] = -n * rm**3 / 6.0
            out[lo] = rl * rl / 2.0 + rl / (2.0 * n) + 1.0 / (6.0 * n * n)
        elif order == 1:
            out[mid] = -n * rm * rm / 2.0
            out[lo] = rl + 1.0 / (2.0 * n)
        else:
            out[mid] = -n * rm
            out[lo] = 1.0
        outs.append(out)
    return outs


def smooth_energy(n: float, f: GridFunction) -> float:
    """Half the weighted integral of the n-th penalty of f.

    Converges to a quarter of the squared weighted L2 norm of the
    negative part as n grows.
    """
    g = f.grid
    core = float(weighted_sum(g.weights, penalty_eval(n, f.values, 0)))
    return 0.5 * (core + g.tail_weight * penalty_eval(n, f.tail_value, 0))


def apply_pointwise(f: GridFunction, fn: Callable, out=None) -> GridFunction:
    """fn at every node and at the tail; fn(values, out=out) when out is given."""
    vals = fn(f.values) if out is None else fn(f.values, out=out)
    return GridFunction(f.grid, vals, float(fn(np.float64(f.tail_value))))


def _smoothed_sign(r, out=None):
    # r / sqrt(r * r + 0.01); on a numpy scalar += makes a new scalar
    s = np.multiply(r, r, out=out)
    s += 0.01
    return np.divide(r, np.sqrt(s, out=out), out=out)


def _hinge_squared(r, out=None):
    m = np.minimum(r, 0.0, out=out)
    # ** on a numpy scalar is libm pow, which can differ from m * m in the
    # last bit; on an array it is np.square
    return m**2 if out is None else np.square(m, out=out)


# The catalog functions take out= like a ufunc, so that the pairing and
# Jensen batteries can write the images into rows they reuse.
MONOTONE_GRAPHS: dict[str, Callable] = {
    "identity": np.positive,
    "tanh": np.tanh,
    "clipped-linear": lambda r, out=None: np.clip(r, -0.7, 0.7, out=out),
    "smoothed-sign": _smoothed_sign,
}

CONVEX_FUNCTIONS: dict[str, Callable] = {
    "square": np.square,
    "abs": np.abs,
    "hinge-squared": _hinge_squared,
}


def pairing_value(
    suite: OperatorSuite, v: GridFunction, lam: float, graph: Callable, work=None
) -> float:
    """Weighted pairing of the Yosida approximation with a monotone image.

    Nonnegative for nondecreasing graphs vanishing at zero; the checks
    treat any negative value as a violation.  work: optional scratch,
    work_rows(grid, 2), for which graph must take out= like a ufunc.
    """
    y, image, cells = scratch_rows(work, 2)
    return weighted_inner(suite.yosida(v, lam, y, cells), apply_pointwise(v, graph, image), out=y)


def monotone_pairing_excess(
    suite: OperatorSuite, v: GridFunction, lam: float, graph: Callable, work=None
) -> float:
    return max(0.0, -pairing_value(suite, v, lam, graph, work))


# The Jensen checks share one scratch layout, work_rows(grid, 3): fn(v),
# fn(resolvent v), a row for the pointwise difference and |.|, and the
# sweep's cell row.  Without work every row is allocated.


def _jensen_images(suite: OperatorSuite, v: GridFunction, lam: float, fn: Callable, work=None):
    """fn(v) and fn(resolvent v), the two images both Jensen checks compare."""
    fv, fjv, _, cells = scratch_rows(work, 3)
    return apply_pointwise(v, fn, fv), apply_pointwise(suite.resolvent(v, lam, fjv, cells), fn, fjv)


def _pointwise_excess(
    suite: OperatorSuite, lam: float, fv: GridFunction, fjv: GridFunction, work=None
) -> float:
    """Worst pointwise failure of fn(resolvent v) <= resolvent fn(v).

    Holds for convex fn with fn(0) <= 0 because the resolvent kernel is
    sub-Markovian.
    """
    _, _, d, cells = scratch_rows(work, 3)
    d = fjv.minus(suite.resolvent(fv, lam, d, cells), out=d)
    return max(0.0, float(d.values.max()), d.tail_value)


def _integral_excess(fv: GridFunction, fjv: GridFunction, work=None) -> float:
    """Growth of the weighted integral of fn through the resolvent.

    For nonnegative convex images the chain fn(Jv) <= J fn(v) plus the
    integral contraction makes this nonpositive up to quadrature error.
    """
    _, _, d, _ = scratch_rows(work, 3)
    return max(0.0, norm(fjv, "l1", out=d) - norm(fv, "l1", out=d))


def _pairing_excess(suite, curves, lam, i, work):
    graph = MONOTONE_GRAPHS[sorted(MONOTONE_GRAPHS)[i % len(MONOTONE_GRAPHS)]]
    return monotone_pairing_excess(suite, *curves, lam, graph, work)


def _jensen_excess(suite, curves, lam, i, work):
    fn = CONVEX_FUNCTIONS[sorted(CONVEX_FUNCTIONS)[i % len(CONVEX_FUNCTIONS)]]
    fv, fjv = _jensen_images(suite, *curves, lam, fn, work)
    return max(_pointwise_excess(suite, lam, fv, fjv, work), _integral_excess(fv, fjv, work))


# each cycles through its catalog, sample by sample
PAIRING = Battery("monotone-pairing", 1, False, _pairing_excess)
JENSEN = Battery("jensen-chain", 1, False, _jensen_excess)


def run_pairing_battery(suite: OperatorSuite, n_samples: int, seed: int) -> BatteryReport:
    return run_battery(suite, [PAIRING], n_samples, seed)[0]


def run_jensen_battery(suite: OperatorSuite, n_samples: int, seed: int) -> BatteryReport:
    return run_battery(suite, [JENSEN], n_samples, seed)[0]


@dataclass(frozen=True)
class ItoReport:
    """Penalty integral and per-step residuals, one column per path.

    functional is (n_steps + 1, n_paths) and residuals (n_steps, n_paths).
    """

    times: np.ndarray
    functional: np.ndarray
    residuals: np.ndarray

    @property
    def totals(self) -> list:
        """Each path's summed residual.

        Every total is one 1-D sum over that path's own steps, so it is
        bitwise the total of the path run alone; a sum over axis 0 would
        add the steps in another order.
        """
        return [float(col.sum()) for col in np.ascontiguousarray(self.residuals.T)]


# values too large for a double, or an n so small that 1/n^2 is, leave inf
# or NaN residuals, which fail the check
@np.errstate(all="ignore")
def ito_residual(
    n: float,
    v0: GridFunction,
    drift: GridFunction,
    modes: Sequence[GridFunction] = (),
    dt: float = 1e-2,
    n_steps: int = 100,
    noise_cfgs: Sequence[NoiseConfig] = (),
) -> ItoReport:
    """Per-step defect of the Ito expansion of the penalized energy.

    Evolves v by the transport-free update v + drift*dt + sum modes*dW
    and compares each increment of the weighted penalty integral with
    its predicted drift and martingale parts evaluated at the step
    start.  Deterministic runs (no modes) leave a residual of one order
    higher than dt per step; noisy runs leave a mean-zero residual
    shrinking with dt.

    All paths start at v0 and evolve together as the rows of one
    (n_paths, N) state: one path per noise stream in noise_cfgs, or a
    single path when there are no modes.  Every reduction is a 1-D dot
    along one path's row, so a path's results are bitwise those of the
    path run alone, whatever the other streams.
    """
    g = v0.grid
    k = len(modes)
    if k > 0:
        if len(noise_cfgs) == 0:
            raise ValueError("modes given but no noise_cfgs")
        dW = np.stack([increment_block(c, dt, n_steps, k) for c in noise_cfgs], axis=1)
    elif len(noise_cfgs) > 0:
        raise ValueError("noise_cfgs given but no modes")
    else:
        dW = np.zeros((n_steps, 1, 0))
    n_paths = dW.shape[1]
    w = g.weights
    tw = g.tail_weight

    def penalty(v, tail):
        # orders 0, 1 and 2 of one state: its functional, then the
        # derivatives the next step expands around
        return _penalty_orders(n, v, (0, 1, 2)), _penalty_orders(n, tail, (0, 1, 2))

    squares = [m.values**2 for m in modes]
    v = np.tile(v0.values, (n_paths, 1))
    tail = np.full(n_paths, v0.tail_value)
    times = np.arange(n_steps + 1) * dt
    func = np.empty((n_steps + 1, n_paths))
    res = np.empty((n_steps, n_paths))
    (p0, d1, d2), (p0t, d1t, d2t) = penalty(v, tail)
    func[0] = weighted_sum(w, p0) + tw * p0t
    for j in range(n_steps):
        ds_term = weighted_sum(w, d1 * drift.values) + tw * d1t * drift.tail_value
        dw_term = 0.0
        for kk in range(k):
            m = modes[kk]
            mt = np.float64(m.tail_value)  # overflows to inf, not to a Python exception
            ds_term += 0.5 * (weighted_sum(w, d2 * squares[kk]) + tw * d2t * mt**2)
            dw_term += (weighted_sum(w, d1 * m.values) + tw * d1t * m.tail_value) * dW[j, :, kk]
        v = v + drift.values * dt
        tail = tail + drift.tail_value * dt
        for kk in range(k):
            v = v + modes[kk].values * dW[j, :, kk, None]
            tail = tail + modes[kk].tail_value * dW[j, :, kk]
        (p0, d1, d2), (p0t, d1t, d2t) = penalty(v, tail)
        func[j + 1] = weighted_sum(w, p0) + tw * p0t
        res[j] = func[j + 1] - func[j] - ds_term * dt - dw_term
    return ItoReport(times, func, res)


def supermartingale_stat(times: np.ndarray, neg_energy: np.ndarray, c_const: float) -> np.ndarray:
    """Discount the negative-part energy so it should trend downward.

    neg_energy may be (n_times,) or (paths, n_times); times broadcasts
    along the last axis.
    """
    return np.exp(-2.0 * c_const * np.asarray(times)) * neg_energy
