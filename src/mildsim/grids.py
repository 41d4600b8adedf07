"""Half-line grids with exponentially weighted quadrature.

Functions on [0, infinity) are stored as node values on a uniform grid
[0, x_max] plus a single constant tail value used for x > x_max.  All
inner products and norms are taken against the measure e^{-alpha x} dx.
Quadrature weights integrate the piecewise-linear interpolant exactly,
so constants and hat functions are handled without discretization error;
smooth functions converge at second order in the spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "LatticeParts",
    "hat_weights",
    "weighted_inner",
    "norm",
    "lattice_parts",
    "whole_multiple",
]


def whole_multiple(t: float, unit: float) -> int | None:
    """t / unit when that is a whole number (to 1e-9 relative), else None."""
    m = t / unit if unit > 0.0 else math.nan
    if not math.isfinite(m):
        return None
    k = round(m)
    return k if abs(m - k) <= 1e-9 * max(1.0, abs(m)) else None


def hat_weights(nodes: np.ndarray, a: float) -> np.ndarray:
    """Weights w_i = integral of phi_i(x) e^{a x} dx over [x_0, x_N].

    phi_i is the hat function at node i.  Exact for the piecewise-linear
    interpolant, any sign of a.  A series branch keeps the per-cell
    moments stable when |a * spacing| is tiny.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    d = np.diff(nodes)
    if np.any(d <= 0.0):
        raise ValueError("nodes must be strictly increasing")
    w = np.zeros(nodes.shape[0], dtype=np.float64)
    z = a * d
    left = np.empty_like(d)
    right = np.empty_like(d)
    small = np.abs(z) < 5e-3
    if np.any(small):
        zs, ds = z[small], d[small]
        # phi weights against e^{a(x - x_i)} on one cell, expanded in z;
        # the direct formulas cancel catastrophically for small z
        left[small] = ds * (0.5 + zs / 6.0 + zs * zs / 24.0 + zs**3 / 120.0 + zs**4 / 720.0)
        right[small] = ds * (0.5 + zs / 3.0 + zs * zs / 8.0 + zs**3 / 30.0 + zs**4 / 144.0)
    big = ~small
    if np.any(big):
        zb, db = z[big], d[big]
        ez = np.exp(zb)
        i0 = db * (ez - 1.0) / zb
        i1 = db * (ez / zb - (ez - 1.0) / (zb * zb))
        left[big] = i0 - i1
        right[big] = i1
    scale = np.exp(a * nodes[:-1])
    w[:-1] += left * scale
    w[1:] += right * scale
    return w


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, x_max] with weight exponent alpha.

    The reference measure is e^{-alpha x} dx on the half line; the part
    beyond x_max is absorbed into a scalar tail weight e^{-alpha x_max}
    / alpha that multiplies products of tail values.
    """

    nodes: np.ndarray
    alpha: float
    weights: np.ndarray = field(repr=False)
    tail_weight: float

    @classmethod
    def uniform(cls, x_max: float, n_nodes: int, alpha: float) -> "Grid":
        if not (alpha > 0.0):
            raise ValueError("alpha must be positive")
        if not (x_max > 0.0):
            raise ValueError("x_max must be positive")
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        nodes = np.linspace(0.0, x_max, n_nodes)
        w = hat_weights(nodes, -alpha)
        tail_w = float(np.exp(-alpha * x_max) / alpha)
        return cls(nodes=nodes, alpha=float(alpha), weights=w, tail_weight=tail_w)

    @property
    def n(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def growth_weights(self) -> np.ndarray:
        """Hat weights against e^{+alpha x}, used by the derivative norm."""
        return hat_weights(self.nodes, self.alpha)


@dataclass
class GridFunction:
    """Node values plus a constant tail value for x > x_max."""

    grid: Grid
    values: np.ndarray
    tail_value: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("values shape does not match grid")
        self.tail_value = float(self.tail_value)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n, float(value)), float(value))

    @classmethod
    def from_callable(
        cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray], tail_value: float | None = None
    ) -> "GridFunction":
        vals = np.asarray(fn(grid.nodes), dtype=np.float64)
        if tail_value is None:
            tail_value = float(vals[-1])
        return cls(grid, vals, tail_value)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy(), self.tail_value)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values + other.values, self.tail_value + other.tail_value)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values - other.values, self.tail_value - other.tail_value)

    def __mul__(self, c: float) -> "GridFunction":
        c = float(c)
        return GridFunction(self.grid, self.values * c, self.tail_value * c)

    __rmul__ = __mul__

    def _check(self, other: "GridFunction") -> None:
        if other.grid is not self.grid and not np.array_equal(other.grid.nodes, self.grid.nodes):
            raise ValueError("grid mismatch")


@dataclass(frozen=True)
class LatticeParts:
    """Pointwise positive part, negative part and negativity indicator."""

    positive: GridFunction
    negative: GridFunction
    indicator: GridFunction


def weighted_inner(f: GridFunction, g: GridFunction) -> float:
    """Inner product of f*g against e^{-alpha x} dx, tail included."""
    f._check(g)
    grid = f.grid
    core = float(np.dot(grid.weights, f.values * g.values))
    return core + grid.tail_weight * f.tail_value * g.tail_value


def norm(f: GridFunction, kind: str = "l2") -> float:
    """Norm of f in the weighted space named by kind.

    "l2": sqrt of the weighted self inner product.
    "l1": integral of |f| against the weight.
    "deriv": sqrt(f(inf)^2 + integral of f'(x)^2 e^{+alpha x} dx), with
    centered differences inside and one-sided second order stencils at
    the ends.  The tail derivative is zero by the constant extension.
    """
    grid = f.grid
    if kind == "l2":
        return float(np.sqrt(max(weighted_inner(f, f), 0.0)))
    if kind == "l1":
        core = float(np.dot(grid.weights, np.abs(f.values)))
        return core + grid.tail_weight * abs(f.tail_value)
    if kind == "deriv":
        v = f.values
        h = grid.spacing
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        core = float(np.dot(grid.growth_weights(), d * d))
        return float(np.sqrt(f.tail_value * f.tail_value + core))
    raise ValueError(f"unknown norm kind: {kind!r}")


def lattice_parts(f: GridFunction) -> LatticeParts:
    """Split f into positive part, negative part and indicator of f < 0.

    The negative part is nonnegative: f = positive - negative pointwise.
    The indicator is 1 where f < 0, else 0 (same convention in the tail).
    """
    v = f.values
    pos = np.where(v > 0.0, v, 0.0)
    neg = np.where(v < 0.0, -v, 0.0)
    ind = (v < 0.0).astype(np.float64)
    tp = f.tail_value if f.tail_value > 0.0 else 0.0
    tn = -f.tail_value if f.tail_value < 0.0 else 0.0
    ti = 1.0 if f.tail_value < 0.0 else 0.0
    g = f.grid
    return LatticeParts(
        positive=GridFunction(g, pos, tp),
        negative=GridFunction(g, neg, tn),
        indicator=GridFunction(g, ind, ti),
    )
