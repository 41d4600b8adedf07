"""Half-line grids with exponentially weighted quadrature.

Functions on [0, infinity) are stored as node values on a uniform grid
[0, x_max] plus a single constant tail value used for x > x_max.  All
inner products and norms are taken against the measure e^{-alpha x} dx.
Quadrature weights integrate the piecewise-linear interpolant exactly,
so constants and hat functions are handled without discretization error;
smooth functions converge at second order in the spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spec import tail_weight

__all__ = [
    "Grid",
    "GridFunction",
    "LatticeParts",
    "hat_weights",
    "weighted_inner",
    "norm",
    "lattice_parts",
]


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
    z = a * d
    small = np.abs(z) < 5e-3
    left = np.empty_like(d)
    right = np.empty_like(d)
    if np.any(small):
        whole = small.all()
        zs, ds = (z, d) if whole else (z[small], d[small])
        # phi weights against e^{a(x - x_i)} on one cell, expanded in z;
        # the direct formulas cancel catastrophically for small z.  The
        # factors depend on z alone, so they are evaluated once per
        # distinct z (a uniform grid has a few dozen): ** costs about ten
        # times more on a negative base than on a positive one
        zu = np.unique(zs)
        k = np.searchsorted(zu, zs)
        for out, f in (
            (left, 0.5 + zu / 6.0 + zu * zu / 24.0 + zu**3 / 120.0 + zu**4 / 720.0),
            (right, 0.5 + zu / 3.0 + zu * zu / 8.0 + zu**3 / 30.0 + zu**4 / 144.0),
        ):
            fs = np.take(f, k, out=out if whole else None)
            fs *= ds
            if not whole:
                out[small] = fs
        del zs, ds, k, fs
    big = ~small
    if np.any(big):
        zb, db = z[big], d[big]
        ez = np.exp(zb)
        i0 = db * (ez - 1.0) / zb
        # z * z overflows for |z| above about 1e154, where (e^z - 1) / z^2
        # is 0 to double precision when z < 0, as it is for every norm
        with np.errstate(over="ignore"):
            i1 = db * (ez / zb - (ez - 1.0) / (zb * zb))
        left[big] = i0 - i1
        right[big] = i1
        del zb, db, ez, i0, i1
    # every temporary goes before the last three node arrays are made
    del d, z, small, big
    scale = a * nodes[:-1]
    np.exp(scale, out=scale)
    left *= scale
    right *= scale
    del scale
    w = np.zeros(nodes.shape[0], dtype=np.float64)
    w[:-1] += left
    w[1:] += right
    return w


@dataclass(frozen=True, eq=False)  # == and hash by identity; same() compares values
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
        tail_w = tail_weight(alpha, x_max, np.exp)
        nodes = np.linspace(0.0, x_max, n_nodes)
        w = hat_weights(nodes, -alpha)
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

    def same(self, other: "Grid") -> bool:
        """Whether other is this grid: the same object, or equal nodes and equal alpha."""
        return other is self or (other.alpha == self.alpha and np.array_equal(other.nodes, self.nodes))

    def growth_weights(self) -> np.ndarray:
        """Hat weights against e^{+alpha x}, used by the derivative norm."""
        return hat_weights(self.nodes, self.alpha)


@dataclass(eq=False)  # == and hash by identity, as for Grid
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
        return self.minus(other)

    def minus(self, other: "GridFunction", out: np.ndarray | None = None) -> "GridFunction":
        """self - other, with the node values written to out when given."""
        self._check(other)
        return GridFunction(self.grid, np.subtract(self.values, other.values, out=out),
                            self.tail_value - other.tail_value)

    def __mul__(self, c: float) -> "GridFunction":
        c = float(c)
        return GridFunction(self.grid, self.values * c, self.tail_value * c)

    __rmul__ = __mul__

    def _check(self, other: "GridFunction") -> None:
        if not self.grid.same(other.grid):
            raise ValueError("grid mismatch")


@dataclass(frozen=True)
class LatticeParts:
    """Pointwise positive part, negative part and negativity indicator."""

    positive: GridFunction
    negative: GridFunction
    indicator: GridFunction


_DOT_CHUNK = 8192  # OpenBLAS splits a dot over threads above 10,000 elements


def weighted_sum(w: np.ndarray, x: np.ndarray):
    """The dot of w with x, a node row, or with each row of x along its last axis.

    One np.dot (np.vecdot for rows) up to _DOT_CHUNK nodes; beyond, the dots
    of _DOT_CHUNK-node chunks and of the rest, added in order.  So no BLAS
    thread count changes its bits, and each row's sum is its 1-D sum.
    """
    n = w.shape[0]
    if n <= _DOT_CHUNK:
        return np.dot(w, x) if x.ndim == 1 else np.vecdot(x, w)
    m = n - n % _DOT_CHUNK
    chunks = x[..., :m].reshape(*x.shape[:-1], -1, _DOT_CHUNK)
    s = np.add.accumulate(np.vecdot(chunks, w[:m].reshape(-1, _DOT_CHUNK)), axis=-1)[..., -1]
    return s + np.vecdot(x[..., m:], w[m:]) if m < n else s


def weighted_inner(f: GridFunction, g: GridFunction, out: np.ndarray | None = None) -> float:
    """Inner product of f*g against e^{-alpha x} dx, tail included.

    The node products go to out when given.
    """
    f._check(g)
    grid = f.grid
    core = float(weighted_sum(grid.weights, np.multiply(f.values, g.values, out=out)))
    return core + grid.tail_weight * f.tail_value * g.tail_value


def norm(f: GridFunction, kind: str = "l2", out: np.ndarray | None = None) -> float:
    """Norm of f in the weighted space named by kind.

    "l2": sqrt of the weighted self inner product.
    "l1": integral of |f| against the weight; |f| goes to out when given.
    "deriv": sqrt(f(inf)^2 + integral of f'(x)^2 e^{+alpha x} dx), with
    centered differences inside and one-sided second order stencils at
    the ends.  The tail derivative is zero by the constant extension.
    """
    grid = f.grid
    if kind == "l2":
        return float(np.sqrt(max(weighted_inner(f, f), 0.0)))
    if kind == "l1":
        core = float(weighted_sum(grid.weights, np.abs(f.values, out=out)))
        return core + grid.tail_weight * abs(f.tail_value)
    if kind == "deriv":
        v = f.values
        h = grid.spacing
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        core = float(weighted_sum(grid.growth_weights(), d * d))
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
