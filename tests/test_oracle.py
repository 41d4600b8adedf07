"""The integrator's paths against the closed-form mild solutions of Gaussian HJM models.

With a deterministic volatility the Musiela equation solves in closed form,
driven by the same Brownian path the kernel steps with.  From a flat curve
r0, with W_t the sum of the kernel's own increments
gaussian_block(NoiseConfig(seed, p), n, 1) * sqrt(dt):

- Ho-Lee, one `constant` mode c (Ho & Lee 1986):
  r(t, x) = r0 + c^2 (x t + t^2 / 2) + c W_t.
- Hull-White, one `exponential-decay` mode c e^{-a x} (Hull & White 1990;
  Brace & Musiela 1994): r(t, x) = r0 + int_x^{x+t} D + int_0^t c e^{-a(x+t-s)} dW_s,
  with D(y) = c^2 e^{-a y} (1 - e^{-a y}) / a and the stochastic integral
  taken as a Riemann sum over the kernel's increments.  The kernel adds
  an increment after the step's shift, so its own sum is the right-point
  one.

The comparison runs at dt = dx (a one-cell shift) on the nodes with
x <= x_max - t, whose domain of dependence never reaches the constant tail.
The error is the maximum over paths and those nodes, and each bound below
is the measured error divided by dt, rounded up at the third digit.
"""

from functools import lru_cache

import numpy as np
import pytest

from mildsim import kernels
from mildsim.coefficients import ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.hjm import build_hjm
from mildsim.noise import NoiseConfig, gaussian_block
from mildsim.solver import SolverConfig, run_ensemble
from mildsim.spec import DEFAULT_CHUNK_SIZE

X_MAX, ALPHA, R0, T, SEED = 1.0, 0.5, 0.01, 0.4, 7
DXS = (2e-3, 1e-3, 5e-4)
C = 0.2
# case ids name the kernel's one split order
IDS = ["shift-then-react-alpha-in-drift", "shift-then-react-alpha-dropped"]

# by alpha_in_drift, the error over dt at DXS, measured: 3.36e-5, 1.69e-5
# and 7.89e-6 with alpha in the drift; without it c^2 t dt / 2
HO_LEE_K = {True: 0.0170, False: 0.00801}
# by alpha_in_drift, the error over dt at DXS against the right-point
# Riemann sum, measured: 1.06e-2, 1.09e-2 and 9.20e-3 with alpha in the
# drift; without it 4.42e-3, the drift's bias alone
HULL_WHITE_K = {True: 0.0109, False: 0.00443}


def _paths(mode, dx, alpha_in_drift, n_paths, chunk_size=DEFAULT_CHUNK_SIZE):
    """The final rows, the increments (paths, steps) and the kept nodes of one run."""
    grid = Grid.uniform(X_MAX, int(round(X_MAX / dx)) + 1, ALPHA)
    u0 = GridFunction.constant(grid, R0)
    built = build_hjm((mode,), u0, alpha_in_drift=alpha_in_drift, check_samples=1)
    cfg = SolverConfig(dt=dx, t_final=T)
    ens = run_ensemble(u0, built.suite, built.model, cfg, n_paths, SEED, chunk_size=chunk_size)
    dW = np.stack([gaussian_block(NoiseConfig(SEED, p), cfg.n_steps, 1)[:, 0]
                   for p in range(n_paths)]) * np.sqrt(dx)
    keep = grid.nodes <= X_MAX - T + 1e-12
    return ens.final_values[:, keep], dW, grid.nodes[keep]


def _ho_lee_error(dx, alpha_in_drift, chunk_size=DEFAULT_CHUNK_SIZE):
    got, dW, x = _paths(ModeFunction("constant", c=C), dx, alpha_in_drift, 64, chunk_size)
    exact = R0 + C * C * (x * T + T * T / 2.0) + C * dW.sum(axis=1)[:, None]
    return float(np.abs(got - exact).max())


_plain_ho_lee_error = lru_cache(maxsize=None)(_ho_lee_error)


def _hull_white_error(dx, alpha_in_drift=True, right_point=False, a=1.0):
    mode = ModeFunction("exponential-decay", c=C, decay=a)
    got, dW, x = _paths(mode, dx, alpha_in_drift, 32)
    e1, e2 = np.exp(-a * x) - np.exp(-a * (x + T)), np.exp(-2 * a * x) - np.exp(-2 * a * (x + T))
    drift = C * C / a * (e1 / a - e2 / (2.0 * a))
    s = (np.arange(dW.shape[1]) + right_point) * dx
    exact = R0 + drift + dW @ (C * np.exp(-a * (x[None, :] + T - s[:, None])))
    return float(np.abs(got - exact).max())


def _orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("alpha_in_drift", [True, False], ids=IDS)
def test_ho_lee_paths_are_first_order_in_dt(alpha_in_drift):
    errors = [_plain_ho_lee_error(dx, alpha_in_drift) for dx in DXS]
    k = HO_LEE_K[alpha_in_drift]
    assert all(e <= k * dx for e, dx in zip(errors, DXS)), errors
    assert min(_orders(errors)) >= 0.9, errors


def test_ho_lee_without_alpha_in_drift_is_the_drift_quadrature_bias():
    # the only error left is the HJM drift's, c^2 t dt / 2
    for dx in DXS:
        assert _plain_ho_lee_error(dx, False) == pytest.approx(C * C * T * dx / 2.0, rel=1e-6)


def test_ho_lee_chunked_call_has_the_plain_calls_error():
    # 64 paths in chunks of 24, 24 and 16
    got = _ho_lee_error(DXS[0], True, chunk_size=24)
    assert got == _plain_ho_lee_error(DXS[0], True)


def test_ho_lee_forked_call_has_the_plain_calls_error(monkeypatch):
    want = _plain_ho_lee_error(DXS[0], False)
    # blocks of 16 rows, cut into two shares of which the second runs in a child
    monkeypatch.setattr(kernels, "_SPLIT_NODE_STEPS", 0)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 16 * 8 * (int(round(X_MAX / DXS[0])) + 1))
    forked, fork_share = [], kernels._fork_share
    monkeypatch.setattr(kernels, "_fork_share",
                        lambda run, lo, hi: forked.append((lo, hi)) or fork_share(run, lo, hi))
    got = _ho_lee_error(DXS[0], False)
    assert len(forked) == 1
    assert got == want


def test_hull_white_paths_are_first_order_in_dt():
    # measured: 5.34e-4, 2.37e-4 and 1.08e-4
    errors = [_hull_white_error(dx) for dx in DXS]
    assert all(e <= 0.268 * dx for e, dx in zip(errors, DXS)), errors
    assert min(_orders(errors)) >= 0.9, errors


@pytest.mark.parametrize("alpha_in_drift", [True, False], ids=IDS)
def test_hull_white_paths_match_their_orders_own_sum(alpha_in_drift):
    errors = [_hull_white_error(dx, alpha_in_drift, right_point=True) for dx in DXS]
    k = HULL_WHITE_K[alpha_in_drift]
    assert all(e <= k * dx for e, dx in zip(errors, DXS)), errors
    assert min(_orders(errors)) >= 0.9, errors
