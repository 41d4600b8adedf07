"""Splitting scheme for the mild evolution on the half line.

One step over dt first moves the state through the exact semigroup
(a whole-node left shift with the weight damping), then adds the drift
evaluated at the shifted state times dt and the diffusion modes times
the Brownian increments.  The variant scheme evaluates reactions before
shifting.  dt must be a whole multiple of the grid spacing so the shift
never interpolates; with no reactions the scheme is exact to the bit.

With a positive regularization parameter lam every drift evaluation
and every diffusion mode column is passed through the resolvent before
it touches the state, which is how the regularized dynamics used by
the convergence study are produced.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import kernels
from .coefficients import CoefficientModel
# norm is not called here any more, but perfbench/tracing.py wraps solver.norm
from .grids import Grid, GridFunction, norm, weighted_sum  # noqa: F401
from .noise import NoiseConfig, gaussian_block
from .operators import OperatorSuite
from .smoothing import supermartingale_stat
from .spec import (DEFAULT_BLOW_THRESHOLD, DEFAULT_CHUNK_SIZE, DEFAULT_LAM, DEFAULT_SCHEME, SCHEMES,
                   whole_multiple)

__all__ = [
    "SCHEMES",
    "DEFAULT_SCHEME",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_BLOW_THRESHOLD",
    "DEFAULT_THRESHOLDS",
    "SolverConfig",
    "EnsembleResult",
    "EnsembleStats",
    "simulate_path",
    "simulate_regularized",
    "run_ensemble",
    "ensemble_stats",
    "lambda_convergence_study",
]

DEFAULT_THRESHOLDS = (-1e-6, -1e-3, -1e-2)  # levels of ensemble_stats' frac_below

# bytes of the two every-step snapshot arrays, plain and regularized, that
# a lambda study holds at once; more streams run in further batches
STUDY_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    scheme: str = DEFAULT_SCHEME
    lam: float = DEFAULT_LAM
    blow_threshold: float = DEFAULT_BLOW_THRESHOLD

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.t_final > 0.0):
            raise ValueError("t_final must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        if whole_multiple(self.t_final, self.dt) is None:
            raise ValueError("t_final must be a whole number of steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def _simulate_streams(u0, suite, model, cfg, streams, out):
    """One kernel call into out, an Outputs, with one row per stream, all from u0."""
    if not model.grid.same(suite.grid):
        raise ValueError("model and operator suite use different grids")
    g = suite.grid
    n_steps = cfg.n_steps
    sq = np.sqrt(cfg.dt)
    p = len(streams)
    dW = np.empty((p, n_steps, model.n_modes))
    for i, s in enumerate(streams):
        dW[i] = gaussian_block(s, n_steps, model.n_modes) * sq
    v0 = np.broadcast_to(u0.values, (p, g.n))
    t0 = np.broadcast_to(np.float64(u0.tail_value), (p,))
    res = kernels.resolvent_coeffs(g.spacing, cfg.lam, suite.alpha_eff) if cfg.lam > 0.0 else None
    return kernels.simulate_batch(
        v0, t0, dW, suite.steps_for_time(cfg.dt), suite.damping(cfg.dt), float(cfg.dt),
        SCHEMES.index(cfg.scheme), model.kernel_args(), res, g.weights, g.tail_weight,
        float(cfg.blow_threshold), out)


@dataclass
class EnsembleResult:
    grid: Grid
    times: np.ndarray
    # kernels.Outputs' records, in its order
    final_values: np.ndarray
    final_tails: np.ndarray
    neg_energy: np.ndarray
    min_value: np.ndarray
    aborted: np.ndarray

    @property
    def n_paths(self) -> int:
        return int(self.neg_energy.shape[0])

    @property
    def n_aborted(self) -> int:
        return int((self.aborted >= 0).sum())


def simulate_path(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfg: NoiseConfig,
) -> EnsembleResult:
    """One path on noise_cfg's stream: the one-row ensemble of that seed and stream."""
    return run_ensemble(u0, suite, model, cfg, 1, noise_cfg.seed, noise_cfg.stream_id)


def simulate_regularized(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfg: NoiseConfig,
    lam: float,
) -> EnsembleResult:
    """Run with resolvent-smoothed state and reactions at parameter lam.

    The initial state is smoothed once up front; during stepping every
    drift evaluation and diffusion column passes through the resolvent.
    """
    if not (lam > 0.0):
        raise ValueError("lam must be positive")
    u0s = suite.resolvent(u0, lam)
    return simulate_path(u0s, suite, model, replace(cfg, lam=lam), noise_cfg)


def run_ensemble(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    n_paths: int,
    seed: int,
    stream_base: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EnsembleResult:
    """Simulate n_paths independent paths from the same initial state.

    Path p uses noise stream stream_base + p of the given seed, so
    results do not depend on chunk_size, and simulate_path reproduces
    any one path alone.  Each chunk writes its rows of one Outputs.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    out = kernels.outputs(n_paths, u0.grid.n, cfg.n_steps)
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        streams = [NoiseConfig(seed, stream_base + i) for i in range(lo, hi)]
        _simulate_streams(u0, suite, model, cfg, streams, out.rows(lo, hi))
    return EnsembleResult(u0.grid, np.arange(cfg.n_steps + 1) * cfg.dt, *out[:5])


@dataclass(frozen=True)
class EnsembleStats:
    times: np.ndarray
    neg_energy_mean: np.ndarray
    neg_energy_p95: np.ndarray
    min_value_min: np.ndarray
    supermartingale_mean: np.ndarray
    frac_below: dict


def ensemble_stats(ens: EnsembleResult, c_const: float = 0.0) -> EnsembleStats:
    """Cross-path summaries; aborted paths drop out of every statistic.

    frac_below maps each of DEFAULT_THRESHOLDS to the running fraction of paths
    whose minimum so far has gone below it ("ever under" by time t).
    """
    have_aborts = (ens.aborted >= 0).any()
    mean = np.nanmean if have_aborts else np.mean
    pct = np.nanpercentile if have_aborts else np.percentile
    amin = np.nanmin if have_aborts else np.min
    with warnings.catch_warnings():
        # all-NaN time slices (every path aborted) legitimately yield NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        neg_mean = mean(ens.neg_energy, axis=0)
        neg_p95 = pct(ens.neg_energy, 95, axis=0)
        mins = amin(ens.min_value, axis=0)
        run_min = np.minimum.accumulate(ens.min_value, axis=1)
        frac = {}
        for thr in DEFAULT_THRESHOLDS:
            below = run_min < thr
            frac[thr] = below.mean(axis=0) if not have_aborts else np.nanmean(
                np.where(np.isnan(run_min), np.nan, below.astype(np.float64)), axis=0
            )
    return EnsembleStats(
        times=ens.times,
        neg_energy_mean=neg_mean,
        neg_energy_p95=neg_p95,
        min_value_min=mins,
        supermartingale_mean=supermartingale_stat(ens.times, neg_mean, c_const),
        frac_below=frac,
    )


def _sup_distances(grid, a, a_tails, b, b_tails) -> np.ndarray:
    """Per path, the supremum over snapshots of the weighted L2 distance of two runs.

    a and b are (snapshots, paths, N) with their tails; NaN snapshots of
    an aborted run drop out of the supremum.  b is overwritten: it holds
    the squared differences afterwards.  Each distance is bitwise
    norm(a - b, "l2"), since weighted_sum's row sums are its 1-D sums,
    and the supremum is Python's max starting from 0.0: NaN and zero
    distances leave it at 0.0.
    """
    np.subtract(a, b, out=b)
    np.multiply(b, b, out=b)
    t = a_tails - b_tails
    sq = weighted_sum(grid.weights, b) + grid.tail_weight * t * t
    d = np.sqrt(np.maximum(sq, 0.0))
    return np.where(d > 0.0, d, 0.0).max(axis=0, initial=0.0)


def lambda_convergence_study(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfgs: Sequence[NoiseConfig],
    lams: tuple,
) -> np.ndarray:
    """Couple regularized runs to the plain run through shared noise.

    Returns a (streams, lams) array: row p, column j holds, for noise
    stream p and lams[j] in the given orders, the supremum over recorded
    times of the weighted L2 distance to the unregularized path driven
    by the same increments.  The regularized runs start from the
    resolvent of u0 at their lam (see simulate_regularized).

    The streams run in batches, each one kernel call for the plain runs
    and one per lam, cut so that the two every-step snapshot arrays held
    at once stay within STUDY_BYTES.  A stream's row does not depend on
    the batch it runs in.
    """
    if len(lams) == 0:
        raise ValueError("need at least one lam")
    if not all(lam > 0.0 for lam in lams):
        raise ValueError("lam must be positive")
    cfg0 = replace(cfg, lam=0.0)
    starts = [suite.resolvent(u0, lam) for lam in lams]
    grid = u0.grid
    per_batch = max(1, STUDY_BYTES // (2 * 8 * (cfg.n_steps + 1) * grid.n))
    dist = np.empty((len(noise_cfgs), len(lams)))
    for lo in range(0, len(noise_cfgs), per_batch):
        streams = noise_cfgs[lo : lo + per_batch]
        plain = kernels.outputs(len(streams), grid.n, cfg.n_steps, snapshots=True)
        _simulate_streams(u0, suite, model, cfg0, streams, plain)
        # every lam's run in turn; _sup_distances overwrites its snapshots
        reg = kernels.outputs(len(streams), grid.n, cfg.n_steps, snapshots=True)
        for j, start in enumerate(starts):
            _simulate_streams(start, suite, model, replace(cfg, lam=lams[j]), streams, reg)
            dist[lo : lo + len(streams), j] = _sup_distances(
                grid, plain.snapshots, plain.snapshot_tails, reg.snapshots, reg.snapshot_tails)
    return dist
