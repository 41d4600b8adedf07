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
from .grids import Grid, GridFunction, norm, whole_multiple  # noqa: F401
from .noise import NoiseConfig, gaussian_block
from .operators import OperatorSuite
from .smoothing import supermartingale_stat

__all__ = [
    "SCHEMES",
    "SolverConfig",
    "PathResult",
    "EnsembleResult",
    "EnsembleStats",
    "step_once",
    "simulate_path",
    "simulate_regularized",
    "run_ensemble",
    "ensemble_stats",
    "StudyEntry",
    "lambda_convergence_study",
]

SCHEMES = ("shift-then-react", "react-then-shift")

# bytes of the two stride-1 snapshot arrays, plain and regularized, that
# a lambda study holds at once; more streams run in further batches
STUDY_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    scheme: str = "shift-then-react"
    lam: float = 0.0
    snapshot_stride: int = 0
    blow_threshold: float = 1e12

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.t_final > 0.0):
            raise ValueError("t_final must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be nonnegative")
        if whole_multiple(self.t_final, self.dt) is None:
            raise ValueError("t_final must be a whole number of steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def snapshot_steps(self) -> np.ndarray:
        if self.snapshot_stride == 0:
            return np.zeros(0, dtype=np.int64)
        s = np.arange(0, self.n_steps + 1, self.snapshot_stride, dtype=np.int64)
        if s[-1] != self.n_steps:
            s = np.append(s, np.int64(self.n_steps))
        return s


def _check_grids(suite: OperatorSuite, model: CoefficientModel) -> None:
    if model.grid is not suite.grid and not (
        np.array_equal(model.grid.nodes, suite.grid.nodes)
        and model.grid.alpha == suite.grid.alpha
    ):
        raise ValueError("model and operator suite use different grids")


def _kernel_call(u0, suite, model, cfg, dW):
    _check_grids(suite, model)
    g = suite.grid
    m_shift = suite.steps_for_time(cfg.dt)
    damp = suite.damping(cfg.dt)
    if cfg.lam > 0.0:
        E, amb, b, denom = kernels.resolvent_coeffs(g.spacing, cfg.lam, suite.alpha_eff)
    else:
        E, amb, b, denom = 0.0, 0.0, 0.0, 1.0
    ka = model.kernel_args()
    scheme = 0 if cfg.scheme == "shift-then-react" else 1
    return kernels.simulate_batch(
        np.ascontiguousarray(u0[0], dtype=np.float64),
        np.ascontiguousarray(u0[1], dtype=np.float64),
        np.ascontiguousarray(dW, dtype=np.float64),
        m_shift, damp, float(cfg.dt), scheme,
        ka["profiles"], ka["profile_tails"], ka["level_codes"], ka["caps"],
        ka["drift_code"], ka["drift_c"], ka["alpha_corr"],
        float(cfg.lam), E, amb, b, denom,
        g.spacing, g.weights, g.tail_weight, float(cfg.blow_threshold), cfg.snapshot_steps(),
    )


def _simulate_streams(u0, suite, model, cfg, streams):
    """One kernel call with one row per noise stream, every row starting at u0."""
    if any(s.n_modes != model.n_modes for s in streams):
        raise ValueError("noise_cfg.n_modes does not match the model")
    n_steps = cfg.n_steps
    sq = np.sqrt(cfg.dt)
    p = len(streams)
    dW = np.empty((p, n_steps, model.n_modes))
    for i, s in enumerate(streams):
        dW[i] = gaussian_block(s, n_steps) * sq
    v0 = np.tile(u0.values, (p, 1))
    t0 = np.full(p, u0.tail_value)
    return _kernel_call((v0, t0), suite, model, cfg, dW)


@dataclass
class PathResult:
    times: np.ndarray
    final: GridFunction
    neg_energy: np.ndarray
    min_value: np.ndarray
    abort_step: int
    snapshots: list

    @property
    def aborted(self) -> bool:
        return self.abort_step >= 0

    def supermartingale(self, c_const: float) -> np.ndarray:
        return supermartingale_stat(self.times, self.neg_energy, c_const)


@dataclass
class EnsembleResult:
    grid: Grid
    times: np.ndarray
    neg_energy: np.ndarray
    min_value: np.ndarray
    final_values: np.ndarray
    final_tails: np.ndarray
    aborted: np.ndarray
    snapshot_steps: np.ndarray
    snapshots: np.ndarray
    snapshot_tails: np.ndarray

    @property
    def n_paths(self) -> int:
        return int(self.neg_energy.shape[0])

    @property
    def n_aborted(self) -> int:
        return int((self.aborted >= 0).sum())


def step_once(u: GridFunction, suite: OperatorSuite, model: CoefficientModel, cfg: SolverConfig, dw: np.ndarray) -> GridFunction:
    """One scheme step with explicit increments, for reference checks."""
    dw = np.asarray(dw, dtype=np.float64)
    if dw.shape != (model.n_modes,):
        raise ValueError("dw must hold one increment per mode")
    one = replace(cfg, t_final=cfg.dt)
    out_v, out_t, _, _, _, _, _ = _kernel_call(
        (u.values[None, :], np.array([u.tail_value])), suite, model, one, dw[None, None, :]
    )
    return GridFunction(u.grid, out_v[0], float(out_t[0]))


def simulate_path(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfg: NoiseConfig,
) -> PathResult:
    out_v, out_t, neg_e, min_v, aborted, snaps, snap_tails = _simulate_streams(
        u0, suite, model, cfg, [noise_cfg])
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    shots = [
        (float(s * cfg.dt), GridFunction(u0.grid, snaps[i, 0].copy(), float(snap_tails[i, 0])))
        for i, s in enumerate(cfg.snapshot_steps())
    ]
    return PathResult(
        times=times,
        final=GridFunction(u0.grid, out_v[0], float(out_t[0])),
        neg_energy=neg_e[0],
        min_value=min_v[0],
        abort_step=int(aborted[0]),
        snapshots=shots,
    )


def simulate_regularized(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfg: NoiseConfig,
    lam: float,
) -> PathResult:
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
    chunk_size: int = 2048,
) -> EnsembleResult:
    """Simulate n_paths independent paths from the same initial state.

    Path p uses noise stream stream_base + p of the given seed, so any
    subset of paths can be reproduced in isolation and results do not
    depend on chunk_size.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    g = u0.grid
    n_steps = cfg.n_steps
    snap_steps = cfg.snapshot_steps()
    S = snap_steps.shape[0]
    neg_e = np.empty((n_paths, n_steps + 1))
    min_v = np.empty((n_paths, n_steps + 1))
    finals = np.empty((n_paths, g.n))
    ftails = np.empty(n_paths)
    aborted = np.empty(n_paths, dtype=np.int64)
    snaps = np.empty((S, n_paths, g.n))
    snap_tails = np.empty((S, n_paths))
    base = NoiseConfig(model.n_modes, seed)
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        streams = [base.with_stream(stream_base + i) for i in range(lo, hi)]
        out = _simulate_streams(u0, suite, model, cfg, streams)
        finals[lo:hi], ftails[lo:hi] = out[0], out[1]
        neg_e[lo:hi], min_v[lo:hi], aborted[lo:hi] = out[2], out[3], out[4]
        snaps[:, lo:hi], snap_tails[:, lo:hi] = out[5], out[6]
    times = np.arange(n_steps + 1) * cfg.dt
    return EnsembleResult(
        grid=g,
        times=times,
        neg_energy=neg_e,
        min_value=min_v,
        final_values=finals,
        final_tails=ftails,
        aborted=aborted,
        snapshot_steps=snap_steps,
        snapshots=snaps,
        snapshot_tails=snap_tails,
    )


@dataclass(frozen=True)
class EnsembleStats:
    times: np.ndarray
    neg_energy_mean: np.ndarray
    neg_energy_p95: np.ndarray
    min_value_min: np.ndarray
    supermartingale_mean: np.ndarray
    frac_below: dict

    def final_neg_energy_mean(self) -> float:
        return float(self.neg_energy_mean[-1])


def ensemble_stats(
    ens: EnsembleResult,
    c_const: float = 0.0,
    thresholds: tuple = (-1e-6, -1e-3, -1e-2),
) -> EnsembleStats:
    """Cross-path summaries; aborted paths drop out of every statistic.

    frac_below maps each threshold to the running fraction of paths
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
        for thr in thresholds:
            below = run_min < thr
            frac[float(thr)] = below.mean(axis=0) if not have_aborts else np.nanmean(
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


@dataclass(frozen=True)
class StudyEntry:
    lam: float
    sup_distance: float


def _sup_distances(grid, a, a_tails, b, b_tails) -> list:
    """Per path, the supremum over snapshots of the weighted L2 distance of two runs.

    a and b are (snapshots, paths, N) with their tails; NaN snapshots of
    an aborted run drop out of the supremum.  b is overwritten: it holds
    the squared differences afterwards.  Each distance is bitwise
    norm(a - b, "l2"), since np.vecdot runs one BLAS dot per row, and the
    supremum is Python's max starting from 0.0: NaN and zero distances
    leave it at 0.0.
    """
    np.subtract(a, b, out=b)
    np.multiply(b, b, out=b)
    t = a_tails - b_tails
    sq = np.vecdot(b, grid.weights) + grid.tail_weight * t * t
    d = np.sqrt(np.maximum(sq, 0.0))
    return np.where(d > 0.0, d, 0.0).max(axis=0, initial=0.0).tolist()


def lambda_convergence_study(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfgs: Sequence[NoiseConfig],
    lams: tuple,
) -> list:
    """Couple regularized runs to the plain run through shared noise.

    Returns, for each noise stream in the given order, a list with one
    StudyEntry per lam (in the given order) holding the supremum over
    recorded times of the weighted L2 distance to the unregularized path
    driven by the same increments.  The regularized runs start from the
    resolvent of u0 at their lam (see simulate_regularized).

    The streams run in batches, each one kernel call for the plain runs
    and one per lam, cut so that the two stride-1 snapshot arrays held
    at once stay within STUDY_BYTES.  A stream's entries do not depend
    on the batch it runs in.
    """
    if len(lams) == 0:
        raise ValueError("need at least one lam")
    if not all(lam > 0.0 for lam in lams):
        raise ValueError("lam must be positive")
    cfg1 = replace(cfg, snapshot_stride=1, lam=0.0)
    starts = [suite.resolvent(u0, lam) for lam in lams]
    per_batch = max(1, STUDY_BYTES // (2 * 8 * (cfg1.n_steps + 1) * u0.grid.n))
    grid = u0.grid
    entries = []
    for lo in range(0, len(noise_cfgs), per_batch):
        streams = noise_cfgs[lo : lo + per_batch]
        base, base_tails = _simulate_streams(u0, suite, model, cfg1, streams)[5:]
        # each regularized run's snapshots are dropped before the next run;
        # _sup_distances overwrites them
        dists = [
            _sup_distances(grid, base, base_tails, *_simulate_streams(
                start, suite, model, replace(cfg1, lam=lam), streams)[5:])
            for lam, start in zip(lams, starts)
        ]
        entries += [
            [StudyEntry(float(lam), d[p]) for lam, d in zip(lams, dists)]
            for p in range(len(streams))
        ]
    return entries
