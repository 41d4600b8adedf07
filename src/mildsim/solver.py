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
from .grids import Grid, GridFunction, norm, weighted_sum, whole_multiple  # noqa: F401
from .noise import NoiseConfig, gaussian_block
from .operators import OperatorSuite
from .smoothing import supermartingale_stat

__all__ = [
    "SCHEMES",
    "DEFAULT_SCHEME",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_BLOW_THRESHOLD",
    "DEFAULT_THRESHOLDS",
    "SolverConfig",
    "PathResult",
    "EnsembleResult",
    "EnsembleStats",
    "simulate_path",
    "simulate_regularized",
    "run_ensemble",
    "ensemble_stats",
    "StudyEntry",
    "lambda_convergence_study",
]

SCHEMES = ("shift-then-react", "react-then-shift")

# defaults, used by the run config, the HJM runner and the CLI as well
DEFAULT_SCHEME = SCHEMES[0]
DEFAULT_CHUNK_SIZE = 2048  # paths per integrator call
DEFAULT_BLOW_THRESHOLD = 1e12  # a path's energy above this aborts it
DEFAULT_THRESHOLDS = (-1e-6, -1e-3, -1e-2)  # levels of ensemble_stats' frac_below

# bytes of the two stride-1 snapshot arrays, plain and regularized, that
# a lambda study holds at once; more streams run in further batches
STUDY_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    scheme: str = DEFAULT_SCHEME
    lam: float = 0.0
    snapshot_stride: int = 0
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


def _kernel_call(u0, suite, model, cfg, dW, out=None):
    _check_grids(suite, model)
    g = suite.grid
    m_shift = suite.steps_for_time(cfg.dt)
    damp = suite.damping(cfg.dt)
    res = kernels.resolvent_coeffs(g.spacing, cfg.lam, suite.alpha_eff) if cfg.lam > 0.0 else None
    return kernels.simulate_batch(
        u0[0], u0[1], np.ascontiguousarray(dW, dtype=np.float64),
        m_shift, damp, float(cfg.dt), SCHEMES.index(cfg.scheme), model.kernel_args(), res,
        g.weights, g.tail_weight, float(cfg.blow_threshold), cfg.snapshot_steps(), out,
    )


def _simulate_streams(u0, suite, model, cfg, streams, out=None):
    """One kernel call into out, or a new Outputs, with one row per stream, all from u0."""
    if any(s.n_modes != model.n_modes for s in streams):
        raise ValueError("noise_cfg.n_modes does not match the model")
    n_steps = cfg.n_steps
    sq = np.sqrt(cfg.dt)
    p = len(streams)
    dW = np.empty((p, n_steps, model.n_modes))
    for i, s in enumerate(streams):
        dW[i] = gaussian_block(s, n_steps) * sq
    v0 = np.broadcast_to(u0.values, (p, u0.grid.n))
    t0 = np.broadcast_to(np.float64(u0.tail_value), (p,))
    return _kernel_call((v0, t0), suite, model, cfg, dW, out)


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


def simulate_path(
    u0: GridFunction,
    suite: OperatorSuite,
    model: CoefficientModel,
    cfg: SolverConfig,
    noise_cfg: NoiseConfig,
) -> PathResult:
    out = _simulate_streams(u0, suite, model, cfg, [noise_cfg])
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    shots = [(float(s * cfg.dt), GridFunction(u0.grid, v.copy(), float(t))) for s, v, t in
             zip(cfg.snapshot_steps(), out.snapshots[:, 0], out.snapshot_tails[:, 0])]
    return PathResult(
        times=times,
        final=GridFunction(u0.grid, out.final_values[0], float(out.final_tails[0])),
        neg_energy=out.neg_energy[0],
        min_value=out.min_value[0],
        abort_step=int(out.aborted[0]),
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
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EnsembleResult:
    """Simulate n_paths independent paths from the same initial state.

    Path p uses noise stream stream_base + p of the given seed, so any
    subset of paths can be reproduced in isolation and results do not
    depend on chunk_size.  Each chunk writes its rows of one Outputs.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    snap_steps = cfg.snapshot_steps()
    out = kernels.outputs(n_paths, u0.grid.n, cfg.n_steps, len(snap_steps))
    base = NoiseConfig(model.n_modes, seed)
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        streams = [base.with_stream(stream_base + i) for i in range(lo, hi)]
        _simulate_streams(u0, suite, model, cfg, streams, out.rows(lo, hi))
    return EnsembleResult(grid=u0.grid, times=np.arange(cfg.n_steps + 1) * cfg.dt,
                          snapshot_steps=snap_steps, **out._asdict())


@dataclass(frozen=True)
class EnsembleStats:
    times: np.ndarray
    neg_energy_mean: np.ndarray
    neg_energy_p95: np.ndarray
    min_value_min: np.ndarray
    supermartingale_mean: np.ndarray
    frac_below: dict


def ensemble_stats(
    ens: EnsembleResult,
    c_const: float = 0.0,
    thresholds: tuple = DEFAULT_THRESHOLDS,
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
    norm(a - b, "l2"), since weighted_sum's row sums are its 1-D sums,
    and the supremum is Python's max starting from 0.0: NaN and zero
    distances leave it at 0.0.
    """
    np.subtract(a, b, out=b)
    np.multiply(b, b, out=b)
    t = a_tails - b_tails
    sq = weighted_sum(grid.weights, b) + grid.tail_weight * t * t
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
        plain = _simulate_streams(u0, suite, model, cfg1, streams)
        # every lam's run in turn; _sup_distances overwrites its snapshots
        reg = kernels.outputs(len(streams), grid.n, cfg1.n_steps, len(plain.snapshots))
        dists = []
        for lam, start in zip(lams, starts):
            _simulate_streams(start, suite, model, replace(cfg1, lam=lam), streams, reg)
            dists.append(_sup_distances(grid, plain.snapshots, plain.snapshot_tails,
                                        reg.snapshots, reg.snapshot_tails))
        entries += [
            [StudyEntry(float(lam), d[p]) for lam, d in zip(lams, dists)]
            for p in range(len(streams))
        ]
    return entries
