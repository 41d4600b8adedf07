"""Hot numerical kernels: the coefficients, the resolvent sweep and the integrator.

Kernels operate on raw arrays.  Higher layers own validation, shapes
are trusted here.  Every kernel is deterministic.  The coefficients
reach the kernels as one Coefficients record, which
CoefficientModel.kernel_args builds, and the resolvent at lam > 0 as
resolvent_coeffs' tuple, res, which is None at lam = 0.

The integrator runs its time loop over blocks of rows, each (rows, N)
float64 array about BLOCK_BYTES in size, so that the elementwise passes
of a step stay in the L2 cache and reuse the same scratch arrays; a
batch of at most one block runs on the whole arrays directly.  The
passes over weights, profiles, the noise of constant modes, noise
increments, the shift and the HJM trapezoid take such blocks as every
operand, which numpy runs as one contiguous loop: constant rows are
tiled once per call, offsets along a row are taken on the block's flat
view, and each noise increment column is spread over a block before it
multiplies.  Two broadcasts remain: a state-free drift that no weight
correction adds to is one (1, N) row added over the block, and the
shift fills each row's last nodes from its tail.  The work
that does not depend on the state is done once per call, with the same
operations on a single row: the diffusion columns of constant-level
modes, their resolvent when lam > 0, the HJM drift when every mode has
a constant level, and, for a drift that is such a row, its resolvent
and its product with dt.  The sweeps of a step when lam > 0 write into
scratch made once per call.  A step's records test the block's energy
bound before any row's, and skip the NaN masks while every row of the
block is active.  An aborted row's state is zeroed, so that it no
longer fails the block's bound, and a block whose rows have all aborted
ends its time loop.  Every reduction runs along a single path's row,
so a path's results do not depend on the batch or the block it is
simulated in, and the numbers are bit for bit those of the plain
whole-batch loop; this is what makes ensembles independent of chunk
size.  It also lets a large call split its row blocks into one share
per usable core: the first runs in the calling process and the others
in forked children, and the caller reaps every child before it returns
or raises.  The results go into an Outputs, whose arrays outputs() puts
in one shared anonymous mmap that the children write through.
scipy.signal, used only by the resolvent sweeps, is imported on first
use, since it dominates the import time; the integrator looks lfilter
up once per call.  coefficient_rows is the package's only
evaluation of the coefficients at a state.
"""

from __future__ import annotations

import gc
import mmap
import os
import warnings
from typing import NamedTuple

import numpy as np

from .spec import LEVEL_CAPPED, LEVEL_CONST, LEVEL_LINEAR

__all__ = [
    "BACKEND",
    "BLOCK_BYTES",
    "Coefficients",
    "Outputs",
    "coefficient_rows",
    "coefficient_scratch",
    "outputs",
    "resolvent_coeffs",
    "resolvent_sweep",
    "simulate_batch",
]

# bytes of one (rows, N) float64 array of an integrator row block; a
# step's half dozen such arrays then fit in a 2 MiB L2 cache
BLOCK_BYTES = 256 * 1024

# The least work, in node-steps (paths x steps x nodes), that simulate_batch
# splits across processes.  On a 2-vCPU host a fork and its reap took 5 ms
# from a 70 MB process and 10 to 29 ms from one of 130 MB, and a call of
# 2**25 node-steps runs about 0.5 s in one process.
_SPLIT_NODE_STEPS = 2**25

# recorded in every run's manifest
BACKEND = "numpy"

_FMAX = float(np.finfo(np.float64).max)
_NO_ROWS = np.zeros(0, dtype=np.intp)


class Coefficients(NamedTuple):
    """The step's coefficients as raw arrays; CoefficientModel.kernel_args builds it.

    Mode k is sigma_k(x, r) = profiles[k](x) * level(r), profile_tails[k]
    beyond the last node, and level_codes[k] picks level(r): 1, r, or
    min(r+, caps[k]).  drift names the drift: zero, -drift_c * r
    (linear-decay), or the hjm drift, whose trapezoid runs on the node
    spacing; the drift then adds alpha_corr times the state.
    """

    spacing: float
    profiles: np.ndarray  # (K, N)
    profile_tails: np.ndarray  # (K,)
    level_codes: np.ndarray  # (K,) of LEVEL_*
    caps: np.ndarray  # (K,), read for LEVEL_CAPPED
    drift: str  # one of spec.DRIFT_KINDS
    drift_c: float
    alpha_corr: float


class Outputs(NamedTuple):
    """simulate_batch's results for P paths; neg_energy and min_value start at step 0."""

    final_values: np.ndarray  # (P, N)
    final_tails: np.ndarray  # (P,)
    neg_energy: np.ndarray  # (P, n_steps + 1)
    min_value: np.ndarray  # (P, n_steps + 1)
    aborted: np.ndarray  # (P,) int64, the abort step or -1
    snapshots: np.ndarray  # (n_steps + 1, P, N), or no rows
    snapshot_tails: np.ndarray  # (n_steps + 1, P), or no rows

    @property
    def n_paths(self) -> int:
        return int(self.neg_energy.shape[0])

    @property
    def n_aborted(self) -> int:
        return int((self.aborted >= 0).sum())

    def rows(self, lo, hi):
        """The views of paths lo:hi, in the same map."""
        return Outputs(*(a[lo:hi] for a in self[:5]), *(a[:, lo:hi] for a in self[5:]))


def outputs(P, N, n_steps, snapshots=False):
    """An Outputs in one anonymous shared mmap, which shows the writes of forked children."""
    S = n_steps + 1 if snapshots else 0
    shapes = [(P, N), (P,), (P, n_steps + 1), (P, n_steps + 1), (P,), (S, P, N), (S, P)]
    kinds = [np.float64] * 4 + [np.int64] + [np.float64] * 2
    sizes = [int(np.prod(shape)) * np.dtype(kind).itemsize for shape, kind in zip(shapes, kinds)]
    buf = mmap.mmap(-1, max(1, sum(sizes)))
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    return Outputs(*(np.ndarray(shape, dtype=kind, buffer=buf, offset=off)
                     for shape, kind, off in zip(shapes, kinds, offsets)))


def resolvent_coeffs(spacing: float, lam: float, alpha: float):
    """Per-cell recursion coefficients for the transport resolvent.

    The resolvent of the shift generator plus alpha*I at parameter lam
    evaluates to an exponentially weighted forward integral; on a
    uniform grid it reduces to the backward recursion
    y_i = E y_{i+1} + amb f_i + b f_{i+1}, seeded with f_tail / denom.
    Exact for piecewise-linear f.  Series branch keeps amb, b accurate
    when the cell is tiny relative to 1/nu.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    denom = 1.0 + lam * alpha
    nu = denom / lam
    z = nu * spacing
    E = float(np.exp(-z))
    if z < 5e-3:
        # direct formulas lose ~eps/z^2 relative accuracy here
        amb = (z / 2.0 - z * z / 6.0 + z**3 / 24.0 - z**4 / 120.0) / denom
        b = (z / 2.0 - z * z / 3.0 + z**3 / 8.0 - z**4 / 30.0) / denom
    else:
        amb = (z - 1.0 + E) / (z * denom)
        b = (1.0 - E * (1.0 + z)) / (z * denom)
    return E, float(amb), float(b), float(denom)


def _sweep_rows(F, Ftail, res, Y, C, lfilter):
    """Backward resolvent recursion along each row of a (paths, nodes) block.

    res is resolvent_coeffs' (E, amb, b, denom).  Implemented as
    scipy's lfilter, passed in, on the reversed cell contributions,
    which it evaluates in C.  Needs at least two nodes.  Y, (paths,
    nodes), receives the result and C, (paths, nodes - 1), the cell
    contributions.
    """
    E, amb, b, denom = res
    ytail = Ftail / denom
    # amb * F[:, :-1] + b * F[:, 1:], with Y as the scratch for the second term
    np.multiply(F[:, :-1], amb, out=C)
    C += np.multiply(F[:, 1:], b, out=Y[:, :-1])
    yrev, _ = lfilter([1.0], [1.0, -E], C[:, ::-1], axis=1, zi=(E * ytail)[:, None])
    Y[:, :-1] = yrev[:, ::-1]
    Y[:, -1] = ytail
    return Y, ytail


def resolvent_sweep(f, ftail, res, out=None, cells=None):
    """Backward resolvent recursion over one node array of at least two nodes.

    res is resolvent_coeffs' tuple.  out, a node row, receives the
    values and cells, a row one shorter, the cell contributions; both
    are allocated when not given.
    """
    from scipy.signal import lfilter

    f = np.asarray(f, dtype=np.float64)
    Y = np.empty((1, len(f))) if out is None else out[None, :]
    C = np.empty((1, len(f) - 1)) if cells is None else cells[None, :]
    y, ytail = _sweep_rows(f[None, :], np.array([ftail], dtype=np.float64), res, Y, C, lfilter)
    return y[0], ytail[0]


def _record_limits(weights, tail_weight):
    """Constants of _records: (zero_ok, wcap, wpad).

    For weights >= 0, reach**2 * wcap + wpad bounds a row's summed
    energy, reach being its largest |value|.  Rounding is monotone, so
    no product exceeds reach**2 times its weight by more than it may
    round up: wcap is the weight sum raised by (N + 4) * 2**-51 for the
    N - 1 additions of a sum and rounded up, and wpad covers the 2**-1075
    a product may gain in the subnormal range.  zero_ok: a nonnegative
    row's negative-part energy is exactly 0.0, as it is for finite
    weights.
    """
    n = weights.shape[0]
    zero_ok = bool(np.isfinite(weights).all()) and bool(np.isfinite(tail_weight))
    wcap = float(np.nextafter(weights.sum() * (1.0 + (n + 4) * 2.0**-51), np.inf))
    return zero_ok, wcap, (n + 2) * 2.0**-1074


def _row_energies(v, idx, w, tmp, negative):
    """Weighted energy of rows idx of v, or of their negative parts.

    The rows are gathered into tmp first; each row sums along itself.
    """
    x = v.take(idx, axis=0, out=tmp[: len(idx)], mode="clip")
    if negative:
        np.minimum(x, 0.0, out=x)
    np.multiply(x, x, out=x)
    x *= w[: len(idx)]
    return np.add.reduce(x, axis=1)


def _rows_over(v, vmin, tt, wcap, wpad, limit):
    """Rows of v whose energy bound, with tail terms tt, does not clear limit."""
    reach = np.maximum(np.maximum.reduce(v, axis=1), -vmin)
    return ~(reach * reach * wcap + wpad + tt <= limit)


def _records(v, tail, active, everyone, w, tail_weight, blow_threshold, limits, tmp,
             abort_test=True):
    """(neg_energy, min_value, newly) of a block's rows after a step.

    Records are NaN for rows not active; everyone says that every row
    is, and spares the masks.  newly holds the active rows whose total
    energy left [0, blow_threshold] or turned non-finite, and they leave
    active; at step 0 abort_test is False.  w is the weights tiled to
    v's rows, limits _record_limits' tuple.  The total energy is summed
    only for active rows whose bound does not clear the threshold made
    finite.  The block's bound, from its largest |value| and largest
    tail term, is tested first: rounding is monotone, so when it clears,
    every row's does, and the rows' bounds are not formed.  min and max
    propagate NaN, so a NaN never clears.  The negative part's energy is
    summed only for active rows whose minimum, tail included, is below
    zero: it is exactly 0.0 for the others.
    """
    zero_ok, wcap, wpad = limits
    vmin = np.minimum.reduce(v, axis=1)
    mn = np.minimum(vmin, tail)
    newly = _NO_ROWS
    if abort_test:
        limit = min(blow_threshold, _FMAX)
        tt = tail_weight * tail * tail
        top = float(np.maximum.reduce(tt))
        hi = float(np.maximum.reduce(v, axis=None))
        lo = float(np.minimum.reduce(vmin))
        if not (hi * hi * wcap + wpad + top <= limit and lo * lo * wcap + wpad + top <= limit):
            over = _rows_over(v, vmin, tt, wcap, wpad, limit)
            rows = (over if everyone else active & over).nonzero()[0]
            if len(rows):
                tot = _row_energies(v, rows, w, tmp, False) + tt.take(rows)
                newly = rows[~np.isfinite(tot) | (tot > blow_threshold)]
                if len(newly):
                    active[newly] = False
                    everyone = False
    nege = np.zeros(len(v))
    if zero_ok:
        below = ~(mn >= 0.0)
        rows = (below if everyone else active & below).nonzero()[0]
    else:
        rows = active.nonzero()[0]
    if len(rows):
        nege[rows] = (_row_energies(v, rows, w, tmp, True)
                      + tail_weight * np.minimum(tail.take(rows), 0.0) ** 2)
    if everyone:
        return nege, mn, newly
    return np.where(active, nege, np.nan), np.where(active, mn, np.nan), newly


def _shift(v, tail, views, damp):
    """Shift the block v and its tails; views are (to, from, edge) or None.

    The rows are contiguous: the shift is one move between two flat views
    of the block, whose crossings into the next row the tail then
    overwrites at the edge columns.
    """
    if views is not None:
        to, frm, edge = views
        to[...] = frm
        edge[...] = tail[:, None]
    if damp != 1.0:
        v *= damp
        tail *= damp
    return tail


def _hjm_drift(sig, sigt, spacing, buf, btail, integ, tmp):
    """sum_k sig_k * (trapezoid integral of sig_k), into buf and btail.

    sig's rows and tmp are contiguous blocks of buf's shape, so the
    trapezoid cells are summed on their flat views: column 0 of tmp
    then holds a cell across two rows, which the cumsum never reads.
    integ[:, 0] must hold 0.  The sum starts from 0.0, so the first
    mode's products get + 0.0, which turns -0.0 into 0.0.
    """
    btail.fill(0.0)
    if not sig:
        buf.fill(0.0)
    cells = tmp.reshape(-1)[1:]
    for k, (s, st) in enumerate(zip(sig, sigt)):
        flat = s.reshape(-1)
        np.add(flat[1:], flat[:-1], out=cells)
        cells *= 0.5 * spacing
        tmp[:, 1:].cumsum(axis=1, out=integ[:, 1:])
        if k == 0:
            np.multiply(s, integ, out=buf)
            buf += 0.0
        else:
            buf += np.multiply(s, integ, out=tmp)
        btail += st * integ[:, -1]


def coefficient_scratch(coef, rows):
    """Scratch for coefficient_rows on up to rows rows of coef, with its state-free rows.

    Every per-row pass works on (rows, N) blocks, so the profiles are
    tiled once here; a constant-level mode's sigma rows are its tiled
    profile.  The drift before the alpha_corr term is state-free when it
    is zero or hjm of constant modes only; it is tiled when alpha_corr
    adds the state to it, and one (1, N) row otherwise.
    """
    spacing, profiles, profile_tails, level_codes, _, drift, _, alpha_corr = coef
    K, N = profiles.shape
    prof = [np.tile(p, (rows, 1)) for p in profiles]
    const = [level_codes[k] == LEVEL_CONST for k in range(K)]
    sig = [prof[k] if const[k] else np.empty((rows, N)) for k in range(K)]
    sigt = [profile_tails[k : k + 1] for k in range(K)]
    buf, btail, tmp = np.empty((rows, N)), np.empty(rows), np.empty((rows, N))
    integ = np.zeros((rows, N))  # column 0 stays 0
    base = None
    if drift == "zero":
        base = (np.zeros((1, N)), np.zeros(1))
    elif drift == "hjm" and all(const):
        base = (np.empty((1, N)), np.empty(1))
        _hjm_drift([s[:1] for s in sig], sigt, spacing, *base, integ[:1], tmp[:1])
    if base is not None and alpha_corr != 0.0:
        base = (np.tile(base[0], (rows, 1)), base[1])
    return prof, sig, sigt, base, buf, btail, integ, tmp


def _scratch_rows(scratch, n):
    """coefficient_scratch's arrays cut to their first n rows."""
    prof, sig, sigt, base, buf, btail, integ, tmp = scratch
    if base is not None:
        base = (base[0][:n], base[1])
    return ([p[:n] for p in prof], [s[:n] for s in sig], sigt, base,
            buf[:n], btail[:n], integ[:n], tmp[:n])


def coefficient_rows(coef, v, tail, scratch=None):
    """The sigma rows and the drift row of coef at each row of the (n, N) state v.

    Returns (sig, sigt, drift, dtail): each mode's rows and tails, then
    the drift's, zero, linear-decay or hjm plus alpha_corr times the
    state.  A state-free drift is one (1, N) row that broadcasts; the
    other rows live in scratch until the next call.  scratch is what
    coefficient_scratch made for at least n rows of coef, or None for a
    new one; the integrator cuts it to each block's rows
    once, with _scratch_rows.
    """
    spacing, _, profile_tails, level_codes, caps, kind, drift_c, alpha_corr = coef
    n = len(v)
    scratch = scratch or coefficient_scratch(coef, n)
    if len(scratch[4]) != n:
        scratch = _scratch_rows(scratch, n)
    prof, sig, sigt, base, buf, btail, integ, tmp = scratch
    sigt = list(sigt)
    for k, code in enumerate(level_codes):
        if code == LEVEL_LINEAR:
            np.multiply(v, prof[k], out=sig[k])
            sigt[k] = profile_tails[k] * tail
        elif code == LEVEL_CAPPED:
            v.clip(0.0, caps[k], out=sig[k])
            sig[k] *= prof[k]
            sigt[k] = profile_tails[k] * tail.clip(0.0, caps[k])
    if base is not None:
        drift, dtail = base
    elif kind == "linear-decay":
        drift, dtail = np.multiply(v, -drift_c, out=buf), -drift_c * tail
    else:
        _hjm_drift(sig, sigt, spacing, buf, btail, integ, tmp)
        drift, dtail = buf, btail
    if alpha_corr != 0.0:
        np.multiply(v, alpha_corr, out=tmp)
        drift = np.add(drift, tmp, out=buf)
        dtail = dtail + alpha_corr * tail
    return sig, sigt, drift, dtail


def simulate_batch(v0, tail0, dW, m_shift, damp, dt, coef, res, weights, tail_weight,
                   blow_threshold, out=None):
    """Advance a batch of paths through the splitting scheme.

    Each step applies the shift semigroup first and evaluates reactions
    at the shifted state.  coef is the step's Coefficients.  res
    is None at lam = 0, and resolvent_coeffs' tuple at lam > 0: every
    drift row and diffusion column then passes through that resolvent
    before it touches the state.  Paths whose total weighted energy
    leaves [0, blow_threshold] or turns non-finite are frozen at the
    offending step and their later records are NaN.

    Writes the results into out, an Outputs of P rows, and returns it;
    when out's snapshot arrays have rows, they receive the state at
    every step, NaN for aborted rows.  out is outputs()' record or rows
    of one (Outputs.rows), or None for a new record without snapshots:
    a split call's children write only through its views of the shared
    map, so arrays from anywhere else would lose their rows.  v0 and
    tail0 may be broadcast views.  A call of at least _SPLIT_NODE_STEPS
    node-steps splits its row blocks into one contiguous share per
    usable core, and every share but the first runs in a forked child.
    """
    P, N = v0.shape
    n_steps = dW.shape[1]
    rows = max(1, min(P, BLOCK_BYTES // (8 * N)))
    n_blocks = -(-P // rows)
    workers = 1
    if P * n_steps * N >= _SPLIT_NODE_STEPS:
        workers = min(_usable_cores(), n_blocks)
    if out is None:
        out = outputs(P, N, n_steps)
    args = (v0, tail0, dW, m_shift, damp, dt, coef, res, weights, tail_weight,
            blow_threshold)
    if workers > 1 and res is not None:
        from scipy.signal import lfilter  # noqa: F401  imported once, before the fork
    cuts = [n_blocks * i // workers * rows for i in range(workers)] + [P]
    _split(lambda lo, hi: _simulate_rows(out, lo, hi, rows, args), cuts)
    return out


def _usable_cores():
    """The cores this process may run on, or 1 where it cannot fork or ask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split(run, cuts):
    """run(lo, hi) on every share cuts[i]:cuts[i + 1], all but the first in forked children.

    The first share runs here, then every child is reaped, and a child
    that failed raises.  On any exception here, SystemExit and
    KeyboardInterrupt included, every child left is killed and reaped
    before it propagates.  A share whose fork fails runs here too.
    """
    import signal

    children = []  # (pid, lo, hi)
    mine = [(cuts[0], cuts[1])]
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            try:
                children.append((_fork_share(run, lo, hi), lo, hi))
            except OSError:
                mine.append((lo, hi))
        for lo, hi in mine:
            run(lo, hi)
        while children:
            pid, lo, hi = children[0]
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status:
                raise RuntimeError(f"worker for rows {lo}:{hi} failed "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
    except BaseException:
        for pid, _, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        raise


def _fork_share(run, lo, hi):
    """Fork a child that runs run(lo, hi) and leaves with os._exit; returns its pid.

    The child reports an exception on stderr and exits with 1.  It
    collects no garbage, so no finalizer of an object it inherited runs
    in it.
    """
    with warnings.catch_warnings():
        # Python 3.12+ warns when a multi-threaded process forks; the threads
        # are BLAS's, and a child's only BLAS calls are grids.weighted_sum's
        # dots, each short enough for BLAS to run on the calling thread
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        gc.disable()
        run(lo, hi)
        code = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _simulate_rows(out, lo, hi, rows, args):
    """simulate_batch's step loop on rows lo:hi of its arguments args.

    Writes those rows of the outputs out, in blocks of at most rows rows
    that start at lo.  Every share of a call runs this, in the calling
    process or in a forked child.
    """
    (v0, tail0, dW, m_shift, damp, dt, coef, res, weights, tail_weight,
     blow_threshold) = args
    v, tail, neg_e, min_v, aborted, snaps, snap_tails = out
    N = v0.shape[1]
    n_steps = dW.shape[1]
    level_codes = coef.level_codes
    K = len(level_codes)
    keep = len(snaps) > 0  # the state at every step
    v[lo:hi] = v0[lo:hi]
    tail[lo:hi] = tail0[lo:hi]
    aborted[lo:hi] = -1
    rows = min(rows, hi - lo)
    frozen_v = np.empty((rows, N))
    w = np.tile(weights, (rows, 1))
    limits = _record_limits(weights, tail_weight)
    varying = [k for k in range(K) if level_codes[k] != LEVEL_CONST]
    with np.errstate(all="ignore"):
        scratch = coefficient_scratch(coef, rows)
        sig, sigt, base, tmp = scratch[1], scratch[2], scratch[3], scratch[-1]
        # a drift that is one state-free row: its resolvent and its
        # product with dt are made once
        fixed_drift = base is not None and coef.alpha_corr == 0.0
        # diffusion columns after the resolvent, those of constant modes
        # once, the others into scratch every step
        noise, noise_t = list(sig), list(sigt)
        if res is not None:
            from scipy.signal import lfilter

            cells = np.empty((rows, N - 1))
            for k in range(K):
                if k in varying:
                    noise[k] = np.empty((rows, N))
                else:
                    y, noise_t[k] = _sweep_rows(sig[k][:1], sigt[k], res, np.empty((1, N)),
                                                cells[:1], lfilter)
                    noise[k] = np.tile(y, (rows, 1))
        if fixed_drift:
            drift, dtail = base
            if res is not None:
                drift, dtail = _sweep_rows(drift, dtail, res, np.empty((1, N)), cells[:1],
                                           lfilter)
            drift_dt, dtail_dt = np.multiply(drift, dt), dtail * dt
        for lo_b in range(lo, hi, rows):
            hi_b = min(lo_b + rows, hi)
            n = hi_b - lo_b
            vb, tb, dWb = v[lo_b:hi_b], tail[lo_b:hi_b], dW[lo_b:hi_b]
            neg_b, min_b = neg_e[lo_b:hi_b], min_v[lo_b:hi_b]
            tmp_b, frozen_b, w_b = tmp[:n], frozen_v[:n], w[:n]
            scratch_b = _scratch_rows(scratch, n)
            sig_b, noise_b = scratch_b[1], [x[:n] for x in noise]
            if res is not None:
                cells_b = cells[:n]
            flat = vb.reshape(-1)
            views = (flat[:-m_shift], flat[m_shift:], vb[:, -m_shift:]) if m_shift > 0 else None
            active = np.ones(n, dtype=bool)
            everyone = True  # every row of the block active
            frozen_tail = np.zeros(n)
            neg_b[:, 0], min_b[:, 0], _ = _records(
                vb, tb, active, everyone, w_b, tail_weight, blow_threshold, limits, tmp_b,
                abort_test=False)
            if keep:
                snaps[0, lo_b:hi_b] = vb
                snap_tails[0, lo_b:hi_b] = tb
            for j in range(n_steps):
                tb = _shift(vb, tb, views, damp)
                _, sigt_b, drift, dtail = coefficient_rows(coef, vb, tb, scratch_b)
                if res is not None:
                    for k in varying:
                        _, noise_t[k] = _sweep_rows(sig_b[k], sigt_b[k], res, noise_b[k],
                                                    cells_b, lfilter)
                else:
                    noise_t = sigt_b
                if fixed_drift:
                    vb += drift_dt
                    tb = tb + dtail_dt
                else:
                    if res is not None:  # drift is buf, and tmp_b free until the product
                        drift, dtail = _sweep_rows(drift, dtail, res, tmp_b, cells_b, lfilter)
                    vb += np.multiply(drift, dt, out=tmp_b)
                    tb = tb + dtail * dt
                for k in range(K):
                    # dw spread over the block first: numpy multiplies by
                    # a broadcast column at a third of this speed
                    dw = dWb[:, j, k]
                    tmp_b[...] = dw[:, None]
                    vb += np.multiply(tmp_b, noise_b[k], out=tmp_b)
                    tb = tb + noise_t[k] * dw
                neg_b[:, j + 1], min_b[:, j + 1], newly = _records(
                    vb, tb, active, everyone, w_b, tail_weight, blow_threshold, limits, tmp_b)
                if len(newly):
                    everyone = False
                    aborted[lo_b + newly] = j
                    frozen_tail[newly] = tb[newly]
                    # row by row: no temporary block; a zeroed row no longer
                    # fails the block's energy bound
                    for i in newly:
                        frozen_b[i] = vb[i]
                        vb[i] = 0.0
                    tb[newly] = 0.0
                if keep:
                    snaps[j + 1, lo_b:hi_b] = vb
                    if everyone:
                        snap_tails[j + 1, lo_b:hi_b] = tb
                    else:
                        snaps[j + 1, lo_b:hi_b][~active] = np.nan
                        snap_tails[j + 1, lo_b:hi_b] = np.where(active, tb, np.nan)
                if len(newly) and not active.any():  # the block's last row aborted
                    neg_b[:, j + 2 :] = np.nan
                    min_b[:, j + 2 :] = np.nan
                    snaps[j + 2 :, lo_b:hi_b] = np.nan
                    snap_tails[j + 2 :, lo_b:hi_b] = np.nan
                    break
            for i in np.flatnonzero(~active):
                vb[i] = frozen_b[i]
            tail[lo_b:hi_b] = np.where(active, tb, frozen_tail)
