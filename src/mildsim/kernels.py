"""Hot numerical kernels, in a numba flavor and a pure-numpy flavor.

The active pair is picked once at import time: numba when it imports
cleanly, unless the environment variable MILDSIM_NO_NUMBA is set to a
non-empty value.  When numba is active both flavors remain importable,
which is what the benchmark script compares.

Kernels operate on raw arrays.  Higher layers own validation, shapes
are trusted here.  Within one backend every kernel is deterministic;
across backends results agree to floating-point roundoff only, since
reduction order differs.

The numpy integrator runs its time loop over blocks of rows, each
(rows, N) float64 array about BLOCK_BYTES in size, so that the
elementwise passes of a step stay in the L2 cache and reuse the same
scratch arrays; a batch of at most one block runs on the whole arrays
directly.  The work that does not depend on the state is done once per
call, with the same operations on a single row: the diffusion columns
of constant-level modes, their resolvent when lam > 0, and the HJM
drift when every mode has a constant level.  Every reduction runs along
a single path's row, so a path's results do not depend on the batch or
the block it is simulated in, and the numbers are bit for bit those of
the plain whole-batch loop; this is what makes ensembles independent of
chunk size.  scipy.signal, used only by the resolvent sweeps, is
imported on first use, since it dominates the import time.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK_BYTES",
    "HAVE_NUMBA",
    "LEVEL_CONST",
    "LEVEL_LINEAR",
    "LEVEL_CAPPED",
    "DRIFT_ZERO",
    "DRIFT_DECAY",
    "DRIFT_HJM",
    "resolvent_coeffs",
    "resolvent_sweep",
    "resolvent_sweep_numpy",
    "resolvent_sweep_numba",
    "simulate_batch",
    "simulate_batch_numpy",
    "simulate_batch_numba",
    "warm_up",
]

# level codes: how a mode's spatial profile is scaled by the state
LEVEL_CONST = 0
LEVEL_LINEAR = 1
LEVEL_CAPPED = 2

# drift codes
DRIFT_ZERO = 0
DRIFT_DECAY = 1
DRIFT_HJM = 2

# bytes of one (rows, N) float64 array of a numpy-integrator row block;
# a step's half dozen such arrays then fit in a 2 MiB L2 cache
BLOCK_BYTES = 256 * 1024

HAVE_NUMBA = False
if not os.environ.get("MILDSIM_NO_NUMBA", ""):
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


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


# ---------------------------------------------------------------------------
# pure-numpy flavor
# ---------------------------------------------------------------------------


def resolvent_sweep_numpy(f, ftail, E, amb, b, denom):
    """Backward resolvent recursion over one node array.

    Implemented as a linear IIR filter on the reversed cell
    contributions, which scipy evaluates in C.
    """
    from scipy.signal import lfilter

    f = np.asarray(f, dtype=np.float64)
    y = np.empty_like(f)
    ytail = ftail / denom
    y[-1] = ytail
    if f.shape[0] > 1:
        c = amb * f[:-1] + b * f[1:]
        yrev, _ = lfilter([1.0], [1.0, -E], c[::-1], zi=np.array([E * ytail]))
        y[:-1] = yrev[::-1]
    return y, ytail


def _resolvent_rows_numpy(F, Ftail, E, amb, b, denom):
    """Row-wise resolvent sweep on a (paths, nodes) block."""
    from scipy.signal import lfilter

    Y = np.empty_like(F)
    ytail = Ftail / denom
    Y[:, -1] = ytail
    C = amb * F[:, :-1] + b * F[:, 1:]
    yrev, _ = lfilter([1.0], [1.0, -E], C[:, ::-1], axis=1, zi=(E * ytail)[:, None])
    Y[:, :-1] = yrev[:, ::-1]
    return Y, ytail


def _records_numpy(v, tail, weights, tail_weight, tmp):
    # row-wise sums, not `@`: BLAS gemv orders its sums by batch height
    np.multiply(v, v, out=tmp)
    tmp *= weights
    tot = tmp.sum(axis=1) + tail_weight * tail * tail
    np.minimum(v, 0.0, out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    tmp *= weights
    nege = tmp.sum(axis=1) + tail_weight * np.minimum(tail, 0.0) ** 2
    mn = np.minimum(v.min(axis=1), tail)
    return nege, mn, tot


def _shift_numpy(v, tail, m_shift, damp):
    if m_shift > 0:
        v[:, :-m_shift] = v[:, m_shift:]
        v[:, -m_shift:] = tail[:, None]
    if damp != 1.0:
        v *= damp
        tail *= damp
    return tail


def _hjm_drift_numpy(sig, sigt, spacing, buf, btail, integ, tmp):
    """Accumulate sum_k sig_k * (trapezoid integral of sig_k) into buf, btail.

    integ[:, 0] must hold 0; the (1, N) rows of constant modes broadcast.
    """
    buf.fill(0.0)
    btail.fill(0.0)
    for s, st in zip(sig, sigt):
        np.add(s[:, 1:], s[:, :-1], out=tmp[:, 1:])
        np.multiply(tmp[:, 1:], 0.5 * spacing, out=tmp[:, 1:])
        np.cumsum(tmp[:, 1:], axis=1, out=integ[:, 1:])
        np.multiply(s, integ, out=tmp)
        buf += tmp
        btail += st * integ[:, -1]


def simulate_batch_numpy(
    v0, tail0, dW, m_shift, damp, dt, scheme,
    profiles, profile_tails, level_codes, caps, drift_code, drift_c, alpha_corr,
    lam_reg, E, amb, b, denom,
    spacing, weights, tail_weight, blow_threshold, snap_steps,
):
    """Advance a batch of paths through the splitting scheme.

    scheme 0 applies the shift semigroup first and evaluates reactions
    at the shifted state; scheme 1 evaluates reactions at the current
    state and shifts afterwards.  Paths whose total weighted energy
    leaves [0, blow_threshold] or turns non-finite are frozen at the
    offending step and their later records are NaN.

    Returns (final_values, final_tails, neg_energy, min_value, aborted,
    snaps, snap_tails); neg_energy and min_value have n_steps+1 columns
    including the initial state, aborted holds the abort step or -1.
    """
    P, N = v0.shape
    n_steps = dW.shape[1]
    K = profiles.shape[0]
    S = snap_steps.shape[0]
    v = v0.copy()
    tail = tail0.copy()
    neg_e = np.empty((P, n_steps + 1))
    min_v = np.empty((P, n_steps + 1))
    aborted = np.full(P, -1, dtype=np.int64)
    snaps = np.empty((S, P, N))
    snap_tails = np.empty((S, P))
    rows = max(1, min(P, BLOCK_BYTES // (8 * N)))
    tmp = np.empty((rows, N))
    buf = np.empty((rows, N))
    integ = np.zeros((rows, N))  # column 0 stays 0
    frozen_v = np.empty((rows, N))
    varying = [k for k in range(K) if level_codes[k] != LEVEL_CONST]
    # constant modes are (1, N) rows that broadcast against a block; the
    # varying ones get (rows, N) scratch, refilled every step
    sig = [np.empty((rows, N)) if k in varying else profiles[k][None, :] for k in range(K)]
    sigt = [profile_tails[k : k + 1] for k in range(K)]
    with np.errstate(all="ignore"):
        drift_row = None
        if drift_code == DRIFT_ZERO:
            drift_row = (np.zeros((1, N)), np.zeros(1))
        elif drift_code == DRIFT_HJM and not varying:
            drift_row = (np.empty((1, N)), np.empty(1))
            _hjm_drift_numpy(sig, sigt, spacing, *drift_row, integ[:1], tmp[:1])
        # diffusion columns after the resolvent
        noise, noise_t = sig, sigt
        if lam_reg > 0.0:
            noise, noise_t = list(sig), list(sigt)
            for k in range(K):
                if k not in varying:
                    noise[k], noise_t[k] = _resolvent_rows_numpy(sig[k], sigt[k], E, amb, b, denom)
        for lo in range(0, P, rows):
            hi = min(lo + rows, P)
            n = hi - lo
            vb, tb, dWb = v[lo:hi], tail[lo:hi], dW[lo:hi]
            tmp_b, buf_b, integ_b, frozen_b = tmp[:n], buf[:n], integ[:n], frozen_v[:n]
            sig_b = [s[:n] for s in sig]
            noise_b = list(noise) if lam_reg > 0.0 else sig_b
            btail = np.empty(n)
            active = np.ones(n, dtype=bool)
            frozen_tail = np.zeros(n)
            nege, mn, _ = _records_numpy(vb, tb, weights, tail_weight, tmp_b)
            neg_e[lo:hi, 0] = nege
            min_v[lo:hi, 0] = mn
            si = 0
            while si < S and snap_steps[si] == 0:
                snaps[si, lo:hi] = vb
                snap_tails[si, lo:hi] = tb
                si += 1
            for j in range(n_steps):
                if scheme == 0:
                    tb = _shift_numpy(vb, tb, m_shift, damp)
                for k in varying:
                    if level_codes[k] == LEVEL_LINEAR:
                        np.multiply(vb, profiles[k], out=sig_b[k])
                        sigt[k] = profile_tails[k] * tb
                    else:
                        np.clip(vb, 0.0, caps[k], out=sig_b[k])
                        sig_b[k] *= profiles[k]
                        sigt[k] = profile_tails[k] * np.clip(tb, 0.0, caps[k])
                if drift_row is not None:
                    drift, dtail = drift_row
                elif drift_code == DRIFT_DECAY:
                    drift, dtail = np.multiply(vb, -drift_c, out=buf_b), -drift_c * tb
                else:
                    _hjm_drift_numpy(sig_b, sigt, spacing, buf_b, btail, integ_b, tmp_b)
                    drift, dtail = buf_b, btail
                if alpha_corr != 0.0:
                    np.multiply(vb, alpha_corr, out=tmp_b)
                    drift = np.add(drift, tmp_b, out=buf_b)
                    dtail = dtail + alpha_corr * tb
                if lam_reg > 0.0:
                    drift, dtail = _resolvent_rows_numpy(drift, dtail, E, amb, b, denom)
                    for k in varying:
                        noise_b[k], noise_t[k] = _resolvent_rows_numpy(
                            sig_b[k], sigt[k], E, amb, b, denom)
                vb += np.multiply(drift, dt, out=tmp_b[: len(drift)])
                tb = tb + dtail * dt
                for k in range(K):
                    dw = dWb[:, j, k]
                    vb += np.multiply(noise_b[k], dw[:, None], out=tmp_b)
                    tb = tb + noise_t[k] * dw
                if scheme == 1:
                    tb = _shift_numpy(vb, tb, m_shift, damp)
                nege, mn, tot = _records_numpy(vb, tb, weights, tail_weight, tmp_b)
                bad = (~np.isfinite(tot)) | (tot > blow_threshold)
                newly = bad & active
                if newly.any():
                    aborted[lo:hi][newly] = j
                    frozen_b[newly] = vb[newly]
                    frozen_tail[newly] = tb[newly]
                    active = active & ~bad
                neg_e[lo:hi, j + 1] = np.where(active, nege, np.nan)
                min_v[lo:hi, j + 1] = np.where(active, mn, np.nan)
                while si < S and snap_steps[si] == j + 1:
                    snaps[si, lo:hi] = np.where(active[:, None], vb, np.nan)
                    snap_tails[si, lo:hi] = np.where(active, tb, np.nan)
                    si += 1
            dead = ~active
            if dead.any():
                vb[dead] = frozen_b[dead]
                tb = np.where(dead, frozen_tail, tb)
            tail[lo:hi] = tb
    return v, tail, neg_e, min_v, aborted, snaps, snap_tails


# ---------------------------------------------------------------------------
# numba flavor
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def resolvent_sweep_numba(f, ftail, E, amb, b, denom):
        n = f.shape[0]
        y = np.empty_like(f)
        ytail = ftail / denom
        y[n - 1] = ytail
        for i in range(n - 2, -1, -1):
            y[i] = E * y[i + 1] + amb * f[i] + b * f[i + 1]
        return y, ytail

    @njit(cache=True)
    def _sweep_into(f, ftail, out, E, amb, b, denom):
        n = f.shape[0]
        ytail = ftail / denom
        out[n - 1] = ytail
        for i in range(n - 2, -1, -1):
            out[i] = E * out[i + 1] + amb * f[i] + b * f[i + 1]
        return ytail

    @njit(cache=True)
    def _records_numba(v, tail, weights, tail_weight):
        n = v.shape[0]
        tot = 0.0
        nege = 0.0
        mn = v[0]
        for i in range(n):
            vi = v[i]
            if vi < mn:
                mn = vi
            t = weights[i] * vi * vi
            tot += t
            if vi < 0.0:
                nege += t
        tot += tail_weight * tail * tail
        if tail < 0.0:
            nege += tail_weight * tail * tail
        if tail < mn:
            mn = tail
        return nege, mn, tot

    @njit(cache=True)
    def _shift_numba(v, tail, m_shift, damp):
        n = v.shape[0]
        if m_shift > 0:
            for i in range(n - m_shift):
                v[i] = v[i + m_shift]
            for i in range(n - m_shift, n):
                v[i] = tail
        if damp != 1.0:
            for i in range(n):
                v[i] *= damp
            tail *= damp
        return tail

    @njit(cache=True)
    def simulate_batch_numba(
        v0, tail0, dW, m_shift, damp, dt, scheme,
        profiles, profile_tails, level_codes, caps, drift_code, drift_c, alpha_corr,
        lam_reg, E, amb, b, denom,
        spacing, weights, tail_weight, blow_threshold, snap_steps,
    ):
        P, N = v0.shape
        n_steps = dW.shape[1]
        K = profiles.shape[0]
        S = snap_steps.shape[0]
        out_v = v0.copy()
        out_tail = tail0.copy()
        neg_e = np.empty((P, n_steps + 1))
        min_v = np.empty((P, n_steps + 1))
        aborted = np.full(P, -1, np.int64)
        snaps = np.empty((S, P, N))
        snap_tails = np.empty((S, P))
        sig = np.empty((K, N))
        sigt = np.empty(K)
        buf = np.empty(N)
        integ = np.empty(N)
        scratch = np.empty(N)
        for p in range(P):
            v = out_v[p]
            tail = out_tail[p]
            nege, mn, tot = _records_numba(v, tail, weights, tail_weight)
            neg_e[p, 0] = nege
            min_v[p, 0] = mn
            si = 0
            while si < S and snap_steps[si] == 0:
                for i in range(N):
                    snaps[si, p, i] = v[i]
                snap_tails[si, p] = tail
                si += 1
            dead = False
            for j in range(n_steps):
                if dead:
                    neg_e[p, j + 1] = np.nan
                    min_v[p, j + 1] = np.nan
                    while si < S and snap_steps[si] == j + 1:
                        for i in range(N):
                            snaps[si, p, i] = np.nan
                        snap_tails[si, p] = np.nan
                        si += 1
                    continue
                if scheme == 0:
                    tail = _shift_numba(v, tail, m_shift, damp)
                for k in range(K):
                    code = level_codes[k]
                    if code == LEVEL_CONST:
                        for i in range(N):
                            sig[k, i] = profiles[k, i]
                        sigt[k] = profile_tails[k]
                    elif code == LEVEL_LINEAR:
                        for i in range(N):
                            sig[k, i] = profiles[k, i] * v[i]
                        sigt[k] = profile_tails[k] * tail
                    else:
                        cap = caps[k]
                        for i in range(N):
                            lev = v[i]
                            if lev < 0.0:
                                lev = 0.0
                            elif lev > cap:
                                lev = cap
                            sig[k, i] = profiles[k, i] * lev
                        levt = tail
                        if levt < 0.0:
                            levt = 0.0
                        elif levt > cap:
                            levt = cap
                        sigt[k] = profile_tails[k] * levt
                btail = 0.0
                if drift_code == DRIFT_DECAY:
                    for i in range(N):
                        buf[i] = -drift_c * v[i]
                    btail = -drift_c * tail
                elif drift_code == DRIFT_HJM:
                    for i in range(N):
                        buf[i] = 0.0
                    for k in range(K):
                        integ[0] = 0.0
                        for i in range(1, N):
                            integ[i] = integ[i - 1] + 0.5 * spacing * (sig[k, i - 1] + sig[k, i])
                        for i in range(N):
                            buf[i] += sig[k, i] * integ[i]
                        btail += sigt[k] * integ[N - 1]
                else:
                    for i in range(N):
                        buf[i] = 0.0
                if alpha_corr != 0.0:
                    for i in range(N):
                        buf[i] += alpha_corr * v[i]
                    btail += alpha_corr * tail
                if lam_reg > 0.0:
                    for i in range(N):
                        scratch[i] = buf[i]
                    btail = _sweep_into(scratch, btail, buf, E, amb, b, denom)
                    for k in range(K):
                        for i in range(N):
                            scratch[i] = sig[k, i]
                        sigt[k] = _sweep_into(scratch, sigt[k], sig[k], E, amb, b, denom)
                for i in range(N):
                    acc = v[i] + buf[i] * dt
                    for k in range(K):
                        acc += sig[k, i] * dW[p, j, k]
                    v[i] = acc
                tt = tail + btail * dt
                for k in range(K):
                    tt += sigt[k] * dW[p, j, k]
                tail = tt
                if scheme == 1:
                    tail = _shift_numba(v, tail, m_shift, damp)
                nege, mn, tot = _records_numba(v, tail, weights, tail_weight)
                if not np.isfinite(tot) or tot > blow_threshold:
                    aborted[p] = j
                    dead = True
                    neg_e[p, j + 1] = np.nan
                    min_v[p, j + 1] = np.nan
                    while si < S and snap_steps[si] == j + 1:
                        for i in range(N):
                            snaps[si, p, i] = np.nan
                        snap_tails[si, p] = np.nan
                        si += 1
                    continue
                neg_e[p, j + 1] = nege
                min_v[p, j + 1] = mn
                while si < S and snap_steps[si] == j + 1:
                    for i in range(N):
                        snaps[si, p, i] = v[i]
                    snap_tails[si, p] = tail
                    si += 1
            out_tail[p] = tail
        return out_v, out_tail, neg_e, min_v, aborted, snaps, snap_tails

else:
    resolvent_sweep_numba = None
    simulate_batch_numba = None


if HAVE_NUMBA:
    resolvent_sweep = resolvent_sweep_numba
    simulate_batch = simulate_batch_numba
else:
    resolvent_sweep = resolvent_sweep_numpy
    simulate_batch = simulate_batch_numpy


def warm_up() -> None:
    """Trigger JIT compilation of the active kernels on toy inputs."""
    f = np.array([1.0, 0.5, 0.25])
    E, amb, b, denom = resolvent_coeffs(0.5, 1.0, 1.0)
    resolvent_sweep(f, 0.1, E, amb, b, denom)
    v0 = np.zeros((2, 4))
    tail0 = np.zeros(2)
    dW = np.zeros((2, 3, 1))
    profiles = np.ones((1, 4))
    ptails = np.ones(1)
    codes = np.zeros(1, dtype=np.int64)
    caps = np.ones(1)
    w = np.full(4, 0.25)
    snap = np.array([1], dtype=np.int64)
    for scheme in (0, 1):
        simulate_batch(
            v0, tail0, dW, 1, 0.99, 0.1, scheme,
            profiles, ptails, codes, caps,
            DRIFT_HJM, 0.0, 0.01, 0.5, E, amb, b, denom,
            0.25, w, 0.1, 1e12, snap,
        )
