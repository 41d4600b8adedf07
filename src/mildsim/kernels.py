"""Hot numerical kernels: the resolvent sweep and the batch integrator.

Kernels operate on raw arrays.  Higher layers own validation, shapes
are trusted here.  Every kernel is deterministic.

The integrator runs its time loop over blocks of rows, each (rows, N)
float64 array about BLOCK_BYTES in size, so that the elementwise passes
of a step stay in the L2 cache and reuse the same scratch arrays; a
batch of at most one block runs on the whole arrays directly.  The work
that does not depend on the state is done once per call, with the same
operations on a single row: the diffusion columns of constant-level
modes, their resolvent when lam > 0, and the HJM drift when every mode
has a constant level.  Every reduction runs along a single path's row,
so a path's results do not depend on the batch or the block it is
simulated in, and the numbers are bit for bit those of the plain
whole-batch loop; this is what makes ensembles independent of chunk
size.  scipy.signal, used only by the resolvent sweeps, is imported on
first use, since it dominates the import time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "BLOCK_BYTES",
    "LEVEL_CONST",
    "LEVEL_LINEAR",
    "LEVEL_CAPPED",
    "DRIFT_ZERO",
    "DRIFT_DECAY",
    "DRIFT_HJM",
    "resolvent_coeffs",
    "resolvent_sweep",
    "simulate_batch",
]

# level codes: how a mode's spatial profile is scaled by the state
LEVEL_CONST = 0
LEVEL_LINEAR = 1
LEVEL_CAPPED = 2

# drift codes
DRIFT_ZERO = 0
DRIFT_DECAY = 1
DRIFT_HJM = 2

# bytes of one (rows, N) float64 array of an integrator row block; a
# step's half dozen such arrays then fit in a 2 MiB L2 cache
BLOCK_BYTES = 256 * 1024

# recorded in every run's manifest
BACKEND = "numpy"


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


def _resolvent_rows(F, Ftail, E, amb, b, denom):
    """Backward resolvent recursion along each row of a (paths, nodes) block.

    Implemented as a linear IIR filter on the reversed cell
    contributions, which scipy evaluates in C.  Needs at least two nodes.
    """
    from scipy.signal import lfilter

    Y = np.empty_like(F)
    ytail = Ftail / denom
    Y[:, -1] = ytail
    C = amb * F[:, :-1] + b * F[:, 1:]
    yrev, _ = lfilter([1.0], [1.0, -E], C[:, ::-1], axis=1, zi=(E * ytail)[:, None])
    Y[:, :-1] = yrev[:, ::-1]
    return Y, ytail


def resolvent_sweep(f, ftail, E, amb, b, denom):
    """Backward resolvent recursion over one node array of at least two nodes."""
    y, ytail = _resolvent_rows(
        np.asarray(f, dtype=np.float64)[None, :], np.array([ftail], dtype=np.float64),
        E, amb, b, denom)
    return y[0], ytail[0]


def _records(v, tail, weights, tail_weight, tmp):
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


def _shift(v, tail, m_shift, damp):
    if m_shift > 0:
        v[:, :-m_shift] = v[:, m_shift:]
        v[:, -m_shift:] = tail[:, None]
    if damp != 1.0:
        v *= damp
        tail *= damp
    return tail


def _hjm_drift(sig, sigt, spacing, buf, btail, integ, tmp):
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


def simulate_batch(
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
            _hjm_drift(sig, sigt, spacing, *drift_row, integ[:1], tmp[:1])
        # diffusion columns after the resolvent
        noise, noise_t = sig, sigt
        if lam_reg > 0.0:
            noise, noise_t = list(sig), list(sigt)
            for k in range(K):
                if k not in varying:
                    noise[k], noise_t[k] = _resolvent_rows(sig[k], sigt[k], E, amb, b, denom)
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
            nege, mn, _ = _records(vb, tb, weights, tail_weight, tmp_b)
            neg_e[lo:hi, 0] = nege
            min_v[lo:hi, 0] = mn
            si = 0
            while si < S and snap_steps[si] == 0:
                snaps[si, lo:hi] = vb
                snap_tails[si, lo:hi] = tb
                si += 1
            for j in range(n_steps):
                if scheme == 0:
                    tb = _shift(vb, tb, m_shift, damp)
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
                    _hjm_drift(sig_b, sigt, spacing, buf_b, btail, integ_b, tmp_b)
                    drift, dtail = buf_b, btail
                if alpha_corr != 0.0:
                    np.multiply(vb, alpha_corr, out=tmp_b)
                    drift = np.add(drift, tmp_b, out=buf_b)
                    dtail = dtail + alpha_corr * tb
                if lam_reg > 0.0:
                    drift, dtail = _resolvent_rows(drift, dtail, E, amb, b, denom)
                    for k in varying:
                        noise_b[k], noise_t[k] = _resolvent_rows(
                            sig_b[k], sigt[k], E, amb, b, denom)
                vb += np.multiply(drift, dt, out=tmp_b[: len(drift)])
                tb = tb + dtail * dt
                for k in range(K):
                    dw = dWb[:, j, k]
                    vb += np.multiply(noise_b[k], dw[:, None], out=tmp_b)
                    tb = tb + noise_t[k] * dw
                if scheme == 1:
                    tb = _shift(vb, tb, m_shift, damp)
                nege, mn, tot = _records(vb, tb, weights, tail_weight, tmp_b)
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
