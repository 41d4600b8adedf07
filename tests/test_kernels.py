import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from mildsim import kernels
from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.noise import NoiseConfig, gaussian_block


def test_backend_flags():
    assert kernels.BACKEND == "numpy"


def test_resolvent_coeffs_validation():
    with pytest.raises(ValueError):
        kernels.resolvent_coeffs(0.01, 0.0, 1.0)
    with pytest.raises(ValueError):
        kernels.resolvent_coeffs(0.01, -1.0, 1.0)


def test_resolvent_coeffs_series_branch():
    # both branches must match an extended-precision evaluation of the exact
    # formulas; the probes straddle the series switch
    spacing = 1e-4
    alpha = 1.0
    for lam in (1.0 / 9.0, 1.0 / 19.0, 1.0 / 39.0, 1.0 / 59.0, 1.0 / 199.0):
        E, amb, b, denom = kernels.resolvent_coeffs(spacing, lam, alpha)
        z = np.longdouble((denom / lam) * spacing)
        E_ld = np.exp(-z)
        amb_ref = float((z - 1.0 + E_ld) / (z * denom))
        b_ref = float((1.0 - E_ld * (1.0 + z)) / (z * denom))
        assert amb == pytest.approx(amb_ref, rel=5e-11), lam
        assert b == pytest.approx(b_ref, rel=5e-11), lam


def test_resolvent_sweep_matches_quadrature():
    # independent oracle: dense trapezoid of the exponential integral
    g = Grid.uniform(10.0, 301, 1.0)
    rng = np.random.default_rng(11)
    f = np.cumsum(rng.normal(size=g.n)) * 0.1
    ftail = float(f[-1])
    lam = 0.3
    res = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    y, ytail = kernels.resolvent_sweep(f, ftail, res)
    denom = res[3]
    nu = denom / lam
    for i in (0, 100, 230):
        s = np.linspace(g.nodes[i], g.x_max, 200001)
        integrand = np.exp(-nu * (s - g.nodes[i])) * np.interp(s, g.nodes, f)
        body = np.trapezoid(integrand, s)
        tail = ftail * np.exp(-nu * (g.x_max - g.nodes[i])) / nu
        assert y[i] == pytest.approx((body + tail) / lam, abs=1e-8)
    assert ytail == ftail / denom


def test_resolvent_sweep_exact_on_linear_input():
    # the recursion integrates piecewise-linear data exactly, so a
    # globally linear f must reproduce the closed form away from the
    # truncated tail
    g = Grid.uniform(10.0, 1001, 1.0)
    lam = 0.1
    res = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    f = g.nodes.copy()
    y, _ = kernels.resolvent_sweep(f, float(f[-1]), res)
    p = 1.0 / res[3]
    exact = p * g.nodes + lam * p * p
    keep = g.nodes <= 7.0
    assert np.abs(y[keep] - exact[keep]).max() < 1e-12


def _reference_resolvent_sweep(f, ftail, E, amb, b, denom):
    # the lfilter recursion on a 1-D array, with no row axis
    y = np.empty_like(f)
    ytail = ftail / denom
    y[-1] = ytail
    c = amb * f[:-1] + b * f[1:]
    yrev, _ = lfilter([1.0], [1.0, -E], c[::-1], zi=np.array([E * ytail]))
    y[:-1] = yrev[::-1]
    return y, ytail


@pytest.mark.parametrize("lam", [1e-3, 0.05, 0.3, 10.0])
@pytest.mark.parametrize("n", [2, 3, 10, 501, 1001, 200001])
def test_resolvent_sweep_is_the_row_sweep(n, lam):
    g = Grid.uniform(10.0, n, 1.0)
    rng = np.random.default_rng(n)
    F = rng.normal(size=(3, n))
    Ftail = rng.normal(size=3)
    res = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    rows, tails = kernels._sweep_rows(F, Ftail, res, np.empty_like(F), np.empty((3, n - 1)),
                                      lfilter)
    for p in range(3):
        y, ytail = kernels.resolvent_sweep(F[p], float(Ftail[p]), res)
        ref, reftail = _reference_resolvent_sweep(F[p], float(Ftail[p]), *res)
        assert y.tobytes() == ref.tobytes() == rows[p].tobytes()
        assert ytail == reftail == tails[p]


def _rich_args(scheme, lam=0.05, blow=1e12, n_paths=4, n_nodes=301, modes="mixed",
               alpha_corr=None):
    # modes "mixed" has state-dependent levels; "constant" only constant
    # ones, whose diffusion columns and HJM drift the kernel hoists
    g = Grid.uniform(3.0, n_nodes, 0.5)
    table = GridFunction.from_callable(g, lambda x: 0.1 * np.cos(x))
    decaying = ModeFunction("exponential-decay", c=0.2, decay=0.8)
    custom = ModeFunction("custom", c=1.0, table=table)
    if modes == "mixed":
        capped = ModeFunction("proportional-capped", c=0.4, cap=0.05)
        mode_fns = (capped, decaying, ModeFunction("proportional", c=0.1), custom)
    else:
        mode_fns = (ModeFunction("constant", c=0.1), decaying, custom)
    model = CoefficientModel(
        grid=g,
        modes=mode_fns,
        drift="hjm",
        alpha_correction=g.alpha if alpha_corr is None else alpha_corr,
    )
    P, n_steps, K = n_paths, 40, model.n_modes
    rng = np.random.default_rng(17)
    v0 = 0.05 + 0.02 * rng.normal(size=(P, g.n))
    tail0 = 0.05 + 0.02 * rng.normal(size=P)
    dW = np.stack(
        [gaussian_block(NoiseConfig(9, stream_id=p), n_steps, K) for p in range(P)]
    ) * np.sqrt(0.01)
    res = kernels.resolvent_coeffs(g.spacing, lam, g.alpha) if lam > 0.0 else None
    args = (
        v0, tail0, dW, 1, float(np.exp(-g.alpha * 0.01)), 0.01, scheme, model.kernel_args(), res,
        g.weights, g.tail_weight, blow,
    )
    return g, args


def _crossing_args():
    # eight rows of _exploding_args(blow=50.0) that start below the
    # threshold and grow through it at different steps; row 6 never does
    args = list(_exploding_args(blow=50.0))
    amp = np.array([1.0, 3.0, 10.0, 30.0, 2.0, 40.0, 1e-6, 5.0])[:, None]
    P, N = amp.shape[0], args[0].shape[1]
    rng = np.random.default_rng(12)
    args[0] = amp * (0.1 + 0.05 * rng.normal(size=(P, N)))
    args[1] = amp[:, 0] * 0.1
    args[2] = np.zeros((P, 60, 0))
    return args


@pytest.mark.parametrize("block_rows", [3, None])
def test_simulate_batch_rows_cross_blow_threshold_from_below(monkeypatch, block_rows):
    # rows start below blow_threshold and grow through it at different
    # steps, one never does; abort steps, frozen rows and NaN records are
    # bitwise the reference's, also when the rows span several blocks
    args = _crossing_args()
    g = Grid.uniform(2.0, 101, 0.5)
    if block_rows is not None:
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_rows * 8 * g.n)
    out = _batch(*args)
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()
    final, final_tail, neg_e, min_v, aborted, snaps, snap_tails = out
    assert aborted[6] == -1
    hit = np.flatnonzero(aborted >= 0)
    assert hit.tolist() == [0, 1, 2, 3, 4, 5, 7]
    assert len(set(aborted[hit])) == len(hit)

    def energy(v, tail):
        return (v * v * g.weights).sum(axis=-1) + g.tail_weight * tail * tail

    for p in hit:
        s = aborted[p]  # the step whose update took the row over
        before = energy(snaps[: s + 1, p], snap_tails[: s + 1, p])
        assert (before <= 50.0).all()
        assert energy(final[p], final_tail[p]) > 50.0
        assert np.isnan(snaps[s + 1 :, p]).all() and np.isnan(neg_e[p, s + 1 :]).all()
        assert np.isfinite(min_v[p, : s + 1]).all() and np.isnan(min_v[p, s + 1 :]).all()


def test_simulate_batch_numpy_deterministic():
    _, args = _rich_args(0)
    out1 = _batch(*args)
    out2 = _batch(*args)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)
    # without an out record the call keeps no snapshots, and its records are the same
    plain = kernels.simulate_batch(*args)
    assert plain.snapshots.shape == (0,) + out1.snapshots.shape[1:]
    assert plain.snapshot_tails.shape == (0,) + out1.snapshot_tails.shape[1:]
    for a, b in zip(plain[:5], out1[:5]):
        assert a.tobytes() == b.tobytes()


def _batch(*args):
    """simulate_batch into a new record that keeps the state at every step."""
    v0, dW = args[0], args[2]
    out = kernels.outputs(v0.shape[0], v0.shape[1], dW.shape[1], snapshots=True)
    return kernels.simulate_batch(*args, out)


def _reference_simulate_batch(
    v0, tail0, dW, m_shift, damp, dt, scheme, coef, res, weights, tail_weight, blow_threshold,
    snapshots=True,
):
    # the kernel before row blocking and hoisting: the whole batch
    # every step, every mode and the drift recomputed from scratch
    spacing, profiles, profile_tails, level_codes, caps, drift_code, drift_c, alpha_corr = coef
    P, N = v0.shape
    n_steps, K = dW.shape[1], profiles.shape[0]
    S = n_steps + 1 if snapshots else 0
    v, tail = v0.copy(), tail0.copy()
    neg_e, min_v = np.empty((P, n_steps + 1)), np.empty((P, n_steps + 1))
    aborted = np.full(P, -1, dtype=np.int64)
    snaps, snap_tails = np.empty((S, P, N)), np.empty((S, P))
    active = np.ones(P, dtype=bool)
    frozen_v, frozen_tail = np.zeros((P, N)), np.zeros(P)
    sig, sigt = np.empty((K, P, N)), np.empty((K, P))

    def records():
        nv = np.minimum(v, 0.0)
        return (
            (nv * nv * weights).sum(axis=1) + tail_weight * np.minimum(tail, 0.0) ** 2,
            np.minimum(v.min(axis=1), tail),
            (v * v * weights).sum(axis=1) + tail_weight * tail * tail,
        )

    def resolvent(F, Ftail):
        return kernels._sweep_rows(F, Ftail, res, np.empty_like(F), np.empty((P, N - 1)), lfilter)

    def shift(tail):
        if m_shift > 0:
            v[:, :-m_shift] = v[:, m_shift:]
            v[:, -m_shift:] = tail[:, None]
        if damp != 1.0:
            v[:] *= damp
            tail = tail * damp
        return tail

    with np.errstate(all="ignore"):
        neg_e[:, 0], min_v[:, 0], _ = records()
        if snapshots:
            snaps[0], snap_tails[0] = v, tail
        for j in range(n_steps):
            if scheme == 0:
                tail = shift(tail)
            for k in range(K):
                if level_codes[k] == kernels.LEVEL_CONST:
                    sig[k], sigt[k] = profiles[k], profile_tails[k]
                elif level_codes[k] == kernels.LEVEL_LINEAR:
                    sig[k], sigt[k] = v * profiles[k], profile_tails[k] * tail
                else:
                    sig[k] = np.clip(v, 0.0, caps[k]) * profiles[k]
                    sigt[k] = profile_tails[k] * np.clip(tail, 0.0, caps[k])
            buf, btail = np.zeros((P, N)), np.zeros(P)
            if drift_code == kernels.DRIFT_DECAY:
                buf, btail = v * -drift_c, -drift_c * tail
            elif drift_code == kernels.DRIFT_HJM:
                integ = np.zeros((P, N))
                for k in range(K):
                    integ[:, 1:] = np.cumsum(0.5 * spacing * (sig[k][:, 1:] + sig[k][:, :-1]), axis=1)
                    buf += sig[k] * integ
                    btail += sigt[k] * integ[:, -1]
            if alpha_corr != 0.0:
                buf, btail = buf + alpha_corr * v, btail + alpha_corr * tail
            if res is not None:
                buf, btail = resolvent(buf, btail)
                for k in range(K):
                    sig[k], sigt[k] = resolvent(sig[k], sigt[k])
            v += buf * dt
            tail = tail + btail * dt
            for k in range(K):
                v += sig[k] * dW[:, j, k][:, None]
                tail = tail + sigt[k] * dW[:, j, k]
            if scheme == 1:
                tail = shift(tail)
            nege, mn, tot = records()
            bad = ~np.isfinite(tot) | (tot > blow_threshold)
            newly = bad & active
            aborted[newly] = j
            frozen_v[newly], frozen_tail[newly] = v[newly], tail[newly]
            active &= ~bad
            neg_e[:, j + 1] = np.where(active, nege, np.nan)
            min_v[:, j + 1] = np.where(active, mn, np.nan)
            if snapshots:
                snaps[j + 1] = np.where(active[:, None], v, np.nan)
                snap_tails[j + 1] = np.where(active, tail, np.nan)
        v[~active] = frozen_v[~active]
        tail = np.where(active, tail, frozen_tail)
    return v, tail, neg_e, min_v, aborted, snaps, snap_tails


def _assert_rows_match_single_path_runs(args):
    # a path's results must not depend on the batch it is simulated in:
    # this is what makes ensembles invariant under chunk_size
    v0, tail0, dW, rest = args[0], args[1], args[2], args[3:]
    batch = _batch(*args)
    names = ["final", "final_tail", "neg_energy", "min_value", "aborted", "snaps", "snap_tails"]
    path_axis = [0, 0, 0, 0, 0, 1, 1]
    for p in range(v0.shape[0]):
        alone = _batch(v0[p : p + 1], tail0[p : p + 1], dW[p : p + 1], *rest)
        for got, one, ax, name in zip(batch, alone, path_axis, names):
            row = np.take(got, [p], axis=ax)
            assert np.array_equal(row, one, equal_nan=name != "aborted"), (name, p)


@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("scheme", [0, 1])
def test_simulate_batch_numpy_rows_match_single_path_runs(scheme, lam):
    _, args = _rich_args(scheme, lam=lam)
    _assert_rows_match_single_path_runs(args)


@pytest.mark.parametrize("modes", ["constant", "mixed"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("scheme", [0, 1])
def test_simulate_batch_numpy_block_boundaries(scheme, lam, modes):
    # three full row blocks and a ragged fourth, which the flat trapezoid
    # and the tiled rows are sliced to; three paths, each in its own block,
    # start large enough to abort at different steps, and three others
    # start at -0.0 on their first nodes and in the tail
    n_nodes = 2049
    rows = max(1, kernels.BLOCK_BYTES // (8 * n_nodes))
    n_paths = 3 * rows + rows // 2
    _, args = _rich_args(scheme, lam=lam, blow=1e3, n_paths=n_paths,
                         n_nodes=n_nodes, modes=modes, alpha_corr=10.0)
    v0, tail0 = args[0], args[1]
    boosted = {1: 300.0, rows + 2: 100.0, 3 * rows + 1: 50.0}
    for p, factor in boosted.items():
        v0[p] *= factor
        tail0[p] *= factor
    signed_zero = [0, rows - 1, n_paths - 1]
    v0[signed_zero, :3] = -0.0
    tail0[signed_zero] = -0.0
    out = _batch(*args)
    aborted = out[4]
    assert np.flatnonzero(aborted >= 0).tolist() == sorted(boosted)
    assert len(set(aborted[sorted(boosted)])) == 3
    _assert_rows_match_single_path_runs(args)
    # blocking and hoisting change no bit against the plain whole-batch loop
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_stride_one_snapshots_mask_only_aborted_rows(lam):
    # a snapshot every step and one row that aborts partway: its snapshots
    # turn NaN from the step after its abort on, every other row's stay
    # finite, and all are bitwise the reference's NaN masking
    _, args = _rich_args(0, lam=lam, blow=1e3, n_paths=5, alpha_corr=10.0)
    args = list(args)
    args[0][2] *= 300.0
    args[1][2] *= 300.0
    out = _batch(*args)
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()
    aborted, snaps, snap_tails = out[4], out[5], out[6]
    assert aborted.tolist().count(-1) == 4 and 0 < aborted[2] < 39
    s = aborted[2] + 1
    assert np.isfinite(snaps[:s, 2]).all() and np.isnan(snaps[s + 1 :, 2]).all()
    assert np.isfinite(snap_tails[:s, 2]).all() and np.isnan(snap_tails[s + 1 :, 2]).all()
    others = [0, 1, 3, 4]
    assert np.isfinite(snaps[:, others]).all() and np.isfinite(snap_tails[:, others]).all()


@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("drift, modes", [
    (kernels.DRIFT_ZERO, "constant"), (kernels.DRIFT_HJM, "constant"),
    (kernels.DRIFT_ZERO, "mixed")])
def test_state_free_drift_is_swept_once_per_call(monkeypatch, lam, drift, modes):
    # With no weight correction a zero drift, or the hjm drift of constant
    # modes, is one state-free row: one resolvent sweep per call makes it,
    # besides one per constant mode and one per state-dependent mode and
    # block step, however many blocks and steps there are.  The outputs
    # are bitwise the reference's, which sweeps the drift every step.
    _, args = _rich_args(0, lam=lam, n_paths=7, modes=modes, alpha_corr=0.0)
    args = list(args)
    args[7] = args[7]._replace(drift_code=drift)
    n_nodes, n_steps = args[0].shape[1], args[2].shape[1]
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 3 * 8 * n_nodes)  # blocks of 3, 3 and 1 rows
    sweeps = []
    sweep_rows = kernels._sweep_rows

    def counting(*a):
        sweeps.append(a[0].shape[0])
        return sweep_rows(*a)

    monkeypatch.setattr(kernels, "_sweep_rows", counting)
    out = _batch(*args)
    codes = args[7].level_codes
    n_const = int((codes == kernels.LEVEL_CONST).sum())
    n_varying = len(codes) - n_const
    if lam == 0.0:
        assert sweeps == []
    else:
        # the hoisted sweeps run on one row, the per-step ones on a block
        assert sweeps.count(1) == n_const + 1 + n_varying * n_steps * (7 - 6)
        assert len(sweeps) == n_const + 1 + n_varying * n_steps * 3
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()


@settings(max_examples=20, deadline=None)
@given(data=st.data(), scheme=st.sampled_from([0, 1]), lam=st.sampled_from([0.0, 0.05]),
       modes=st.sampled_from(["constant", "mixed"]))
def test_simulate_batch_numpy_rows_follow_a_permutation(data, scheme, lam, modes):
    # reordering the paths of a batch reorders its results and changes no bit,
    # also when the batch spans several row blocks
    n_nodes = data.draw(st.sampled_from([301, 2049]), label="n_nodes")
    n_paths = data.draw(st.integers(1, 40), label="n_paths")
    _, args = _rich_args(scheme, lam=lam, n_paths=n_paths, n_nodes=n_nodes, modes=modes)
    perm = np.array(data.draw(st.permutations(range(n_paths)), label="perm"))
    ref = _batch(*args)
    got = _batch(args[0][perm], args[1][perm], args[2][perm], *args[3:])
    for a, b, axis in zip(ref, got, [0, 0, 0, 0, 0, 1, 1]):
        assert np.take(a, perm, axis=axis).tobytes() == b.tobytes()


def _modeless(g, drift_code=kernels.DRIFT_ZERO, drift_c=0.0):
    # the Coefficients of no diffusion mode and no weight correction on g
    return kernels.Coefficients(g.spacing, np.zeros((0, g.n)), np.zeros(0),
                                np.zeros(0, dtype=np.int64), np.zeros(0), drift_code, drift_c, 0.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_nodes=st.integers(2, 3000), n_paths=st.integers(1, 30),
       n_steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_pure_transport_is_a_bitwise_shift(data, n_nodes, n_paths, n_steps, seed):
    # no reactions and no damping: each step moves every row m_shift nodes
    # toward x = 0 and fills the far end from the tail, bit for bit
    m_shift = data.draw(st.integers(0, 2 * n_nodes), label="m_shift")
    g = Grid.uniform(2.0, n_nodes, 1.0)
    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=(n_paths, n_nodes))
    tail0 = rng.normal(size=n_paths)
    args = (
        v0, tail0, np.zeros((n_paths, n_steps, 0)), m_shift, 1.0, 0.01,
        data.draw(st.sampled_from([0, 1]), label="scheme"), _modeless(g), None,
        g.weights, g.tail_weight, 1e300,
    )
    out = kernels.simulate_batch(*args)
    m = min(m_shift * n_steps, n_nodes)
    expect = np.repeat(tail0[:, None], n_nodes, axis=1)
    expect[:, : n_nodes - m] = v0[:, m:]
    assert out[0].tobytes() == expect.tobytes()
    assert out[1].tobytes() == tail0.tobytes()
    assert (out[4] == -1).all()


def test_simulate_batch_pure_shift_is_exact():
    # no reactions, no damping: the scheme is a bare node shift
    g = Grid.uniform(2.0, 201, 1.0)
    rng = np.random.default_rng(2)
    v0 = rng.normal(size=(1, g.n))
    tail0 = np.array([0.25])
    n_steps = 7
    dW = np.zeros((1, n_steps, 0))
    args = (
        v0, tail0, dW, 3, 1.0, 0.03, 0, _modeless(g), None,
        g.weights, g.tail_weight, 1e12,
    )
    out = kernels.simulate_batch(*args)
    m = 3 * n_steps
    expect = np.full(g.n, 0.25)
    expect[: g.n - m] = v0[0, m:]
    assert np.array_equal(out[0][0], expect)
    assert out[1][0] == 0.25


# The records as the integrator kept them before the energy bound and the
# row gathers: every row's total and negative-part energies summed in full.


def _reference_records(v, tail, weights, tail_weight, tmp):
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


def _reference_record_step(v, tail, active, weights, tail_weight, blow_threshold):
    # one step's records and abort rule
    nege, mn, tot = _reference_records(v, tail, weights, tail_weight, np.empty_like(v))
    bad = (~np.isfinite(tot)) | (tot > blow_threshold)
    newly = np.flatnonzero(bad & active)
    active = active & ~bad
    return np.where(active, nege, np.nan), np.where(active, mn, np.nan), newly, active


TINY = 5e-324
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, TINY, -TINY, 2.2e-308, -1e-310, 1e154, -1e154]
ROW_VALUES = {
    "nonnegative": st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, -0.0, TINY])),
    "mixed": st.floats(-2.0, 2.0),
    "negative": st.floats(-2.0, -1e-300),
    "special": st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL)),
    "subnormal": st.integers(-(2**20), 2**20).map(lambda k: k * TINY),
    "huge": st.floats(-1e200, 1e200),
}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), n_nodes=st.integers(2, 40))
def test_records_match_the_reference_bitwise(data, n, n_nodes):
    # blocks of rows that are nonnegative, partly or wholly negative, hold
    # NaN, +-inf, +-0.0 or subnormals, against thresholds at, just above
    # and just below a row's energy, which may be normal, huge or subnormal
    kinds = data.draw(st.lists(st.sampled_from(sorted(ROW_VALUES)), min_size=n, max_size=n))
    block = np.array([data.draw(st.lists(ROW_VALUES[k], min_size=n_nodes + 1,
                                         max_size=n_nodes + 1)) for k in kinds])
    v, tail = np.ascontiguousarray(block[:, :-1]), block[:, -1].copy()
    if data.draw(st.booleans(), label="grid weights"):
        g = Grid.uniform(2.0, n_nodes, 0.5)
        weights, tail_weight = g.weights, g.tail_weight
    else:
        weights = np.array(data.draw(st.lists(
            st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, TINY])),
            min_size=n_nodes, max_size=n_nodes)))
        tail_weight = data.draw(st.sampled_from([1.0, 0.0, TINY, 0.3, np.inf]))
    with np.errstate(all="ignore"):
        _, _, tot = _reference_records(v, tail, weights, tail_weight, np.empty_like(v))
        at = tot[data.draw(st.integers(0, n - 1), label="row")]
        blow = data.draw(st.sampled_from([
            at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
            1.0, 1e308, np.inf, 1e-310, TINY]), label="blow")
        # every row active, the integrator's case until a row aborts, or a
        # block where some rows aborted at earlier steps
        active = np.array(data.draw(st.one_of(
            st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n)),
            label="active"))
        limits = kernels._record_limits(weights, tail_weight)
        w, tmp = np.tile(weights, (n, 1)), np.empty((n, n_nodes))

        got_active = active.copy()
        got = kernels._records(v, tail, got_active, bool(active.all()), w, tail_weight, blow,
                               limits, tmp)
        ref = _reference_record_step(v, tail, active, weights, tail_weight, blow)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        assert got[2].tolist() == ref[2].tolist()
        assert got_active.tolist() == ref[3].tolist()

        # step 0: every row active, nothing aborts and nothing is masked
        first = np.ones(n, dtype=bool)
        nege0, mn0, _ = kernels._records(v, tail, first, True, w, tail_weight, blow, limits,
                                         tmp, abort_test=False)
        ref0 = _reference_records(v, tail, weights, tail_weight, np.empty_like(v))
        assert nege0.tobytes() == ref0[0].tobytes() and mn0.tobytes() == ref0[1].tobytes()
        assert first.all()


def _record_block(case):
    # six rows of small energies against a threshold of 1.0, changed per case
    g = Grid.uniform(2.0, 20, 0.5)
    rng = np.random.default_rng(5)
    v, tail = 0.1 * rng.normal(size=(6, g.n)), 0.1 * rng.normal(size=6)
    active = np.ones(6, dtype=bool)
    if case == "bound-short":  # one row's bound does not clear, its energy does
        v[3] = 0.01
        v[3, 5] = 3.0
    elif case == "row-aborts":
        v[2] *= 100.0
    elif case == "tail-aborts":  # small nodes, a tail term above the threshold
        tail[3] = 5.0
    elif case == "negative-aborts":  # the block's reach is its lowest value
        v[0] = -0.01
        v[0, 2] = -30.0
    elif case == "nan-inf":
        v[1, 4], v[4, 7], tail[5] = np.nan, np.inf, -np.inf
    elif case == "aborted-before":  # rows 1 and 4 aborted earlier and grew on
        active[[1, 4]] = False
        v[1] *= 1e200
        v[4, 3] = np.nan
        v[2] *= 100.0
    return v, tail, active, g.weights, g.tail_weight


@pytest.mark.parametrize("case, summed, aborting", [
    ("clears", [], []),
    ("bound-short", [3], []),
    ("row-aborts", [2], [2]),
    ("tail-aborts", [3], [3]),
    ("negative-aborts", [0], [0]),
    ("nan-inf", [1, 4, 5], [1, 4, 5]),
    ("aborted-before", [2], [2]),
])
def test_records_paths_match_the_reference(monkeypatch, case, summed, aborting):
    # The block's bound clears (no total is summed), one row's bound does
    # not, NaN and +-inf rows, and rows that aborted at earlier steps: the
    # records and the abort rule are bitwise the reference's, and total
    # energies are summed for just the named rows.
    v, tail, active, weights, tail_weight = _record_block(case)
    totals = []
    row_energies = kernels._row_energies

    def counting(v, idx, w, tmp, negative):
        if not negative:
            totals.extend(idx.tolist())
        return row_energies(v, idx, w, tmp, negative)

    monkeypatch.setattr(kernels, "_row_energies", counting)
    limits = kernels._record_limits(weights, tail_weight)
    w, tmp = np.tile(weights, (len(v), 1)), np.empty_like(v)
    got_active = active.copy()
    with np.errstate(all="ignore"):
        got = kernels._records(v, tail, got_active, bool(active.all()), w, tail_weight, 1.0,
                               limits, tmp)
        ref = _reference_record_step(v, tail, active, weights, tail_weight, 1.0)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2].tolist() == ref[2].tolist() == aborting
    assert got_active.tolist() == ref[3].tolist()
    assert totals == summed


@settings(max_examples=200, deadline=None)
# found by search: each needs one of the bound's three margins, the weight
# sum's, its upward rounding (subnormal weights) and the subnormal pad
@example(n_nodes=30, seed=0, exponent=0.3, weight_scale=1.0)
@example(n_nodes=2, seed=0, exponent=141.4676069420765, weight_scale=1e-310)
@example(n_nodes=2, seed=532, exponent=-155.0, weight_scale=1.0)
@given(n_nodes=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       exponent=st.one_of(st.floats(-3.0, 1.0), st.floats(-158.0, -150.0),
                          st.floats(140.0, 150.0)),
       weight_scale=st.sampled_from([1.0, 1e-200, 1e-300, 1e-310]))
def test_energy_bound_clears_no_row_above_the_threshold(n_nodes, seed, exponent, weight_scale):
    # The bound is tightest on a row of one magnitude, where only rounding
    # separates it from the row's energy; with the threshold one ulp below
    # that energy the row must abort, also when the products are subnormal
    # (magnitudes near 1e-155) or the weights are.
    rng = np.random.default_rng(seed)
    v = 10.0**exponent * rng.choice([-1.0, 1.0], size=(1, n_nodes))
    weights = rng.uniform(0.0, 10.0, n_nodes) * weight_scale
    tail = np.zeros(1)
    _, _, tot = _reference_records(v, tail, weights, 1.0, np.empty_like(v))
    blow = np.nextafter(tot[0], -np.inf)
    active = np.ones(1, dtype=bool)
    limits = kernels._record_limits(weights, 1.0)
    _, _, newly = kernels._records(v, tail, active, True, weights[None, :], 1.0, blow, limits,
                                   np.empty_like(v))
    assert newly.tolist() == ([0] if tot[0] > blow else [])


def _capped_args(n_paths, n_steps, blow):
    # the hjm-capped workload's shape: 1001 nodes, one proportional-capped
    # mode, the hjm drift with alpha_correction = alpha, a flat start; two
    # rows in five dip below zero, where the capped noise vanishes, so their
    # negative parts are summed in row gathers every step
    g = Grid.uniform(1.0, 1001, 0.5)
    model = CoefficientModel(g, modes=(ModeFunction("proportional-capped", c=8.0, cap=2e-4),),
                             drift="hjm", alpha_correction=g.alpha)
    dt = 2e-3
    dW = np.stack([gaussian_block(NoiseConfig(3, stream_id=p), n_steps, 1)
                   for p in range(n_paths)]) * np.sqrt(dt)
    v0 = np.full((n_paths, g.n), 4e-4)
    v0[np.arange(n_paths) % 5 < 2, 100:200] = -1e-4
    return (
        v0, np.full(n_paths, 4e-4), dW, 2,
        float(np.exp(-g.alpha * dt)), dt, 0, model.kernel_args(), None,
        g.weights, g.tail_weight, blow,
    )


@pytest.mark.parametrize("blow, lam", [
    *[pytest.param(blow, 0.0, id=str(blow)) for blow in (1e12, 6e-7, 1e-7)],
    *[pytest.param(blow, 0.05, id=f"{blow}-lam") for blow in (1e12, 6e-7, 1e-7)]])
def test_simulate_batch_allocates_no_per_step_blocks(blow, lam):
    # The peak of one call is the integrator's scratch, since its outputs
    # live in an mmap, which tracemalloc does not see: frozen rows, tiled
    # weights, the capped mode's tiled profile and sigma
    # rows, and the drift, product and integral blocks, seven row blocks.
    # At lam > 0 two more hold the mode's resolvent and the sweep's cells
    # (the drift's resolvent goes to the product block), and lfilter makes
    # its output, ten in all.  A
    # temporary of block size made in a step shows as one more.  At the
    # low thresholds the energy bound clears few rows (6e-7) or none
    # (1e-7), so total energies are summed in row gathers, and rows abort.
    import tracemalloc

    n_paths, n_steps = 256, 12
    args = list(_capped_args(n_paths, n_steps, blow))
    if lam > 0.0:
        g = Grid.uniform(1.0, 1001, 0.5)
        args[8] = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
        # load scipy.signal before tracing
        kernels.resolvent_sweep(np.zeros(2), 0.0, (0.0, 0.0, 0.0, 1.0))
    N = args[0].shape[1]
    block = max(1, kernels.BLOCK_BYTES // (8 * N)) * N * 8
    out = kernels.outputs(n_paths, N, n_steps, snapshots=True)
    tracemalloc.start()
    try:
        kernels.simulate_batch(*args, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = 7 if lam == 0.0 else 10
    assert peak <= blocks * block + 64 * 1024, peak / block


def _exploding_args(blow):
    # growing linear drift, no noise: energy rises a fixed factor per step
    g = Grid.uniform(2.0, 101, 0.5)
    rng = np.random.default_rng(4)
    P = 3
    v0 = 0.1 + 0.05 * rng.normal(size=(P, g.n))
    tail0 = np.full(P, 0.1)
    dW = np.zeros((P, 60, 0))
    return (
        v0, tail0, dW, 0, 1.0, 0.02, 0, _modeless(g, kernels.DRIFT_DECAY, -10.0), None,
        g.weights, g.tail_weight, blow,
    )


def test_simulate_batch_abort_freezes_path():
    out = kernels.simulate_batch(*_exploding_args(blow=1.0))
    aborted = out[4]
    assert (aborted >= 0).all()
    assert (aborted > 0).all() and (aborted < 59).all()
    for p, step in enumerate(aborted):
        assert np.isfinite(out[2][p, : step + 1]).all()
        assert np.isnan(out[2][p, step + 1 :]).all()
        assert np.isnan(out[3][p, step + 1 :]).all()
        # the final state is the frozen state at the abort step
        assert np.isfinite(out[0][p]).all()


def test_simulate_batch_numpy_aborts_match_single_path_runs():
    # the abort decision reads the total energy, so it must be batch-free too
    args = _exploding_args(blow=2.0)
    out = kernels.simulate_batch(*args)
    assert (out[4] >= 0).all()
    _assert_rows_match_single_path_runs(args)
    for got, ref in zip(out, _reference_simulate_batch(*args, snapshots=False)):
        assert got.tobytes() == ref.tobytes()


def _count_row_bounds(monkeypatch):
    # one entry per record step that tests aborts, True where it formed
    # per-row energy bounds because the block's bound did not clear
    steps = []
    records, rows_over = kernels._records, kernels._rows_over

    def counting_records(*a, **kw):
        if kw.get("abort_test", True):
            steps.append(False)
        return records(*a, **kw)

    def counting_rows_over(*a):
        steps[-1] = True
        return rows_over(*a)

    monkeypatch.setattr(kernels, "_records", counting_records)
    monkeypatch.setattr(kernels, "_rows_over", counting_rows_over)
    return steps


@pytest.mark.parametrize("blow", [1.0, 2.0, "mixed"])
def test_aborted_rows_leave_the_step(monkeypatch, blow):
    # An aborted row is zeroed, so it no longer fails the block's energy
    # bound, and a block whose rows have all aborted ends its time loop:
    # no record step after the block's last abort forms per-row bounds.
    # On _exploding_args(1.0) all rows abort at step 10, and before rows
    # left the step 54 of its 60 record steps formed them.  "mixed" is
    # _crossing_args, with one row that never aborts.  Outputs stay the
    # reference's.
    if blow == "mixed":
        args = _crossing_args()
    else:
        args = _exploding_args(blow)
    steps = _count_row_bounds(monkeypatch)
    out = _batch(*args)
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()
    aborted = out[4]
    last = int(aborted.max())
    assert last > 0 and (aborted >= 0).sum() == (7 if blow == "mixed" else 3)
    assert any(steps[: last + 1]) and not any(steps[last + 1 :])
    assert len(steps) == (60 if blow == "mixed" else last + 1)


def _force_split(monkeypatch, workers, block_rows=None, n_nodes=None):
    # every call splits into min(workers, blocks) shares, whatever the host;
    # returns the rows of the shares forked in each call
    monkeypatch.setattr(kernels, "_SPLIT_NODE_STEPS", 0)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
    if block_rows is not None:
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_rows * 8 * n_nodes)
    forked = []
    fork_share = kernels._fork_share

    def counting(run, lo, hi):
        forked.append((lo, hi))
        return fork_share(run, lo, hi)

    monkeypatch.setattr(kernels, "_fork_share", counting)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_CASES = [
    *[pytest.param("rich", scheme, lam, id=f"rich-{scheme}-{lam}")
      for scheme in (0, 1) for lam in (0.0, 0.05)],
    *[pytest.param("capped", 0, blow, id=f"capped-{blow}") for blow in (1e12, 6e-7)],
    *[pytest.param("exploding", 0, blow, id=f"exploding-{blow}") for blow in (1.0, 2.0)],
]
# the rows of the forked shares: rich is 10 rows in blocks of 3, 3, 3 and 1,
# capped 256 rows in eight blocks of 32, exploding 3 rows in blocks of one
FORKED = {
    ("rich", 2): [(6, 10)], ("rich", 3): [(3, 6), (6, 10)],
    ("capped", 2): [(128, 256)], ("capped", 3): [(64, 160), (160, 256)],
    ("exploding", 2): [(1, 3)], ("exploding", 3): [(1, 2), (2, 3)],
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case, scheme, param", SPLIT_CASES)
def test_split_is_bitwise_the_serial_call(monkeypatch, workers, case, scheme, param):
    # Shares of uneven size, in one process or forked, give the same bytes
    # as the call in one process and as the plain whole-batch loop.
    if case == "rich":
        _, args = _rich_args(scheme, lam=param, n_paths=10)
        block_rows = 3
    elif case == "capped":
        args, block_rows = _capped_args(256, 12, param), None
    else:
        args, block_rows = _exploding_args(param), 1
    serial = _batch(*args)
    forked = _force_split(monkeypatch, workers, block_rows, args[0].shape[1])
    out = _batch(*args)
    assert forked == FORKED.get((case, workers), [])
    _assert_no_child_left()
    ref = _reference_simulate_batch(*args)
    for got, one, plain in zip(out, serial, ref):
        assert got.tobytes() == one.tobytes() == plain.tobytes()
    if case == "exploding":  # aborts in every share
        assert (out[4] >= 0).all()


def test_a_failing_child_makes_the_call_raise(monkeypatch):
    _force_split(monkeypatch, 3, 1, 101)
    simulate_rows = kernels._simulate_rows

    def failing(out, lo, hi, rows, args):
        if lo == 2:
            raise ValueError("share failed")
        return simulate_rows(out, lo, hi, rows, args)

    monkeypatch.setattr(kernels, "_simulate_rows", failing)
    with pytest.raises(RuntimeError, match="rows 2:3"):
        kernels.simulate_batch(*_exploding_args(1.0))
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError, SystemExit, KeyboardInterrupt])
def test_an_exception_in_the_parents_share_kills_the_children(monkeypatch, exc):
    # perfbench turns SIGTERM into SystemExit; whatever the parent's share
    # raises, the children, which would run a minute, are killed and reaped
    _force_split(monkeypatch, 3, 1, 101)

    def share(out, lo, hi, rows, args):
        if lo == 0:
            raise exc("parent's share")
        time.sleep(60)

    monkeypatch.setattr(kernels, "_simulate_rows", share)
    t0 = time.monotonic()
    with pytest.raises(exc):
        kernels.simulate_batch(*_exploding_args(1.0))
    assert time.monotonic() - t0 < 30.0
    _assert_no_child_left()


def test_the_fork_warns_nothing(monkeypatch):
    # Python 3.12+ warns when a multi-threaded process forks, and BLAS
    # threads count; the split forks with that warning silenced
    forked = _force_split(monkeypatch, 2)
    args = _capped_args(64, 4, 1e12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _batch(*args)
    assert forked == [(32, 64)]
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()


def test_small_calls_and_forkless_platforms_stay_in_process(monkeypatch):
    # a call splits from _SPLIT_NODE_STEPS node-steps on, and never where
    # os.fork is missing
    usable_cores = kernels._usable_cores
    forked = _force_split(monkeypatch, 2)
    args = _capped_args(64, 4, 1e12)
    work = 64 * 4 * 1001
    for threshold in (work + 1, work):
        monkeypatch.setattr(kernels, "_SPLIT_NODE_STEPS", threshold)
        kernels.simulate_batch(*args)
    assert forked == [(32, 64)]
    _assert_no_child_left()
    monkeypatch.setattr(kernels, "_usable_cores", usable_cores)
    monkeypatch.delattr(os, "fork")
    assert kernels._usable_cores() == 1
    kernels.simulate_batch(*args)
    assert forked == [(32, 64)]


def test_a_share_whose_fork_fails_runs_in_the_caller(monkeypatch):
    forked = _force_split(monkeypatch, 3)
    args = _capped_args(96, 4, 1e12)

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    out = _batch(*args)
    assert forked == [(32, 64), (64, 96)]
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()
