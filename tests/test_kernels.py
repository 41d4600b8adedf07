import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    E, amb, b, denom = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    y, ytail = kernels.resolvent_sweep(f, ftail, E, amb, b, denom)
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
    E, amb, b, denom = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    f = g.nodes.copy()
    y, _ = kernels.resolvent_sweep(f, float(f[-1]), E, amb, b, denom)
    p = 1.0 / denom
    exact = p * g.nodes + lam * p * p
    keep = g.nodes <= 7.0
    assert np.abs(y[keep] - exact[keep]).max() < 1e-12


def _reference_resolvent_sweep(f, ftail, E, amb, b, denom):
    # the lfilter recursion on a 1-D array, with no row axis
    from scipy.signal import lfilter

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
    E, amb, b, denom = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    rows, tails = kernels._resolvent_rows(F, Ftail, E, amb, b, denom)
    for p in range(3):
        y, ytail = kernels.resolvent_sweep(F[p], float(Ftail[p]), E, amb, b, denom)
        ref, reftail = _reference_resolvent_sweep(F[p], float(Ftail[p]), E, amb, b, denom)
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
    ka = model.kernel_args()
    P, n_steps, K = n_paths, 40, model.n_modes
    rng = np.random.default_rng(17)
    v0 = 0.05 + 0.02 * rng.normal(size=(P, g.n))
    tail0 = 0.05 + 0.02 * rng.normal(size=P)
    dW = np.stack(
        [gaussian_block(NoiseConfig(K, 9, stream_id=p), n_steps) for p in range(P)]
    ) * np.sqrt(0.01)
    if lam > 0.0:
        E, amb, b, denom = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    else:
        E, amb, b, denom = 0.0, 0.0, 0.0, 1.0
    snap = np.array([0, 20, 40], dtype=np.int64)
    args = (
        v0, tail0, dW, 1, float(np.exp(-g.alpha * 0.01)), 0.01, scheme,
        ka["profiles"], ka["profile_tails"], ka["level_codes"], ka["caps"],
        ka["drift_code"], ka["drift_c"], ka["alpha_corr"], lam, E, amb, b, denom,
        g.spacing, g.weights, g.tail_weight, blow, snap,
    )
    return g, args


@pytest.mark.parametrize("block_rows", [3, None])
def test_simulate_batch_rows_cross_blow_threshold_from_below(monkeypatch, block_rows):
    # rows start below blow_threshold and grow through it at different
    # steps, one never does; abort steps, frozen rows and NaN records are
    # bitwise the reference's, also when the rows span several blocks
    args = list(_exploding_args(blow=50.0))
    g = Grid.uniform(2.0, 101, 0.5)
    amp = np.array([1.0, 3.0, 10.0, 30.0, 2.0, 40.0, 1e-6, 5.0])[:, None]
    P = amp.shape[0]
    rng = np.random.default_rng(12)
    args[0] = amp * (0.1 + 0.05 * rng.normal(size=(P, g.n)))
    args[1] = amp[:, 0] * 0.1
    args[2] = np.zeros((P, 60, 0))
    args[-1] = np.arange(61, dtype=np.int64)  # a snapshot every step
    if block_rows is not None:
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_rows * 8 * g.n)
    out = kernels.simulate_batch(*args)
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
    out1 = kernels.simulate_batch(*args)
    out2 = kernels.simulate_batch(*args)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)


def _reference_simulate_batch(
    v0, tail0, dW, m_shift, damp, dt, scheme,
    profiles, profile_tails, level_codes, caps, drift_code, drift_c, alpha_corr,
    lam_reg, E, amb, b, denom,
    spacing, weights, tail_weight, blow_threshold, snap_steps,
):
    # the kernel before row blocking and hoisting: the whole batch
    # every step, every mode and the drift recomputed from scratch
    P, N = v0.shape
    n_steps, K, S = dW.shape[1], profiles.shape[0], snap_steps.shape[0]
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
        si = 0
        while si < S and snap_steps[si] == 0:
            snaps[si], snap_tails[si] = v, tail
            si += 1
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
            if lam_reg > 0.0:
                buf, btail = kernels._resolvent_rows(buf, btail, E, amb, b, denom)
                for k in range(K):
                    sig[k], sigt[k] = kernels._resolvent_rows(sig[k], sigt[k], E, amb, b, denom)
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
            while si < S and snap_steps[si] == j + 1:
                snaps[si] = np.where(active[:, None], v, np.nan)
                snap_tails[si] = np.where(active, tail, np.nan)
                si += 1
        v[~active] = frozen_v[~active]
        tail = np.where(active, tail, frozen_tail)
    return v, tail, neg_e, min_v, aborted, snaps, snap_tails


def _assert_rows_match_single_path_runs(args):
    # a path's results must not depend on the batch it is simulated in:
    # this is what makes ensembles invariant under chunk_size
    v0, tail0, dW, rest = args[0], args[1], args[2], args[3:]
    batch = kernels.simulate_batch(*args)
    names = ["final", "final_tail", "neg_energy", "min_value", "aborted", "snaps", "snap_tails"]
    path_axis = [0, 0, 0, 0, 0, 1, 1]
    for p in range(v0.shape[0]):
        alone = kernels.simulate_batch(v0[p : p + 1], tail0[p : p + 1], dW[p : p + 1], *rest)
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
    # three full row blocks and a ragged fourth; three paths, each in its
    # own block, start large enough to abort at different steps
    n_nodes = 2049
    rows = max(1, kernels.BLOCK_BYTES // (8 * n_nodes))
    _, args = _rich_args(scheme, lam=lam, blow=1e3, n_paths=3 * rows + rows // 2,
                         n_nodes=n_nodes, modes=modes, alpha_corr=10.0)
    v0, tail0 = args[0], args[1]
    boosted = {1: 300.0, rows + 2: 100.0, 3 * rows + 1: 50.0}
    for p, factor in boosted.items():
        v0[p] *= factor
        tail0[p] *= factor
    out = kernels.simulate_batch(*args)
    aborted = out[4]
    assert np.flatnonzero(aborted >= 0).tolist() == sorted(boosted)
    assert len(set(aborted[sorted(boosted)])) == 3
    _assert_rows_match_single_path_runs(args)
    # blocking and hoisting change no bit against the plain whole-batch loop
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
    ref = kernels.simulate_batch(*args)
    got = kernels.simulate_batch(args[0][perm], args[1][perm], args[2][perm], *args[3:])
    for a, b, axis in zip(ref, got, [0, 0, 0, 0, 0, 1, 1]):
        assert np.take(a, perm, axis=axis).tobytes() == b.tobytes()


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
        data.draw(st.sampled_from([0, 1]), label="scheme"),
        np.zeros((0, g.n)), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0),
        kernels.DRIFT_ZERO, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        g.spacing, g.weights, g.tail_weight, 1e300, np.zeros(0, dtype=np.int64),
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
        v0, tail0, dW, 3, 1.0, 0.03, 0,
        np.zeros((0, g.n)), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0),
        kernels.DRIFT_ZERO, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        g.spacing, g.weights, g.tail_weight, 1e12, np.zeros(0, dtype=np.int64),
    )
    out = kernels.simulate_batch(*args)
    m = 3 * n_steps
    expect = np.full(g.n, 0.25)
    expect[: g.n - m] = v0[0, m:]
    assert np.array_equal(out[0][0], expect)
    assert out[1][0] == 0.25


def _exploding_args(blow):
    # growing linear drift, no noise: energy rises a fixed factor per step
    g = Grid.uniform(2.0, 101, 0.5)
    rng = np.random.default_rng(4)
    P = 3
    v0 = 0.1 + 0.05 * rng.normal(size=(P, g.n))
    tail0 = np.full(P, 0.1)
    dW = np.zeros((P, 60, 0))
    return (
        v0, tail0, dW, 0, 1.0, 0.02, 0,
        np.zeros((0, g.n)), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0),
        kernels.DRIFT_DECAY, -10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        g.spacing, g.weights, g.tail_weight, blow, np.zeros(0, dtype=np.int64),
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
    for got, ref in zip(out, _reference_simulate_batch(*args)):
        assert got.tobytes() == ref.tobytes()
