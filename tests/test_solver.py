from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildsim import kernels, solver
from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction, lattice_parts, norm
from mildsim.noise import NoiseConfig
from mildsim.operators import OperatorSuite
from mildsim.smoothing import supermartingale_stat
from mildsim.solver import (
    DEFAULT_THRESHOLDS,
    EnsembleResult,
    SolverConfig,
    ensemble_stats,
    lambda_convergence_study,
    run_ensemble,
    simulate_path,
    simulate_regularized,
)
from test_coefficients import drift_reference, mode_reference
from test_noise import apply_diffusion_increment, increment_step, step_once


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, t_final=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, t_final=1.0, scheme="leapfrog")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, t_final=1.0, lam=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.03, t_final=1.0)


def test_config_steps_and_snapshots():
    cfg = SolverConfig(dt=0.01, t_final=1.0)
    assert cfg.n_steps == 100


def _setup(alpha=0.5, n=201, x_max=2.0):
    grid = Grid.uniform(x_max, n, alpha)
    suite = OperatorSuite(grid, shifted=True)
    model = CoefficientModel(
        grid,
        modes=(
            ModeFunction("proportional-capped", c=0.6, cap=0.08),
            ModeFunction("exponential-decay", c=0.05, decay=1.0),
        ),
        drift="hjm",
        alpha_correction=alpha,
    )
    u0 = GridFunction.from_callable(grid, lambda x: 0.04 + 0.01 * np.exp(-x))
    return grid, suite, model, u0


def test_step_once_shift_then_react_composition():
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.02, t_final=0.02)
    dw = np.array([0.013, -0.008])
    got = step_once(u0, suite, model, cfg, dw)
    su = suite.semigroup(u0, cfg.dt)
    expect = su + cfg.dt * drift_reference(model, su) + apply_diffusion_increment(model, su, dw)
    np.testing.assert_allclose(got.values, expect.values, rtol=1e-13, atol=1e-16)
    assert got.tail_value == pytest.approx(expect.tail_value, rel=1e-13, abs=1e-16)


def test_step_once_react_then_shift_composition():
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.02, t_final=0.02, scheme="react-then-shift")
    dw = np.array([-0.009, 0.004])
    got = step_once(u0, suite, model, cfg, dw)
    ru = u0 + cfg.dt * drift_reference(model, u0) + apply_diffusion_increment(model, u0, dw)
    expect = suite.semigroup(ru, cfg.dt)
    np.testing.assert_allclose(got.values, expect.values, rtol=1e-13, atol=1e-16)


def test_step_once_regularized_composition():
    # with lam > 0 the drift and every mode pass through the resolvent
    grid, suite, model, u0 = _setup()
    lam = 0.05
    cfg = SolverConfig(dt=0.02, t_final=0.02, lam=lam)
    dw = np.array([0.011, 0.007])
    got = step_once(u0, suite, model, cfg, dw)
    su = suite.semigroup(u0, cfg.dt)
    expect = su + cfg.dt * suite.resolvent(drift_reference(model, su), lam)
    for k, mode in enumerate(model.modes):
        expect = expect + dw[k] * suite.resolvent(mode_reference(mode, grid, su), lam)
    np.testing.assert_allclose(got.values, expect.values, rtol=1e-12, atol=1e-16)


def test_step_once_validates_increment_shape():
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.02, t_final=0.02)
    with pytest.raises(ValueError):
        step_once(u0, suite, model, cfg, np.zeros(3))


def test_dt_must_hit_grid_nodes():
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.015, t_final=0.15)
    with pytest.raises(ValueError):
        simulate_path(u0, suite, model, cfg, NoiseConfig(0))


def test_grid_mismatch_rejected():
    grid, suite, model, u0 = _setup()
    other = OperatorSuite(Grid.uniform(2.0, 201, 0.7), shifted=True)
    cfg = SolverConfig(dt=0.02, t_final=0.04)
    with pytest.raises(ValueError):
        simulate_path(u0, other, model, cfg, NoiseConfig(0))


def test_simulate_path_equals_step_once_loop():
    grid, suite, model, u0 = _setup()
    n_steps = 12
    cfg = SolverConfig(dt=0.02, t_final=n_steps * 0.02)
    ncfg = NoiseConfig(77, stream_id=3)
    path = simulate_path(u0, suite, model, cfg, ncfg)
    u = u0
    one = SolverConfig(dt=0.02, t_final=0.02)
    for j in range(n_steps):
        u = step_once(u, suite, model, one, increment_step(ncfg, cfg.dt, j, model.n_modes))
    assert np.array_equal(path.final_values[0], u.values)
    assert path.final_tails[0] == u.tail_value


def test_pure_transport_is_bitwise_shift():
    grid = Grid.uniform(2.0, 201, 0.5)
    suite = OperatorSuite(grid, shifted=False)
    model = CoefficientModel(grid)
    rng = np.random.default_rng(12)
    u0 = GridFunction(grid, rng.normal(size=grid.n), 0.3)
    cfg = SolverConfig(dt=0.05, t_final=0.5)
    path = simulate_path(u0, suite, model, cfg, NoiseConfig(0))
    m = 50  # 10 steps of 5 cells
    expect = np.full(grid.n, 0.3)
    expect[: grid.n - m] = u0.values[m:]
    assert np.array_equal(path.final_values[0], expect)
    assert path.n_aborted == 0


def test_schemes_differ_with_reactions():
    grid, suite, model, u0 = _setup()
    ncfg = NoiseConfig(5)
    a = simulate_path(u0, suite, model, SolverConfig(dt=0.02, t_final=0.2), ncfg)
    b = simulate_path(
        u0, suite, model,
        SolverConfig(dt=0.02, t_final=0.2, scheme="react-then-shift"), ncfg,
    )
    assert not np.array_equal(a.final_values[0], b.final_values[0])
    assert np.isfinite(a.final_values[0]).all() and np.isfinite(b.final_values[0]).all()


def _snapshot_run(u0, suite, model, cfg, n_paths, seed, chunk_size=None, stream_base=0):
    """run_ensemble's chunk loop into an Outputs that keeps the state at every step."""
    out = kernels.outputs(n_paths, u0.grid.n, cfg.n_steps, snapshots=True)
    chunk_size = chunk_size or n_paths
    for lo in range(0, n_paths, chunk_size):
        hi = min(lo + chunk_size, n_paths)
        streams = [NoiseConfig(seed, stream_base + i) for i in range(lo, hi)]
        solver._simulate_streams(u0, suite, model, cfg, streams, out.rows(lo, hi))
    return out


def _strided(out, n_steps, stride):
    """The snapshots and their tails at steps 0, stride, 2 * stride, ... and n_steps."""
    steps = np.unique(np.r_[np.arange(0, n_steps + 1, stride), n_steps])
    return out.snapshots[steps], out.snapshot_tails[steps]


def test_records_match_snapshots():
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.02, t_final=0.2)
    path = _snapshot_run(u0, suite, model, cfg, 1, 9)
    alone = simulate_path(u0, suite, model, cfg, NoiseConfig(9))
    assert path.neg_energy.tobytes() == alone.neg_energy.tobytes()
    assert path.min_value.tobytes() == alone.min_value.tobytes()
    assert len(path.snapshots) == cfg.n_steps + 1
    rows = zip(path.snapshots[:, 0], path.snapshot_tails[:, 0])
    for j, (values, tail) in enumerate(rows):
        snap = GridFunction(grid, values, tail)
        assert alone.times[j] == pytest.approx(j * cfg.dt, rel=1e-15)
        e = norm(lattice_parts(snap).negative, "l2") ** 2
        assert path.neg_energy[0, j] == pytest.approx(e, rel=1e-12, abs=1e-300)
        m = min(float(snap.values.min()), snap.tail_value)
        assert path.min_value[0, j] == pytest.approx(m, rel=1e-15, abs=1e-300)


def test_supermartingale_method():
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.02, t_final=0.1)
    path = simulate_path(u0, suite, model, cfg, NoiseConfig(9))
    s = supermartingale_stat(path.times, path.neg_energy[0], 0.5)
    assert np.allclose(s, np.exp(-1.0 * path.times) * path.neg_energy[0], rtol=1e-15)


def _exploding(n_paths=2):
    grid = Grid.uniform(2.0, 101, 0.5)
    suite = OperatorSuite(grid, shifted=True)
    model = CoefficientModel(grid, drift="linear-decay", drift_c=-10.0)
    u0 = GridFunction.constant(grid, 0.5)
    cfg = SolverConfig(dt=0.02, t_final=2.0, blow_threshold=1e3)
    return grid, suite, model, u0, cfg


def test_abort_on_blowup():
    grid, suite, model, u0, cfg = _exploding()
    path = simulate_path(u0, suite, model, cfg, NoiseConfig(0))
    abort_step = int(path.aborted[0])
    assert path.n_aborted == 1
    assert 0 < abort_step < cfg.n_steps - 1
    assert np.isfinite(path.neg_energy[0, : abort_step + 1]).all()
    assert np.isnan(path.neg_energy[0, abort_step + 1 :]).all()
    assert np.isfinite(path.final_values[0]).all()


def test_ensemble_counts_aborts_and_stats_skip_them():
    grid, suite, model, u0, cfg = _exploding()
    ens = run_ensemble(u0, suite, model, cfg, n_paths=3, seed=1)
    assert ens.n_aborted == 3
    stats = ensemble_stats(ens)
    assert np.isfinite(stats.neg_energy_mean[0])
    assert np.isnan(stats.neg_energy_mean[-1])


def test_ensemble_chunking_invariance():
    grid, suite, model, u0 = _setup(n=101)
    cfg = SolverConfig(dt=0.04, t_final=0.4)
    a = run_ensemble(u0, suite, model, cfg, n_paths=7, seed=3, chunk_size=2)
    b = run_ensemble(u0, suite, model, cfg, n_paths=7, seed=3, chunk_size=100)
    snaps = {k: _strided(_snapshot_run(u0, suite, model, cfg, 7, 3, k), cfg.n_steps, 5)
             for k in (2, 3, 100)}
    assert np.array_equal(a.final_values, b.final_values)
    assert np.array_equal(a.neg_energy, b.neg_energy)
    assert np.array_equal(snaps[2][0], snaps[100][0])
    assert np.array_equal(a.aborted, b.aborted)
    # an uneven split (3 + 3 + 1) must agree with the single chunk as well
    c = run_ensemble(u0, suite, model, cfg, n_paths=7, seed=3, chunk_size=3)
    for other, k in ((a, 2), (c, 3)):
        assert np.array_equal(other.final_values, b.final_values)
        assert np.array_equal(other.final_tails, b.final_tails)
        assert np.array_equal(other.neg_energy, b.neg_energy)
        assert np.array_equal(other.min_value, b.min_value)
        assert np.array_equal(other.aborted, b.aborted)
        assert np.array_equal(snaps[k][0], snaps[100][0])
        assert np.array_equal(snaps[k][1], snaps[100][1])


_ENSEMBLE_FIELDS = ("neg_energy", "min_value", "final_values", "final_tails", "aborted")


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n_paths=st.integers(1, 9),
       scheme=st.sampled_from(["shift-then-react", "react-then-shift"]),
       lam=st.sampled_from([0.0, 0.1]))
def test_ensemble_invariant_under_chunking_and_path_position(data, n_paths, scheme, lam):
    # a path's results depend on its noise stream only: not on how the
    # ensemble is cut into chunks, nor on which other paths run beside it
    grid, suite, model, u0 = _setup(n=41)
    cfg = SolverConfig(dt=0.1, t_final=0.5, scheme=scheme, lam=lam)
    chunk = data.draw(st.integers(1, n_paths), label="chunk_size")
    first = data.draw(st.integers(0, n_paths - 1), label="first")
    whole = run_ensemble(u0, suite, model, cfg, n_paths=n_paths, seed=5)
    cut = run_ensemble(u0, suite, model, cfg, n_paths=n_paths, seed=5, chunk_size=chunk)
    tail = run_ensemble(u0, suite, model, cfg, n_paths=n_paths - first, seed=5,
                        stream_base=first, chunk_size=chunk)
    for name in _ENSEMBLE_FIELDS:
        assert getattr(cut, name).tobytes() == getattr(whole, name).tobytes(), name
        assert getattr(tail, name).tobytes() == getattr(whole, name)[first:].tobytes(), name
    whole_s = _strided(_snapshot_run(u0, suite, model, cfg, n_paths, 5), cfg.n_steps, 2)
    cut_s = _strided(_snapshot_run(u0, suite, model, cfg, n_paths, 5, chunk), cfg.n_steps, 2)
    tail_s = _strided(_snapshot_run(u0, suite, model, cfg, n_paths - first, 5, chunk, first),
                      cfg.n_steps, 2)
    assert cut_s[0].tobytes() == whole_s[0].tobytes()
    assert tail_s[0].tobytes() == whole_s[0][:, first:].tobytes()
    assert tail_s[1].tobytes() == whole_s[1][:, first:].tobytes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("lam, blow", [pytest.param(0.0, 1e12, id="snapshots"),
                                       pytest.param(0.05, 1e12, id="lam"),
                                       pytest.param(0.0, 4e-3, id="aborting")])
def test_split_chunks_fill_one_record_bitwise_the_serial_call(monkeypatch, workers, lam, blow):
    # Chunks of 5, 5 and 3 paths, each call split into shares of 2-row
    # blocks whose forked children write straight into the ensemble's one
    # Outputs record, give the bytes of one unchunked call in one process.
    grid, suite, model, u0 = _setup(n=41)
    cfg = SolverConfig(dt=0.1, t_final=0.5, lam=lam, blow_threshold=blow)
    serial = run_ensemble(u0, suite, model, cfg, n_paths=13, seed=5)
    serial_s = _strided(_snapshot_run(u0, suite, model, cfg, 13, 5), cfg.n_steps, 2)
    monkeypatch.setattr(kernels, "_SPLIT_NODE_STEPS", 0)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 2 * 8 * grid.n)
    forked, made = [], []
    fork_share, outputs = kernels._fork_share, kernels.outputs
    monkeypatch.setattr(kernels, "_fork_share",
                        lambda run, lo, hi: forked.append((lo, hi)) or fork_share(run, lo, hi))
    monkeypatch.setattr(kernels, "outputs",
                        lambda *a, **k: made.append((a, k)) or outputs(*a, **k))
    split = run_ensemble(u0, suite, model, cfg, n_paths=13, seed=5, chunk_size=5)
    assert made == [((13, grid.n, cfg.n_steps), {})]  # no snapshots
    # blocks of 3, 3 and 2 per chunk, one share per worker and block at most
    assert len(forked) == {2: 3, 3: 5}[workers]
    for name in _ENSEMBLE_FIELDS:
        assert getattr(split, name).tobytes() == getattr(serial, name).tobytes(), name
    split_s = _strided(_snapshot_run(u0, suite, model, cfg, 13, 5, 5), cfg.n_steps, 2)
    assert len(forked) == 2 * {2: 3, 3: 5}[workers]
    assert split_s[0].shape == (4, 13, grid.n)  # snapshots at steps 0, 2, 4 and 5
    assert split_s[0].tobytes() == serial_s[0].tobytes()
    assert split_s[1].tobytes() == serial_s[1].tobytes()
    if blow < 1.0:
        assert 0 < split.n_aborted < 13


def test_ensemble_paths_match_individual_runs():
    grid, suite, model, u0 = _setup(n=101)
    cfg = SolverConfig(dt=0.04, t_final=0.2)
    ens = run_ensemble(u0, suite, model, cfg, n_paths=3, seed=21, stream_base=10)
    for p in range(3):
        path = simulate_path(u0, suite, model, cfg, NoiseConfig(21, stream_id=10 + p))
        assert np.array_equal(ens.final_values[p], path.final_values[0])
        assert ens.final_tails[p] == path.final_tails[0]


def test_ensemble_validation():
    grid, suite, model, u0 = _setup(n=101)
    cfg = SolverConfig(dt=0.04, t_final=0.2)
    with pytest.raises(ValueError):
        run_ensemble(u0, suite, model, cfg, n_paths=0, seed=1)


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_ensemble_rejects_chunk_size_below_one(chunk_size):
    grid, suite, model, u0 = _setup(n=101)
    cfg = SolverConfig(dt=0.04, t_final=0.2)
    with pytest.raises(ValueError, match="chunk_size"):
        run_ensemble(u0, suite, model, cfg, n_paths=3, seed=1, chunk_size=chunk_size)


def test_ensemble_stats_frac_below_is_running():
    times = np.array([0.0, 0.1, 0.2])
    grid = Grid.uniform(1.0, 11, 1.0)
    min_value = np.array([
        [0.0, -2e-3, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, np.nan, np.nan],
    ])
    ens = EnsembleResult(
        grid=grid,
        times=times,
        neg_energy=np.where(np.isnan(min_value), np.nan, np.abs(min_value)),
        min_value=min_value,
        final_values=np.zeros((3, 11)),
        final_tails=np.zeros(3),
        aborted=np.array([-1, -1, 0], dtype=np.int64),
    )
    stats = ensemble_stats(ens)
    assert sorted(stats.frac_below) == sorted(DEFAULT_THRESHOLDS)
    frac = stats.frac_below[-1e-3]
    # the dip at t=0.1 stays counted at t=0.2; the aborted path drops out
    assert frac[0] == 0.0
    assert frac[1] == pytest.approx(0.5)
    assert frac[2] == pytest.approx(0.5)
    assert np.all(np.diff(frac) >= 0.0)


def test_regularized_smooths_initial_state(monkeypatch):
    grid, suite, model, u0 = _setup()
    cfg = SolverConfig(dt=0.02, t_final=0.04)
    lam = 0.1
    starts = []
    kernel = kernels.simulate_batch
    monkeypatch.setattr(kernels, "simulate_batch",
                        lambda *a: starts.append((a[0].copy(), a[1].copy())) or kernel(*a))
    path = simulate_regularized(u0, suite, model, cfg, NoiseConfig(2), lam)
    smoothed = suite.resolvent(u0, lam)
    (first, first_tail), = starts  # the state at step 0
    assert path.times[0] == 0.0
    assert np.array_equal(first[0], smoothed.values) and first_tail[0] == smoothed.tail_value
    with pytest.raises(ValueError):
        simulate_regularized(u0, suite, model, cfg, NoiseConfig(2), 0.0)


def _study_setup(n=401, scheme="shift-then-react", t_final=0.5):
    grid = Grid.uniform(2.0, n, 0.5)
    suite = OperatorSuite(grid, shifted=True)
    model = CoefficientModel(
        grid,
        modes=(ModeFunction("level-scaled", c=0.3, cap=0.05, decay=1.0),),
        drift="hjm",
        alpha_correction=0.5,
    )
    u0 = GridFunction.from_callable(grid, lambda x: 0.02 + 0.01 * np.exp(-x))
    # one grid cell per step: 5e-3 on the 401-node grid
    return suite, model, u0, SolverConfig(dt=2.0 / (n - 1), t_final=t_final, scheme=scheme)


def test_lambda_study_distances_decrease():
    suite, model, u0, cfg = _study_setup()
    lams = (0.2, 0.1, 0.05, 0.025)
    study = lambda_convergence_study(
        u0, suite, model, cfg, [NoiseConfig(100), NoiseConfig(101)], lams)
    assert study.shape == (2, len(lams))
    for ds in study:
        assert all(d > 0.0 for d in ds)
        assert all(b < a for a, b in zip(ds, ds[1:]))
    with pytest.raises(ValueError):
        lambda_convergence_study(u0, suite, model, cfg, [NoiseConfig(100)], ())
    with pytest.raises(ValueError):
        lambda_convergence_study(u0, suite, model, cfg, [NoiseConfig(100)], (0.1, 0.0))


def _reference_lambda_study(u0, suite, model, cfg, noise_cfg, lams):
    """One seed at a time, as the study ran before it was batched."""
    base = _snapshot_functions(_path_with_snapshots(u0, suite, model, replace(cfg, lam=0.0),
                                                    noise_cfg), u0.grid)
    entries = []
    for lam in lams:
        # simulate_regularized's run: from the resolvent of u0, at lam
        reg = _path_with_snapshots(suite.resolvent(u0, lam), suite, model, replace(cfg, lam=lam),
                                   noise_cfg)
        d = 0.0
        for f1, f2 in zip(base, _snapshot_functions(reg, u0.grid)):
            d = max(d, norm(f1 - f2, "l2"))
        entries.append((float(lam), d))
    return entries


def _path_with_snapshots(u0, suite, model, cfg, noise_cfg):
    """The one-path run of noise_cfg's stream, with its state at every step."""
    return _snapshot_run(u0, suite, model, cfg, 1, noise_cfg.seed, stream_base=noise_cfg.stream_id)


def _snapshot_functions(path, grid):
    """The snapshots of a one-path run's row as GridFunctions."""
    return [GridFunction(grid, v, t) for v, t in zip(path.snapshots[:, 0],
                                                     path.snapshot_tails[:, 0])]


def _as_pairs(study, lams):
    return [[(float(lam), float(d)) for lam, d in zip(lams, ds)] for ds in study]


@pytest.mark.parametrize("scheme", ["shift-then-react", "react-then-shift"])
def test_lambda_study_matches_per_seed_reference(scheme):
    suite, model, u0, cfg = _study_setup(n=201, scheme=scheme, t_final=0.25)
    lams = (0.2, 0.05, 0.0125)
    streams = [NoiseConfig(seed) for seed in (100, 3, 57, 101)]
    study = lambda_convergence_study(u0, suite, model, cfg, streams, lams)
    want = [_reference_lambda_study(u0, suite, model, cfg, ncfg, lams) for ncfg in streams]
    assert _as_pairs(study, lams) == want


def test_lambda_study_with_aborting_paths_matches_reference():
    # the growth drift blows some seeds up; their NaN snapshots drop out
    # of the supremum as they did path by path
    grid = Grid.uniform(2.0, 101, 0.5)
    suite = OperatorSuite(grid, shifted=True)
    model = CoefficientModel(grid, modes=(ModeFunction("proportional", c=3.0),),
                             drift="linear-decay", drift_c=-4.0)
    u0 = GridFunction.constant(grid, 1.0)
    cfg = SolverConfig(dt=0.02, t_final=1.0, blow_threshold=60.0)
    lams = (0.2, 0.1)
    streams = [NoiseConfig(seed) for seed in range(8)]
    study = lambda_convergence_study(u0, suite, model, cfg, streams, lams)
    want = [_reference_lambda_study(u0, suite, model, cfg, ncfg, lams) for ncfg in streams]
    assert _as_pairs(study, lams) == want
    aborted = [simulate_path(u0, suite, model, cfg, ncfg).n_aborted > 0 for ncfg in streams]
    assert any(aborted) and not all(aborted)


def test_lambda_study_split_into_batches_matches_one_batch(monkeypatch):
    suite, model, u0, cfg = _study_setup(n=101, t_final=0.1)
    lams = (0.2, 0.1, 0.05)
    streams = [NoiseConfig(seed) for seed in range(7)]
    calls = []
    kernel = kernels.simulate_batch
    monkeypatch.setattr(kernels, "simulate_batch",
                        lambda *a: calls.append(a[2].shape[0]) or kernel(*a))
    whole = lambda_convergence_study(u0, suite, model, cfg, streams, lams)
    assert calls == [7] * 4  # the plain run, then one call per lam
    # room for the snapshots of three streams: batches of 3, 3 and 1
    snap_bytes = 2 * 8 * (cfg.n_steps + 1) * u0.grid.n
    monkeypatch.setattr(solver, "STUDY_BYTES", 3 * snap_bytes + 1)
    calls.clear()
    cut = lambda_convergence_study(u0, suite, model, cfg, streams, lams)
    assert calls == [3] * 4 + [3] * 4 + [1] * 4
    assert _as_pairs(cut, lams) == _as_pairs(whole, lams)


@pytest.mark.parametrize("per_batch", [1, 2, 3])
def test_lambda_study_batches_with_aborting_streams_match_one_batch(monkeypatch, per_batch):
    # 7 streams in batches of per_batch, the last one short; the
    # proportional mode blows some streams up partway, in every batch size
    suite, model, u0, cfg = _study_setup(n=101, t_final=0.1)
    model = CoefficientModel(model.grid, modes=model.modes + (ModeFunction("proportional", c=8.0),),
                             drift="hjm", alpha_correction=0.5)
    cfg = replace(cfg, blow_threshold=6e-3)
    lams = (0.2, 0.1, 0.05)
    streams = [NoiseConfig(seed) for seed in range(7)]
    aborted = [simulate_path(u0, suite, model, cfg, ncfg).n_aborted for ncfg in streams]
    assert sum(aborted) == 3
    whole = lambda_convergence_study(u0, suite, model, cfg, streams, lams)
    calls = []
    kernel = kernels.simulate_batch
    monkeypatch.setattr(kernels, "simulate_batch",
                        lambda *a: calls.append(a[2].shape[0]) or kernel(*a))
    snap_bytes = 2 * 8 * (cfg.n_steps + 1) * u0.grid.n
    monkeypatch.setattr(solver, "STUDY_BYTES", per_batch * snap_bytes)
    cut = lambda_convergence_study(u0, suite, model, cfg, streams, lams)
    sizes = [min(per_batch, 7 - lo) for lo in range(0, 7, per_batch)]
    assert calls == [size for size in sizes for _ in range(1 + len(lams))]
    assert cut.tobytes() == whole.tobytes()


@settings(max_examples=15, deadline=None)
@given(picked=st.lists(st.integers(0, 5), min_size=1, max_size=5),
       scheme=st.sampled_from(["shift-then-react", "react-then-shift"]))
def test_lambda_study_entries_follow_their_streams(picked, scheme):
    # permuting, repeating or dropping seeds moves each seed's entries
    # with it and changes none of them
    suite, model, u0, cfg = _study_setup(n=41, scheme=scheme, t_final=0.2)
    lams = (0.2, 0.05)
    streams = [NoiseConfig(seed) for seed in range(6)]
    whole = _as_pairs(lambda_convergence_study(u0, suite, model, cfg, streams, lams), lams)
    part = lambda_convergence_study(u0, suite, model, cfg, [streams[i] for i in picked], lams)
    assert _as_pairs(part, lams) == [whole[i] for i in picked]


def _reference_sup_distances(grid, a, a_tails, b, b_tails):
    # the per-snapshot norm loop the study used before its distances
    # became one vecdot
    sups = []
    for p in range(a.shape[1]):
        d = 0.0
        for s in range(a.shape[0]):
            diff = GridFunction(grid, a[s, p] - b[s, p], a_tails[s, p] - b_tails[s, p])
            d = max(d, norm(diff, "l2"))
        sups.append(d)
    return sups


@pytest.mark.parametrize("n_snaps", [0, 1, 6])
def test_sup_distances_match_the_norm_loop(n_snaps):
    _check_sup_distances(n_snaps, 401)


def test_sup_distances_match_the_norm_loop_on_chunked_rows():
    # rows longer than grids._DOT_CHUNK are summed chunk by chunk
    _check_sup_distances(6, 20001)


def _check_sup_distances(n_snaps, n_nodes):
    grid = Grid.uniform(2.0, n_nodes, 0.5)
    rng = np.random.default_rng(n_snaps)
    P = 7
    a = rng.normal(size=(n_snaps, P, grid.n)) * 10.0 ** rng.integers(-8, 2, size=(1, P, 1))
    a_tails = rng.normal(size=(n_snaps, P))
    b = a + 1e-3 * rng.normal(size=a.shape)
    b_tails = a_tails + 1e-3 * rng.normal(size=a_tails.shape)
    if n_snaps:
        b[:, 1], b_tails[:, 1] = a[:, 1], a_tails[:, 1]  # exactly zero distance
        b[:, 2], b_tails[:, 2] = a[:, 2], a_tails[:, 2] + 0.5  # tail only
        b[n_snaps // 2 :, 3], b_tails[n_snaps // 2 :, 3] = np.nan, np.nan  # aborted run
        a[:, 4], a_tails[:, 4] = np.nan, np.nan  # aborted at the start
        b[-1, 5, 7] = np.nan  # one NaN node
    want = _reference_sup_distances(grid, a, a_tails, b, b_tails)
    got = solver._sup_distances(grid, a, a_tails, b.copy(), b_tails)
    assert all(isinstance(x, float) for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if n_snaps:
        assert got[1] == 0.0 and got[4] == 0.0 and got[0] > 0.0
