import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildsim.grids import Grid, GridFunction, lattice_parts, norm
from mildsim.noise import NoiseConfig, increment_block
from mildsim.operators import OperatorSuite, random_bumps
from mildsim import smoothing
from mildsim.smoothing import (
    CONVEX_FUNCTIONS,
    MONOTONE_GRAPHS,
    apply_pointwise,
    ito_residual,
    monotone_pairing_excess,
    pairing_value,
    penalty_eval,
    run_jensen_battery,
    run_pairing_battery,
    smooth_energy,
    supermartingale_stat,
)


def test_penalty_validation():
    with pytest.raises(ValueError):
        penalty_eval(0.0, 1.0)
    with pytest.raises(ValueError):
        penalty_eval(-1.0, 1.0)
    with pytest.raises(ValueError):
        penalty_eval(1.0, 1.0, order=3)


def test_penalty_scalar_and_array_forms():
    out = penalty_eval(10.0, -0.05)
    assert isinstance(out, float)
    arr = penalty_eval(10.0, np.array([-0.05, 0.3]))
    assert arr.shape == (2,)
    assert arr[0] == out
    assert arr[1] == 0.0


def test_penalty_closed_forms():
    n = 10.0
    # strictly inside the ramp [-1/n, 0)
    r = -0.05
    assert penalty_eval(n, r, 0) == pytest.approx(-n * r**3 / 6.0, rel=1e-15)
    assert penalty_eval(n, r, 1) == pytest.approx(-n * r * r / 2.0, rel=1e-15)
    assert penalty_eval(n, r, 2) == pytest.approx(-n * r, rel=1e-15)
    # below the ramp
    r = -1.0
    assert penalty_eval(n, r, 0) == pytest.approx(0.5 - 1.0 / (2 * n) + 1.0 / (6 * n * n), rel=1e-15)
    assert penalty_eval(n, r, 1) == pytest.approx(r + 1.0 / (2 * n), rel=1e-15)
    assert penalty_eval(n, r, 2) == 1.0
    # nonnegative side is identically zero
    for order in (0, 1, 2):
        assert penalty_eval(n, 0.0, order) == 0.0
        assert penalty_eval(n, 2.0, order) == 0.0


def test_penalty_continuity_at_knee():
    for n in (1.0, 10.0, 100.0):
        knee = -1.0 / n
        eps = 1e-10
        for order in (0, 1):
            left = penalty_eval(n, knee - eps, order)
            right = penalty_eval(n, knee + eps, order)
            assert abs(left - right) < 1e-9


def test_penalty_derivative_bound_is_exact():
    r = np.linspace(-10.0, 10.0, 40001)
    target = -np.maximum(-r, 0.0)
    for n in (1.0, 10.0, 100.0, 1000.0):
        dev = np.abs(penalty_eval(n, r, 1) - target)
        bound = 1.0 / (2.0 * n)
        # cancellation noise ~ulp(10) when forming r + 1/(2n) - r
        assert dev.max() <= bound + 5e-13
        assert dev.max() >= bound - 5e-13


def test_penalty_approximates_from_below():
    r = np.linspace(-5.0, 1.0, 6001)
    target = np.maximum(-r, 0.0) ** 2 / 2.0
    prev = None
    for n in (10.0, 100.0, 1000.0):
        g = penalty_eval(n, r, 0)
        assert np.all(target - g >= -1e-15)
        if prev is not None:
            assert np.all(g >= prev - 1e-15)
        prev = g


def test_smooth_energy_flat_closed_form():
    g = Grid.uniform(40.0, 4001, 1.0)
    f = GridFunction.constant(g, -1.0)
    for n in (1.0, 10.0, 100.0):
        expect = 0.25 - 1.0 / (4.0 * n) + 1.0 / (12.0 * n * n)
        assert smooth_energy(n, f) == pytest.approx(expect, rel=1e-12)


def test_smooth_energy_converges_to_quarter_norm():
    g = Grid.uniform(10.0, 2001, 1.0)
    rng = np.random.default_rng(6)
    f = random_bumps(g, rng)
    target = 0.25 * norm(lattice_parts(f).negative, "l2") ** 2
    errs = [abs(smooth_energy(n, f) - target) for n in (50.0, 500.0)]
    assert errs[0] < float(np.abs(f.values).max()) / (2.0 * 50.0) / g.alpha
    assert 5.0 < errs[0] / errs[1] < 20.0


def test_apply_pointwise_maps_tail():
    g = Grid.uniform(1.0, 11, 1.0)
    f = GridFunction(g, np.linspace(-1, 1, 11), -0.5)
    out = apply_pointwise(f, np.abs)
    assert out.tail_value == 0.5
    assert np.array_equal(out.values, np.abs(f.values))


def test_graph_and_convex_catalogs():
    assert set(MONOTONE_GRAPHS) == {"identity", "tanh", "clipped-linear", "smoothed-sign"}
    assert set(CONVEX_FUNCTIONS) == {"square", "abs", "hinge-squared"}
    r = np.linspace(-3, 3, 101)
    for fn in MONOTONE_GRAPHS.values():
        v = fn(r)
        assert np.all(np.diff(v) >= -1e-15)
    for fn in CONVEX_FUNCTIONS.values():
        v = fn(r)
        # convexity on a uniform lattice: midpoint below chord
        assert np.all(v[1:-1] <= 0.5 * (v[:-2] + v[2:]) + 1e-12)


@pytest.fixture(scope="module")
def fine_suite():
    return OperatorSuite(Grid.uniform(10.0, 100001, 1.0), shifted=True)


def test_pairing_nonnegative_on_sign_changing_state(fine_suite):
    g = fine_suite.grid
    v = GridFunction.from_callable(g, lambda x: np.exp(-0.3 * x) * np.sin(2.0 * x))
    for name, graph in MONOTONE_GRAPHS.items():
        val = pairing_value(fine_suite, v, 0.1, graph)
        assert val > -1e-8, name
        assert monotone_pairing_excess(fine_suite, v, 0.1, graph) <= 1e-8


# The two Jensen checks of one sample, each on its own, as the battery
# combines them.


def jensen_pointwise_excess(suite, v, lam, fn):
    """Worst pointwise failure of fn(resolvent v) <= resolvent fn(v)."""
    return smoothing._pointwise_excess(suite, lam, *smoothing._jensen_images(suite, v, lam, fn))


def jensen_integral_excess(suite, v, lam, fn):
    """Growth of the weighted integral of fn through the resolvent."""
    return smoothing._integral_excess(*smoothing._jensen_images(suite, v, lam, fn))


def test_jensen_identity_is_tight(fine_suite):
    g = fine_suite.grid
    v = GridFunction.from_callable(g, lambda x: np.cos(x) * np.exp(-0.2 * x))
    # linear image commutes with the resolvent exactly
    assert jensen_pointwise_excess(fine_suite, v, 0.5, lambda r: r) < 1e-14


def test_pairing_battery(fine_suite):
    rep = run_pairing_battery(fine_suite, 40, seed=20)
    assert rep.passed
    assert rep.worst_excess <= 1e-8


def test_jensen_battery_matches_separate_checks():
    # one resolvent of v per sample serves both checks; the report is
    # bitwise the one from the two checks computed separately
    suite = OperatorSuite(Grid.uniform(10.0, 2001, 1.0), shifted=True)
    rng = np.random.default_rng(23)
    names = sorted(CONVEX_FUNCTIONS)
    lams = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
    worst, bad = 0.0, 0
    for i in range(30):
        v = random_bumps(suite.grid, rng)
        lam, fn = lams[i % len(lams)], CONVEX_FUNCTIONS[names[i % len(names)]]
        lhs = apply_pointwise(suite.resolvent(v, lam), fn)
        d = lhs - suite.resolvent(apply_pointwise(v, fn), lam)
        pointwise = max(0.0, float(d.values.max()), d.tail_value)
        integral = max(0.0, norm(lhs, "l1") - norm(apply_pointwise(v, fn), "l1"))
        assert jensen_pointwise_excess(suite, v, lam, fn) == pointwise
        assert jensen_integral_excess(suite, v, lam, fn) == integral
        e = max(pointwise, integral)
        worst = max(worst, e)
        bad += e > 1e-8
    rep = run_jensen_battery(suite, 30, seed=23)
    assert (rep.worst_excess, rep.n_violations, rep.n_checks) == (worst, bad, 30)


def test_jensen_battery(fine_suite):
    rep = run_jensen_battery(fine_suite, 40, seed=21)
    assert rep.passed
    assert rep.worst_excess <= 1e-8
    assert rep.label == "jensen-chain"


def _ito_setup():
    g = Grid.uniform(5.0, 251, 1.0)
    v0 = GridFunction.from_callable(g, lambda x: 0.3 * np.sin(1.7 * x) - 0.05)
    drift = GridFunction.from_callable(g, lambda x: 0.4 * np.cos(x) - 0.2)
    modes = [
        GridFunction.from_callable(g, lambda x: 0.25 * np.exp(-0.3 * x)),
        GridFunction.constant(g, 0.1),
    ]
    return g, v0, drift, modes


def test_ito_residual_validation():
    _, v0, drift, modes = _ito_setup()
    with pytest.raises(ValueError):
        ito_residual(50.0, v0, drift, modes)
    with pytest.raises(ValueError):
        ito_residual(50.0, v0, drift, modes, noise_cfgs=[NoiseConfig(1, 0)])
    with pytest.raises(ValueError):
        ito_residual(50.0, v0, drift, modes, noise_cfgs=[NoiseConfig(2, 0), NoiseConfig(1, 0)])
    with pytest.raises(ValueError):
        ito_residual(50.0, v0, drift, (), noise_cfgs=[NoiseConfig(0, 0)])


def test_ito_residual_deterministic_first_order():
    _, v0, drift, _ = _ito_setup()
    totals = []
    for dt, n_steps in ((1e-2, 100), (5e-3, 200)):
        rep = ito_residual(50.0, v0, drift, dt=dt, n_steps=n_steps)
        assert rep.times.shape == (n_steps + 1,)
        assert rep.functional.shape == (n_steps + 1, 1)
        assert rep.residuals.shape == (n_steps, 1)
        totals.append(abs(rep.totals[0]))
    order = np.log(totals[0] / totals[1]) / np.log(2.0)
    assert 0.9 < order < 1.1


def test_ito_residual_stochastic_shrinks_with_dt():
    _, v0, drift, modes = _ito_setup()
    means = []
    streams = [NoiseConfig(2, 314, stream_id=p) for p in range(100)]
    for dt, n_steps in ((1e-2, 100), (2.5e-3, 400)):
        rep = ito_residual(50.0, v0, drift, modes, dt=dt, n_steps=n_steps, noise_cfgs=streams)
        assert len(rep.residuals) == n_steps
        assert rep.residuals.shape == (n_steps, 100)
        acc = 0.0
        for total in rep.totals:
            acc += abs(total)
        means.append(acc / 100)
    assert means[1] < means[0]


def _reference_ito_residual(n, v0, drift, modes=(), dt=1e-2, n_steps=100, noise_cfg=None):
    """One path at a time, as ito_residual computed it before it ran batched."""
    g = v0.grid
    k = len(modes)
    dW = increment_block(noise_cfg, dt, n_steps) if k > 0 else np.zeros((n_steps, 0))
    w = g.weights
    tw = g.tail_weight

    def penalty_integral(v, tail):
        return float(np.dot(w, penalty_eval(n, v, 0))) + tw * penalty_eval(n, tail, 0)

    v = v0.values.copy()
    tail = v0.tail_value
    func = np.empty(n_steps + 1)
    res = np.empty(n_steps)
    func[0] = penalty_integral(v, tail)
    for j in range(n_steps):
        d1 = penalty_eval(n, v, 1)
        d1t = penalty_eval(n, tail, 1)
        d2 = penalty_eval(n, v, 2)
        d2t = penalty_eval(n, tail, 2)
        ds_term = float(np.dot(w, d1 * drift.values)) + tw * d1t * drift.tail_value
        dw_term = 0.0
        for kk in range(k):
            m = modes[kk]
            mt = np.float64(m.tail_value)
            ds_term += 0.5 * (float(np.dot(w, d2 * m.values**2)) + tw * d2t * mt**2)
            dw_term += (float(np.dot(w, d1 * m.values)) + tw * d1t * m.tail_value) * dW[j, kk]
        v = v + drift.values * dt
        tail = tail + drift.tail_value * dt
        for kk in range(k):
            v = v + modes[kk].values * dW[j, kk]
            tail = tail + modes[kk].tail_value * dW[j, kk]
        func[j + 1] = penalty_integral(v, tail)
        res[j] = func[j + 1] - func[j] - ds_term * dt - dw_term
    return func, res, float(res.sum())


@pytest.mark.parametrize("dt, n_steps", [(1e-2, 30), (2.5e-3, 120)])
def test_ito_residual_paths_match_single_path_reference(dt, n_steps):
    # the batched rows, each reduced as its own 1-D dot, are bitwise the
    # paths run one at a time
    _, v0, drift, modes = _ito_setup()
    streams = [NoiseConfig(2, 314, stream_id=p) for p in range(7)]
    rep = ito_residual(50.0, v0, drift, modes, dt=dt, n_steps=n_steps, noise_cfgs=streams)
    for p, ncfg in enumerate(streams):
        func, res, total = _reference_ito_residual(
            50.0, v0, drift, modes, dt=dt, n_steps=n_steps, noise_cfg=ncfg)
        assert rep.functional[:, p].tobytes() == func.tobytes()
        assert rep.residuals[:, p].tobytes() == res.tobytes()
        assert rep.totals[p] == total
    det = ito_residual(50.0, v0, drift, dt=dt, n_steps=n_steps)
    func, res, total = _reference_ito_residual(50.0, v0, drift, dt=dt, n_steps=n_steps)
    assert det.functional[:, 0].tobytes() == func.tobytes()
    assert det.residuals[:, 0].tobytes() == res.tobytes()
    assert det.totals == [total]


@settings(max_examples=20, deadline=None)
@given(picked=st.lists(st.integers(0, 9), min_size=1, max_size=6))
def test_ito_residual_paths_follow_their_streams(picked):
    # permuting, repeating or dropping streams moves each path's results
    # with its stream and changes none of them
    _, v0, drift, modes = _ito_setup()
    streams = [NoiseConfig(2, 99, stream_id=p) for p in range(10)]
    whole = ito_residual(50.0, v0, drift, modes, dt=2e-2, n_steps=10, noise_cfgs=streams)
    part = ito_residual(50.0, v0, drift, modes, dt=2e-2, n_steps=10,
                        noise_cfgs=[streams[i] for i in picked])
    assert part.functional.tobytes() == whole.functional[:, picked].tobytes()
    assert part.residuals.tobytes() == whole.residuals[:, picked].tobytes()
    assert part.totals == [whole.totals[i] for i in picked]


@pytest.mark.parametrize("n", [2, 3, 7, 64, 251, 401, 1001, 20001, 200001])
def test_vecdot_rows_are_the_per_row_dot(n):
    # ito_residual and the lambda study reduce rows with np.vecdot, one BLAS
    # dot per row: bitwise the 1-D np.dot(w, row) of the per-path code
    rng = np.random.default_rng(n)
    w = rng.uniform(0.0, 1.0, size=n)
    x = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-3, 4, size=(3, 1))
    assert np.vecdot(x, w).tobytes() == np.array([np.dot(w, row) for row in x]).tobytes()
    if n <= 20001:  # (snapshots, paths, N), as _sup_distances has it
        y = rng.normal(size=(2, 3, n))
        ref = np.array([[np.dot(w, row) for row in s] for s in y])
        assert np.vecdot(y, w).tobytes() == ref.tobytes()


def test_catalog_functions_match_their_formulas_bitwise():
    # the ufunc forms, with and without out=, against the plain formulas,
    # on arrays and on the numpy scalars apply_pointwise passes for tails
    formulas = {
        "identity": lambda r: r,
        "tanh": np.tanh,
        "clipped-linear": lambda r: np.clip(r, -0.7, 0.7),
        "smoothed-sign": lambda r: r / np.sqrt(r * r + 0.01),
        "square": lambda r: r * r,
        "abs": np.abs,
        "hinge-squared": lambda r: np.minimum(r, 0.0) ** 2,
    }
    rng = np.random.default_rng(8)
    r = rng.normal(size=5000) * 10.0 ** rng.integers(-160, 150, size=5000)
    r[:4] = (0.0, -0.0, 1e-300, -1e-300)
    with np.errstate(over="ignore"):
        for name, fn in {**MONOTONE_GRAPHS, **CONVEX_FUNCTIONS}.items():
            ref = formulas[name](r)
            assert fn(r).tobytes() == ref.tobytes(), name
            out = np.empty_like(r)
            assert fn(r, out=out) is out and out.tobytes() == ref.tobytes(), name
            scalars = [fn(np.float64(x)) for x in r]
            assert all(isinstance(y, np.float64) for y in scalars), name
            assert np.array(scalars).tobytes() == np.array(
                [formulas[name](np.float64(x)) for x in r]).tobytes(), name


def test_pairing_battery_reuses_scratch_bitwise():
    suite = OperatorSuite(Grid.uniform(10.0, 2001, 1.0), shifted=True)
    rng = np.random.default_rng(24)
    names = sorted(MONOTONE_GRAPHS)
    lams = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
    worst, bad = 0.0, 0
    for i in range(30):
        v = random_bumps(suite.grid, rng)
        e = monotone_pairing_excess(suite, v, lams[i % 5], MONOTONE_GRAPHS[names[i % 4]])
        worst, bad = max(worst, e), bad + (e > 1e-8)
    rep = run_pairing_battery(suite, 30, seed=24)
    assert (rep.worst_excess, rep.n_violations, rep.n_checks) == (worst, bad, 30)


def test_supermartingale_stat():
    times = np.array([0.0, 0.5, 1.0])
    neg = np.array([1.0, 1.0, 1.0])
    out = supermartingale_stat(times, neg, 0.5)
    assert np.allclose(out, np.exp(-times), rtol=1e-15)
    # c = 0 leaves the series untouched
    assert np.array_equal(supermartingale_stat(times, neg, 0.0), neg)
    # path-by-path broadcasting
    neg2 = np.ones((4, 3))
    out2 = supermartingale_stat(times, neg2, 1.0)
    assert out2.shape == (4, 3)
    assert np.allclose(out2[2], np.exp(-2.0 * times), rtol=1e-15)
