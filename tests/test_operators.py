import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import lfilter

from mildsim import kernels, operators
from mildsim.grids import Grid, GridFunction, norm
from mildsim.operators import (
    BATTERY_LAMS,
    Battery,
    BatteryReport,
    OperatorSuite,
    bump_params,
    CONTRACTION,
    SUBMARKOV,
    bumps,
    l1_contraction_excess,
    random_bumps,
    run_battery,
    run_contraction_battery,
    run_submarkov_battery,
    scratch_rows,
    submarkov_excess,
    work_rows,
)
from mildsim.smoothing import (
    CONVEX_FUNCTIONS,
    JENSEN,
    MONOTONE_GRAPHS,
    PAIRING,
    _integral_excess,
    _jensen_images,
    _pointwise_excess,
    monotone_pairing_excess,
    run_jensen_battery,
    run_pairing_battery,
)


@pytest.fixture(scope="module")
def grid():
    return Grid.uniform(30.0, 2000, 3.0)


def test_alpha_eff_and_damping(grid):
    shifted = OperatorSuite(grid, shifted=True)
    plain = OperatorSuite(grid, shifted=False)
    assert shifted.alpha_eff == 3.0
    assert plain.alpha_eff == 0.0
    t = 10 * grid.spacing
    assert shifted.damping(t) == pytest.approx(np.exp(-3.0 * t), rel=1e-15)
    assert plain.damping(t) == 1.0


def test_steps_for_time(grid):
    suite = OperatorSuite(grid)
    h = grid.spacing
    assert suite.steps_for_time(0.0) == 0
    assert suite.steps_for_time(5 * h) == 5
    with pytest.raises(ValueError):
        suite.steps_for_time(1.5 * h)
    with pytest.raises(ValueError):
        suite.steps_for_time(-h)


def test_semigroup_is_exact_node_shift(grid):
    suite = OperatorSuite(grid, shifted=False)
    rng = np.random.default_rng(0)
    f = GridFunction(grid, rng.normal(size=grid.n), 0.7)
    m = 17
    g = suite.semigroup(f, m * grid.spacing)
    assert np.array_equal(g.values[: grid.n - m], f.values[m:])
    assert np.all(g.values[grid.n - m :] == 0.7)
    assert g.tail_value == 0.7
    # zero time is the identity
    assert np.array_equal(suite.semigroup(f, 0.0).values, f.values)
    # shifting past the grid leaves only the tail
    far = suite.semigroup(f, (grid.n + 5) * grid.spacing)
    assert np.all(far.values == 0.7)


def test_semigroup_damping_factor(grid):
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.constant(grid, 2.0)
    t = 4 * grid.spacing
    g = suite.semigroup(f, t)
    assert np.allclose(g.values, 2.0 * np.exp(-3.0 * t), rtol=1e-15)


def test_resolvent_constant_closed_form(grid):
    # (I + lam (A + alpha))^{-1} c = c / (1 + lam alpha)
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.constant(grid, 2.5)
    for lam in (1e-4, 1e-2, 1.0, 100.0):
        y = suite.resolvent(f, lam)
        expect = 2.5 / (1.0 + lam * 3.0)
        assert np.abs(y.values - expect).max() < 1e-12 * abs(expect) + 1e-15
        assert y.tail_value == pytest.approx(expect, rel=1e-14)


def test_resolvent_constant_unshifted(grid):
    suite = OperatorSuite(grid, shifted=False)
    f = GridFunction.constant(grid, 1.3)
    y = suite.resolvent(f, 0.5)
    assert np.abs(y.values - 1.3).max() < 1e-12


def test_resolvent_exponential_eigenfunction(grid):
    # e^{-x} is an eigenfunction of A + alpha with eigenvalue 1 + alpha,
    # up to the constant-tail truncation past x_max
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-x))
    for lam, tol in ((1e-4, 1e-6), (0.1, 2e-5), (1.0, 5e-6), (10.0, 1e-6)):
        y = suite.resolvent(f, lam)
        expect = np.exp(-grid.nodes) / (1.0 + lam * 4.0)
        assert np.abs(y.values - expect).max() < tol, f"lam={lam}"


def test_resolvent_converges_to_identity(grid):
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-0.5 * x) * np.sin(x))
    errs = [norm(suite.resolvent(f, lam) - f, "l2") for lam in (0.5, 0.25, 0.125)]
    assert errs[0] > errs[1] > errs[2]


def test_resolvent_positivity(grid):
    suite = OperatorSuite(grid, shifted=True)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_bumps(grid, rng, nonneg=True)
        y = suite.resolvent(f, 0.3)
        assert y.values.min() >= 0.0
        assert y.tail_value >= 0.0


_values = st.floats(-1e6, 1e6)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 400), x_max=st.floats(0.1, 10.0),
       alpha=st.floats(0.01, 3.0), shifted=st.booleans(), lam=st.floats(1e-3, 10.0))
def test_resolvent_preserves_order(data, n, x_max, alpha, shifted, lam):
    # f <= g node by node and in the tail gives R f <= R g: every
    # coefficient of the sweep is nonnegative and rounding is monotone,
    # so this holds exactly in floating point
    grid = Grid.uniform(x_max, n, alpha)
    suite = OperatorSuite(grid, shifted=shifted)
    f = data.draw(hnp.arrays(np.float64, n + 1, elements=_values), label="f")
    gap = data.draw(hnp.arrays(np.float64, n + 1, elements=st.floats(0.0, 1e6)), label="gap")
    g = f + gap
    rf = suite.resolvent(GridFunction(grid, f[:-1], float(f[-1])), lam)
    rg = suite.resolvent(GridFunction(grid, g[:-1], float(g[-1])), lam)
    assert (rf.values <= rg.values).all()
    assert rf.tail_value <= rg.tail_value
    # the row-wise sweep of the batch integrator, on both curves at once
    res = kernels.resolvent_coeffs(grid.spacing, lam, suite.alpha_eff)
    F = np.stack([f[:-1], g[:-1]])
    rows, tails = kernels._sweep_rows(F, np.array([f[-1], g[-1]]), res, np.empty_like(F),
                                      np.empty((2, n - 1)), lfilter)
    assert (rows[0] <= rows[1]).all() and tails[0] <= tails[1]


def test_yosida_constant(grid):
    # A_lam c = alpha c / (1 + lam alpha) for the shifted suite
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.constant(grid, 1.0)
    for lam in (1e-3, 0.1, 1.0):
        y = suite.yosida(f, lam)
        expect = 3.0 / (1.0 + lam * 3.0)
        assert np.abs(y.values - expect).max() < 1e-10


@pytest.mark.parametrize("alpha", [1e-20, 1e-15, 0.5])
def test_yosida_tail_is_the_closed_form(alpha):
    # (f - f / (1 + lam alpha)) / lam loses the tail to rounding at tiny lam alpha
    suite = OperatorSuite(Grid.uniform(1.0, 101, alpha), shifted=True)
    f = GridFunction.constant(suite.grid, 0.7)
    for lam in BATTERY_LAMS:
        expect = 0.7 * alpha / (1.0 + lam * alpha)
        assert suite.yosida(f, lam).tail_value == pytest.approx(expect, rel=1e-15, abs=0.0)


def test_yosida_approaches_generator(grid):
    # on the eigenfunction the defect shrinks linearly in lam
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-x))
    target = 4.0 * np.exp(-grid.nodes)
    keep = grid.nodes <= 20.0
    errs = []
    for lam in (0.1, 0.05, 0.025):
        y = suite.yosida(f, lam)
        errs.append(np.abs(y.values[keep] - target[keep]).max())
    assert errs[0] > errs[1] > errs[2]
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def generator_fd(suite: OperatorSuite, f: GridFunction) -> GridFunction:
    """Finite-difference generator: -f' plus alpha_eff*f.

    Second order stencils; the constant tail has zero derivative.
    """
    v = f.values
    h = suite.grid.spacing
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    a = suite.alpha_eff
    return GridFunction(suite.grid, -d + a * v, a * f.tail_value)


def test_generator_fd(grid):
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-x))
    g = generator_fd(suite, f)
    expect = 4.0 * np.exp(-grid.nodes)
    assert np.abs(g.values - expect).max() < 1e-3
    assert g.tail_value == pytest.approx(3.0 * f.tail_value, rel=1e-14)
    c = GridFunction.constant(grid, 2.0)
    gc = generator_fd(suite, c)
    assert np.abs(gc.values - 6.0).max() < 1e-9


def test_random_bumps_properties(grid):
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_bumps(grid, rng)
        assert f.values.shape == (grid.n,)
        assert f.tail_value == f.values[-1]
        assert np.isfinite(f.values).all()
    g = random_bumps(grid, rng, nonneg=True)
    assert g.values.min() >= 0.0


def test_submarkov_excess_flags_violations(grid):
    suite = OperatorSuite(grid, shifted=True)
    f = GridFunction.constant(grid, 1.0)
    assert submarkov_excess(suite, f, 0.5) < 1e-12


def test_contraction_excess_sign(grid):
    suite = OperatorSuite(grid, shifted=True)
    rng = np.random.default_rng(2)
    f = random_bumps(grid, rng)
    g = random_bumps(grid, rng)
    assert l1_contraction_excess(suite, f, g, 0.5) <= 1e-10


@pytest.fixture(scope="module")
def fine_suite():
    # fine spacing keeps quadrature error under the battery tolerance
    return OperatorSuite(Grid.uniform(10.0, 100001, 1.0), shifted=True)


def test_submarkov_battery(fine_suite):
    rep = run_submarkov_battery(fine_suite, 40, seed=10)
    assert rep.passed
    assert rep.n_checks == 40
    assert rep.worst_excess <= 1e-8
    assert rep.label == "submarkov"


def test_contraction_battery(fine_suite):
    rep = run_contraction_battery(fine_suite, 40, seed=11)
    assert rep.passed
    assert rep.worst_excess <= 1e-8


def _reference_random_bumps(grid, rng, nonneg=False):
    # the bumps before they were evaluated in one scratch row: a fresh
    # array for every operation
    n = int(rng.integers(1, 6))
    x = grid.nodes
    vals = np.zeros_like(x)
    for _ in range(n):
        c = rng.uniform(0.0, grid.x_max)
        w = rng.uniform(0.1, 5.0)
        a = rng.uniform(-2.0, 2.0)
        vals += a * np.exp(-((x - c) ** 2) / (2.0 * w * w))
    if nonneg:
        vals = np.abs(vals)
    return GridFunction(grid, vals, float(vals[-1]))


@pytest.mark.parametrize("nonneg", [False, True])
@pytest.mark.parametrize("x_max, n_nodes, n_samples", [
    (1.0, 7, 400), (2.0, 401, 400), (100.0, 1001, 200), (4.0, 200001, 20),
])
def test_random_bumps_match_reference(x_max, n_nodes, n_samples, nonneg):
    g = Grid.uniform(x_max, n_nodes, 1.0)
    rng, ref_rng = np.random.default_rng(n_nodes), np.random.default_rng(n_nodes)
    for _ in range(n_samples):
        got, ref = random_bumps(g, rng, nonneg), _reference_random_bumps(g, ref_rng, nonneg)
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.tail_value == ref.tail_value
    assert rng.random() == ref_rng.random()  # the same draws


@pytest.mark.parametrize("nonneg", [False, True])
@pytest.mark.parametrize("n_nodes, n_samples", [(7, 400), (200001, 20)])
def test_random_bumps_into_rows_match_reference(n_nodes, n_samples, nonneg):
    # the batteries' samples reuse one values row and one bump row, which
    # start here as NaN
    g = Grid.uniform(4.0, n_nodes, 1.0)
    rng, ref_rng = np.random.default_rng(n_nodes), np.random.default_rng(n_nodes)
    out, tmp = np.full(n_nodes, np.nan), np.full(n_nodes, np.nan)
    for _ in range(n_samples):
        got = random_bumps(g, rng, nonneg, out=out, tmp=tmp)
        ref = _reference_random_bumps(g, ref_rng, nonneg)
        assert got.values is out
        assert got.values.tobytes() == ref.values.tobytes() and got.tail_value == ref.tail_value
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n", [2, 3, 501])
def test_resolvent_and_yosida_into_scratch_rows(n):
    g = Grid.uniform(2.0, n, 1.0)
    suite = OperatorSuite(g, shifted=True)
    f = random_bumps(g, np.random.default_rng(n))
    out, cells = scratch_rows(work_rows(g, 1), 1)
    for lam in (1e-3, 0.3, 10.0):
        ref = suite.resolvent(f, lam)
        got = suite.resolvent(f, lam, out, cells)
        assert np.shares_memory(got.values, out)
        assert got.values.tobytes() == ref.values.tobytes() and got.tail_value == ref.tail_value
        ref = suite.yosida(f, lam)
        got = suite.yosida(f, lam, out, cells)
        assert np.shares_memory(got.values, out)
        assert got.values.tobytes() == ref.values.tobytes() and got.tail_value == ref.tail_value


def test_batteries_reuse_scratch_bitwise():
    # a battery's report equals the per-sample checks that allocate every row
    suite = OperatorSuite(Grid.uniform(10.0, 2001, 1.0), shifted=True)
    lams = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
    rng = np.random.default_rng(31)
    worst, bad = 0.0, 0
    for i in range(25):
        e = submarkov_excess(suite, random_bumps(suite.grid, rng, nonneg=True), lams[i % 5])
        worst, bad = max(worst, e), bad + (e > 1e-8)
    rep = run_submarkov_battery(suite, 25, seed=31)
    assert (rep.worst_excess, rep.n_violations) == (worst, bad)
    rng = np.random.default_rng(32)
    worst, bad = -np.inf, 0
    for i in range(25):
        f, g = random_bumps(suite.grid, rng), random_bumps(suite.grid, rng)
        e = l1_contraction_excess(suite, f, g, lams[i % 5])
        worst, bad = max(worst, e), bad + (e > 1e-8)
    rep = run_contraction_battery(suite, 25, seed=32)
    assert (rep.worst_excess, rep.n_violations) == (float(worst), bad)


@pytest.mark.parametrize("nonneg", [False, True])
@pytest.mark.parametrize("n_nodes", [7, 20001])
def test_pre_drawn_curves_are_random_bumps(n_nodes, nonneg):
    # run_battery draws every sample's bumps first and evaluates them later
    g = Grid.uniform(4.0, n_nodes, 1.0)
    rng, ref_rng = np.random.default_rng(n_nodes), np.random.default_rng(n_nodes)
    draws = [bump_params(g, rng) for _ in range(30)]
    for params in draws:
        ref = random_bumps(g, ref_rng, nonneg)
        got = bumps(g, params, nonneg)
        assert got.values.tobytes() == ref.values.tobytes() and got.tail_value == ref.tail_value
    assert rng.random() == ref_rng.random()


def _serial_excesses(suite, label, n_samples, seed):
    # the batteries' loop before the split: one generator per battery, and
    # each sample's bumps drawn and checked in turn, every row allocated
    grid, rng = suite.grid, np.random.default_rng(seed)
    graphs, fns = sorted(MONOTONE_GRAPHS), sorted(CONVEX_FUNCTIONS)
    for i in range(n_samples):
        lam = BATTERY_LAMS[i % len(BATTERY_LAMS)]
        if label == "submarkov":
            yield submarkov_excess(suite, random_bumps(grid, rng, nonneg=True), lam)
        elif label == "l1-contraction":
            f, g = random_bumps(grid, rng), random_bumps(grid, rng)
            yield l1_contraction_excess(suite, f, g, lam)
        elif label == "monotone-pairing":
            graph = MONOTONE_GRAPHS[graphs[i % len(graphs)]]
            yield monotone_pairing_excess(suite, random_bumps(grid, rng), lam, graph)
        else:
            fn = CONVEX_FUNCTIONS[fns[i % len(fns)]]
            fv, fjv = _jensen_images(suite, random_bumps(grid, rng), lam, fn)
            yield max(_pointwise_excess(suite, lam, fv, fjv), _integral_excess(fv, fjv))


def _serial_report(suite, label, n_samples, seed, tol=1e-8):
    worst, bad = (-np.inf if label == "l1-contraction" else 0.0), 0
    for e in _serial_excesses(suite, label, n_samples, seed):
        worst = max(worst, e)
        if e > tol:
            bad += 1
    return BatteryReport(label, n_samples, float(worst), bad, tol)


def _bits(rep):
    return rep.label, rep.n_checks, rep.worst_excess.hex(), rep.n_violations, rep.tol


def _force_battery_split(monkeypatch, workers):
    # every run_battery call with a sample splits into min(workers, samples)
    # shares; returns the shares forked
    monkeypatch.setattr(operators, "_SPLIT_NODE_SAMPLES", 1)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
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


BATTERIES = {
    "submarkov": (SUBMARKOV, run_submarkov_battery),
    "l1-contraction": (CONTRACTION, run_contraction_battery),
    "monotone-pairing": (PAIRING, run_pairing_battery),
    "jensen-chain": (JENSEN, run_jensen_battery),
}


@pytest.fixture(scope="module")
def chunked_suite():
    # rows longer than one dot chunk
    return OperatorSuite(Grid.uniform(10.0, 10001, 1.0), shifted=True)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("n_samples", [0, 1, 2, 7])
@pytest.mark.parametrize("label", sorted(BATTERIES) + ["all four"])
def test_battery_split_is_bitwise_the_serial_loop(monkeypatch, chunked_suite, label, n_samples,
                                                  workers):
    forked = _force_battery_split(monkeypatch, workers)
    labels = sorted(BATTERIES) if label == "all four" else [label]
    seeds = {lab: 40 + k for k, lab in enumerate(labels)}
    if label == "all four":  # the k-th battery draws from seed + k
        got = run_battery(chunked_suite, [BATTERIES[lab][0] for lab in labels], n_samples, 40)
    else:
        got = [BATTERIES[label][1](chunked_suite, n_samples, seeds[label])]
    _assert_no_child_left()
    want = [_serial_report(chunked_suite, lab, n_samples, seeds[lab]) for lab in labels]
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    total = n_samples * len(labels)
    w = max(1, min(workers, total))
    assert forked == [(total * k // w, total * (k + 1) // w) for k in range(1, w)]


def test_battery_split_keeps_max_and_nan_in_sample_order(monkeypatch):
    # the parent reduces the shares' excesses with Python's max, in sample
    # order, as the serial loop did: a NaN start stays, a later NaN is passed
    _force_battery_split(monkeypatch, 3)
    values = [0.5, np.nan, 2.0, -1.0, np.nan, 3.0, 1e-9, 0.0]
    probe = Battery("probe", 1, False, lambda suite, curves, lam, i, work: values[i])
    suite = OperatorSuite(Grid.uniform(1.0, 11, 1.0))
    got = run_battery(suite, [probe._replace(worst=np.nan), probe], len(values), 1)
    assert np.isnan(got[0].worst_excess) and got[1].worst_excess == 3.0
    assert got[0].n_violations == got[1].n_violations == 3
    _assert_no_child_left()


def test_a_failing_battery_child_makes_the_call_raise(monkeypatch):
    forked = _force_battery_split(monkeypatch, 2)

    def excess(suite, curves, lam, i, work):
        if i >= 2:
            raise ValueError("share failed")
        return 0.0

    battery = Battery("failing", 1, False, excess)
    with pytest.raises(RuntimeError, match="rows 2:4"):
        run_battery(OperatorSuite(Grid.uniform(1.0, 11, 1.0)), [battery], 4, 1)
    assert forked == [(2, 4)]
    _assert_no_child_left()


def test_a_battery_that_checked_nothing_has_not_passed():
    assert not BatteryReport("submarkov", 0, 0.0, 0, 1e-8).passed
    assert BatteryReport("submarkov", 1, 0.0, 0, 1e-8).passed
    assert not BatteryReport("submarkov", 1, 1.0, 1, 1e-8).passed
