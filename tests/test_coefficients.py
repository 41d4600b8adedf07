import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildsim import kernels, spec
from mildsim.coefficients import (
    CoefficientModel,
    ModeFunction,
    estimate_positivity_constant,
    positivity_functional,
)
from mildsim.grids import Grid, GridFunction, lattice_parts, norm, weighted_inner
from mildsim.spec import MODE_TABLE

# Reference coefficients, one state and one mode at a time.  The package
# evaluates them only in kernels.coefficient_rows; the closed-form tests
# below check these references, and the evaluator is checked against
# them bit for bit.


def mode_reference(mode: ModeFunction, grid: Grid, u: GridFunction) -> GridFunction:
    """sigma(x, u(x)) as a grid function."""
    prof, ptail = mode.profile(grid)
    code = mode.level_code
    if code == spec.LEVEL_CONST:
        return GridFunction(grid, prof.copy(), ptail)
    if code == spec.LEVEL_LINEAR:
        return GridFunction(grid, prof * u.values, ptail * u.tail_value)
    cap = float(mode.cap)
    lev = np.clip(u.values, 0.0, cap)
    levt = min(max(u.tail_value, 0.0), cap)
    return GridFunction(grid, prof * lev, ptail * levt)


def hjm_drift_reference(grid: Grid, sig: GridFunction) -> GridFunction:
    """Quadratic drift contribution sigma * integral of sigma from 0.

    The running integral is the unweighted trapezoid cumulative sum;
    beyond x_max it is frozen at its end value so the tail stays a
    constant.
    """
    v = sig.values
    h = grid.spacing
    integ = np.zeros_like(v)
    np.cumsum(0.5 * h * (v[1:] + v[:-1]), out=integ[1:])
    return GridFunction(grid, v * integ, sig.tail_value * float(integ[-1]))


def drift_reference(model: CoefficientModel, u: GridFunction) -> GridFunction:
    """Full drift at state u, including the weight correction term."""
    g = model.grid
    if model.drift == "zero":
        out = GridFunction(g, np.zeros(g.n), 0.0)
    elif model.drift == "linear-decay":
        out = GridFunction(g, -model.drift_c * u.values, -model.drift_c * u.tail_value)
    else:
        acc = np.zeros(g.n)
        acct = 0.0
        for mode in model.modes:
            part = hjm_drift_reference(g, mode_reference(mode, g, u))
            acc += part.values
            acct += part.tail_value
        out = GridFunction(g, acc, acct)
    if model.alpha_correction != 0.0:
        out = out + model.alpha_correction * u
    return out


@pytest.fixture(scope="module")
def grid():
    return Grid.uniform(3.0, 601, 0.5)


def test_mode_validation(grid):
    with pytest.raises(ValueError):
        ModeFunction("nope")
    with pytest.raises(ValueError):
        ModeFunction("proportional-capped", c=1.0)
    with pytest.raises(ValueError):
        ModeFunction("level-scaled", c=1.0, cap=0.0)
    with pytest.raises(ValueError):
        ModeFunction("custom")
    t = GridFunction.constant(Grid.uniform(3.0, 600, 0.5), 1.0)
    with pytest.raises(ValueError):
        ModeFunction("custom", table=t).profile(grid)
    t = GridFunction.constant(Grid.uniform(3.0, 601, 2.0), 1.0)  # the nodes, another alpha
    with pytest.raises(ValueError):
        ModeFunction("custom", table=t).profile(grid)


def test_mode_evaluate_constant(grid):
    u = GridFunction.from_callable(grid, np.sin)
    s = mode_reference(ModeFunction("constant", c=0.4), grid, u)
    assert np.all(s.values == 0.4)
    assert s.tail_value == 0.4


def test_mode_evaluate_proportional(grid):
    u = GridFunction.from_callable(grid, np.sin, tail_value=-0.3)
    s = mode_reference(ModeFunction("proportional", c=2.0), grid, u)
    assert np.array_equal(s.values, 2.0 * u.values)
    assert s.tail_value == pytest.approx(-0.6, rel=1e-15)


def test_mode_evaluate_capped(grid):
    u = GridFunction(grid, np.linspace(-1.0, 1.0, grid.n), -0.5)
    s = mode_reference(ModeFunction("proportional-capped", c=3.0, cap=0.2), grid, u)
    assert np.all(s.values[u.values <= 0.0] == 0.0)
    assert np.all(s.values[u.values >= 0.2] == pytest.approx(0.6, rel=1e-15))
    mid = (u.values > 0.0) & (u.values < 0.2)
    assert np.allclose(s.values[mid], 3.0 * u.values[mid], rtol=1e-15)
    assert s.tail_value == 0.0


def test_mode_evaluate_exponential_decay(grid):
    u = GridFunction.constant(grid, 5.0)
    s = mode_reference(ModeFunction("exponential-decay", c=0.3, decay=2.0), grid, u)
    assert np.allclose(s.values, 0.3 * np.exp(-2.0 * grid.nodes), rtol=1e-15)
    assert s.tail_value == s.values[-1]


def test_mode_evaluate_level_scaled(grid):
    u = GridFunction.constant(grid, 10.0)
    s = mode_reference(ModeFunction("level-scaled", c=0.3, cap=0.05, decay=1.0), grid, u)
    assert np.allclose(s.values, 0.3 * 0.05 * np.exp(-grid.nodes), rtol=1e-15)


def test_mode_evaluate_custom(grid):
    table = GridFunction.from_callable(grid, lambda x: 1.0 + x)
    u = GridFunction.constant(grid, -2.0)
    s = mode_reference(ModeFunction("custom", c=0.5, table=table), grid, u)
    assert np.allclose(s.values, 0.5 * (1.0 + grid.nodes), rtol=1e-15)


def test_hjm_drift_constant_profile(grid):
    # sigma = c: the running integral is exactly c x on the lattice
    sig = GridFunction.constant(grid, 0.7)
    d = hjm_drift_reference(grid, sig)
    assert np.allclose(d.values, 0.49 * grid.nodes, rtol=1e-13, atol=1e-16)
    assert d.tail_value == pytest.approx(0.49 * grid.x_max, rel=1e-13)


def test_hjm_drift_exponential_profile():
    g = Grid.uniform(3.0, 3001, 0.5)
    sig = GridFunction.from_callable(g, lambda x: np.exp(-x))
    d = hjm_drift_reference(g, sig)
    expect = np.exp(-g.nodes) * (1.0 - np.exp(-g.nodes))
    assert np.abs(d.values - expect).max() < 1e-6


def test_model_validation(grid):
    with pytest.raises(ValueError):
        CoefficientModel(grid, drift="nope")


def test_drift_eval_kinds(grid):
    u = GridFunction.from_callable(grid, lambda x: 0.1 + 0.05 * np.sin(x))
    zero = drift_reference(CoefficientModel(grid), u)
    assert np.all(zero.values == 0.0) and zero.tail_value == 0.0
    dec = drift_reference(CoefficientModel(grid, drift="linear-decay", drift_c=0.4), u)
    assert np.array_equal(dec.values, -0.4 * u.values)
    # the weight correction adds alpha u on top of the base drift
    corr = drift_reference(CoefficientModel(grid, drift="zero", alpha_correction=0.5), u)
    assert np.allclose(corr.values, 0.5 * u.values, rtol=1e-15)


def test_drift_eval_hjm_sums_modes(grid):
    u = GridFunction.constant(grid, 0.3)
    modes = (ModeFunction("constant", c=0.2), ModeFunction("constant", c=0.1))
    model = CoefficientModel(grid, modes=modes, drift="hjm")
    d = drift_reference(model, u)
    assert np.allclose(d.values, (0.04 + 0.01) * grid.nodes, rtol=1e-13, atol=1e-16)


def test_kernel_args_encoding(grid):
    model = CoefficientModel(
        grid,
        modes=(
            ModeFunction("constant", c=0.3),
            ModeFunction("proportional", c=0.5),
            ModeFunction("proportional-capped", c=1.0, cap=0.1),
            ModeFunction("exponential-decay", c=0.2, decay=2.0),
        ),
        drift="linear-decay",
        drift_c=0.4,
        alpha_correction=0.5,
    )
    ka = model.kernel_args()
    assert ka.profiles.shape == (4, grid.n)
    assert list(ka.level_codes) == [0, 1, 2, 0]
    assert list(ka.caps) == [0.0, 0.0, 0.1, 0.0]
    assert ka.alpha_corr == 0.5
    assert np.allclose(ka.profiles[3], 0.2 * np.exp(-2.0 * grid.nodes), rtol=1e-15)


# the coefficient evaluator against the references, bit for bit

DRIFTS = [
    ("zero", 0.0, 0.0),
    ("zero", 0.0, 0.5),
    ("linear-decay", 0.4, 0.0),
    ("linear-decay", 0.4, 0.5),
    ("hjm", 0.0, 0.0),
    ("hjm", 0.0, 0.5),
]


def _modes(grid):
    """One mode of every kind, caps inside the range of _states."""
    table = GridFunction.from_callable(grid, lambda x: 1.0 + np.sin(3.0 * x), tail_value=-0.25)
    return {
        "constant": ModeFunction("constant", c=0.4),
        "proportional": ModeFunction("proportional", c=0.7),
        "proportional-capped": ModeFunction("proportional-capped", c=3.0, cap=0.2),
        "exponential-decay": ModeFunction("exponential-decay", c=0.3, decay=2.0),
        "level-scaled": ModeFunction("level-scaled", c=0.5, cap=0.05, decay=1.0),
        "custom": ModeFunction("custom", c=0.5, table=table),
    }


def _states(grid):
    """Negative, capped and NaN nodes; negative, capped and NaN tails; -0.0
    at the first nodes and in the tail."""
    rng = np.random.default_rng(17)
    mixed = rng.normal(0.0, 0.3, grid.n)
    with_nan = mixed.copy()
    with_nan[::37] = np.nan
    signed_zero = mixed.copy()
    signed_zero[:4] = -0.0
    return [
        GridFunction(grid, mixed, -0.4),
        GridFunction(grid, mixed, 0.1),
        GridFunction(grid, with_nan, 0.03),
        GridFunction(grid, np.abs(mixed) + 1.0, 5.0),
        GridFunction(grid, -np.abs(mixed), np.nan),
        GridFunction(grid, signed_zero, -0.0),
        GridFunction(grid, np.full(grid.n, -0.0), -0.0),
    ]


def _bits(f: GridFunction) -> bytes:
    return f.values.tobytes() + np.float64(f.tail_value).tobytes()


@pytest.mark.parametrize("drift, drift_c, alpha", DRIFTS)
@pytest.mark.parametrize("kinds", [(k,) for k in MODE_TABLE] + [tuple(MODE_TABLE)])
def test_coefficients_match_references_bitwise(drift, drift_c, alpha, kinds):
    g = Grid.uniform(2.0, 301, 0.5)
    modes = _modes(g)
    model = CoefficientModel(
        g, modes=tuple(modes[k] for k in kinds), drift=drift, drift_c=drift_c,
        alpha_correction=alpha,
    )
    states = _states(g)
    for u in states:
        sig, d = model.coefficients(u)
        assert [_bits(s) for s in sig] == [_bits(mode_reference(m, g, u)) for m in model.modes]
        assert _bits(d) == _bits(drift_reference(model, u))
    # all states as one batch in a scratch with spare rows, as the
    # integrator's ragged last row block: the flat trapezoid and the tiled
    # rows are sliced to the batch
    ka = model.kernel_args()
    scratch = kernels.coefficient_scratch(ka, len(states) + 3)
    v = np.array([u.values for u in states])
    t = np.array([u.tail_value for u in states])
    with np.errstate(all="ignore"):
        batch = kernels.coefficient_rows(ka, v, t, scratch)
    for i, u in enumerate(states):
        ref = [mode_reference(m, g, u) for m in model.modes] + [drift_reference(model, u)]
        assert _row_bytes(batch, i) == [
            *(r.values.tobytes() for r in ref[:-1]),
            *(np.float64(r.tail_value).tobytes() for r in ref[:-1]),
            ref[-1].values.tobytes(), np.float64(ref[-1].tail_value).tobytes()]


# values around the caps of _modes, exact zeros, and a few NaN nodes
value = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.05, 0.2, 0.3]))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(st.lists(value, min_size=9, max_size=9), min_size=1, max_size=5),
    tails=st.lists(value, min_size=5, max_size=5),
    nans=st.lists(st.integers(0, 44), max_size=2),
    kinds=st.lists(st.sampled_from(tuple(MODE_TABLE)), min_size=1, max_size=3),
    drift=st.sampled_from(DRIFTS),
    spare=st.integers(0, 3),
)
def test_coefficient_row_in_a_batch_is_the_row_alone(rows, tails, nans, kinds, drift, spare):
    g = Grid.uniform(1.0, 9, 0.5)
    modes = _modes(g)
    ka = CoefficientModel(
        g, modes=tuple(modes[k] for k in kinds), drift=drift[0], drift_c=drift[1],
        alpha_correction=drift[2],
    ).kernel_args()
    v = np.array(rows)
    v.flat[[i for i in nans if i < v.size]] = np.nan
    t = np.array(tails[: len(rows)])
    # a scratch with room to spare, as the integrator's last row block has
    scratch = kernels.coefficient_scratch(ka, len(rows) + spare)
    with np.errstate(all="ignore"):
        batch = kernels.coefficient_rows(ka, v, t, scratch)
        for i in range(len(rows)):
            alone = kernels.coefficient_rows(ka, v[i : i + 1], t[i : i + 1])
            assert _row_bytes(batch, i) == _row_bytes(alone, 0)


def _row_bytes(coefs, i: int) -> list:
    """Row i of every array coefficient_rows returns, as bytes; (1, N) rows broadcast."""
    sig, sigt, drift, dtail = coefs
    return [a[i if len(a) > 1 else 0].tobytes() for a in (*sig, *sigt, drift, dtail)]


def test_positivity_functional_zero_on_nonnegative(grid):
    model = CoefficientModel(grid, modes=(ModeFunction("constant", c=0.2),), drift="hjm")
    h = GridFunction.from_callable(grid, lambda x: 0.1 + np.abs(np.sin(x)))
    assert positivity_functional(model, h) == 0.0


def test_positivity_functional_proportional_ratio(grid):
    # sigma(r) = r and no drift: the functional is exactly half the
    # negative-part energy
    model = CoefficientModel(grid, modes=(ModeFunction("proportional", c=1.0),))
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = GridFunction(grid, rng.normal(size=grid.n), float(rng.normal()))
        neg = lattice_parts(h).negative
        e = norm(neg, "l2") ** 2
        val = positivity_functional(model, h)
        assert val == pytest.approx(0.5 * e, rel=1e-12)


def test_positivity_functional_constant_mode(grid):
    # flat sigma keeps pushing on the negative set, so the functional
    # stays bounded away from zero while the negative part shrinks
    model = CoefficientModel(grid, modes=(ModeFunction("constant", c=0.2),))
    h = GridFunction.constant(grid, -1e-6)
    val = positivity_functional(model, h)
    assert val > 0.5 * 0.04 * (1.0 / grid.alpha) * 0.9


def test_estimate_capped_model_admissible():
    g = Grid.uniform(1.0, 1001, 0.5)
    model = CoefficientModel(
        g,
        modes=(ModeFunction("proportional-capped", c=8.0, cap=2e-4),),
        drift="hjm",
        alpha_correction=0.5,
    )
    rep = estimate_positivity_constant(model, n_samples=200, seed=1)
    assert rep.samples == 205
    assert rep.violations == 0
    assert rep.admissible
    assert np.isfinite(rep.estimated_c)
    assert 0.0 <= rep.estimated_c < 10.0


def test_estimate_flat_vol_violates():
    g = Grid.uniform(1.0, 501, 0.5)
    model = CoefficientModel(
        g,
        modes=(ModeFunction("constant", c=0.2),),
        drift="hjm",
        alpha_correction=0.5,
    )
    rep = estimate_positivity_constant(model, n_samples=50, seed=1)
    assert rep.violations >= 1
    assert not rep.admissible
    assert rep.estimated_c == np.inf


@pytest.mark.parametrize("kind, c, cap", [
    ("constant", 1e155, None), ("constant", 1e300, None),
    ("exponential-decay", 1e155, None), ("exponential-decay", 1e300, None),
    ("proportional", 1e200, None), ("proportional", 1e300, None),
    ("proportional-capped", 1e300, 2e-4), ("level-scaled", 1e300, 2e-4),
])
def test_estimate_with_an_overflowing_functional_is_inadmissible(kind, c, cap):
    # sigma times its integral overflows, so the functional is inf or NaN
    # (0 * inf on the negative set of a capped kind).  Such a probe shows
    # no finite C: a violation, where it used to read "admissible, C = 0"
    g = Grid.uniform(1.0, 11, 0.5)
    model = CoefficientModel(g, modes=(ModeFunction(kind, c=c, cap=cap),), drift="hjm")
    rep = estimate_positivity_constant(model, n_samples=5, seed=1)
    assert rep.violations >= 1 and not rep.admissible
    assert rep.estimated_c == np.inf and np.isfinite(rep.worst_ratio)


@pytest.mark.parametrize("kind, cap", [("constant", None), ("proportional-capped", 2e-4)])
def test_estimate_below_the_overflow_keeps_its_report(kind, cap):
    # at c = 1e150 nothing overflows: the constant mode has its one
    # violation at the shallow probe, and the capped mode stays admissible
    g = Grid.uniform(1.0, 11, 0.5)
    model = CoefficientModel(g, modes=(ModeFunction(kind, c=1e150, cap=cap),), drift="hjm")
    rep = estimate_positivity_constant(model, n_samples=5, seed=1)
    if cap is None:
        assert (rep.violations, rep.estimated_c) == (1, np.inf)
        assert rep.worst_ratio == 4.9921306131942524e+305
    else:
        assert (rep.violations, rep.estimated_c, rep.worst_ratio) == (0, 0.0, 0.0)


def estimate_reference(model, n_samples, seed, l2_tol=1e-12, func_tol=1e-10):
    # the estimate before its probes were blocked: one probe at a time
    # through positivity_functional, the 1-D dots unchanged
    from mildsim.operators import random_bumps

    g = model.grid
    rng = np.random.default_rng(seed)
    worst, violations, count = -np.inf, 0, 0
    probes = [random_bumps(g, rng) for _ in range(n_samples)]
    eps_tiny = 0.5 * l2_tol * np.sqrt(g.alpha)
    probes += [GridFunction.constant(g, -eps) for eps in (1.0, 0.1, 0.01, 0.001, eps_tiny)]
    for h in probes:
        count += 1
        nrm = norm(lattice_parts(h).negative, "l2")
        val = positivity_functional(model, h)
        if nrm <= l2_tol:
            violations += val > func_tol
            continue
        worst = max(worst, val / (nrm * nrm))
    if not np.isfinite(worst):
        worst = 0.0
    return count, float(worst), float("inf") if violations else max(worst, 0.0), violations


ESTIMATE_MODELS = {
    "capped-hjm": (1001, (ModeFunction("proportional-capped", c=8.0, cap=2e-4),), "hjm", 0.5),
    "flat-hjm": (501, (ModeFunction("constant", c=0.2),), "hjm", 0.5),
    "mixed-decay": (401, (ModeFunction("level-scaled", c=0.3, cap=0.05, decay=1.0),
                          ModeFunction("proportional", c=0.1)), "linear-decay", 0.0),
    "constant-zero": (77, (ModeFunction("constant", c=0.1),
                           ModeFunction("exponential-decay", c=0.2, decay=0.8)), "zero", 0.0),
}


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("name", sorted(ESTIMATE_MODELS))
def test_estimate_matches_the_probe_by_probe_reference(monkeypatch, name, block_rows):
    # the probes run through coefficient_rows in blocks of rows (here of
    # one row, of seven with a ragged last block, and of BLOCK_BYTES);
    # every report field is bitwise the one-probe-at-a-time reference's
    n, modes, drift, alpha_corr = ESTIMATE_MODELS[name]
    g = Grid.uniform(1.0, n, 0.5)
    model = CoefficientModel(g, modes=modes, drift=drift, drift_c=0.3,
                             alpha_correction=alpha_corr)
    ref = estimate_reference(model, n_samples=40, seed=3)
    if block_rows is not None:
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_rows * 8 * n)
    seen = []
    coefficient_rows = kernels.coefficient_rows

    def recording(coef, v, *a, **kw):
        seen.append(len(v))
        return coefficient_rows(coef, v, *a, **kw)

    monkeypatch.setattr(kernels, "coefficient_rows", recording)
    rep = estimate_positivity_constant(model, n_samples=40, seed=3)
    got = (rep.samples, rep.worst_ratio, rep.estimated_c, rep.violations)
    assert repr(got) == repr(ref)
    rows = max(1, kernels.BLOCK_BYTES // (8 * n))
    assert sum(seen) == 45 and max(seen) == min(rows, 45)


def test_estimate_on_a_fine_grid_takes_one_probe_at_a_time(monkeypatch):
    # a 200,001-node row is more than BLOCK_BYTES, so no block of probes
    # (205 of them would be 328 MB) is ever made
    g = Grid.uniform(4.0, 200001, 1.0)
    model = CoefficientModel(g, modes=(ModeFunction("proportional", c=0.5),), drift="hjm")
    seen = []
    coefficient_rows = kernels.coefficient_rows

    def recording(coef, v, *a, **kw):
        seen.append(v.shape)
        return coefficient_rows(coef, v, *a, **kw)

    monkeypatch.setattr(kernels, "coefficient_rows", recording)
    rep = estimate_positivity_constant(model, n_samples=2, seed=1)
    assert rep.samples == 7 and seen == [(1, g.n)] * 7
