import numpy as np
import pytest

from mildsim.coefficients import (
    CoefficientModel,
    ModeFunction,
    estimate_positivity_constant,
    hjm_drift,
    positivity_functional,
)
from mildsim.grids import Grid, GridFunction, lattice_parts, norm, weighted_inner


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


def test_mode_evaluate_constant(grid):
    u = GridFunction.from_callable(grid, np.sin)
    s = ModeFunction("constant", c=0.4).evaluate(grid, u)
    assert np.all(s.values == 0.4)
    assert s.tail_value == 0.4


def test_mode_evaluate_proportional(grid):
    u = GridFunction.from_callable(grid, np.sin, tail_value=-0.3)
    s = ModeFunction("proportional", c=2.0).evaluate(grid, u)
    assert np.array_equal(s.values, 2.0 * u.values)
    assert s.tail_value == pytest.approx(-0.6, rel=1e-15)


def test_mode_evaluate_capped(grid):
    u = GridFunction(grid, np.linspace(-1.0, 1.0, grid.n), -0.5)
    s = ModeFunction("proportional-capped", c=3.0, cap=0.2).evaluate(grid, u)
    assert np.all(s.values[u.values <= 0.0] == 0.0)
    assert np.all(s.values[u.values >= 0.2] == pytest.approx(0.6, rel=1e-15))
    mid = (u.values > 0.0) & (u.values < 0.2)
    assert np.allclose(s.values[mid], 3.0 * u.values[mid], rtol=1e-15)
    assert s.tail_value == 0.0


def test_mode_evaluate_exponential_decay(grid):
    u = GridFunction.constant(grid, 5.0)
    s = ModeFunction("exponential-decay", c=0.3, decay=2.0).evaluate(grid, u)
    assert np.allclose(s.values, 0.3 * np.exp(-2.0 * grid.nodes), rtol=1e-15)
    assert s.tail_value == s.values[-1]


def test_mode_evaluate_level_scaled(grid):
    u = GridFunction.constant(grid, 10.0)
    s = ModeFunction("level-scaled", c=0.3, cap=0.05, decay=1.0).evaluate(grid, u)
    assert np.allclose(s.values, 0.3 * 0.05 * np.exp(-grid.nodes), rtol=1e-15)


def test_mode_evaluate_custom(grid):
    table = GridFunction.from_callable(grid, lambda x: 1.0 + x)
    u = GridFunction.constant(grid, -2.0)
    s = ModeFunction("custom", c=0.5, table=table).evaluate(grid, u)
    assert np.allclose(s.values, 0.5 * (1.0 + grid.nodes), rtol=1e-15)


def test_hjm_drift_constant_profile(grid):
    # sigma = c: the running integral is exactly c x on the lattice
    sig = GridFunction.constant(grid, 0.7)
    d = hjm_drift(grid, sig)
    assert np.allclose(d.values, 0.49 * grid.nodes, rtol=1e-13, atol=1e-16)
    assert d.tail_value == pytest.approx(0.49 * grid.x_max, rel=1e-13)


def test_hjm_drift_exponential_profile():
    g = Grid.uniform(3.0, 3001, 0.5)
    sig = GridFunction.from_callable(g, lambda x: np.exp(-x))
    d = hjm_drift(g, sig)
    expect = np.exp(-g.nodes) * (1.0 - np.exp(-g.nodes))
    assert np.abs(d.values - expect).max() < 1e-6


def test_model_validation(grid):
    with pytest.raises(ValueError):
        CoefficientModel(grid, drift="nope")


def test_drift_eval_kinds(grid):
    u = GridFunction.from_callable(grid, lambda x: 0.1 + 0.05 * np.sin(x))
    zero = CoefficientModel(grid).drift_eval(u)
    assert np.all(zero.values == 0.0) and zero.tail_value == 0.0
    dec = CoefficientModel(grid, drift="linear-decay", drift_c=0.4).drift_eval(u)
    assert np.array_equal(dec.values, -0.4 * u.values)
    # the weight correction adds alpha u on top of the base drift
    corr = CoefficientModel(grid, drift="zero", alpha_correction=0.5).drift_eval(u)
    assert np.allclose(corr.values, 0.5 * u.values, rtol=1e-15)


def test_drift_eval_hjm_sums_modes(grid):
    u = GridFunction.constant(grid, 0.3)
    modes = (ModeFunction("constant", c=0.2), ModeFunction("constant", c=0.1))
    model = CoefficientModel(grid, modes=modes, drift="hjm")
    d = model.drift_eval(u)
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
    assert ka["profiles"].shape == (4, grid.n)
    assert list(ka["level_codes"]) == [0, 1, 2, 0]
    assert list(ka["caps"]) == [0.0, 0.0, 0.1, 0.0]
    assert ka["alpha_corr"] == 0.5
    assert np.allclose(ka["profiles"][3], 0.2 * np.exp(-2.0 * grid.nodes), rtol=1e-15)


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
