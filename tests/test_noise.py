import numpy as np
import pytest

from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.noise import NoiseConfig, Z_BOUND, gaussian_block, gaussian_step, increment_block

# one-step oracles, also for the step composition tests in test_solver.py


def increment_step(cfg: NoiseConfig, dt: float, step_index: int) -> np.ndarray:
    """Brownian increments over one step of length dt."""
    return gaussian_step(cfg, step_index) * np.sqrt(dt)


def apply_diffusion_increment(model, u: GridFunction, dw: np.ndarray) -> GridFunction:
    """Sum of the model's diffusion modes at u scaled by the increments."""
    if len(dw) != model.n_modes:
        raise ValueError("increment count does not match the model's modes")
    g = model.grid
    acc = np.zeros(g.n)
    acct = 0.0
    for k, mode in enumerate(model.modes):
        s = mode.evaluate(g, u)
        acc += s.values * dw[k]
        acct += s.tail_value * dw[k]
    return GridFunction(g, acc, acct)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(-1, 0)
    with pytest.raises(ValueError):
        NoiseConfig(1, -1)
    with pytest.raises(ValueError):
        NoiseConfig(1, 1 << 64)
    with pytest.raises(ValueError):
        NoiseConfig(1, 0, stream_id=-2)
    cfg = NoiseConfig(3, 42).with_stream(7)
    assert cfg.stream_id == 7
    assert cfg.seed == 42


def test_determinism():
    cfg = NoiseConfig(2, 123, stream_id=5)
    a = gaussian_block(cfg, 100)
    b = gaussian_block(cfg, 100)
    assert np.array_equal(a, b)


def test_block_matches_per_step_access():
    cfg = NoiseConfig(3, 7, stream_id=2)
    block = gaussian_block(cfg, 50)
    stacked = np.stack([gaussian_step(cfg, j) for j in range(50)])
    assert np.array_equal(block, stacked)


def test_streams_and_seeds_differ():
    a = gaussian_block(NoiseConfig(1, 1, stream_id=0), 10)
    b = gaussian_block(NoiseConfig(1, 1, stream_id=1), 10)
    c = gaussian_block(NoiseConfig(1, 2, stream_id=0), 10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_moments():
    z = gaussian_block(NoiseConfig(1, 12345), 1_000_000)[:, 0]
    assert abs(z.mean()) < 4e-3
    assert abs(z.var() - 1.0) < 1e-2
    assert np.abs(z).max() <= Z_BOUND


def test_cross_stream_correlation():
    n = 200000
    a = gaussian_block(NoiseConfig(1, 99, stream_id=0), n)[:, 0]
    b = gaussian_block(NoiseConfig(1, 99, stream_id=1), n)[:, 0]
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.01


def test_z_bound_value():
    assert 8.29 < Z_BOUND < 8.30


def test_z_bound_literal_is_the_mapped_minimum():
    # the uniform mapping's smallest value is 2**-54
    from scipy.special import ndtri

    assert Z_BOUND == float(-ndtri(2.0**-54))


def test_increment_scaling():
    cfg = NoiseConfig(2, 4)
    dt = 0.01
    assert np.array_equal(increment_block(cfg, dt, 20), gaussian_block(cfg, 20) * np.sqrt(dt))
    assert np.array_equal(increment_step(cfg, dt, 3), gaussian_step(cfg, 3) * np.sqrt(dt))


def test_step_index_validation():
    with pytest.raises(ValueError):
        gaussian_step(NoiseConfig(1, 0), -1)
    with pytest.raises(ValueError):
        gaussian_block(NoiseConfig(1, 0), -1)


def test_zero_modes():
    cfg = NoiseConfig(0, 0)
    assert gaussian_step(cfg, 5).shape == (0,)
    assert gaussian_block(cfg, 5).shape == (5, 0)


def test_apply_diffusion_increment():
    g = Grid.uniform(2.0, 101, 1.0)
    model = CoefficientModel(
        g,
        modes=(ModeFunction("constant", c=0.3), ModeFunction("proportional", c=0.5)),
    )
    u = GridFunction.from_callable(g, lambda x: 1.0 + x)
    dw = np.array([0.2, -0.1])
    out = apply_diffusion_increment(model, u, dw)
    expect = 0.3 * 0.2 + 0.5 * u.values * (-0.1)
    assert np.allclose(out.values, expect, rtol=1e-15)
    with pytest.raises(ValueError):
        apply_diffusion_increment(model, u, np.array([0.2]))
