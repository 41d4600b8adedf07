import numpy as np
import pytest
from numpy.random import Philox

from mildsim import kernels, noise
from mildsim.coefficients import CoefficientModel, ModeFunction
from mildsim.grids import Grid, GridFunction
from mildsim.noise import NoiseConfig, Z_BOUND, gaussian_block, increment_block
from test_coefficients import mode_reference

# one-step oracles, also for the step composition tests in test_solver.py
# and test_hjm.py


def gaussian_step(cfg: NoiseConfig, step_index: int, k: int) -> np.ndarray:
    """The k standard normals of one step, random access."""
    if step_index < 0:
        raise ValueError("step_index must be nonnegative")
    if k == 0:
        return np.zeros(0)
    # Philox draws its raw words four to a counter block
    block, off = divmod(step_index * k, 4)
    raw = Philox(counter=block, key=noise._key(cfg)).random_raw(off + k)
    return noise._to_gaussian(raw[off:])


def increment_step(cfg: NoiseConfig, dt: float, step_index: int, k: int) -> np.ndarray:
    """Brownian increments of k modes over one step of length dt."""
    return gaussian_step(cfg, step_index, k) * np.sqrt(dt)


def apply_diffusion_increment(model, u: GridFunction, dw: np.ndarray) -> GridFunction:
    """Sum of the model's diffusion modes at u scaled by the increments."""
    if len(dw) != model.n_modes:
        raise ValueError("increment count does not match the model's modes")
    g = model.grid
    acc = np.zeros(g.n)
    acct = 0.0
    for k, mode in enumerate(model.modes):
        s = mode_reference(mode, g, u)
        acc += s.values * dw[k]
        acct += s.tail_value * dw[k]
    return GridFunction(g, acc, acct)


def kernel_args(suite, model, cfg):
    """simulate_batch's arguments after v0, tail0 and dW, as solver passes them for cfg."""
    g = suite.grid
    assert model.grid.same(g)
    res = kernels.resolvent_coeffs(g.spacing, cfg.lam, suite.alpha_eff) if cfg.lam > 0.0 else None
    return (suite.steps_for_time(cfg.dt), suite.damping(cfg.dt), float(cfg.dt),
            model.kernel_args(), res, g.weights, g.tail_weight, float(cfg.blow_threshold))


def step_once(u: GridFunction, suite, model, cfg, dw: np.ndarray) -> GridFunction:
    """One scheme step with explicit increments, through the integrator."""
    dw = np.asarray(dw, dtype=np.float64)
    if dw.shape != (model.n_modes,):
        raise ValueError("dw must hold one increment per mode")
    out_v, out_t = kernels.simulate_batch(u.values[None, :], np.array([u.tail_value]),
                                          dw[None, None, :], *kernel_args(suite, model, cfg))[:2]
    return GridFunction(u.grid, out_v[0], float(out_t[0]))


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(-1)
    with pytest.raises(ValueError):
        NoiseConfig(1 << 64)
    with pytest.raises(ValueError):
        NoiseConfig(0, stream_id=-2)
    with pytest.raises(ValueError):
        NoiseConfig(0, stream_id=1 << 64)
    cfg = NoiseConfig(42, 7)
    assert cfg.stream_id == 7
    assert cfg.seed == 42
    assert NoiseConfig(42).stream_id == 0


def test_determinism():
    cfg = NoiseConfig(123, stream_id=5)
    a = gaussian_block(cfg, 100, 2)
    b = gaussian_block(cfg, 100, 2)
    assert np.array_equal(a, b)


def test_block_matches_per_step_access():
    cfg = NoiseConfig(7, stream_id=2)
    block = gaussian_block(cfg, 50, 3)
    stacked = np.stack([gaussian_step(cfg, j, 3) for j in range(50)])
    assert np.array_equal(block, stacked)


def test_streams_and_seeds_differ():
    a = gaussian_block(NoiseConfig(1, stream_id=0), 10, 1)
    b = gaussian_block(NoiseConfig(1, stream_id=1), 10, 1)
    c = gaussian_block(NoiseConfig(2, stream_id=0), 10, 1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_moments():
    z = gaussian_block(NoiseConfig(12345), 1_000_000, 1)[:, 0]
    assert abs(z.mean()) < 4e-3
    assert abs(z.var() - 1.0) < 1e-2
    assert np.abs(z).max() <= Z_BOUND


def test_cross_stream_correlation():
    n = 200000
    a = gaussian_block(NoiseConfig(99, stream_id=0), n, 1)[:, 0]
    b = gaussian_block(NoiseConfig(99, stream_id=1), n, 1)[:, 0]
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.01


def test_z_bound_value():
    assert 8.29 < Z_BOUND < 8.30


def test_z_bound_literal_is_the_mapped_minimum():
    # the uniform mapping's smallest value is 2**-54
    from scipy.special import ndtri

    assert Z_BOUND == float(-ndtri(2.0**-54))


def test_to_gaussian_is_bounded_at_the_extreme_words():
    from scipy.special import ndtri

    top = 2**64 - 1
    words = np.array([top, top - 1, top - 2**11 + 1, top - 2**11, 0, 1], dtype=np.uint64)
    z = noise._to_gaussian(words)
    # the top 2**11 words map to the largest double below 1, not to 1.0
    assert np.array_equal(z[:3], np.full(3, ndtri(np.nextafter(1.0, 0.0))))
    assert 8.2095 < z[0] < 8.2096
    assert z[3] < z[0]
    assert z[4] == z[5] == -Z_BOUND
    assert np.all(np.abs(z) <= Z_BOUND)


def test_to_gaussian_keeps_every_other_word():
    from scipy.special import ndtri

    rng = np.random.default_rng(5)
    below = rng.integers(0, 2**64 - 2**11, size=10_000, dtype=np.uint64, endpoint=False)
    words = np.concatenate([below, np.array([2**64 - 2**11 - 1, 2**11, 0], dtype=np.uint64)])
    unclamped = ndtri((words >> np.uint64(11)) * 2.0**-53 + 2.0**-54)
    assert noise._to_gaussian(words).tobytes() == unclamped.tobytes()


def test_increment_scaling():
    cfg = NoiseConfig(4)
    dt = 0.01
    assert np.array_equal(increment_block(cfg, dt, 20, 2),
                          gaussian_block(cfg, 20, 2) * np.sqrt(dt))
    assert np.array_equal(increment_step(cfg, dt, 3, 2), gaussian_step(cfg, 3, 2) * np.sqrt(dt))


def test_step_index_validation():
    with pytest.raises(ValueError):
        gaussian_step(NoiseConfig(0), -1, 1)
    with pytest.raises(ValueError, match="n_steps"):
        gaussian_block(NoiseConfig(0), -1, 1)


def test_mode_count_validation():
    with pytest.raises(ValueError, match="n_modes"):
        gaussian_block(NoiseConfig(0), 5, -1)
    with pytest.raises(ValueError, match="n_modes"):
        increment_block(NoiseConfig(0), 0.01, 5, -1)


def test_zero_modes():
    cfg = NoiseConfig(0)
    assert gaussian_step(cfg, 5, 0).shape == (0,)
    assert gaussian_block(cfg, 5, 0).shape == (5, 0)


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
