import warnings

import numpy as np
import pytest

from mildsim import grids
from mildsim.grids import (
    Grid,
    GridFunction,
    hat_weights,
    lattice_parts,
    norm,
    weighted_inner,
    weighted_sum,
)
from mildsim.spec import TAIL_HEADROOM, tail_weight


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.uniform(10.0, 100, alpha=0.0)
    with pytest.raises(ValueError):
        Grid.uniform(10.0, 100, alpha=-1.0)
    with pytest.raises(ValueError):
        Grid.uniform(0.0, 100, alpha=1.0)
    with pytest.raises(ValueError):
        Grid.uniform(10.0, 1, alpha=1.0)


def test_grid_rejects_an_overflowing_tail_weight():
    # e^(-alpha*x_max)/alpha overflows below alpha = 5.6e-309 at x_max = 1,
    # and times TAIL_HEADROOM = 2**64 below alpha = 1.03e-289; such a grid
    # is refused, and with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e-320, 5.5e-309, 5.6e-309, 1e-308, 1e-289):
            with pytest.raises(ValueError, match="tail weight"):
                Grid.uniform(1.0, 11, alpha)
        g = Grid.uniform(1.0, 11, 1.1e-289)
    assert np.isfinite(g.tail_weight * TAIL_HEADROOM) and g.tail_weight > 9e288
    # the config's check and the grid apply the one rule; it bounds the
    # tail weight, not alpha alone, which e^(-alpha*x_max) can bring down
    with pytest.raises(ValueError, match="tail weight"):
        tail_weight(1e-289, 1.0)
    assert tail_weight(1.1e-289, 1.0) == g.tail_weight
    with pytest.raises(ValueError, match="tail weight"):
        tail_weight(1e-300, 1.0)
    assert 0.0 < tail_weight(1e-300, 1e302) * TAIL_HEADROOM < np.inf


def test_grid_basic_properties():
    g = Grid.uniform(10.0, 101, alpha=0.7)
    assert g.n == 101
    assert g.x_max == 10.0
    assert g.spacing == pytest.approx(0.1, abs=0.0)
    assert g.nodes[0] == 0.0
    assert np.all(g.weights > 0.0)
    assert g.tail_weight == pytest.approx(np.exp(-7.0) / 0.7, rel=1e-15)


def test_hat_weights_partition_of_unity():
    # hats sum to one, so the weights must integrate the exponential exactly
    nodes = np.linspace(0.0, 3.0, 301)
    for a in (-2.0, -0.5, 0.5, 1.0):
        w = hat_weights(nodes, a)
        exact = (np.exp(a * 3.0) - 1.0) / a
        assert w.sum() == pytest.approx(exact, rel=1e-13)


def test_hat_weights_series_branch():
    nodes = np.linspace(0.0, 1.0, 101)
    w_tiny = hat_weights(nodes, 1e-8)
    trap = np.full(101, 0.01)
    trap[0] = trap[-1] = 0.005
    assert np.abs(w_tiny - trap).max() < 1e-9
    # both branches must agree with an extended-precision evaluation of the
    # exact per-cell integrals on either side of the series switch
    for a in (1e-1, 4e-1, 6e-1, 2.0):
        got = hat_weights(nodes, a)
        z = np.longdouble(a) * np.longdouble(0.01)
        d = np.longdouble(0.01)
        ez = np.exp(z)
        i0 = d * (ez - 1.0) / z
        i1 = d * (ez / z - (ez - 1.0) / (z * z))
        left, right = i0 - i1, i1
        ref = np.zeros(101, dtype=np.longdouble)
        scale = np.exp(np.longdouble(a) * nodes[:-1].astype(np.longdouble))
        ref[:-1] += left * scale
        ref[1:] += right * scale
        rel = np.abs(got - ref.astype(float)) / ref.astype(float)
        assert rel.max() < 1e-11, a


def test_hat_weights_rejects_bad_nodes():
    with pytest.raises(ValueError):
        hat_weights(np.array([0.0, 1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        hat_weights(np.array([0.0, 2.0, 1.0]), 1.0)


def test_constant_integral_exact():
    for alpha in (0.5, 1.0, 3.0):
        g = Grid.uniform(30.0, 2000, alpha)
        one = GridFunction.constant(g, 1.0)
        assert weighted_inner(one, one) == pytest.approx(1.0 / alpha, rel=1e-13)
        c = GridFunction.constant(g, 2.5)
        assert weighted_inner(c, c) == pytest.approx(6.25 / alpha, rel=1e-13)


def test_smooth_inner_product_accuracy():
    # inner(e^-x, e^-x) against e^{-3x} dx is 1/5
    g = Grid.uniform(30.0, 2000, 3.0)
    f = GridFunction.from_callable(g, lambda x: np.exp(-x))
    assert abs(weighted_inner(f, f) - 0.2) < 5e-5


def test_inner_product_second_order():
    errs = []
    for n in (2001, 4001):
        g = Grid.uniform(30.0, n, 3.0)
        f = GridFunction.from_callable(g, lambda x: np.exp(-x))
        errs.append(abs(weighted_inner(f, f) - 0.2))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_tail_contribution():
    g = Grid.uniform(5.0, 501, 1.0)
    f = GridFunction.constant(g, 1.0)
    body = float(np.dot(g.weights, np.ones(g.n)))
    assert body + g.tail_weight == pytest.approx(1.0, rel=1e-13)
    # zero tail drops exactly the tail mass
    f0 = GridFunction(g, np.ones(g.n), 0.0)
    assert weighted_inner(f, f) - weighted_inner(f0, f0) == pytest.approx(
        g.tail_weight, rel=1e-13
    )


def test_l1_norm():
    g = Grid.uniform(10.0, 1001, 1.0)
    f = GridFunction.from_callable(g, lambda x: np.sin(x))
    assert norm(f, "l1") == pytest.approx(
        float(np.dot(g.weights, np.abs(f.values))) + g.tail_weight * abs(f.tail_value),
        rel=1e-15,
    )
    with pytest.raises(ValueError):
        norm(f, "sup")


def test_deriv_norm_on_decaying_exponential():
    # integral of (e^-x)'^2 e^{+x} over the half line is 1
    g = Grid.uniform(30.0, 3001, 1.0)
    f = GridFunction.from_callable(g, lambda x: np.exp(-x))
    assert abs(norm(f, "deriv") - 1.0) < 1e-4


def test_deriv_norm_constant_is_tail_only():
    g = Grid.uniform(5.0, 201, 0.5)
    f = GridFunction.constant(g, 3.0)
    assert norm(f, "deriv") == pytest.approx(3.0, abs=1e-12)


def test_lattice_parts_identities():
    g = Grid.uniform(8.0, 400, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.normal(size=g.n)
        f = GridFunction(g, vals, float(rng.normal()))
        p = lattice_parts(f)
        assert np.array_equal(p.positive.values - p.negative.values, vals)
        assert np.all(p.positive.values * p.negative.values == 0.0)
        assert set(np.unique(p.indicator.values)) <= {0.0, 1.0}
        assert np.all(p.negative.values >= 0.0)
        # f against its negative part carries exactly minus its energy
        assert weighted_inner(f, p.negative) == -weighted_inner(p.negative, p.negative)
        assert p.positive.tail_value - p.negative.tail_value == f.tail_value
        assert p.indicator.tail_value == (1.0 if f.tail_value < 0.0 else 0.0)


def test_gridfunction_constructors_and_arithmetic():
    g = Grid.uniform(2.0, 21, 1.0)
    f = GridFunction.from_callable(g, lambda x: x**2)
    assert f.tail_value == f.values[-1]
    h = GridFunction.from_callable(g, lambda x: x, tail_value=7.0)
    assert h.tail_value == 7.0
    s = f + h
    assert s.tail_value == f.tail_value + 7.0
    d = f - h
    assert np.array_equal(d.values, f.values - h.values)
    m = 2.0 * f
    assert np.array_equal(m.values, 2.0 * f.values)
    assert m.tail_value == 2.0 * f.tail_value
    c = f.copy()
    c.values[0] = 99.0
    assert f.values[0] == 0.0


def test_gridfunction_validation():
    g = Grid.uniform(2.0, 21, 1.0)
    g2 = Grid.uniform(2.0, 22, 1.0)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(5))
    f = GridFunction.constant(g, 1.0)
    h = GridFunction.constant(g2, 1.0)
    with pytest.raises(ValueError):
        f + h
    with pytest.raises(ValueError):
        weighted_inner(f, h)


def test_equal_nodes_with_other_alpha_are_another_grid():
    # the weights follow alpha, so mixing these grids would make the inner
    # product depend on the order of its arguments (2.0 one way, 0.5 the other)
    f = GridFunction.constant(Grid.uniform(1.0, 11, 0.5), 1.0)
    h = GridFunction.constant(Grid.uniform(1.0, 11, 2.0), 1.0)
    for op in (lambda: f + h, lambda: f.minus(h), lambda: f - h,
               lambda: weighted_inner(f, h), lambda: weighted_inner(h, f)):
        with pytest.raises(ValueError, match="grid mismatch"):
            op()
    # a grid built apart with equal nodes and alpha is the same grid
    twin = Grid.uniform(1.0, 11, 0.5)
    assert twin is not f.grid and twin.same(f.grid) and not h.grid.same(f.grid)
    assert (f + GridFunction.constant(twin, 2.0)).tail_value == 3.0


def test_grids_compare_and_hash_by_identity():
    # == on array fields would raise; same() is the comparison by value
    from mildsim.coefficients import CoefficientModel, ModeFunction
    from mildsim.operators import OperatorSuite

    g, twin = Grid.uniform(1.0, 11, 0.5), Grid.uniform(1.0, 11, 0.5)
    assert g == g and g != twin and twin.same(g)
    assert len({g, twin, g}) == 2 and g in {g} and twin not in {g}
    f = GridFunction.constant(g, 1.0)
    assert f == f and f != f.copy() and f in {f} and hash(f) != hash(f.copy())
    # and so do the frozen records that hold them
    table = ModeFunction("custom", table=f)
    records = [OperatorSuite(g), CoefficientModel(g, (table,)), table]
    for rec in records:
        assert rec == rec and rec in set(records) and isinstance(hash(rec), int)
    assert OperatorSuite(g) == OperatorSuite(g) and OperatorSuite(g) != OperatorSuite(twin)
    assert len({OperatorSuite(g), OperatorSuite(g)}) == 1


def test_growth_weights_sum():
    g = Grid.uniform(3.0, 301, 0.8)
    exact = (np.exp(0.8 * 3.0) - 1.0) / 0.8
    assert g.growth_weights().sum() == pytest.approx(exact, rel=1e-13)


def _reference_hat_weights(nodes, a):
    # the formula before the series factors were evaluated once per
    # distinct z: ** on every cell
    nodes = np.asarray(nodes, dtype=np.float64)
    d = np.diff(nodes)
    w = np.zeros(nodes.shape[0], dtype=np.float64)
    z = a * d
    left = np.empty_like(d)
    right = np.empty_like(d)
    small = np.abs(z) < 5e-3
    if np.any(small):
        zs, ds = z[small], d[small]
        left[small] = ds * (0.5 + zs / 6.0 + zs * zs / 24.0 + zs**3 / 120.0 + zs**4 / 720.0)
        right[small] = ds * (0.5 + zs / 3.0 + zs * zs / 8.0 + zs**3 / 30.0 + zs**4 / 144.0)
    big = ~small
    if np.any(big):
        zb, db = z[big], d[big]
        ez = np.exp(zb)
        i0 = db * (ez - 1.0) / zb
        i1 = db * (ez / zb - (ez - 1.0) / (zb * zb))
        left[big] = i0 - i1
        right[big] = i1
    scale = np.exp(a * nodes[:-1])
    w[:-1] += left * scale
    w[1:] += right * scale
    return w


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n_nodes, x_max", [
    (2, 1.0), (3, 0.5), (101, 10.0), (251, 5.0), (401, 2.0), (1001, 1.0),
    (2000, 30.0), (20001, 4.0), (200001, 4.0),
])
def test_hat_weights_match_reference_on_uniform_grids(n_nodes, x_max, alpha):
    nodes = np.linspace(0.0, x_max, n_nodes)
    for a in (-alpha, alpha):  # Grid.uniform and growth_weights
        assert hat_weights(nodes, a).tobytes() == _reference_hat_weights(nodes, a).tobytes()
    g = Grid.uniform(x_max, n_nodes, alpha)
    assert g.weights.tobytes() == _reference_hat_weights(g.nodes, -alpha).tobytes()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_hat_weights_match_reference_on_nonuniform_nodes(alpha):
    # cells on both sides of the series switch, and many distinct z
    rng = np.random.default_rng(5)
    d = rng.uniform(1e-5, 1e-2, size=3000)
    d[::7] = rng.uniform(0.5, 2.0, size=d[::7].shape)
    nodes = np.concatenate([[0.0], np.cumsum(d)])
    for a in (-alpha, alpha):
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = hat_weights(nodes, a), _reference_hat_weights(nodes, a)
        assert got.tobytes() == ref.tobytes()


def test_minus_writes_to_out():
    g = Grid.uniform(1.0, 11, 1.0)
    f = GridFunction.from_callable(g, np.cos, tail_value=0.3)
    h = GridFunction.from_callable(g, np.sin, tail_value=-0.2)
    out = np.empty(g.n)
    d = f.minus(h, out=out)
    assert d.values is out
    ref = f - h
    assert d.values.tobytes() == ref.values.tobytes() and d.tail_value == ref.tail_value
    assert norm(d, "l1", out=out) == norm(ref, "l1")


def _weights_and_rows(n, shape):
    rng = np.random.default_rng(n)
    w = rng.uniform(0.0, 1.0, size=n)
    x = rng.normal(size=(*shape, n)) * 10.0 ** rng.integers(-3, 4, size=(*shape, 1))
    return w, x


@pytest.mark.parametrize("n", [2, 3, 501, 8191, 8192])
def test_weighted_sum_is_one_dot_up_to_the_chunk(n):
    w, x = _weights_and_rows(n, (3,))
    for row in x:
        assert weighted_sum(w, row).tobytes() == np.dot(w, row).tobytes()
    assert weighted_sum(w, x).tobytes() == np.vecdot(x, w).tobytes()


@pytest.mark.parametrize("n", [8193, 16384, 20001, 200001])
def test_weighted_sum_adds_chunk_dots_in_order(n):
    # each chunk's dot is short enough for one BLAS thread; the row forms
    # are bitwise the 1-D sums, in (rows, N) and (snapshots, paths, N)
    w, x = _weights_and_rows(n, (2, 3))
    c = grids._DOT_CHUNK
    for row in x.reshape(-1, n):
        s = np.dot(w[:c], row[:c])
        for lo in range(c, n, c):
            s += np.dot(w[lo : lo + c], row[lo : lo + c])
        assert weighted_sum(w, row).tobytes() == s.tobytes()
    one_d = np.array([[weighted_sum(w, row) for row in rows] for rows in x])
    assert weighted_sum(w, x).tobytes() == one_d.tobytes()
    assert weighted_sum(w, x[0]).tobytes() == one_d[0].tobytes()


@pytest.mark.parametrize("n", [501, 20001])
def test_norms_are_weighted_sums(n):
    g = Grid.uniform(3.0, n, 0.7)
    rng = np.random.default_rng(n)
    f = GridFunction(g, rng.normal(size=n), 0.3)
    tw = g.tail_weight
    assert weighted_inner(f, f) == float(weighted_sum(g.weights, f.values * f.values)) + tw * 0.09
    assert norm(f, "l1") == float(weighted_sum(g.weights, np.abs(f.values))) + tw * 0.3
