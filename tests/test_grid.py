import numpy as np
import pytest

from cusplab.errors import ConfigError
from cusplab import modes
from cusplab.grid import UNIFORM_TOL, RadialGrid, fd_weights, uniform_derivative


def test_fd_weights_polynomial_exactness():
    xs = np.linspace(0.0, 5.0, 6)
    for target in (0.0, 1.7, 5.0):
        w1 = fd_weights(xs, target, 1)
        w2 = fd_weights(xs, target, 2)
        for deg in range(6):
            f = xs**deg
            d1_exact = deg * target ** (deg - 1) if deg >= 1 else 0.0
            d2_exact = deg * (deg - 1) * target ** (deg - 2) if deg >= 2 else 0.0
            assert w1 @ f == pytest.approx(d1_exact, abs=1e-9)
            assert w2 @ f == pytest.approx(d2_exact, abs=1e-9)


@pytest.mark.parametrize("order,expected_rate", [(2, 2.0), (4, 4.0)])
def test_derivative_convergence_order(order, expected_rate):
    errs = []
    for num in (501, 1001):
        g = RadialGrid.make(0.1, 15.0, num)
        f = np.sin(g.s)
        fss = g.deriv_s(f, 2, order)
        it = g.interior(order)
        errs.append(np.max(np.abs(fss[it] + np.sin(g.s[it]))))
    rate = np.log2(errs[0] / errs[1])
    assert rate > expected_rate - 0.3


def test_chain_rule_on_powers():
    g = RadialGrid.make(0.2, 12.0, 5001)
    for p in (1.0, 2.0, -1.0):
        f = g.x**p
        fx, fxx = g.deriv_x(f, order=4)
        it = g.interior(4)
        scale = np.max(np.abs(p * g.x[it] ** (p - 1))) + 1e-30
        assert np.max(np.abs(fx[it] - p * g.x[it] ** (p - 1))) / scale < 1e-9


def test_grid_validation():
    with pytest.raises(ConfigError):
        RadialGrid(np.array([1.0, 2.0, 3.0]))  # too few nodes
    with pytest.raises(ConfigError):
        RadialGrid(np.array([1.0, 2.0, 1.5, 3.0, 4.0]))  # not increasing
    with pytest.raises(ConfigError):
        RadialGrid.make(0.1, 1.0, 100)  # s_max below 1/sqrt(x0)
    g = RadialGrid.make(0.25, 10.0, 50)
    assert g.x0 == pytest.approx(0.25)
    assert g.x[0] > g.x[-1] > 0


def test_grid_uniform_to_the_scans_tolerance():
    # a node moved by 1e-9 (step 1.4e-4) used to pass the grid's allclose
    # check and fail only in the first mode solve
    s = np.linspace(1 / np.sqrt(0.1), 20.0, 120000)
    s[60000] += 1e-9
    with pytest.raises(ConfigError, match="uniform"):
        RadialGrid(s)
    # the largest jitter the grid accepts passes the scans at any lambda
    s = np.linspace(1 / np.sqrt(0.1), 20.0, 4000)
    s[2000] += 0.45 * UNIFORM_TOL * s[-1]
    grid = RadialGrid(s)
    for lam in (np.pi**2, 1e4 * np.pi**2):
        prob = modes.ModeProblem(n=2, lam=lam, f=np.zeros(len(grid)), v_x0=1.0, grid=grid)
        assert np.all(np.isfinite(modes.mode_solve(prob)))


def test_boundary_stencils_are_one_sided():
    g = RadialGrid.make(0.1, 10.0, 200)
    f = g.s**2
    d = uniform_derivative(f, g.h, 1, order=2)
    assert d[0] == pytest.approx(2 * g.s[0], rel=1e-10)
    assert d[-1] == pytest.approx(2 * g.s[-1], rel=1e-10)


def test_grid_owns_read_only_nodes():
    a = np.linspace(3.2, 20.0, 400)
    g = RadialGrid(a)
    h, x, s = g.h, g.x.copy(), g.s.copy()
    assert g.s is not a and g.s.flags.c_contiguous
    a[200] += 1e-3  # would break uniformity if the grid shared the caller's array
    assert np.array_equal(g.s, s) and g.h == h and np.array_equal(g.x, x)
    for arr in (g.s, g.x):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # a strided view becomes a contiguous copy
    assert RadialGrid(np.linspace(3.2, 20.0, 801)[::2]).s.flags.c_contiguous
