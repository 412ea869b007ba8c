from fractions import Fraction

import numpy as np
import pytest

from cusplab import geometry, radial
from cusplab.errors import ConfigError, NumericalError
from cusplab.fields import Field
from cusplab.grid import RadialGrid


class TestCalabi:
    def test_standard_solution_b0(self):
        n = 2
        traj = radial.integrate_calabi(
            n, a=float(np.log((n + 1) ** n)), b=0.0, t0=-1.0, t_end=-50.0, tol=1e-13
        )
        exact = -(n + 1) * np.log(-traj.t_nodes)
        assert np.max(np.abs(traj.psi - exact)) < 1e-8
        assert traj.first_integral_drift() < 1e-10

    def test_conical_approach_rate(self):
        # psi'(t) - c = O(e^{c t}) with c = 1 at b = 1/(n+1)
        n = 2
        traj = radial.integrate_calabi(n, 0.0, 1.0 / (n + 1), t0=-1.0, t_end=-30.0, tol=1e-13)
        mask = (traj.t_nodes < -5) & (traj.t_nodes > -25)
        slope = np.polyfit(traj.t_nodes[mask], np.log(traj.psi_prime[mask] - 1.0), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)
        assert np.all(traj.psi_prime > 1.0)

    def test_ode_residual_finite_differences(self):
        # 800 nodes on [-1, -1.25] are 3e-4 apart, so the finite-difference
        # residual measures the integration, not the stencil
        n = 2
        traj = radial.integrate_calabi(n, 0.0, 0.5, t0=-1.0, t_end=-1.25, tol=1e-13)
        assert traj.ode_residual() < 1e-6

    def test_ode_residual_resolves_the_integration(self):
        # on 800 nodes over [-1, -20] the 2nd-order stencil alone read 1.6e-4;
        # the 4th-order one reads 8.2e-8
        traj = radial.integrate_calabi(2, 0.0, 0.5, t0=-1.0, t_end=-20.0, tol=1e-12)
        assert traj.ode_residual() < 1e-6

    def test_breakdown_before_the_stencil_refused(self):
        # e^psi0 + b = 0.279 sits just above the breakdown floor -b/2 = 0.25
        traj = radial.integrate_calabi(2, 0.0, -0.5, t0=-1.0, t_end=-50.0, psi0=-0.25)
        assert len(traj.t_nodes) < 6
        with pytest.raises(NumericalError, match="nodes before breakdown"):
            traj.ode_residual()

    def test_negative_b_breakdown_reported(self):
        traj = radial.integrate_calabi(2, 0.0, -0.5, t0=-1.0, t_end=-50.0, tol=1e-12)
        assert traj.breakdown_t is not None
        assert -50.0 < traj.breakdown_t < -1.0
        assert traj.t_nodes[-1] >= traj.breakdown_t - 1e-6

    def test_initial_positivity_required(self):
        with pytest.raises(ConfigError):
            radial.integrate_calabi(2, 0.0, -2.0, t0=-1.0, t_end=-10.0, psi0=0.0)

    @pytest.mark.parametrize("b, psi0", [(-0.999, 0.0), (-0.5, float(np.log(0.75)))])
    def test_initial_level_at_or_below_breakdown_floor_refused(self, b, psi0):
        # level 0.001 under the floor 0.4995 used to start the integration,
        # whose e^psi + b went negative (a RuntimeWarning, an error here);
        # level 0.25 sits on the floor 0.25
        with pytest.raises(ConfigError, match="breakdown floor -b/2"):
            radial.integrate_calabi(2, 0.0, b, t0=-1.0, t_end=-10.0, psi0=psi0)

    def test_tol_below_solve_ivp_floor_refused(self):
        with pytest.raises(ConfigError, match="rtol floor"):
            radial.integrate_calabi(2, 0.0, 0.5, t0=-1.0, t_end=-10.0, tol=np.nextafter(radial._MIN_TOL, 0.0))
        radial.integrate_calabi(2, 0.0, 0.5, t0=-1.0, t_end=-1.25, tol=radial._MIN_TOL)


class TestConeAngle:
    def test_unit_angle(self):
        n = 2
        angle, emp = radial.cone_angle(n, 1.0 / (n + 1))
        assert angle == pytest.approx(2 * np.pi, rel=1e-12)
        assert emp == pytest.approx(1.0, abs=1e-3)

    def test_closed_form_and_empirical(self):
        angle, emp = radial.cone_angle(2, 3.0)
        c = 9.0 ** (1.0 / 3.0)
        assert angle == pytest.approx(2 * np.pi * c, rel=1e-12)
        assert abs(emp - c) / c < 1e-3

    def test_monotone_in_b(self):
        angles = [radial.cone_angle(2, b)[0] for b in (0.5, 1.0, 2.0)]
        assert angles[0] < angles[1] < angles[2]

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            radial.cone_angle(2, 0.0)


class TestVolumeRatio:
    def test_flat_is_one(self):
        x = np.linspace(0.01, 0.3, 20)
        zero = np.zeros_like(x)
        assert np.allclose(radial.radial_volume_ratio(2, x, zero, zero, zero), 1.0)

    def test_tangent_cone_exponential(self):
        # psi = -(n+1) log(1+cx) gives exactly e^psi with analytic derivatives
        n, c = 2, 0.3
        x = np.linspace(0.005, 0.4, 50)
        psi = -(n + 1) * np.log1p(c * x)
        psi_x = -(n + 1) * c / (1 + c * x)
        psi_xx = (n + 1) * c**2 / (1 + c * x) ** 2
        ratio = radial.radial_volume_ratio(n, x, psi, psi_x, psi_xx)
        assert np.max(np.abs(ratio - np.exp(psi)) / np.exp(psi)) < 1e-13

    def test_agrees_with_determinant_route(self):
        # same finite-difference derivatives through two independent formulas
        n = 2
        m = __import__("cusplab.model", fromlist=["CuspModel"]).CuspModel(
            n, np.eye(2), np.array([[1.0]])
        )
        grid = RadialGrid.make(0.1, 8.0, 2000)
        psi = -3 * np.log1p(0.25 * grid.x)
        psi_x, psi_xx = grid.deriv_x(psi, 2)
        ratio = radial.radial_volume_ratio(n, grid.x, psi, psi_x, psi_xx)
        f = Field.from_radial(grid, psi, (4, 4))
        mres = geometry.monge_ampere_residual(m, f).radial_mean()
        ratio_det = np.exp(mres + psi)
        it = grid.interior(2)
        assert np.max(np.abs(ratio[it] - ratio_det[it])) < 1e-8

    def test_degenerate_factor_raises(self):
        x = np.array([0.5])
        with pytest.raises(NumericalError):
            radial.radial_volume_ratio(2, x, np.array([0.0]), np.array([-10.0]), np.array([0.0]))


class TestExpansion:
    def test_reference_coefficients(self):
        coeffs = radial.expand_formal(2, -3.0, 4)
        assert coeffs[0] == 0
        assert coeffs[2] == pytest.approx(1.5, rel=1e-14)
        assert coeffs[3] == pytest.approx(-1.0, rel=1e-14)
        assert coeffs[4] == pytest.approx(0.75, rel=1e-14)

    def test_zero_leading_coefficient(self):
        assert np.all(radial.expand_formal(2, 0.0, 10) == 0)

    def test_idempotent_under_extension(self):
        a = radial.expand_formal(3, -1.7, 10)
        b = radial.expand_formal(3, -1.7, 20)
        assert np.array_equal(a, b[:11])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0])
    def test_matches_closed_form(self, n, c):
        coeffs = radial.expand_formal(n, -(n + 1) * c, 20)
        target = radial.tangent_cone_coefficients(n, c, 20)
        rel = np.abs(coeffs[1:] - target[1:]) / np.abs(target[1:])
        assert np.max(rel) < 1e-12

    def test_equation_residual_cancels(self):
        coeffs = radial.expand_formal(2, -2.4, 20)
        k = np.arange(21.0)
        scale = np.max(np.abs((k - 1) * (k + 3) * coeffs))
        assert radial.series_equation_residual(2, coeffs) / scale < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unit_coefficients_exact(self, n):
        # with D_1 = 1 the solution is -(n+1) log(1 + x/(n+1)) (tangent cone
        # c = -1/(n+1)), whose coefficients are D_k = 1/(k (n+1)^(k-1)) exactly
        D = radial._unit_coefficients(n, 40)
        assert all(D[k] == Fraction(1, k * (n + 1) ** (k - 1)) for k in range(1, 41))

    def test_equation_residual_exact_at_order_cap(self):
        # C_k = 3(-1)^k/k are all at most 3, but the powers of u/(n+1) carry
        # binomial-sized alternating terms: summed in floats the residual
        # read 1029 at order 40, while the coefficients are good to rounding
        assert radial.series_equation_residual(2, radial.expand_formal(2, -3.0, 40)) < 1e-12


class TestZeroModeKernel:
    def test_homogeneous_case(self):
        grid = RadialGrid.make(0.1, 20.0, 500)
        u = radial.radial_rep_l0(2, grid, np.zeros(len(grid)), u_x0=0.7)
        assert np.allclose(u, 0.7 * grid.x / grid.x0, atol=1e-14)

    def test_quadratic_inhomogeneity_residual(self):
        n = 2
        grid = RadialGrid.make(0.1, 30.0, 12000)
        g = grid.x**2
        u = radial.radial_rep_l0(n, grid, g, u_x0=0.0)
        ux, uxx = grid.deriv_x(u, order=4)
        res = grid.x**2 * uxx + 3 * grid.x * ux - 3 * u - g
        it = grid.interior(4)
        assert np.max(np.abs(res[it])) / np.max(np.abs(g)) < 1e-8

    def test_split_remainder_is_quadratic(self):
        # g = x^2 with u(x0) = 0 has the exact decaying solution
        # (x^2 - x0 x)/(n+3): the particular x^2/(n+3) plus a multiple of x
        n = 2
        grid = RadialGrid.make(0.1, 30.0, 6000)
        g = grid.x**2
        u = radial.radial_rep_l0(n, grid, g, u_x0=0.0)
        exact = (grid.x**2 - grid.x0 * grid.x) / (n + 3)
        assert np.max(np.abs(u - exact)) / np.max(np.abs(exact)) < 1e-8

    def test_residual_refinement_order(self):
        n = 2
        sups = []
        for num in (3000, 6000):
            grid = RadialGrid.make(0.1, 30.0, num)
            g = grid.x**2
            u = radial.radial_rep_l0(n, grid, g, u_x0=0.0)
            ux, uxx = grid.deriv_x(u, order=2)
            res = grid.x**2 * uxx + 3 * grid.x * ux - 3 * u - g
            it = grid.interior(2)
            sups.append(np.max(np.abs(res[it])))
        assert np.log2(sups[0] / sups[1]) >= 1.9

    def test_decay_precondition_enforced(self):
        grid = RadialGrid.make(0.1, 30.0, 1000)
        slow = grid.x**0.5  # decays too slowly for the t^{-2} integral
        with pytest.raises(NumericalError, match="need better than x\\^1 for the kernel integrals"):
            radial.radial_rep_l0(2, grid, slow, u_x0=0.0)


def test_cumulative_integral_order():
    errs = []
    for num in (200, 400):
        s = np.linspace(1.0, 4.0, num)
        y = np.sin(3 * s)
        got = radial.cumulative_integral(s, y)
        exact = (np.cos(3.0) - np.cos(3 * s)) / 3.0
        errs.append(np.max(np.abs(got - exact)))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_interval_rule_weights():
    # unweighted: the plain cubic rule, bit for bit (the zero-mode kernel uses it);
    # weighted by rho = exp(-d): node l of interval k carries exp(sigma_k - sigma_l)
    rng = np.random.default_rng(3)
    y = rng.normal(size=50)
    h, d = 0.1, 0.7
    plain = radial.interval_integrals(h, y)
    assert np.array_equal(plain[1:-1], (h / 24.0) * (-y[:-3] + 13.0 * y[1:-2] + 13.0 * y[2:-1] - y[3:]))
    sigma = d * np.arange(50)
    brute = np.empty(49)
    for k in range(49):
        lo, coef = {0: (0, [9, 19, -5, 1]), 48: (46, [1, -5, 19, 9])}.get(k, (k - 1, [-1, 13, 13, -1]))
        brute[k] = (h / 24.0) * sum(c * y[lo + i] * np.exp(sigma[k] - sigma[lo + i]) for i, c in enumerate(coef))
    got = radial.interval_integrals(h, y, np.exp(-d))
    assert np.max(np.abs(got - brute)) < 1e-14 * np.max(np.abs(brute))
