import numpy as np
import pytest

from cusplab import analysis
from cusplab.bessel import h_pair
from cusplab.errors import ConfigError
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel


class TestBarrierSign:
    def test_reference_values(self):
        assert analysis.barrier_sign(2, 0.5) == pytest.approx(-7.0 / 12.0)
        assert analysis.barrier_sign(2, 1.0) == 0.0
        assert analysis.barrier_sign(3, 1.0) == 0.0
        assert analysis.barrier_sign(2, -3.0) == 0.0
        # reconciled with the linearized operator: (2-1)(2+3)/3 = 5/3
        assert analysis.barrier_sign(2, 2.0) == pytest.approx(5.0 / 3.0)

    def test_sign_pattern(self):
        for p in (0.1, 0.5, 0.9):
            assert analysis.barrier_sign(2, p) < 0  # supersolution range
        for p in (1.1, 2.0, 5.0):
            assert analysis.barrier_sign(2, p) > 0  # subsolution range


class TestDecayFit:
    def _grid(self):
        return RadialGrid.make(0.05, 34.0, 3000)

    @pytest.mark.parametrize("p", [-0.75, 0.5, 2.0])
    @pytest.mark.parametrize("delta", [4.0, 2 * np.pi, 9.0])
    def test_recovers_synthetic_profiles(self, p, delta):
        grid = self._grid()
        v = 2.7 * grid.x**p * np.exp(-delta / np.sqrt(grid.x))
        window = analysis.window_from_s(np.pi**2, 40.0, 200.0)
        fit = analysis.decay_fit(grid.x, v, window)
        assert fit.p == pytest.approx(p, abs=0.02)
        assert abs(fit.delta - delta) / delta < 0.005
        assert fit.amplitude == pytest.approx(2.7, rel=0.05)

    def test_pure_power_gives_zero_delta(self):
        grid = self._grid()
        v = grid.x**2
        fit = analysis.decay_fit(grid.x, v, (grid.x[-1], grid.x[0]))
        assert abs(fit.delta) < 1e-6
        assert fit.p == pytest.approx(2.0, abs=1e-8)

    def test_exact_kernel_profile(self):
        # frozen oracle: fitting H2 itself on s in [40, 200] gives the sharp
        # exponent within 0.1% and an effective power -0.6645 (the distance
        # 0.0855 from -3/4 is the large-argument kernel correction)
        lam1 = np.pi**2
        grid = RadialGrid.make(0.05, 34.0, 4800)
        pair = h_pair(2, lam1, grid.x)
        prof = pair.h2_mantissa / pair.h2_mantissa[0] * np.exp(pair.exponent[0] - pair.exponent)
        window = analysis.window_from_s(lam1, 40.0, 200.0)
        fit = analysis.decay_fit(grid.x, prof, window)
        assert abs(fit.delta - 2 * np.pi) / (2 * np.pi) < 0.01
        assert fit.p == pytest.approx(-0.6645, abs=0.005)
        assert abs(fit.p - (-0.75)) < 0.1

    def test_guards(self):
        grid = self._grid()
        with pytest.raises(ConfigError):
            analysis.decay_fit(grid.x, np.sin(grid.s), (0.001, 0.02))
        with pytest.raises(ConfigError):
            analysis.decay_fit(grid.x, grid.x, (0.049, 0.05))


class TestCalculusBounds:
    def test_frozen_ratio_value(self):
        # independent series oracle: R1(1e-4; c=2, k=0) = 2 sum_j C(-3,j)
        # (1/200)^j j!/2^j = 1.9705854...
        got = analysis.ratio_lower(2.0, 0.0, 1e-4)[0]
        assert got == pytest.approx(1.9705854348529939, rel=1e-10)

    @pytest.mark.parametrize("c,k", [(2.0, 0.0), (2.0, -1.4), (5.0, 3.0)])
    def test_first_ratio_below_two_with_limit(self, c, k):
        report = analysis.lemma43_check(c, k, x_max=10.0, eps=1.0)
        assert report.sup_r1 < 2.0
        assert abs(report.limit_r1 - 2.0) / 2.0 < 0.01
        assert report.passed

    def test_second_ratio_on_admissible_window(self):
        report = analysis.lemma43_check(5.0, 3.0, x_max=10.0, eps=1.0)
        assert report.sup_r2 is not None
        assert report.sup_r2 < 3.0
        assert report.x0_admissible == pytest.approx((1.0 / 3.0 * 5.0 / 9.0) ** 2)

    def test_parameter_guard(self):
        with pytest.raises(ConfigError):
            analysis.lemma43_check(2.0, -1.6, x_max=1.0)


def test_indicial_agreement_with_linearized_operator():
    from cusplab import geometry

    model = CuspModel(2, np.eye(2), np.array([[1.0]]))
    grid = RadialGrid.make(0.1, 10.0, 30000)
    it = grid.interior(2)
    for p in (-3.0, 0.5, 1.0, 2.0, 3.0):
        f = Field.from_radial(grid, grid.x**p, (4, 4))
        lf = geometry.linearized_apply(model, f).radial_mean()
        target = analysis.barrier_sign(2, p) * grid.x**p
        scale = np.max(np.abs(grid.x[it] ** p))
        assert np.max(np.abs(lf[it] - target[it])) / scale < 1e-6
