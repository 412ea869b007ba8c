import numpy as np
import pytest

from cusplab import analysis, geometry
from cusplab.bessel import h_pair
from cusplab.errors import BoundaryStencilError, ConfigError, MetricDegenerateError
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel, CuspPoint


def square_model(n=2, a=1.0):
    d = n - 1
    return CuspModel(n, np.eye(2 * d), a * np.eye(d))


class TestMetric:
    def test_origin_values(self):
        m = square_model()
        p = CuspPoint(np.array([0.0 + 0j]), x=0.1)
        g = geometry.metric_coefficients(m, p).entries
        assert g[0, 0] == pytest.approx(0.3)
        assert g[0, 1] == 0
        r = m.radius_from_x(p.z_prime, p.x)
        assert g[1, 1] * r**2 == pytest.approx(3 * 0.01)

    def test_inverse_origin_value(self):
        m = square_model()
        p = CuspPoint(np.array([0.0 + 0j]), x=0.1)
        gi = geometry.inverse_metric(m, p).entries
        assert gi[0, 0] == pytest.approx(10.0 / 3.0)

    def test_metric_inverse_identity_and_positivity(self):
        m = square_model()
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = CuspPoint(
                rng.normal(size=1) + 1j * rng.normal(size=1),
                x=float(rng.uniform(0.01, 0.9)),
                theta=float(rng.uniform(0, 2 * np.pi)),
            )
            g = geometry.metric_coefficients(m, p).entries
            gi = geometry.inverse_metric(m, p).entries
            rel = np.abs(g @ gi - np.eye(2)) / (np.abs(g) @ np.abs(gi) + 1.0)
            assert np.max(rel) < 1e-10
            assert np.linalg.eigvalsh(g).min() > 0

    def test_metric_hermitian_n3(self):
        m = CuspModel(3, np.eye(4), np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]]))
        p = CuspPoint(np.array([0.2 + 0.1j, -0.4 + 0.3j]), x=0.2)
        g = geometry.metric_coefficients(m, p).entries
        assert np.allclose(g, g.conj().T)
        gi = geometry.inverse_metric(m, p).entries
        rel = np.abs(g @ gi - np.eye(3)) / (np.abs(g) @ np.abs(gi) + 1.0)
        assert np.max(rel) < 1e-10

    def test_rejects_bad_radius(self):
        m = square_model()
        with pytest.raises(ConfigError):
            geometry.metric_coefficients(m, CuspPoint(np.array([0j]), x=1.5))


class TestCrossSection:
    def test_theta_theta_entry(self):
        m = square_model()
        for eps in (0.3, 0.05):
            p = CuspPoint(np.array([0.4 - 0.2j]), x=eps**2)
            mat = geometry.cross_section_metric(m, eps, p)
            assert mat[-1, -1] == pytest.approx(2 * eps**2)
            assert np.allclose(mat, mat.T)
            assert np.linalg.eigvalsh(mat).min() > 0

    def test_block_structure_at_origin(self):
        m = square_model()
        eps = 0.1
        mat = geometry.cross_section_metric(m, eps, CuspPoint(np.array([0j]), x=0.01))
        assert np.allclose(mat, np.diag([2.0, 2.0, 2 * eps**2]))

    def test_det_scaling_in_eps(self):
        m = square_model()
        p = CuspPoint(np.array([0.3 + 0.2j]), x=0.01)
        vals = [
            np.linalg.det(geometry.cross_section_metric(m, eps, p)) / eps**2
            for eps in (0.1, 0.05, 0.01)
        ]
        spread = (max(vals) - min(vals)) / abs(vals[0])
        assert spread < 1e-8


class TestHessian:
    def _field_and_grid(self, profile_fn, mode=None):
        grid = RadialGrid.make(0.2, 8.0, 4000)
        modes = {(0, 0): profile_fn(grid.x).astype(complex)}
        if mode is not None:
            modes[mode] = profile_fn(grid.x).astype(complex)
            modes[tuple(-i for i in mode)] = profile_fn(grid.x).astype(complex)
        return Field.from_modes(grid, modes, (8, 8)), grid

    def test_radial_linear_profile(self):
        m = square_model()
        f, grid = self._field_and_grid(lambda x: x)
        idx = len(grid) // 2
        p = CuspPoint(np.array([0.3 + 0.1j]), x=grid.x[idx])
        h = geometry.holomorphic_hessian(m, f, p).entries
        r = m.radius_from_x(p.z_prime, p.x)
        assert h[1, 1] * r**2 == pytest.approx(2 * grid.x[idx] ** 3, rel=1e-6)

    def test_constant_field_zero(self):
        m = square_model()
        f, grid = self._field_and_grid(lambda x: np.ones_like(x))
        p = CuspPoint(np.array([0.1 + 0.2j]), x=grid.x[10])
        h = geometry.holomorphic_hessian(m, f, p).entries
        assert np.max(np.abs(h)) < 1e-10

    def test_boundary_node_flagged(self):
        m = square_model()
        f, grid = self._field_and_grid(lambda x: x)
        with pytest.raises(BoundaryStencilError):
            geometry.holomorphic_hessian(m, f, CuspPoint(np.array([0j]), x=grid.x[0]))
        with pytest.raises(ConfigError):
            geometry.holomorphic_hessian(m, f, CuspPoint(np.array([0j]), x=0.123456))

    def test_against_holomorphic_chart_finite_differences(self):
        # independent chain-rule oracle: evaluate the analytic function
        # F(z', z_n) = x(z)^2 * cos(2 pi Re z_1) directly in holomorphic
        # coordinates and difference it there
        m = square_model()
        grid = RadialGrid.make(0.2, 8.0, 6000)
        prof = grid.x**2
        f = Field.from_modes(
            grid,
            {
                (0, 0): np.zeros(len(grid), dtype=complex),
                (1, 0): 0.5 * prof.astype(complex),
                (-1, 0): 0.5 * prof.astype(complex),
            },
            (8, 8),
        )
        idx = len(grid) // 3
        x0 = grid.x[idx]
        zp = np.array([0.17 + 0.05j])
        p = CuspPoint(zp, x=x0, theta=0.4)
        got = geometry.holomorphic_hessian(m, f, p).entries

        r = m.radius_from_x(zp, x0)
        zn0 = r * np.exp(1j * p.theta)

        def func(z1, zn):
            phi = -abs(z1) ** 2
            sigma = phi - np.log(abs(zn) ** 2)
            xval = 1.0 / sigma
            return xval**2 * np.cos(2 * np.pi * z1.real)

        # oracle: nested centered Wirtinger differences in the (z', z_n) chart
        def dbar_k(fun, k, h):
            def out(zs):
                def g(w):
                    zz = list(zs)
                    zz[k] = w
                    return fun(zz)

                z = zs[k]
                return (
                    g(z + h) - g(z - h) + 1j * (g(z + 1j * h) - g(z - 1j * h))
                ) / (4 * h)

            return out

        def d_j(fun, j, h):
            def out(zs):
                def g(w):
                    zz = list(zs)
                    zz[j] = w
                    return fun(zz)

                z = zs[j]
                return (
                    g(z + h) - g(z - h) - 1j * (g(z + 1j * h) - g(z - 1j * h))
                ) / (4 * h)

            return out

        base = lambda zs: func(zs[0], zs[1])
        oracle = np.zeros((2, 2), dtype=complex)
        steps = [1e-4, 1e-4 * abs(zn0)]
        for j in range(2):
            for k in range(2):
                fn = d_j(dbar_k(base, k, steps[k]), j, steps[j])
                oracle[j, k] = fn([zp[0], zn0])
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(got - oracle)) / scale < 1e-6


class TestLinearized:
    def test_radial_solutions_annihilated(self):
        m = square_model()
        grid = RadialGrid.make(0.1, 10.0, 20000)
        f = Field.from_radial(grid, grid.x, (4, 4))
        lf = geometry.linearized_apply(m, f).radial_mean()
        it = grid.interior(2)
        assert np.max(np.abs(lf[it])) < 1e-8

    def test_indicial_value_on_square(self):
        m = square_model()
        grid = RadialGrid.make(0.1, 10.0, 20000)
        f = Field.from_radial(grid, grid.x**2, (4, 4))
        lf = geometry.linearized_apply(m, f).radial_mean()
        it = grid.interior(2)
        target = (m.n + 3) / (m.n + 1) * grid.x**2
        scale = np.max(np.abs(target[it]))
        assert np.max(np.abs(lf[it] - target[it])) / scale < 1e-7

    def test_mode_kernel_annihilated(self):
        # H2 profile times the first character is in the kernel of L
        m = square_model()
        lam = np.pi**2
        grid = RadialGrid.make(0.1, 12.0, 8000)
        pair = h_pair(2, lam, grid.x)
        prof = pair.h2_mantissa / pair.h2_mantissa[0] * np.exp(pair.exponent[0] - pair.exponent)
        f = Field.from_modes(
            grid,
            {(1, 0): 0.5 * prof.astype(complex), (-1, 0): 0.5 * prof.astype(complex)},
            (8, 8),
        )
        lf = geometry.linearized_apply(m, f, order=4)
        it = grid.interior(4)
        rel = lf.sup_norm(it) / np.max(np.abs(prof))
        assert rel < 1e-6

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ConfigError):
            RadialGrid(np.linspace(2.0, 3.0, 4))


class TestMongeAmpere:
    def test_zero_field(self):
        m = square_model()
        grid = RadialGrid.make(0.1, 8.0, 300)
        z = Field.zero(grid, (4, 4))
        assert geometry.monge_ampere_residual(m, z).sup_norm() == 0.0

    def test_tangent_cone_residual_and_order(self):
        m = square_model()
        sups = []
        for num in (800, 1600):
            grid = RadialGrid.make(0.1, 10.0, num)
            tc = Field.from_radial(grid, -3 * np.log1p(0.3 * grid.x), (4, 4))
            res = geometry.monge_ampere_residual(m, tc)
            sups.append(res.sup_norm(grid.interior(2)))
        assert sups[0] < 2e-6
        order = np.log2(sups[0] / sups[1])
        assert order >= 1.9

    def test_quadratic_smallness(self):
        m = square_model()
        grid = RadialGrid.make(0.05, 12.0, 400)
        base = Field.from_modes(
            grid,
            {
                (0, 0): (0.3 * grid.x**2).astype(complex),
                (1, 0): 0.2 * grid.x * np.exp(-1.0 / np.sqrt(grid.x)) + 0j,
                (-1, 0): 0.2 * grid.x * np.exp(-1.0 / np.sqrt(grid.x)) + 0j,
            },
            (8, 8),
        )
        eps_list = (1e-2, 1e-3, 1e-4)
        sups = [
            geometry.quadratic_remainder(m, eps * base).sup_norm(grid.interior(2))
            for eps in eps_list
        ]
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert abs(slope - 2.0) < 0.1

    @pytest.mark.parametrize(
        "m",
        [square_model(), CuspModel(3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]))],
        ids=["n2", "n3"],
    )
    def test_degenerate_metric_reported(self, m):
        grid = RadialGrid.make(0.1, 6.0, 200)
        huge = Field.from_radial(grid, -40.0 * grid.x, (4,) * (2 * m.d))
        with pytest.raises(MetricDegenerateError):
            geometry.monge_ampere_residual(m, huge)

    def test_generic_dimension_path(self):
        # n = 3 exercises the 3 x 3 invariants (the e_2 term and the 2 x 2
        # minors of the adjugate) with a complex Hermitian torus weight
        m = CuspModel(3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]))
        sups = []
        for num in (400, 800):
            grid = RadialGrid.make(0.1, 8.0, num)
            tc = Field.from_radial(grid, -4 * np.log1p(0.3 * grid.x), (4, 4, 4, 4))
            sups.append(geometry.monge_ampere_residual(m, tc).sup_norm(grid.interior(2)))
        assert sups[0] < 5e-6
        assert np.log2(sups[0] / sups[1]) >= 1.9
        grid = RadialGrid.make(0.1, 8.0, 4000)
        f = Field.from_radial(grid, grid.x**2, (4, 4, 4, 4))
        lf = geometry.linearized_apply(m, f).radial_mean()
        target = 1.5 * grid.x**2
        it = grid.interior(2)
        assert np.max(np.abs(lf[it] - target[it])) / np.max(np.abs(target[it])) < 1e-5


def _modes_on_keys(grid, keys, amplitude):
    """Profiles amplitude (a_k + i b_k) x exp(-1/sqrt(x)) on each key k, their
    conjugates on -k, and distinct (a_k, b_k) per key: a real field."""
    base = grid.x * np.exp(-1.0 / np.sqrt(grid.x))
    modes = {}
    for j, k in enumerate(keys):
        coef = amplitude * ((1.0 + 0.3 * j) + (0.7 - 0.4 * j) * 1j)
        modes[k] = coef * base
        modes[tuple(-i for i in k)] = np.conj(coef) * base
    return modes


def _pointwise_residual(model, f, modes, node, idx):
    """log det(g + i ddbar f)/det g - f at torus node `node` and radial node
    idx, from metric_coefficients, holomorphic_hessian and slogdet; the
    value of f is summed from its mode profiles `modes`."""
    t = np.array(node) / f.torus_resolution
    v = model.lattice @ t
    p = CuspPoint(v[: model.d] + 1j * v[model.d :], x=f.grid.x[idx])
    g = geometry.metric_coefficients(model, p).entries
    h = geometry.holomorphic_hessian(model, f, p).entries
    sign, logdet = np.linalg.slogdet(np.linalg.solve(g, g + h))
    assert abs(sign - 1) < 1e-12
    value = sum(prof[idx] * np.exp(2j * np.pi * np.dot(k, t)) for k, prof in modes.items())
    assert abs(value.imag) < 1e-15
    return logdet - value.real


@pytest.mark.parametrize(
    "n, lattice, A, keys, m, amplitude, nodes",
    [
        (
            2,
            np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]),
            np.array([[1.3]]),
            [(1, 0), (0, 1), (1, 1)],
            16,
            1e-2,
            [(3, 5), (11, 2), (7, 13)],
        ),
        (
            3,
            np.eye(4),
            np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]),
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)],
            8,
            1e-4,
            [(1, 2, 3, 5), (6, 1, 0, 2), (3, 7, 5, 1)],
        ),
    ],
    ids=["n2-hexagonal", "n3"],
)
def test_collocation_matches_pointwise_oracle(n, lattice, A, keys, m, amplitude, nodes):
    # the vectorized collocation against a per-point assembly of the metric
    # and the Hessian: every term of the scaled Hessian must be present
    model = CuspModel(n, lattice, A)
    grid = RadialGrid.make(0.2, 5.0, 200 if n == 2 else 24)
    modes = _modes_on_keys(grid, keys, amplitude)
    f = Field.from_modes(grid, modes, (m,) * len(keys[0]))
    values = geometry.monge_ampere_residual(model, f, order=2).values()
    points = list(zip(nodes, (len(grid) // 4, len(grid) // 2, 3 * len(grid) // 4)))
    ref = np.array([_pointwise_residual(model, f, modes, node, idx) for node, idx in points])
    got = np.array([values[node + (idx,)] for node, idx in points])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, torus", [(2, (8, 8)), (3, (4, 4, 4, 4))], ids=["n2", "n3"])
def test_positivity_guard_matches_eigvalsh(n, torus, monkeypatch):
    # Hermitian matrices whose smallest eigenvalue sits a factor 1 -+ 1e-3
    # from the floor 1e-10 tr/n, handed to the guard in the chart frame of a
    # Collocation: its decision is that of eigvalsh on the matrices
    model = square_model(n)
    grid = RadialGrid.make(0.2, 5.0, 16)
    colloc = geometry.Collocation(model, grid, torus)
    shape = torus + (len(grid),)
    rng = np.random.default_rng(7)
    unitary, _ = np.linalg.qr(rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n)))
    rest = rng.uniform(0.5, 2.0, size=shape + (n - 1,))
    factor = np.where(rng.random(shape) < 0.5, 1 - 1e-3, 1 + 1e-3)
    factor[(0,) * len(torus)] = 1 + 1e-3  # the first degenerate point has phi_a != 0
    low = factor * 1e-10 * rest.sum(-1) / (n - factor * 1e-10)  # low = factor 1e-10 tr/n
    lam = np.concatenate([low[..., None], rest], axis=-1)
    s = np.einsum("...ij,...j,...kj->...ik", unitary, lam, unitary.conj())
    reference = np.linalg.eigvalsh(s)[..., 0] <= 1e-10 * np.trace(s, axis1=-2, axis2=-1).real / n
    assert np.array_equal(reference, factor < 1)
    # s = C sc C^H, where C^{-1} = [[I, phi_a], [0, 1]] has the last column of k
    cinv = np.broadcast_to(np.eye(n, dtype=complex), s.shape).copy()
    for a in range(n - 1):
        cinv[..., a, n - 1] = colloc.k[a, n - 1]
    sc = cinv @ s @ cinv.conj().swapaxes(-1, -2)
    chart = {(j, k): sc[..., j, k].real if j == k else sc[..., j, k] for j in range(n) for k in range(j, n)}
    hessian = {jk: v - colloc.g[jk] for jk, v in chart.items()}
    assert np.array_equal(geometry._degenerate(hessian, colloc), reference)
    # the error names the first degenerate point and its smallest eigenvalue
    monkeypatch.setattr(geometry, "_chart_hessian", lambda *args: (np.zeros(shape), hessian))
    with pytest.raises(MetricDegenerateError) as info:
        geometry._ma_values(model, Field.zero(grid, torus), 2, colloc)
    first = np.unravel_index(np.argmax(reference), reference.shape)
    assert info.value.where == tuple(int(i) for i in first[:-1])
    assert info.value.x == grid.x[first[-1]]
    assert info.value.eigmin == pytest.approx(low[first], abs=1e-14)


def test_n3_remainder_matches_extended_precision():
    # Q = log det(I + g^{-1} h) - tr(g^{-1} h) at collocation points against
    # 40 digits from the pointwise metric and Hessian; |g^{-1} h| reaches
    # 1e-3 here, where log(1 + w) - w loses digits if taken directly
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    model = CuspModel(3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]))
    grid = RadialGrid.make(0.2, 5.0, 24)
    keys = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)]
    f = Field.from_modes(grid, _modes_on_keys(grid, keys, 1e-3), (8,) * 4)
    _, q = geometry._ma_values(model, f, 2)
    rng = np.random.default_rng(1)
    for _ in range(12):
        node, idx = tuple(int(i) for i in rng.integers(0, 8, 4)), int(rng.integers(1, len(grid) - 1))
        v = model.lattice @ (np.array(node) / 8)
        p = CuspPoint(v[:2] + 1j * v[2:], x=grid.x[idx])
        g = mpmath.matrix(geometry.metric_coefficients(model, p).entries.tolist())
        h = mpmath.matrix(geometry.holomorphic_hessian(model, f, p).entries.tolist())
        b = mpmath.inverse(g) * h
        ref = mpmath.re(mpmath.log(mpmath.det(mpmath.eye(3) + b)) - (b[0, 0] + b[1, 1] + b[2, 2]))
        assert abs(float((q[node + (idx,)] - ref) / ref)) < 1e-13
