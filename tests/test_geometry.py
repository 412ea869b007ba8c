import math

import numpy as np
import pytest

from cusplab import analysis, geometry
from cusplab.bessel import h_pair
from cusplab.errors import BoundaryStencilError, ConfigError, MetricDegenerateError
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel, CuspPoint


# a complex Hermitian A for the n = 4 rows: every z' entry of the frame's Cholesky factor is complex
A4 = np.array([[1.0, 0.2 + 0.1j, 0.05 - 0.1j], [0.2 - 0.1j, 0.8, 0.1 + 0.05j], [0.05 + 0.1j, 0.1 - 0.05j, 1.2]])
# a complex Hermitian A for n = 3: the cross-section's Im A blocks and off-diagonal phi products enter
A3 = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]])


def square_model(n=2, a=1.0):
    d = n - 1
    return CuspModel(n, np.eye(2 * d), a * np.eye(d))


class TestMetric:
    def test_origin_values(self):
        m = square_model()
        p = CuspPoint(np.array([0.0 + 0j]), x=0.1)
        g = geometry.metric_coefficients(m, p)
        assert g[0, 0] == pytest.approx(0.3)
        assert g[0, 1] == 0
        r = m.radius_from_x(p.z_prime, p.x)
        assert g[1, 1] * r**2 == pytest.approx(3 * 0.01)

    def test_inverse_origin_value(self):
        m = square_model()
        p = CuspPoint(np.array([0.0 + 0j]), x=0.1)
        gi = geometry.inverse_metric(m, p)
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
            g = geometry.metric_coefficients(m, p)
            gi = geometry.inverse_metric(m, p)
            rel = np.abs(g @ gi - np.eye(2)) / (np.abs(g) @ np.abs(gi) + 1.0)
            assert np.max(rel) < 1e-10
            assert np.linalg.eigvalsh(g).min() > 0

    def test_metric_hermitian_n3(self):
        m = CuspModel(3, np.eye(4), np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]]))
        p = CuspPoint(np.array([0.2 + 0.1j, -0.4 + 0.3j]), x=0.2)
        g = geometry.metric_coefficients(m, p)
        assert np.allclose(g, g.conj().T)
        gi = geometry.inverse_metric(m, p)
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
        for m, zp in ((square_model(), [0.3 + 0.2j]), (CuspModel(3, np.eye(4), A3), [0.3 + 0.2j, -0.1 + 0.4j])):
            p = CuspPoint(np.array(zp), x=0.01)
            vals = [
                np.linalg.det(geometry.cross_section_metric(m, eps, p)) / eps**2
                for eps in (0.1, 0.05, 0.01)
            ]
            spread = (max(vals) - min(vals)) / abs(vals[0])
            assert spread < 1e-8

    def test_theta_column_from_differenced_phi(self):
        # the theta column is eps^2 (phi_y, -phi_x) in the real chart z'_a = x_a + i y_a,
        # with phi's real derivatives taken by central differences of phi itself
        m = CuspModel(3, np.eye(4), A3)
        zp, eps, h = np.array([0.3 + 0.2j, -0.1 + 0.4j]), 0.1, 1e-6
        steps = np.concatenate([np.eye(2), 1j * np.eye(2)]) * h
        grad = np.array([(m.phi(zp + e) - m.phi(zp - e)) / (2 * h) for e in steps])
        phi_x, phi_y = grad[:2], grad[2:]
        col = geometry.cross_section_metric(m, eps, CuspPoint(zp, x=eps**2))[:-1, -1]
        assert np.max(np.abs(col - eps**2 * np.concatenate([phi_y, -phi_x]))) < 1e-8


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
        h = geometry.holomorphic_hessian(m, f, p)
        r = m.radius_from_x(p.z_prime, p.x)
        assert h[1, 1] * r**2 == pytest.approx(2 * grid.x[idx] ** 3, rel=1e-6)

    def test_constant_field_zero(self):
        m = square_model()
        f, grid = self._field_and_grid(lambda x: np.ones_like(x))
        p = CuspPoint(np.array([0.1 + 0.2j]), x=grid.x[10])
        h = geometry.holomorphic_hessian(m, f, p)
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
        got = geometry.holomorphic_hessian(m, f, p)

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
        [
            square_model(),
            CuspModel(3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]])),
            CuspModel(4, np.eye(6), A4),
        ],
        ids=["n2", "n3", "n4"],
    )
    def test_degenerate_metric_reported(self, m):
        grid = RadialGrid.make(0.1, 6.0, 200)
        huge = Field.from_radial(grid, -40.0 * grid.x, (4,) * (2 * m.d))
        with pytest.raises(MetricDegenerateError):
            geometry.monge_ampere_residual(m, huge)

    def test_generic_dimension_path(self):
        # n = 3 exercises the minor recursion below the determinant (e_2 and
        # the 2 x 2 minors of the first-row expansion) with a complex
        # Hermitian torus weight
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


def _spanned_shape(keys, m):
    """m torus points along each lattice axis some key spans, one along the others."""
    return tuple(m if any(k[i] for k in keys) else 1 for i in range(len(keys[0])))


def _pointwise_residual(model, f, modes, node, idx):
    """log det(g + i ddbar f)/det g - f at torus node `node` and radial node
    idx, from metric_coefficients, holomorphic_hessian and slogdet; the
    value of f is summed from its mode profiles `modes`."""
    t = np.array(node) / f.torus_shape
    v = model.lattice @ t
    p = CuspPoint(v[: model.d] + 1j * v[model.d :], x=f.grid.x[idx])
    g = geometry.metric_coefficients(model, p)
    h = geometry.holomorphic_hessian(model, f, p)
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
        (
            4,
            np.eye(6),
            A4,
            [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)],
            8,
            1e-4,
            [(1, 0, 3, 0, 5, 0), (6, 0, 1, 0, 2, 0), (3, 0, 7, 0, 1, 0)],
        ),
    ],
    ids=["n2-hexagonal", "n3", "n4"],
)
def test_collocation_matches_pointwise_oracle(n, lattice, A, keys, m, amplitude, nodes):
    # the vectorized collocation against a per-point assembly of the metric
    # and the Hessian: every term of the scaled Hessian must be present; the
    # torus is sampled m times along the axes the keys span, once along the rest
    model = CuspModel(n, lattice, A)
    grid = RadialGrid.make(0.2, 5.0, 200 if n == 2 else 24)
    modes = _modes_on_keys(grid, keys, amplitude)
    f = Field.from_modes(grid, modes, _spanned_shape(keys, m))
    values = geometry.monge_ampere_residual(model, f, order=2).values()
    points = list(zip(nodes, (len(grid) // 4, len(grid) // 2, 3 * len(grid) // 4)))
    ref = np.array([_pointwise_residual(model, f, modes, node, idx) for node, idx in points])
    got = np.array([values[node + (idx,)] for node, idx in points])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_functions_match_characteristic_polynomial(n):
    # e_k from the principal-minor recursion against (-1)^k times the
    # coefficients of the polynomial whose roots are the eigvalsh eigenvalues,
    # relative to e_k's scale binom(n, k) |s|^k; the upper-triangle entries
    # are drawn real, complex or exactly zero (`_ZERO`, the diagonal real or
    # zero); the first trial is diagonal, the second all complex
    rng = np.random.default_rng(n)
    for trial in range(10):
        kinds = [np.eye(n, dtype=int), np.full((n, n), 2), rng.integers(0, 3, size=(n, n))][min(trial, 2)]
        s = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
        s = s + np.conj(np.swapaxes(s, -1, -2))
        hessian = {}
        for j in range(n):
            for k in range(j, n):
                kind = min(kinds[j, k], 1) if j == k else kinds[j, k]
                entry = [np.zeros(64), s[:, j, k].real.copy(), s[:, j, k].copy()][kind]
                s[:, j, k], s[:, k, j] = entry, np.conj(entry)
                hessian[j, k] = geometry._ZERO if kind == 0 else entry
        lam = np.linalg.eigvalsh(s)
        ref = np.array([np.poly(row) for row in lam]) * (-1.0) ** np.arange(n + 1)
        norm = np.max(np.abs(lam), axis=-1)
        for k, ek in enumerate(geometry._symmetric_functions(hessian, n), 1):
            ek = np.broadcast_to(ek, (64,))
            assert np.isrealobj(ek)
            assert np.all(np.abs(ek - ref[:, k]) <= 1e-12 * math.comb(n, k) * norm**k), (trial, k)


@pytest.mark.parametrize("n, torus", [(2, (8, 8)), (3, (4, 4, 4, 4)), (4, (4, 4, 4, 4, 1, 1))], ids=["n2", "n3", "n4"])
def test_positivity_guard_matches_eigvalsh(n, torus, monkeypatch):
    # Hermitian matrices s whose smallest eigenvalue sits a factor 1 -+ 1e-3
    # from the floor 1e-10 tr(s)/n, handed to the guard as the Hessian
    # h = s - I in the orthonormal frame of the model metric: its decision
    # is that of eigvalsh on s
    model = CuspModel(n, np.eye(2 * n - 2), np.eye(n - 1))
    grid = RadialGrid.make(0.2, 5.0, 16)
    shape = torus + (len(grid),)
    rng = np.random.default_rng(7)
    unitary, _ = np.linalg.qr(rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n)))
    rest = rng.uniform(0.5, 2.0, size=shape + (n - 1,))
    factor = np.where(rng.random(shape) < 0.5, 1 - 1e-3, 1 + 1e-3)
    factor[(0,) * len(torus)] = 1 + 1e-3  # the outermost node's first torus point is not degenerate
    low = factor * 1e-10 * rest.sum(-1) / (n - factor * 1e-10)  # low = factor 1e-10 tr/n
    lam = np.concatenate([low[..., None], rest], axis=-1)
    s = np.einsum("...ij,...j,...kj->...ik", unitary, lam, unitary.conj())
    reference = np.linalg.eigvalsh(s)[..., 0] <= 1e-10 * np.trace(s, axis1=-2, axis2=-1).real / n
    assert np.array_equal(reference, factor < 1)
    h = s - np.eye(n)
    hessian = {(j, k): h[..., j, k].real if j == k else h[..., j, k] for j in range(n) for k in range(j, n)}
    e = geometry._symmetric_functions(hessian, n)
    assert np.array_equal(geometry._degenerate(e, n), reference)
    # two negative eigenvalues leave the determinant positive: only the
    # e_k below order n see them, and every point fails
    two = lam.copy()
    two[..., :2] = -rng.uniform(0.1, 0.5, size=shape + (2,))
    s2 = np.einsum("...ij,...j,...kj->...ik", unitary, two, unitary.conj())
    assert np.all(np.linalg.det(s2).real > 0)
    h2 = s2 - np.eye(n)
    pair = {(j, k): h2[..., j, k].real if j == k else h2[..., j, k] for j in range(n) for k in range(j, n)}
    assert geometry._degenerate(geometry._symmetric_functions(pair, n), n).all()
    # the error names the outermost degenerate node, the first torus point
    # there and the smallest eigenvalue of I + h, that of s, for slabs of one
    # node and one slab for the whole grid alike
    slab = lambda sl: (0.0, {jk: v[..., sl] for jk, v in hessian.items()})  # noqa: E731
    monkeypatch.setattr(geometry, "_chart_hessian", lambda *args: slab)
    r, *where = np.unravel_index(np.argmax(np.moveaxis(reference, -1, 0)), (len(grid),) + torus)
    for block in (64, 2**21):
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", block)
        with pytest.raises(MetricDegenerateError) as info:
            geometry._ma_values(model, Field.zero(grid, torus), 2)
        assert info.value.where == tuple(int(i) for i in where)
        assert info.value.x == grid.x[r]
        assert info.value.eigmin == pytest.approx(low[(*where, r)], abs=1e-14)


@pytest.mark.parametrize(
    "n, lattice, A, keys, m, nodes",
    [
        (2, np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]), np.array([[1.3]]), [(1, 0), (0, 1), (1, 1)], 16, 60),
        (2, np.eye(2), np.array([[1.0]]), [(1, 0), (3, 0)], 16, 600),
        (3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]), [(1, 0, 0, 0), (0, 0, 1, 1)], 4, 24),
        (4, np.eye(6), A4, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1)], 4, 24),
    ],
    ids=["n2-hexagonal", "n2-square-real-axis", "n3", "n4"],
)
def test_slabs_leave_collocation_bit_identical(n, lattice, A, keys, m, nodes, monkeypatch):
    # transforms and pointwise algebra run in radial slabs of _BLOCK_POINTS
    # points: slabs of one node and one slab for the whole grid give M and Q
    # bit for bit (the real axis has real mixed entries, the others complex)
    model = CuspModel(n, lattice, A)
    grid = RadialGrid.make(0.2, 5.0, nodes)
    f = Field.from_modes(grid, _modes_on_keys(grid, keys, 1e-3), _spanned_shape(keys, m))
    values = []
    for block in (16, 2**21):
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", block)
        values.append(geometry._ma_values(model, f, 4))
    (m1, q1), (m2, q2) = values
    assert np.array_equal(m1, m2) and np.array_equal(q1, q2)
    assert geometry._ma_values(model, f, 4, remainder=False)[1] is None


def test_n3_remainder_matches_extended_precision():
    # Q = log det(I + g^{-1} h) - tr(g^{-1} h) at collocation points against
    # 40 digits from the pointwise metric and Hessian; |g^{-1} h| reaches
    # 1e-3 here, where log(1 + w) - w loses digits if taken directly.  Every
    # row has A != I, so the Cholesky factor of A in the orthonormal frame
    # enters every z' entry; the torus is sampled along the axes the keys span
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rows = [
        (2, np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]), np.array([[1.3]]), [(1, 0), (0, 1), (1, 1)], 16),
        (3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)], 8),
        (4, np.eye(6), A4, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)], 8),
    ]
    for n, lattice, A, keys, m in rows:
        model = CuspModel(n, lattice, A)
        grid = RadialGrid.make(0.2, 5.0, 24)
        shape = _spanned_shape(keys, m)
        f = Field.from_modes(grid, _modes_on_keys(grid, keys, 1e-3), shape)
        _, q = geometry._ma_values(model, f, 2)
        rng = np.random.default_rng(1)
        for _ in range(12):
            draw = rng.integers(0, m, 2 * n - 2)
            node, idx = tuple(int(i) % s for i, s in zip(draw, shape)), int(rng.integers(1, len(grid) - 1))
            v = model.lattice @ (np.array(node) / m)
            p = CuspPoint(v[: n - 1] + 1j * v[n - 1 :], x=grid.x[idx])
            g = mpmath.matrix(geometry.metric_coefficients(model, p).tolist())
            h = mpmath.matrix(geometry.holomorphic_hessian(model, f, p).tolist())
            b = mpmath.inverse(g) * h
            ref = mpmath.re(mpmath.log(mpmath.det(mpmath.eye(n) + b)) - sum(b[j, j] for j in range(n)))
            assert abs(float((q[node + (idx,)] - ref) / ref)) < 1e-13, (n, node, idx)
