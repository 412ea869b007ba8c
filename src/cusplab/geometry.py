"""Calabi model metric, coordinate-change calculus, and the Monge-Ampere
operator for circle-invariant fields.

Metric coefficients in a holomorphic chart (z', z_n):

    g_{j kbar} = (n+1) [ -x phi_{j kbar}
                         + x^2 (phi_j - delta_{jn}/z_n)(phi_kbar - delta_{kn}/zbar_n) ].

The fiber coordinate never appears in circle-invariant quantities: scaling
the n-th row by z_n and the n-th column by zbar_n produces matrices that
depend on (z', x) only, and volume ratios are computed from those.

The chart substitution for derivatives of circle-invariant fields is

    d/dz_a   -> d/dz_a - x^2 phi_a d/dx,
    d/dz_n   -> (x^2 / z_n) d/dx        (theta terms drop),

applied twice, keeping track of the z_n-dependence of first-derivative
outputs.  The resulting Hessian entries, with the z_n factors scaled away,
are assembled pointwise on the collocation grid.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BoundaryStencilError,
    ConfigError,
    MetricDegenerateError,
)
from .fields import Field, mode_indices, real_values, torus_points
from .grid import RadialGrid
from .model import CuspModel, CuspPoint
from .spectrum import mode_covector, mode_eigenvalue

_HERM_RTOL = 1e-12


class HermitianForm:
    """An n x n Hermitian matrix of coefficients in the holomorphic frame."""

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        scale = np.max(np.abs(entries)) + 1e-300
        if np.max(np.abs(entries - entries.conj().T)) > _HERM_RTOL * scale:
            raise ConfigError("entries are not Hermitian")
        self.entries = entries


def _check_point(model: CuspModel, p: CuspPoint):
    if not 0 < p.x < 1:
        raise ConfigError(f"metric evaluation needs 0 < x < 1, got x={p.x}")
    if len(p.z_prime) != model.d:
        raise ConfigError("point dimension does not match model")


def metric_coefficients(model: CuspModel, p: CuspPoint) -> HermitianForm:
    """Metric g_{j kbar} in the holomorphic frame at p."""
    _check_point(model, p)
    n, d, x = model.n, model.d, p.x
    pa = model.phi_grad(p.z_prime)
    r = model.radius_from_x(p.z_prime, x)
    zn = r * np.exp(1j * p.theta)
    g = np.zeros((n, n), dtype=complex)
    g[:d, :d] = (n + 1) * (x * model.A + x**2 * np.outer(pa, pa.conj()))
    g[:d, d] = -(n + 1) * x**2 * pa / zn.conj()
    g[d, :d] = g[:d, d].conj()
    g[d, d] = (n + 1) * x**2 / r**2
    return HermitianForm(g)


def inverse_metric(model: CuspModel, p: CuspPoint) -> HermitianForm:
    """Closed-form inverse of the metric tensor at p.

    Top block A^{-1}/((n+1)x), mixed entries (A^{-1} phi_grad) z_n/((n+1)x),
    fiber entry r^2 (1 - Q x)/((n+1) x^2) with Q = -<A^{-1} phi_grad, phi_grad>.
    """
    _check_point(model, p)
    n, d, x = model.n, model.d, p.x
    pa = model.phi_grad(p.z_prime)
    r = model.radius_from_x(p.z_prime, x)
    zn = r * np.exp(1j * p.theta)
    Ainv = model.A_inv
    q = -float(np.real(pa.conj() @ (Ainv @ pa)))
    ginv = np.zeros((n, n), dtype=complex)
    ginv[:d, :d] = Ainv / ((n + 1) * x)
    ginv[:d, d] = (Ainv @ pa) * zn / ((n + 1) * x)
    ginv[d, :d] = ginv[:d, d].conj()
    ginv[d, d] = r**2 * (1.0 - q * x) / ((n + 1) * x**2)
    return HermitianForm(ginv)


def cross_section_metric(model: CuspModel, eps: float, p: CuspPoint) -> np.ndarray:
    """Rescaled induced metric on the level set {x = eps^2} in the real
    chart (x_a, y_a, theta); symmetric positive definite, theta-theta entry
    2 eps^2."""
    if not 0 < eps < 1:
        raise ConfigError(f"need 0 < eps < 1, got eps={eps}")
    d = model.d
    S = model.A_real
    T = model.A_imag
    phi_x, phi_y = model.phi_real_gradients(p.z_prime)
    e2 = eps**2
    m = np.zeros((2 * d + 1, 2 * d + 1))
    m[:d, :d] = 2.0 * S + 0.5 * e2 * np.outer(phi_y, phi_y)
    m[:d, d : 2 * d] = 2.0 * T - 0.5 * e2 * np.outer(phi_y, phi_x)
    m[d : 2 * d, :d] = -2.0 * T - 0.5 * e2 * np.outer(phi_x, phi_y)
    m[d : 2 * d, d : 2 * d] = 2.0 * S + 0.5 * e2 * np.outer(phi_x, phi_x)
    m[:d, 2 * d] = e2 * phi_y
    m[d : 2 * d, 2 * d] = -e2 * phi_x
    m[2 * d, :d] = e2 * phi_y
    m[2 * d, d : 2 * d] = -e2 * phi_x
    m[2 * d, 2 * d] = 2.0 * e2
    return m


def _log1p_minus(w: np.ndarray) -> np.ndarray:
    """log(1 + w) - w, accurate for small w."""
    w = np.asarray(w, dtype=float)
    series = w * w * (-0.5 + w * (1.0 / 3.0 + w * (-0.25 + 0.2 * w)))
    return np.where(np.abs(w) < 1e-4, series, np.log1p(w) - w)


def _mode_derivatives(grid: RadialGrid, coeffs: np.ndarray, k: np.ndarray, order: int):
    """(rows, k, profiles, f_x, f_xx) of the nonzero coefficient rows of
    `coeffs` (torus axes first, last axis radial): their flat torus indices,
    their integer modes (read from `k`, the mode index array of the same
    torus shape), their profiles and their radial derivatives.  Zero rows
    have zero derivatives, so they are skipped."""
    flat = coeffs.reshape(-1, len(grid))
    rows = np.flatnonzero(np.any(flat != 0, axis=-1))
    prof = flat[rows]
    px, pxx = grid.deriv_x(prof, order)
    return rows, k.reshape(-1, k.shape[-1])[rows], prof, px, pxx


def _chart_values(model: CuspModel, f: Field, order: int):
    """Collocation values of f and of the chart derivatives entering the
    Hessian, each a real field: (f, f_x, f_xx, fax, fab) with fax the real
    and imaginary parts of f_{a x}, shape (2, d) + values, and fab those of
    f_{a bbar}, shape (2, d, d) + values (its imaginary part vanishes on the
    diagonal, where it is left zero).

    A coefficient weight w(k) applied to a real field keeps it real when w
    is real and even in k or imaginary and odd; the mode covector c(k) is
    odd, so the weights i pi Re c_a, i pi Im c_a and -pi^2 Re, Im of
    c_a conj(c_b) all do.  Each field is then one `fields.real_values` call
    on the weighted half spectrum.
    """
    torus, nn, d = f.torus_shape, len(f.grid), model.d
    rows, k, prof, px, pxx = _mode_derivatives(f.grid, f.coeffs, mode_indices(torus), order)
    c = mode_covector(model, k).T[:, :, None]  # (d, rows, 1)
    shape = torus + (nn,)

    def real_field(row_values, out=None):
        """Values of the real field whose stored rows `rows` hold
        row_values (all other coefficients zero)."""
        hat = np.zeros_like(f.coeffs)
        hat.reshape(-1, nn)[rows] = row_values
        return real_values(hat, torus, out=out)

    fax = np.empty((2, d) + shape)
    fab = np.zeros((2, d, d) + shape)
    for a in range(d):
        real_field(1j * np.pi * c[a].real * px, out=fax[0, a])
        real_field(1j * np.pi * c[a].imag * px, out=fax[1, a])
        for b in range(d):
            w = -np.pi**2 * c[a] * c[b].conj()
            real_field(w.real * prof, out=fab[0, a, b])
            if b != a:
                real_field(w.imag * prof, out=fab[1, a, b])
    return real_field(prof), real_field(px), real_field(pxx), fax, fab


class Collocation:
    """What Monge-Ampere collocation on (model, grid, torus shape) needs
    that does not depend on the field; `modes.picard_solve` builds one per
    solve, on the torus shape its boundary data spans, and passes it to
    `quadratic_remainder` and `monge_ampere_residual`.

    The scaled metric G at the collocation points: its n-th row and column
    carry their z_n factors scaled away (positivity and determinant ratios
    are invariant under that congruence), leading axes torus + (N,).  For
    n = 2 it is kept as scalars: g00 = 3 (x A + x^2 |phi_a|^2), g11 = 3 x^2
    and g01 = -3 x^2 phi_a, with det g = 9 A x^3 independent of z'.  For
    n >= 3 it is kept as matrices G (matrix axes last) together with the
    inverse L^{-1} of its Cholesky factor, G = L L^H.
    """

    def __init__(self, model: CuspModel, grid: RadialGrid, shape: tuple):
        self.model, self.grid, self.shape = model, grid, tuple(shape)
        n, d = model.n, model.d
        pa = model.phi_grad(torus_points(model.lattice, self.shape))[..., None, :]  # torus + (1, d)
        self.pa = pa
        x = grid.x
        if n == 2:
            self.a = float(model.A[0, 0].real)  # the 1 x 1 weight A
            self.pa2 = np.abs(pa[..., 0]) ** 2
            self.g00 = 3.0 * (x * self.a + x**2 * self.pa2)
            self.g11 = 3.0 * x**2
            self.detg = 9.0 * self.a * x**3
            return
        x = x[:, None, None]
        G = np.empty(pa.shape[:-2] + (len(grid), n, n), dtype=complex)
        G[..., :d, :d] = (n + 1) * (x * model.A + x**2 * pa[..., :, None] * pa[..., None, :].conj())
        G[..., :d, d] = -(n + 1) * x[..., 0] ** 2 * pa
        G[..., d, :d] = G[..., :d, d].conj()
        G[..., d, d] = (n + 1) * grid.x**2
        self.G = G
        self.linv = np.linalg.inv(np.linalg.cholesky(G))

    def check(self, model: CuspModel, f: Field):
        """Raise ConfigError unless f lives on this model, grid and torus
        shape."""
        same_grid = f.grid is self.grid or np.array_equal(f.grid.s, self.grid.s)
        if model is not self.model or not same_grid or f.torus_shape != self.shape:
            raise ConfigError("collocation geometry was built for another model, grid or torus shape")


def _positivity_guard(grid: RadialGrid, eigmin: np.ndarray, tr: np.ndarray, n: int):
    """Smallest eigenvalue of the perturbed metric must clear the relative
    floor 1e-10 tr/n; reports the offending point otherwise."""
    bad = eigmin <= 1e-10 * tr / n
    if np.any(bad):
        flat = np.argmax(bad)
        idx = np.unravel_index(flat, bad.shape)
        raise MetricDegenerateError(grid.x[idx[-1]], idx[:-1], float(eigmin[idx]))


def _ma_values(model: CuspModel, f: Field, order: int, colloc: Collocation | None = None):
    """(M values, Q values) of the Monge-Ampere operator at collocation
    points: M = log det(g + Hess f)/det g - f and its quadratic remainder
    Q = M - L.  The Hessian H is assembled in the scaled frame of
    `Collocation`; a missing `colloc` is built on the spot."""
    if colloc is None:
        colloc = Collocation(model, f.grid, f.torus_shape)
    colloc.check(model, f)
    fv, fx, fxx, fax, fab = _chart_values(model, f, order)
    x = f.grid.x
    x2 = x**2
    fiber = 2.0 * x**3 * fx + x**4 * fxx
    if model.n == 2:
        p_re, p_im = colloc.pa[..., 0].real, colloc.pa[..., 0].imag
        g00, g11, detg = colloc.g00, colloc.g11, colloc.detg
        h00 = fab[0, 0, 0] + x2 * colloc.a * fx - 2.0 * x2 * (p_re * fax[0, 0] + p_im * fax[1, 0])
        h00 += fiber * colloc.pa2
        h01_re = x2 * fax[0, 0] - p_re * fiber
        h01_im = x2 * fax[1, 0] - p_im * fiber
        h11 = fiber
        deth = h00 * h11 - (h01_re**2 + h01_im**2)
        # -2 Re(conj(g01) h01) with g01 = -3 x^2 phi_a
        cross = g00 * h11 + g11 * h00 + 6.0 * x2 * (p_re * h01_re + p_im * h01_im)
        del h01_re, h01_im
        # trace and determinant of G + H give its smaller eigenvalue
        tr = (g00 + h00) + (g11 + h11)
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * (detg + cross + deth), 0.0))
        _positivity_guard(f.grid, 0.5 * (tr - disc), tr, 2)
        del tr, disc
        tr_a = cross / detg
        det_a = deth / detg
        w = tr_a + det_a
        m_vals = np.log1p(w) - fv
        q_vals = _log1p_minus(w) + det_a
    else:
        n, d = model.n, model.d
        pa = colloc.pa
        fax = fax[0] + 1j * fax[1]
        fab = fab[0] + 1j * fab[1]
        H = np.empty(fv.shape + (n, n), dtype=complex)
        for a in range(d):
            for b in range(d):
                H[..., a, b] = (
                    fab[a, b]
                    + x2 * model.A[a, b] * fx
                    - x2 * (pa[..., b].conj() * fax[a] + pa[..., a] * fax[b].conj())
                    + fiber * pa[..., a] * pa[..., b].conj()
                )
            H[..., a, d] = x2 * fax[a] - pa[..., a] * fiber
            H[..., d, a] = H[..., a, d].conj()
        H[..., d, d] = fiber
        del fax, fab
        total = colloc.G + H
        tr = np.real(np.trace(total, axis1=-2, axis2=-1))
        _positivity_guard(f.grid, np.linalg.eigvalsh(total)[..., 0], tr, n)
        del total  # released before the congruence, which sets the peak memory
        # B = L^{-1} H L^{-H} = L^{-1} (L^{-1} H)^H, since H is Hermitian
        B = np.matmul(colloc.linv, H)
        del H
        np.conjugate(B, out=B)
        B = np.matmul(colloc.linv, B.swapaxes(-1, -2))
        eig = np.linalg.eigvalsh(B)
        m_vals = np.sum(np.log1p(eig), axis=-1) - fv
        q_vals = np.sum(_log1p_minus(eig), axis=-1)
    return m_vals, q_vals


# absolute Nyquist allowance for operator outputs: the log-determinant
# arithmetic has a roundoff floor far above the scale of a converged residual
_NYQUIST_ABS = 1e-13


def monge_ampere_residual(model: CuspModel, f: Field, order: int = 2, colloc: Collocation | None = None) -> Field:
    """M(f) = log det(g + i d dbar f)^n/det g^n - f as a Field; `colloc`
    is the solve's `Collocation` (built on the spot when omitted)."""
    m_vals, _ = _ma_values(model, f, order, colloc)
    return Field.from_values(f.grid, m_vals, nyquist_abs=_NYQUIST_ABS)


def quadratic_remainder(model: CuspModel, f: Field, order: int = 2, colloc: Collocation | None = None) -> Field:
    """Q(f) = M(f) - L(f), the nonlinear part of the operator; `colloc` as
    in `monge_ampere_residual`."""
    _, q_vals = _ma_values(model, f, order, colloc)
    return Field.from_values(f.grid, q_vals, nyquist_abs=_NYQUIST_ABS)


def linearized_apply(model: CuspModel, f: Field, order: int = 2) -> Field:
    """L(f) = (x^2 f_xx + (n+1) x f_x - (n+1) f - lambda f / x)/(n+1),
    applied mode by mode."""
    if len(f.grid) < 5:
        raise ConfigError("grid too coarse for second differences")
    n = model.n
    x = f.grid.x
    lam = mode_eigenvalue(model, mode_indices(f.torus_shape))[..., None]
    px, pxx = f.grid.deriv_x(f.coeffs, order)
    out = (x**2 * pxx + (n + 1) * x * px - (n + 1) * f.coeffs - lam * f.coeffs / x) / (n + 1)
    return Field(f.grid, out)


def holomorphic_hessian(model: CuspModel, f: Field, p: CuspPoint) -> HermitianForm:
    """Hessian f_{j kbar} of a circle-invariant field in the holomorphic
    frame at p; p.x must match an interior grid node."""
    grid = f.grid
    rel = np.abs(grid.x - p.x) / p.x
    idx = int(np.argmin(rel))
    if rel[idx] > 1e-9:
        raise ConfigError(f"x={p.x} is not a grid node")
    interior = grid.interior(order=2)
    if not (interior.start <= idx < interior.stop):
        raise BoundaryStencilError(
            f"node {idx} is an outermost grid node; one-sided stencils are not used silently"
        )
    n, d = model.n, model.d
    x = grid.x[idx]
    v = np.concatenate([p.z_prime.real, p.z_prime.imag])
    t = np.linalg.solve(model.lattice, v)
    _, k, prof, px, pxx = _mode_derivatives(grid, f.coeffs, mode_indices(f.torus_shape), 2)
    c = mode_covector(model, k)
    chi = np.exp(2j * np.pi * (k @ t))
    # a stored row with k_last > 0 stands for k and -k as well; their terms
    # are complex conjugates, and c(-k) = -c(k)
    w = np.where(k[:, -1] > 0, 2.0, 1.0)
    fx = float(np.sum(w * (px[:, idx] * chi).real))
    fxx = float(np.sum(w * (pxx[:, idx] * chi).real))
    fax = -np.pi * (w * (px[:, idx] * chi).imag) @ c
    fab = -np.pi**2 * np.einsum("r,ra,rb->ab", w * (prof[:, idx] * chi).real, c, c.conj())
    pa = model.phi_grad(p.z_prime)
    r = model.radius_from_x(p.z_prime, x)
    zn = r * np.exp(1j * p.theta)
    fiber = 2.0 * x**3 * fx + x**4 * fxx
    hess = np.zeros((n, n), dtype=complex)
    hess[:d, :d] = (
        fab
        - x**2 * model.phi_hess * fx
        - x**2 * (np.outer(fax, pa.conj()) + np.outer(pa, fax.conj()))
        + fiber * np.outer(pa, pa.conj())
    )
    hess[:d, d] = (x**2 * fax - pa * fiber) / zn.conj()
    hess[d, :d] = hess[:d, d].conj()
    hess[d, d] = fiber / r**2
    return HermitianForm(hess)
