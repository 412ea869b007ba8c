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
from .fields import Field, mode_indices, torus_points
from .grid import RadialGrid
from .model import CuspModel, CuspPoint
from .spectrum import mode_covector, mode_eigenvalue

_HERM_RTOL = 1e-12


class HermitianForm:
    """An n x n Hermitian matrix of coefficients in a tagged frame."""

    def __init__(self, entries: np.ndarray, frame: str):
        entries = np.asarray(entries, dtype=complex)
        scale = np.max(np.abs(entries)) + 1e-300
        if np.max(np.abs(entries - entries.conj().T)) > _HERM_RTOL * scale:
            raise ConfigError("entries are not Hermitian")
        self.entries = entries
        self.frame = frame

    def __repr__(self):
        return f"HermitianForm(frame={self.frame!r}, n={self.entries.shape[0]})"


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
    return HermitianForm(g, frame="holomorphic")


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
    return HermitianForm(ginv, frame="holomorphic")


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


def normal_and_mean_curvature(model: CuspModel, eps: float):
    """Unit-normal coefficient of r d/dr on {x = eps^2} and the mean
    curvature of that level set (the latter independent of eps)."""
    if eps <= 0:
        raise ConfigError(f"need eps > 0, got {eps}")
    n = model.n
    root = np.sqrt(2.0 * (n + 1))
    return -1.0 / (eps**2 * root), -n / root


def _log1p_minus(w: np.ndarray) -> np.ndarray:
    """log(1 + w) - w, accurate for small w."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-4
    ws = w[small]
    out[small] = ws * ws * (-0.5 + ws * (1.0 / 3.0 + ws * (-0.25 + 0.2 * ws)))
    out[~small] = np.log1p(w[~small]) - w[~small]
    return out


def _mode_derivatives(f: Field, order: int):
    """(rows, k, f_x, f_xx): flat torus indices of the nonzero coefficient
    rows of f, the integer mode of each of those rows, and their radial
    derivatives (zero rows have zero derivatives, so they are skipped)."""
    m, dims = f.torus_resolution, f.torus_dims
    flat = f.coeffs.reshape(m**dims, len(f.grid))
    rows = np.flatnonzero(np.any(flat != 0, axis=-1))
    px, pxx = f.grid.deriv_x(flat[rows], order)
    return rows, mode_indices(m, dims).reshape(-1, dims)[rows], px, pxx


def _chart_values(model: CuspModel, f: Field, order: int):
    """Collocation values of f and the chart derivatives entering the
    Hessian: f, f_x, f_xx, f_{a x}, f_{a bbar}."""
    m = f.torus_resolution
    dims = f.torus_dims
    rows, k, px, pxx = _mode_derivatives(f, order)
    prof = f.coeffs.reshape(m**dims, -1)[rows]
    ca = mode_covector(model, k).T[:, :, None]  # (d, rows, 1)
    axes = tuple(range(-dims - 1, -1))

    def _ifft(row_values):
        """Collocation values of coefficients given on `rows` only."""
        hat = np.zeros(row_values.shape[:-2] + (m**dims, len(f.grid)), dtype=complex)
        hat[..., rows, :] = row_values
        return np.fft.ifftn(hat.reshape(hat.shape[:-2] + f.coeffs.shape), axes=axes) * m**dims

    return {
        "f": _ifft(prof).real,
        "fx": _ifft(px).real,
        "fxx": _ifft(pxx).real,
        "fax": _ifft(1j * np.pi * ca * px),
        "fab": _ifft(-np.pi**2 * ca[:, None] * ca[None].conj() * prof),
    }


def _tilde_matrices(model: CuspModel, grid: RadialGrid, m: int, ch):
    """Scaled metric and Hessian matrices G, H at collocation points.

    The n-th row/column carry their z_n factors scaled away; positivity and
    determinant ratios are invariant under that congruence.  Returned with
    matrix axes last: shape torus + (N, n, n).
    """
    n, d = model.n, model.d
    x = grid.x
    zp = torus_points(model.lattice, m)
    pa = model.phi_grad(zp)
    pa_pt = pa[..., None, :]
    shape = ch["f"].shape
    G = np.zeros(shape + (n, n), dtype=complex)
    H = np.zeros(shape + (n, n), dtype=complex)
    x2 = x**2
    fiber = 2.0 * x**3 * ch["fx"] + x**4 * ch["fxx"]
    for a in range(d):
        for b in range(d):
            G[..., a, b] = (n + 1) * (
                x * model.A[a, b] + x2 * pa_pt[..., a] * pa_pt[..., b].conj()
            )
            H[..., a, b] = (
                ch["fab"][a, b]
                + x2 * model.A[a, b] * ch["fx"]
                - x2
                * (
                    pa_pt[..., b].conj() * ch["fax"][a]
                    + pa_pt[..., a] * ch["fax"][b].conj()
                )
                + fiber * pa_pt[..., a] * pa_pt[..., b].conj()
            )
        G[..., a, d] = -(n + 1) * x2 * pa_pt[..., a]
        G[..., d, a] = G[..., a, d].conj()
        H[..., a, d] = x2 * ch["fax"][a] - pa_pt[..., a] * fiber
        H[..., d, a] = H[..., a, d].conj()
    G[..., d, d] = (n + 1) * x2
    H[..., d, d] = fiber
    return G, H


def _positivity_guard(grid: RadialGrid, eigmin: np.ndarray, tr: np.ndarray, n: int):
    """Smallest eigenvalue of the perturbed metric must clear the relative
    floor 1e-10 tr/n; reports the offending point otherwise."""
    bad = eigmin <= 1e-10 * tr / n
    if np.any(bad):
        flat = np.argmax(bad)
        idx = np.unravel_index(flat, bad.shape)
        raise MetricDegenerateError(grid.x[idx[-1]], idx[:-1], float(eigmin[idx]))


def _ma_values(model: CuspModel, f: Field, order: int):
    """(M values, Q values) of the Monge-Ampere operator at collocation
    points: M = log det(g + Hess f)/det g - f and its quadratic remainder
    Q = M - L."""
    ch = _chart_values(model, f, order)
    G, H = _tilde_matrices(model, f.grid, f.torus_resolution, ch)
    if model.n == 2:
        g00 = np.real(G[..., 0, 0])
        g11 = np.real(G[..., 1, 1])
        g01 = G[..., 0, 1]
        detg = g00 * g11 - np.abs(g01) ** 2
        h00 = np.real(H[..., 0, 0])
        h11 = np.real(H[..., 1, 1])
        h01 = H[..., 0, 1]
        deth = h00 * h11 - np.abs(h01) ** 2
        cross = g00 * h11 + g11 * h00 - 2.0 * np.real(g01.conj() * h01)
        # trace and determinant of G + H give its smaller eigenvalue
        tr = (g00 + h00) + (g11 + h11)
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * (detg + cross + deth), 0.0))
        _positivity_guard(f.grid, 0.5 * (tr - disc), tr, 2)
        tr_a = cross / detg
        det_a = deth / detg
        w = tr_a + det_a
        m_vals = np.log1p(w) - ch["f"]
        q_vals = _log1p_minus(w) + det_a
    else:
        total = G + H
        tr = np.real(np.trace(total, axis1=-2, axis2=-1))
        _positivity_guard(f.grid, np.linalg.eigvalsh(total)[..., 0], tr, model.n)
        del total  # released before the factorization, which sets the peak memory
        L = np.linalg.cholesky(G)
        B = np.linalg.solve(L, H)
        B = np.linalg.solve(L, B.conj().swapaxes(-1, -2))
        eig = np.linalg.eigvalsh(B)
        m_vals = np.sum(np.log1p(eig), axis=-1) - ch["f"]
        q_vals = np.sum(_log1p_minus(eig), axis=-1)
    return m_vals, q_vals


# absolute Nyquist allowance for operator outputs: the log-determinant
# arithmetic has a roundoff floor far above the scale of a converged residual
_NYQUIST_ABS = 1e-13


def monge_ampere_residual(model: CuspModel, f: Field, order: int = 2) -> Field:
    """M(f) = log det(g + i d dbar f)^n/det g^n - f as a Field."""
    m_vals, _ = _ma_values(model, f, order)
    return Field.from_values(f.grid, m_vals, nyquist_abs=_NYQUIST_ABS)


def quadratic_remainder(model: CuspModel, f: Field, order: int = 2) -> Field:
    """Q(f) = M(f) - L(f), the nonlinear part of the operator."""
    _, q_vals = _ma_values(model, f, order)
    return Field.from_values(f.grid, q_vals, nyquist_abs=_NYQUIST_ABS)


def linearized_apply(model: CuspModel, f: Field, order: int = 2) -> Field:
    """L(f) = (x^2 f_xx + (n+1) x f_x - (n+1) f - lambda f / x)/(n+1),
    applied mode by mode."""
    if len(f.grid) < 5:
        raise ConfigError("grid too coarse for second differences")
    n = model.n
    x = f.grid.x
    lam = mode_eigenvalue(model, mode_indices(f.torus_resolution, f.torus_dims))[..., None]
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
    rows, k, px, pxx = _mode_derivatives(f, order=2)
    c = mode_covector(model, k)
    chi = np.exp(2j * np.pi * (k @ t))
    prof = f.coeffs.reshape(-1, len(grid))[rows, idx]
    fx = float(np.sum(px[:, idx] * chi).real)
    fxx = float(np.sum(pxx[:, idx] * chi).real)
    fax = 1j * np.pi * (px[:, idx] * chi) @ c
    fab = -np.pi**2 * np.einsum("r,ra,rb->ab", prof * chi, c, c.conj())
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
    return HermitianForm(hess, frame="holomorphic")
