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
outputs (`holomorphic_hessian`); collocation works in the chart frame of
(z', x) itself, before the substitution (`Collocation`).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BoundaryStencilError,
    ConfigError,
    MetricDegenerateError,
)
from .fields import Field, halved_axis, mode_indices, real_values, torus_points
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
    """log(1 + w) - w to a few ulp: for |w| < 0.1 from log(1 + w) =
    2 atanh(u), u = w/(2 + w), as -w u + 2 u^3 (1/3 + u^2/5 + ... + u^8/11),
    where -w u = 2u - w carries the cancellation exactly."""
    u = w / (2.0 + w)
    u2 = u * u
    series = u2 / 11.0 + 1.0 / 9.0
    for m in (7, 5, 3):
        series = series * u2 + 1.0 / m
    return np.where(np.abs(w) < 0.1, 2.0 * u * u2 * series - w * u, np.log1p(w) - w)


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


def _hermitian(n: int, entry) -> dict:
    """The n x n Hermitian matrix field with upper-triangle entries entry(j, k):
    a dict over j <= k, real on the diagonal, broadcasting against torus + (N,)."""
    return {(j, k): np.real(entry(j, k)) if j == k else entry(j, k) for j in range(n) for k in range(j, n)}


def _at(m: dict, j: int, k: int):
    return m[j, k] if j <= k else np.conj(m[k, j])


def _cofactors(m: dict, n: int) -> tuple:
    """(adj m, det m), n = 2 or 3: adj(m)_{jk} is (-1)^{j+k} times the minor
    without row k and column j; det m is expanded along the first row."""
    adj = {}
    for j, k in m:  # every upper-triangle entry
        (r, *r2), (c, *c2) = [i for i in range(n) if i != k], [i for i in range(n) if i != j]
        minor = _at(m, r, c)
        if r2:  # n = 3: a 2 x 2 minor
            minor = minor * _at(m, r2[0], c2[0]) - _at(m, r, c2[0]) * _at(m, r2[0], c)
        adj[j, k] = minor.real if j == k else (-1) ** (j + k) * minor
    return adj, m[0, 0] * adj[0, 0] + sum((m[0, k] * np.conj(adj[0, k])).real for k in range(1, n))


def _trace_product(a: dict, b: dict):
    """tr(a b) of two Hermitian matrix fields."""
    return sum(b[j, k] * a[j, k] if j == k else 2.0 * (b[j, k] * np.conj(a[j, k])).real for j, k in a)


def _det_expansion(g: dict, adj_g: dict, h: dict, n: int) -> list:
    """[c_1, ..., c_n], det(g + t h) = det g + c_1 t + ... + c_n t^n (n = 2, 3):
    c_k is det g times the k-th elementary symmetric function of the
    eigenvalues of g^{-1} h, c_1 = <adj g, h>, c_{n-1} = <g, adj h>, c_n = det h."""
    adj_h, det_h = _cofactors(h, n)
    middle = [_trace_product(g, adj_h)] if n == 3 else []
    return [_trace_product(adj_g, h)] + middle + [det_h]


def _chart_hessian(model: CuspModel, f: Field, order: int):
    """(values of f, its Hessian in the chart frame of `Collocation`, with
    entries f_{a bbar} + x^2 A_ab f_x, x^2 f_{a x}, 2 x^3 f_x + x^4 f_xx).

    A coefficient weight w(k) applied to a real field keeps it real when w
    is real and even in k or imaginary and odd; the mode covector c(k) is
    odd, so the real and imaginary parts of the weights -pi^2 c_a conj(c_b)
    and i pi c_a all do: each part of an entry is one `real_values` call.
    """
    torus, nn, d, x2 = f.torus_shape, len(f.grid), model.d, f.grid.x**2
    rows, k, prof, px, pxx = _mode_derivatives(f.grid, f.coeffs, mode_indices(torus), order)
    c = mode_covector(model, k).T[:, :, None]  # (d, rows, 1)

    def real_field(row_values):
        """Values of the real field whose stored rows hold row_values, zero elsewhere."""
        hat = np.zeros_like(f.coeffs)
        hat.reshape(-1, nn)[rows] = row_values
        return real_values(hat, torus)

    h = {(d, d): real_field(2.0 * x2 * f.grid.x * px + x2**2 * pxx)}
    for a in range(d):
        h[a, d] = real_field(1j * np.pi * c[a].real * x2 * px) + 1j * real_field(1j * np.pi * c[a].imag * x2 * px)
        for b in range(a, d):
            w, xa = -np.pi**2 * c[a] * c[b].conj(), x2 * model.A[a, b]
            h[a, b] = real_field(w.real * prof + xa.real * px)
            if b > a:
                h[a, b] = h[a, b] + 1j * real_field(w.imag * prof + xa.imag * px)
    return real_field(prof), h


class Collocation:
    """What Monge-Ampere collocation (n = 2, 3) on (model, grid, torus shape)
    needs that does not depend on the field; `modes.picard_solve` builds one
    per solve, on the torus shape its boundary data spans.

    A matrix m in the chart frame of (z', x) is C m C^H in the scaled frame
    (z_n factors scaled away, which keeps positivity and determinant ratios),
    C = [[I, -phi_a], [0, 1]].  Kept: the chart-frame metric g = (n+1)
    diag(x A, x^2), adj g and det g = (n+1)^n det A x^{n+1}; and, at the
    torus points, k = C^{-1} C^{-H}: det(k + t m) = det(I + t C m C^H).
    """

    def __init__(self, model: CuspModel, grid: RadialGrid, shape: tuple):
        if model.n > 3:
            raise ConfigError(f"Monge-Ampere collocation supports n = 2 and n = 3, got n = {model.n}")
        self.model, self.grid, self.shape = model, grid, tuple(shape)
        n, d, x = model.n, model.d, grid.x
        self.g = _hermitian(n, lambda i, j: (n + 1) * (x * model.A[i, j] if j < d else x**2 * (i == d)))
        self.adj, self.detg = _cofactors(self.g, n)
        pa = model.phi_grad(torus_points(model.lattice, self.shape))[..., None, :]
        v = [pa[..., a] for a in range(d)] + [1.0]  # the last column of C^{-1}
        self.k = _hermitian(n, lambda i, j: (i == j < d) + v[i] * np.conj(v[j]))
        self.k_inv, _ = _cofactors(self.k, n)

    def check(self, model: CuspModel, f: Field):
        """Raise ConfigError unless f lives on this model, grid and torus
        shape."""
        if model is not self.model or f.grid != self.grid or f.torus_shape != self.shape:
            raise ConfigError("collocation geometry was built for another model, grid or torus shape")


def _degenerate(h: dict, colloc: Collocation) -> np.ndarray:
    """Where the metric g + h, in the chart frame, has its smallest eigenvalue at
    or below f = 1e-10 tr/n: where m = g + h - f k, congruent to C (g + h) C^H - f I,
    has a leading principal minor (m_00, adj(m)_{n-1,n-1}, det m) that is not positive."""
    n = colloc.model.n
    m = {jk: v + colloc.g[jk] for jk, v in h.items()}
    floor = 1e-10 * _trace_product(colloc.k_inv, m) / n
    for jk in m:
        m[jk] = m[jk] - floor * colloc.k[jk]
    adj, det = _cofactors(m, n)
    return (m[0, 0] <= 0) | (adj[n - 1, n - 1] <= 0) | (det <= 0)


def _ma_values(model: CuspModel, f: Field, order: int, colloc: Collocation | None = None):
    """(M values, Q values) at the collocation points, from the chart-frame
    metric g of `colloc` (built on the spot when omitted) and Hessian h:
    M = log det(g + h)/det g - f and its quadratic remainder Q = M - L.  With
    e_k the elementary symmetric functions of the eigenvalues of g^{-1} h and
    w = e_1 + ... + e_n, M = log(1 + w) - f and Q = (log(1 + w) - w) + e_2 +
    ... + e_n.  Raises MetricDegenerateError at the first degenerate point."""
    if colloc is None:
        colloc = Collocation(model, f.grid, f.torus_shape)
    colloc.check(model, f)
    n = model.n
    fv, h = _chart_hessian(model, f, order)
    bad = _degenerate(h, colloc)
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        hp, gp, kp = (np.array([[np.broadcast_to(_at(m, i, j), bad.shape)[idx] for j in range(n)] for i in range(n)])
                      for m in (h, colloc.g, colloc.k))
        # imported here: only this failure report needs a generalized
        # eigenvalue solver, so no solve pays for loading scipy.linalg
        import scipy.linalg

        eigmin = scipy.linalg.eigh(gp + hp, kp, eigvals_only=True)[0]  # those of C (g + h) C^H
        raise MetricDegenerateError(f.grid.x[idx[-1]], idx[:-1], float(eigmin))
    e = [c / colloc.detg for c in _det_expansion(colloc.g, colloc.adj, h, n)]
    w = sum(e)
    return np.log1p(w) - fv, _log1p_minus(w) + sum(e[1:])


# absolute Nyquist allowance for operator outputs: the log-determinant
# arithmetic has a roundoff floor far above the scale of a converged residual
_NYQUIST_ABS = 1e-13


def monge_ampere_residual(model: CuspModel, f: Field, order: int = 2, colloc: Collocation | None = None) -> Field:
    """M(f) = log det(g + i d dbar f)^n/det g^n - f as a Field; `colloc`
    is the solve's `Collocation` (built on the spot when omitted)."""
    m_vals, _ = _ma_values(model, f, order, colloc)
    return Field.from_values(f.grid, m_vals, nyquist_abs=_NYQUIST_ABS)


def quadratic_remainder(
    model: CuspModel, f: Field, order: int = 2, colloc: Collocation | None = None, with_residual: bool = False
):
    """Q(f) = M(f) - L(f), the nonlinear part of the operator; `colloc` as
    in `monge_ampere_residual`.  With `with_residual`, returns (Q, the sup
    of |M(f)| over the collocation values at interior radial nodes), both
    from one collocation."""
    m_vals, q_vals = _ma_values(model, f, order, colloc)
    q = Field.from_values(f.grid, q_vals, nyquist_abs=_NYQUIST_ABS)
    if with_residual:
        return q, float(np.max(np.abs(m_vals[..., f.grid.interior(order)])))
    return q


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
    # a stored row with k_j > 0 on the halved axis stands for k and -k as
    # well; their terms are complex conjugates, and c(-k) = -c(k)
    w = np.where(k[:, halved_axis(f.torus_shape)] > 0, 2.0, 1.0)
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
