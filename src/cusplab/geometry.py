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
outputs (`holomorphic_hessian`).  The Hessian is collocated in an
orthonormal frame of the model metric (`_chart_hessian`), so volume ratios
and positivity read that Hessian alone.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import BoundaryStencilError, ConfigError, MetricDegenerateError, NumericalError
from .fields import Field, halved_axis, mode_indices, real_values
from .grid import RadialGrid
from .model import CuspModel, CuspPoint
from .spectrum import mode_covector, mode_eigenvalue

# collocation points per radial slab of `_ma_values`: a slab's temporaries stay in L2 cache
_BLOCK_POINTS = 2**13


def _check_point(model: CuspModel, p: CuspPoint):
    if not 0 < p.x < 1:
        raise ConfigError(f"metric evaluation needs 0 < x < 1, got x={p.x}")
    if len(p.z_prime) != model.d:
        raise ConfigError("point dimension does not match model")


def metric_coefficients(model: CuspModel, p: CuspPoint) -> np.ndarray:
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
    return g


def inverse_metric(model: CuspModel, p: CuspPoint) -> np.ndarray:
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
    return ginv


def cross_section_metric(model: CuspModel, eps: float, p: CuspPoint) -> np.ndarray:
    """Rescaled induced metric on the level set {x = eps^2} in the real
    chart (x_a, y_a, theta); symmetric positive definite, theta-theta entry
    2 eps^2."""
    if not 0 < eps < 1:
        raise ConfigError(f"need 0 < eps < 1, got eps={eps}")
    d = model.d
    S, T = model.A.real, model.A.imag
    pa = model.phi_grad(p.z_prime)  # phi_a = (phi_x - i phi_y)/2 in the real chart z'_a = x_a + i y_a
    phi_x, phi_y = 2.0 * pa.real, -2.0 * pa.imag
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
    series, small = 2.0 * u * u2 * series - w * u, np.abs(w) < 0.1
    return series if small.all() else np.where(small, series, np.log1p(w) - w)


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


class _Zero:
    """An exactly zero matrix entry: sums skip it, products are it (a +-0 term changes no nonzero result)."""

    __array_ufunc__ = None  # an ndarray operand defers to the reflected operators
    conj = conjugate = __neg__ = __mul__ = __rmul__ = lambda self, *_: self
    real = property(conj)
    __add__ = __radd__ = __rsub__ = lambda self, other: other
    __sub__ = lambda self, other: -other


_ZERO = _Zero()


def _minor(m: dict, rows: tuple, cols: tuple):
    """Determinant of the rows x cols submatrix of a Hermitian matrix field m (upper triangle) by Laplace
    expansion along its first row, each minor taken as the conjugate of its transpose (the minor on cols x
    rows); real where rows == cols."""
    at = lambda j, k: m[j, k] if j <= k else m[k, j].conjugate()  # noqa: E731
    if len(rows) == 1:
        return at(rows[0], cols[0])
    terms = [at(rows[0], c) * _minor(m, cols[:i] + cols[i + 1 :], rows[1:]).conjugate() for i, c in enumerate(cols)]
    value = terms[0] + sum((-t if i % 2 else t for i, t in enumerate(terms) if i), _ZERO)
    return value.real if rows == cols else value


def _symmetric_functions(m: dict, n: int) -> list:
    """[e_1, ..., e_n] of the eigenvalues of a Hermitian matrix field m (upper triangle): e_k is the sum of its
    principal k x k minors, e_1 = tr m in index order, the others in the order of the indices they leave out."""
    kept = lambda k: (tuple(i for i in range(n) if i not in out) for out in combinations(range(n), n - k))  # noqa: E731
    return [sum(m[j, j] for j in range(n))] + [sum(_minor(m, s, s) for s in kept(k)) for k in range(2, n + 1)]


def _chart_hessian(model: CuspModel, f: Field, order: int):
    """A function of a radial slice giving (values of f, its Hessian h in an
    orthonormal frame of the model metric) at those nodes' collocation
    points; an entry of h is real or _ZERO where its imaginary part or all
    of it vanish.  With A = L L^H and c~ = L^-1 c(k), the frame takes the
    chart metric (n+1) diag(x A, x^2) of (z', x) to I, and h has entries
    (-pi^2 c~_a conj(c~_b) f + x^2 delta_ab f_x)/((n+1) x), i pi c~_a f_x/((n+1) s)
    (sqrt(x) = 1/s) and (2 x f_x + x^2 f_xx)/(n+1).  A weight w(k) keeps a
    real field real when w is real and even in k or imaginary and odd; c~(k)
    is odd, so each part of -pi^2 c~_a conj(c~_b) and i pi c~_a gives a real
    field, and the parts whose rows are not all zero take one `real_values`."""
    torus, n, d, grid = f.torus_shape, model.n, model.d, f.grid
    rows, k, prof, px, pxx = _mode_derivatives(grid, f.coeffs, mode_indices(torus), order)
    c = np.linalg.solve(np.linalg.cholesky(model.A), mode_covector(model, k).T)[:, :, None]  # (d, rows, 1)

    def slab(sl: slice):
        xs, p0, p1, p2 = grid.x[sl], prof[:, sl], px[:, sl], pxx[:, sl]
        p0x, p1x, p1s = p0 / ((n + 1) * xs), xs * p1 / (n + 1), p1 / ((n + 1) * grid.s[sl])
        parts = {("f",): p0, (d, d, 0): (2.0 * xs * p1 + xs**2 * p2) / (n + 1)}  # (j, k, 0 or 1): real or imaginary part
        for a in range(d):
            parts[a, d, 0], parts[a, d, 1] = (1j * np.pi * ca * p1s for ca in (c[a].real, c[a].imag))
            for b in range(a, d):
                w = -np.pi**2 * c[a] * c[b].conj()
                parts[a, b, 0] = w.real * p0x + p1x if b == a else w.real * p0x
                if b > a:
                    parts[a, b, 1] = w.imag * p0x
        live = [key for key, v in parts.items() if v.any()]
        hat = np.zeros((len(live),) + f.coeffs.shape[:-1] + (len(xs),), dtype=complex)
        for stacked, key in zip(hat, live):
            stacked.reshape(-1, len(xs))[rows] = parts[key]
        vals = dict(zip(live, real_values(hat, torus)))
        part = lambda *key: vals.get(key, _ZERO)  # noqa: E731
        return part("f"), {(i, j): part(i, j, 0) + 1j * part(i, j, 1) for i in range(d + 1) for j in range(i, d + 1)}

    return slab


def _degenerate(e: list, n: int):
    """Where an eigenvalue of I + h (h Hermitian in the orthonormal frame, e_k
    its `_symmetric_functions`) is at most f = 1e-10 (n + e_1)/n, 1e-10 times
    their mean: where (1 - f) I + h is not positive definite, that is where one
    of its e_k is <= 0.  Those are the coefficients of prod_i (y + 1 - f + mu_i),
    mu_i the eigenvalues of h: y^n + e_1 y^(n-1) + ... + e_n shifted by 1 - f,
    here by repeated synthetic division, whose pass i ends on e_(n-i)."""
    t = 1.0 - 1e-10 * (n + e[0]) / n
    a = list(e)
    bad = False
    for i in range(n):
        a[0] = a[0] + t
        for j in range(1, n - i):
            a[j] = a[j] + t * a[j - 1]
        bad = bad | (a[n - 1 - i] <= 0)
    return bad


def _ma_values(model: CuspModel, f: Field, order: int, remainder: bool = True):
    """(M values, Q values or None unless `remainder`) at the collocation
    points, from the Hessian h of f in an orthonormal frame of the model
    metric (`_chart_hessian`): M = log det(I + h) - f and its quadratic
    remainder Q = M - L: with e_k from `_symmetric_functions` and w = e_1 +
    ... + e_n, M = log(1 + w) - f and Q = (log(1 + w) - w) + e_2 + ... + e_n.
    Radial derivatives span the grid, the rest runs in `_BLOCK_POINTS` slabs.
    One path serves every n.  Raises MetricDegenerateError (`_degenerate`)
    at the outermost degenerate node, first torus index there, with the
    least eigenvalue of I + h (1 plus the least root of sum_k (-1)^k e_k
    t^(n-k)), or NumericalError where w leaves the float range."""
    n, torus, nn = model.n, f.torus_shape, len(f.grid)
    slab = _chart_hessian(model, f, order)
    m_vals, q_vals = np.empty(torus + (nn,)), np.empty(torus + (nn,)) if remainder else None
    width = max(1, _BLOCK_POINTS // (m_vals.size // nn))
    for lo in range(0, nn, width):
        sl = slice(lo, min(lo + width, nn))
        fv, h = slab(sl)
        points = torus + (sl.stop - lo,)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a w past the float range is refused
            e = _symmetric_functions(h, n)
            w = sum(e)
            lost = np.broadcast_to(~np.isfinite(w), points)
            bad = lost | _degenerate(e, n)
        if bad.any():
            r, *where = np.unravel_index(np.argmax(np.moveaxis(bad, -1, 0)), points[-1:] + torus)
            if lost[(*where, r)]:
                raise NumericalError(f"det(g + h)/det g leaves the float range at x={f.grid.x[lo + r]:.6g}, "
                                     f"torus index {tuple(map(int, where))}: the Hessian of the iterate overflows")
            char = [1.0] + [(-1) ** k * np.broadcast_to(ek, points)[(*where, r)] for k, ek in enumerate(e, 1)]
            raise MetricDegenerateError(f.grid.x[lo + r], where, 1.0 + float(np.roots(char).real.min()))
        m_vals[..., sl] = np.log1p(w) - fv
        if remainder:
            q_vals[..., sl] = _log1p_minus(w) + sum(e[1:])
    return m_vals, q_vals


def monge_ampere_residual(model: CuspModel, f: Field, order: int = 2) -> Field:
    """M(f) = log det(g + i d dbar f)^n/det g^n - f as a Field."""
    m_vals, _ = _ma_values(model, f, order, remainder=False)
    return Field.from_values(f.grid, m_vals)


def quadratic_remainder(model: CuspModel, f: Field, order: int = 2, with_residual: bool = False):
    """Q(f) = M(f) - L(f), the nonlinear part of the operator.  With
    `with_residual`, returns (Q, the sup of |M(f)| over the collocation
    values at interior radial nodes), both from one collocation."""
    m_vals, q_vals = _ma_values(model, f, order)
    q = Field.from_values(f.grid, q_vals)
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


def holomorphic_hessian(model: CuspModel, f: Field, p: CuspPoint) -> np.ndarray:
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
        + x**2 * model.A * fx
        - x**2 * (np.outer(fax, pa.conj()) + np.outer(pa, fax.conj()))
        + fiber * np.outer(pa, pa.conj())
    )
    hess[:d, d] = (x**2 * fax - pa * fiber) / zn.conj()
    hess[d, :d] = hess[:d, d].conj()
    hess[d, d] = fiber / r**2
    return hess
