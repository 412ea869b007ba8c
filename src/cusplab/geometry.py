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
(z', x) itself (`Collocation`), and measures positivity relative to g there.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryStencilError, ConfigError, MetricDegenerateError, NumericalError
from .fields import Field, halved_axis, mode_indices, real_values
from .grid import RadialGrid
from .model import CuspModel, CuspPoint
from .spectrum import mode_covector, mode_eigenvalue

_HERM_RTOL = 1e-12
# collocation points per radial slab of `_ma_values`: a slab's temporaries stay in L2 cache
_BLOCK_POINTS = 2**13


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
    conj = __neg__ = __getitem__ = __mul__ = __rmul__ = lambda self, *_: self
    real = property(conj)
    __add__ = __radd__ = __rsub__ = lambda self, other: other
    __sub__ = lambda self, other: -other


_ZERO = _Zero()


def _at(m: dict, j: int, k: int):
    return m[j, k] if j <= k else m[k, j].conj()


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
    return adj, m[0, 0] * adj[0, 0] + sum((m[0, k] * adj[0, k].conj()).real for k in range(1, n))


def _trace_product(a: dict, b: dict):
    """tr(a b) of two Hermitian matrix fields."""
    return sum(b[j, k] * a[j, k] if j == k else 2.0 * (b[j, k] * a[j, k].conj()).real for j, k in a)


def _det_expansion(g: dict, adj_g: dict, h: dict, n: int) -> list:
    """[c_1, ..., c_n], det(g + t h) = det g + c_1 t + ... + c_n t^n (n = 2, 3):
    c_k is det g times the k-th elementary symmetric function of the
    eigenvalues of g^{-1} h, c_1 = <adj g, h>, c_{n-1} = <g, adj h>, c_n = det h."""
    adj_h, det_h = _cofactors(h, n)
    middle = [_trace_product(g, adj_h)] if n == 3 else []
    return [_trace_product(adj_g, h)] + middle + [det_h]


def _chart_hessian(model: CuspModel, f: Field, order: int):
    """A function of a radial slice giving (values of f, its Hessian h in the
    chart frame of `Collocation`, with entries f_{a bbar} + x^2 A_ab f_x,
    x^2 f_{a x}, 2 x^3 f_x + x^4 f_xx) at those nodes' collocation points; an
    entry of h is real or _ZERO where its imaginary part or all of it vanish.

    A coefficient weight w(k) applied to a real field keeps it real when w
    is real and even in k or imaginary and odd; the mode covector c(k) is
    odd, so the real and imaginary parts of the weights -pi^2 c_a conj(c_b)
    and i pi c_a all do: each part of an entry is a real field, and the
    parts whose rows are not all zero go through one `real_values` call.
    """
    torus, d, x, x2 = f.torus_shape, model.d, f.grid.x, f.grid.x**2
    rows, k, prof, px, pxx = _mode_derivatives(f.grid, f.coeffs, mode_indices(torus), order)
    c = mode_covector(model, k).T[:, :, None]  # (d, rows, 1)

    def slab(sl: slice):
        xs, x2s, p0, p1, p2 = x[sl], x2[sl], prof[:, sl], px[:, sl], pxx[:, sl]
        parts = {("f",): p0, (d, d, 0): 2.0 * x2s * xs * p1 + x2s**2 * p2}  # (j, k, 0 or 1): real or imaginary part
        for a in range(d):
            parts[a, d, 0], parts[a, d, 1] = (1j * np.pi * ca * x2s * p1 for ca in (c[a].real, c[a].imag))
            for b in range(a, d):
                w, xa = -np.pi**2 * c[a] * c[b].conj(), x2s * model.A[a, b]
                parts[a, b, 0] = w.real * p0 + xa.real * p1
                if b > a:
                    parts[a, b, 1] = w.imag * p0 + xa.imag * p1
        live = [key for key, v in parts.items() if v.any()]
        hat = np.zeros((len(live),) + f.coeffs.shape[:-1] + (len(xs),), dtype=complex)
        for stacked, key in zip(hat, live):
            stacked.reshape(-1, len(xs))[rows] = parts[key]
        vals = dict(zip(live, real_values(hat, torus)))
        part = lambda *key: vals.get(key, _ZERO)  # noqa: E731
        return part("f"), {(i, j): part(i, j, 0) + 1j * part(i, j, 1) for i in range(d + 1) for j in range(i, d + 1)}

    return slab


class Collocation:
    """What Monge-Ampere collocation (n = 2, 3) on (model, grid, torus shape)
    needs that does not depend on the field; `modes.picard_solve` builds one
    per solve, on the torus shape its boundary data spans.

    Kept over the radial nodes: the metric in the chart frame of (z', x)
    (z_n factors scaled away, which keeps eigenvalues relative to g), g =
    (n+1) diag(x A, x^2) with _ZERO (a, n) blocks, adj g and det g.
    """

    def __init__(self, model: CuspModel, grid: RadialGrid, shape: tuple):
        if model.n > 3:
            raise ConfigError(f"Monge-Ampere collocation supports n = 2 and n = 3, got n = {model.n}")
        self.model, self.grid, self.shape = model, grid, tuple(shape)
        n, d, x = model.n, model.d, grid.x
        entry = lambda i, j: _ZERO if i < d == j else (n + 1) * (x * model.A[i, j] if j < d else x**2)  # noqa: E731
        self.g = {(i, j): entry(i, j).real if i == j else entry(i, j) for i in range(n) for j in range(i, n)}
        self.adj, self.detg = _cofactors(self.g, n)

    def check(self, model: CuspModel, f: Field):
        """Raise ConfigError unless f lives on this model, grid and torus shape."""
        if model is not self.model or f.grid != self.grid or f.torus_shape != self.shape:
            raise ConfigError("collocation geometry was built for another model, grid or torus shape")


def _degenerate(g: dict, h: dict, e: list, n: int):
    """Where an eigenvalue of g^{-1}(g + h) is at most f = 1e-10 (n + e_1)/n,
    1e-10 times their mean (e_k as in `_ma_values`): where (1 - f) g + h has
    a leading principal minor <= 0, of the z' block below order n, and
    det g sum_k e_k (1 - f)^(n-k) (e_0 = 1) at order n."""
    t = 1.0 - 1e-10 * (n + e[0]) / n
    block = {jk: t * g[jk] + h[jk] for jk in g if jk[1] < n - 1}  # the z' block of (1 - f) g + h
    poly = t + e[0]
    for ek in e[1:]:
        poly = poly * t + ek
    return (block[0, 0] <= 0) | (poly <= 0) | (n == 3 and _cofactors(block, 2)[1] <= 0)


def _ma_values(model: CuspModel, f: Field, order: int, colloc: Collocation | None = None, remainder: bool = True):
    """(M values, Q values or None unless `remainder`) at the collocation
    points, from the chart-frame metric g of `colloc` (built on the spot when
    omitted) and Hessian h: M = log det(g + h)/det g - f and its quadratic
    remainder Q = M - L.  With e_k the elementary symmetric functions of the
    eigenvalues of g^{-1} h and w = e_1 + ... + e_n, M = log(1 + w) - f and
    Q = (log(1 + w) - w) + e_2 + ... + e_n.  Only the radial derivatives are
    taken on the whole grid; the rest runs in slabs of `_BLOCK_POINTS`.
    Raises MetricDegenerateError (`_degenerate`) at the outermost degenerate
    node, first torus index there, with the smallest eigenvalue of g^{-1}(g + h):
    1 plus the least root of sum_k (-1)^k e_k t^(n-k), that of g^{-1} h; or
    NumericalError when w leaves the float range at that point."""
    if colloc is None:
        colloc = Collocation(model, f.grid, f.torus_shape)
    colloc.check(model, f)
    n, torus, nn = model.n, f.torus_shape, len(f.grid)
    slab = _chart_hessian(model, f, order)
    m_vals, q_vals = np.empty(torus + (nn,)), np.empty(torus + (nn,)) if remainder else None
    width = max(1, _BLOCK_POINTS // (m_vals.size // nn))
    for lo in range(0, nn, width):
        sl = slice(lo, min(lo + width, nn))
        fv, h = slab(sl)
        g, adj = ({jk: v[sl] for jk, v in m.items()} for m in (colloc.g, colloc.adj))
        points = torus + (sl.stop - lo,)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a w past the float range is refused
            e = [c / colloc.detg[sl] for c in _det_expansion(g, adj, h, n)]
            w = sum(e)
            lost = np.broadcast_to(~np.isfinite(w), points)
            bad = lost | _degenerate(g, h, e, n)
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


# absolute Nyquist allowance for operator outputs: the log-determinant
# arithmetic has a roundoff floor far above the scale of a converged residual
_NYQUIST_ABS = 1e-13


def monge_ampere_residual(model: CuspModel, f: Field, order: int = 2, colloc: Collocation | None = None) -> Field:
    """M(f) = log det(g + i d dbar f)^n/det g^n - f as a Field; `colloc`
    is the solve's `Collocation` (built on the spot when omitted)."""
    m_vals, _ = _ma_values(model, f, order, colloc, remainder=False)
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
