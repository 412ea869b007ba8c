"""Per-mode Green operator, the full representation of the linearized
problem, and the Picard fixed point for the nonlinear equation.

For a positive torus eigenvalue lambda the bounded solution of

    x^2 v'' + (n+1) x v' - (n+1) v - lambda v / x = f,   v(x0) prescribed,

is assembled from the kernel pair H1, H2 (Bessel-backed, carried as
mantissa/exponent) by variation of parameters.  Every product of kernels
pairs exponents of opposite sign before exponentiating, so each factor
exp(...) evaluated here has a nonpositive argument; anything else is a
programming error and raises.

The nonlinear solve iterates  u <- T[-(n+1) Q(u)]  where T is the
representation operator at fixed boundary data and Q the quadratic-and-up
remainder of the Monge-Ampere operator.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .bessel import HPair, h_pair
from .errors import ConfigError, MetricDegenerateError, ModeTailError, NonContractionError, NumericalError
from .fields import Field, check_torus_shape
from .grid import RadialGrid
from .model import CuspModel
from .radial import interval_integrals, radial_rep_l0
from .spectrum import first_eigenvalue, mode_eigenvalue, modes_below

_EXP_GUARD = 1e-9
_BLOCK_RANGE = 30.0
# a mode of g no larger than this fraction of g's largest mode, with no
# boundary data, is left unsolved by assemble_representation
_MODE_FLOOR = 1e-14
# radial stencil order of the collocation inside each Picard iteration
_ITERATION_ORDER = 4


def _block_size(sigma: np.ndarray) -> int:
    dmax = float(np.max(np.diff(sigma)))
    if dmax <= 0:
        raise ConfigError("exponent array must be strictly increasing")
    return max(8, int(_BLOCK_RANGE / dmax))


def _guarded_exp(arg: np.ndarray) -> np.ndarray:
    if np.any(arg > _EXP_GUARD):
        raise NumericalError(
            "exponent combination came out positive: kernel factors were mis-paired"
        )
    return np.exp(np.minimum(arg, 0.0))


def exp_weighted_revcumsum(sigma: np.ndarray, q: np.ndarray) -> np.ndarray:
    """R_i = sum_{j >= i} q_j exp(sigma_i - sigma_j) for increasing sigma.

    Processed in blocks so that no intermediate exponential exceeds the
    block range; stable for arbitrarily large total exponent spans.
    """
    nn = len(sigma)
    out = np.empty(nn, dtype=np.result_type(q.dtype, float))
    K = _block_size(sigma)
    carry = 0.0  # R at the first index of the previously processed block
    sigma_b = sigma[-1]
    for a in range(((nn - 1) // K) * K, -1, -K):
        b = min(a + K, nn)
        ref = sigma[b - 1]
        w = q[a:b] * np.exp(ref - sigma[a:b])  # exponents in [0, block range]
        v = np.cumsum(w[::-1])[::-1]
        if b < nn:
            v = v + np.exp(ref - sigma_b) * carry
        out[a:b] = np.exp(sigma[a:b] - ref) * v  # exponents in [-range, 0]
        carry = out[a]
        sigma_b = sigma[a]
    return out


def exp_weighted_cumsum(sigma: np.ndarray, q: np.ndarray) -> np.ndarray:
    """F_i = sum_{j <= i} q_j exp(sigma_j - sigma_i) for increasing sigma:
    the reverse scan on the mirrored exponents -sigma[::-1]."""
    return exp_weighted_revcumsum(-sigma[::-1], q[::-1])[::-1]


def _cumulative_down(sigma: np.ndarray, y: np.ndarray, h: float, tail_mass) -> np.ndarray:
    """P_i = int_{s_i}^{s_end} y(s) exp(sigma_i - sigma(s)) ds + paired tail.

    The 4th-order interval rule of `radial.interval_integrals`, each interval
    weighted from its first node, summed by one reverse scan; the tail mass
    sits at the deepest node.
    """
    seg = interval_integrals(h, y, sigma)
    return exp_weighted_revcumsum(sigma, np.append(seg, tail_mass))


def _cumulative_up(sigma: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Q_i = int_{s_0}^{s_i} y(s) exp(sigma(s) - sigma_i) ds.

    The same rule on the mirrored grid weights each interval from its last
    node; one forward scan sums them.
    """
    seg = interval_integrals(h, y[::-1], -sigma[::-1])[::-1]
    return exp_weighted_cumsum(sigma, np.append(0.0, seg))


_PAIR_CACHE_SIZE = 8
_pair_cache: dict = {}  # (n, lam, len(s), s[0], s[-1]) -> (s, HPair), oldest first


def _kernel_pair(n: int, lam: float, grid: RadialGrid) -> HPair:
    """The kernel pair at eigenvalue lam on the grid's nodes, computed once.

    The pair depends on the mode only through lam, and on the square torus
    4 or 8 characters share each lam, so the last `_PAIR_CACHE_SIZE` pairs
    are held (oldest dropped first) with read-only arrays.  A hit needs n,
    lam to 12 decimals and the grid's s nodes equal bit for bit.
    """
    s = grid.s
    key = (n, round(float(lam), 12), len(s), s[0], s[-1])
    hit = _pair_cache.get(key)
    if hit is not None and np.array_equal(hit[0], s):
        return hit[1]
    pair = h_pair(n, lam, grid.x)
    for a in (pair.h1_mantissa, pair.h2_mantissa, pair.exponent):
        a.flags.writeable = False
    _pair_cache.pop(key, None)
    if len(_pair_cache) >= _PAIR_CACHE_SIZE:
        del _pair_cache[next(iter(_pair_cache))]
    _pair_cache[key] = (s.copy(), pair)
    return pair


@dataclass(frozen=True)
class ModeProblem:
    n: int
    lam: float
    f: np.ndarray
    v_x0: complex
    grid: RadialGrid

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ConfigError(
                f"mode problems need a finite lambda > 0 (the zero mode is radial), got {self.lam}"
            )
        if not np.isfinite(self.v_x0):
            raise ConfigError(f"boundary value v(x0) must be finite, got {self.v_x0}")
        f = np.asarray(self.f)
        f = f.astype(np.result_type(f.dtype, float), copy=False)  # a real f stays real
        if f.shape != (len(self.grid),):
            raise ConfigError("inhomogeneity must be sampled on the grid")
        if not np.all(np.isfinite(f)):
            raise ConfigError("inhomogeneity must be finite")
        object.__setattr__(self, "f", f)


def _solve_with_pair(pair: HPair, grid: RadialGrid, f: np.ndarray, v_x0: complex) -> np.ndarray:
    x = grid.x
    s = grid.s
    sigma = pair.exponent
    m1 = pair.h1_mantissa
    m2 = pair.h2_mantissa
    n = pair.n
    jac = 2.0 / s**3  # |dt/ds|
    y2 = x ** (n - 1) * m2 * f * jac
    y1 = x ** (n - 1) * m1 * f * jac
    # below-grid tail of int_0^x t^{n-1} H2 f dt, bounded by the decay of
    # exp(-2 sqrt(lam)/sqrt(t)): tail < (2/c_rate) x^{3/2} * integrand(x)
    c_rate = 2.0 * np.sqrt(pair.lam)
    tail = (2.0 / c_rate) * x[-1] ** 1.5 * (x[-1] ** (n - 1) * m2[-1] * f[-1])
    P = _cumulative_down(sigma, y2, grid.h, tail)
    Q = _cumulative_up(sigma, y1, grid.h)
    coef = v_x0 + 2.0 * m1[0] * P[0]
    hom = (m2 / m2[0]) * _guarded_exp(sigma[0] - sigma)
    return coef * hom - 2.0 * m1 * P - 2.0 * m2 * Q


def mode_solve(problem: ModeProblem) -> np.ndarray:
    """Bounded solution of the mode equation with prescribed boundary value;
    real when f and v(x0) are real."""
    pair = _kernel_pair(problem.n, problem.lam, problem.grid)
    return _solve_with_pair(pair, problem.grid, problem.f, problem.v_x0)


def mode_ode_residual(problem: ModeProblem, v: np.ndarray, order: int = 2) -> np.ndarray:
    """x^2 v'' + (n+1) x v' - (n+1) v - lambda v/x - f on all nodes."""
    g = problem.grid
    x = g.x
    vx, vxx = g.deriv_x(v, order)
    return x**2 * vxx + (problem.n + 1) * x * vx - (problem.n + 1) * v - problem.lam * v / x - problem.f


def truncate_mode_noise(g: Field, floor: float = 1e-14) -> Field:
    """Zero each mode profile where it has fallen below `floor` times its own
    peak.  Collocation-space roundoff puts an absolute noise floor under
    every coefficient; beyond the knee the true profiles decay doubly
    exponentially, so dropping the floored values commits the smaller error."""
    size = np.abs(g.coeffs)
    peak = np.max(size, axis=-1, keepdims=True)
    return Field(g.grid, np.where(size < floor * peak, 0.0, g.coeffs))


def assemble_representation(
    model: CuspModel,
    boundary: dict,
    g: Field,
    below: tuple,
    tail_tol: float | None = None,
):
    """Combine the zero-mode kernel with mode solves for the modes below the
    cutoff, given as the (keys, lams) arrays of `spectrum.modes_below`;
    returns (Field, diagnostics).

    boundary maps integer mode keys to boundary coefficients at x0.  Modes
    of g above the cutoff are not solved; their largest sup-norm is reported
    as the tail indicator (error if tail_tol is given and exceeded).  Modes
    below the cutoff that the torus grid of g cannot resolve (some
    2|k_i| >= m_i, so every k_i != 0 on an axis of size 1) carry no
    coefficient and are skipped unless nonzero boundary data forces them.
    Keys with k_last < 0 are skipped too: the field stores those modes as
    the conjugates of the modes -k.
    """
    grid = g.grid
    n = model.n
    dims = 2 * model.d
    zero = (0,) * dims
    below_keys, below_lams = below
    held = np.all(2 * np.abs(below_keys) < g.torus_shape, axis=1)
    keys = dict(zip(map(tuple, below_keys[held].tolist()), below_lams[held]))
    for k, v in boundary.items():
        kk = tuple(int(i) for i in k)
        if kk != zero and v != 0 and kk not in keys:
            keys[kk] = mode_eigenvalue(model, kk)  # boundary data forces the mode in

    out = Field.zero(grid, g.torus_shape)
    beta0 = complex(boundary.get(zero, 0.0)).real
    out.coeffs[zero], _ = radial_rep_l0(n, grid, g.radial_mean(), beta0)

    sup = np.max(np.abs(g.coeffs), axis=-1)
    scale = float(np.max(sup))
    unsolved = np.ones(sup.shape, dtype=bool)
    unsolved[zero] = False
    modes_solved = 0
    for k, lam in keys.items():
        if k[-1] < 0:
            continue
        slot = out.index(k)
        unsolved[slot] = False
        beta = complex(boundary.get(k, 0.0))
        if beta == 0.0 and sup[slot] <= _MODE_FLOOR * scale:
            continue
        pair = _kernel_pair(n, lam, grid)
        out.coeffs[slot] = _solve_with_pair(pair, grid, g.coeffs[slot], beta)
        modes_solved += 1

    tail = float(np.max(sup[unsolved], initial=0.0))
    if tail_tol is not None and tail > tail_tol:
        raise ModeTailError(
            f"spectral tail {tail:.3e} above the cutoff exceeds tolerance {tail_tol:.1e}; "
            "raise the mode cutoff"
        )
    return out, {"tail_indicator": tail, "modes_solved": modes_solved}


@dataclass
class PicardState:
    """Outcome of `picard_solve`.  `trace` holds one record per iteration:
    sup_change, residual_sup (sup |M(u)| at interior collocation points),
    tail_indicator, modes_solved, and the seconds of collocation and assembly.
    `diagnostics` holds the torus shape the solve collocated on, with the
    lattice axes the boundary data spans as its reason."""

    iterate: Field
    iteration: int
    sup_change: float
    contraction_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)


def _ell0_decay_power(u: Field) -> float:
    prof = np.abs(u.radial_mean())
    x = u.grid.x
    half = len(x) // 2
    mask = prof[half:] > 1e-300
    if mask.sum() < 4:
        return float("nan")
    lx = np.log(x[half:][mask])
    lp = np.log(prof[half:][mask])
    return float(np.polyfit(lx, lp, 1)[0])


def boundary_torus_shape(boundary: dict, dims: int, torus_resolution: int) -> tuple:
    """Torus grid of a solve with this boundary data: torus_resolution on
    each lattice axis i along which some boundary mode with a nonzero
    coefficient varies (k_i != 0), 1 on every other axis.

    The model metric and the Monge-Ampere operator commute with the lifted
    torus translations, so the solution has no mode outside the sublattice
    that the boundary modes span: it is constant along every other axis,
    and one sample there holds all of it."""
    check_torus_shape((torus_resolution,) * dims)
    spanned = {i for k, v in boundary.items() if v != 0 for i, ki in enumerate(k) if ki != 0}
    return tuple(torus_resolution if i in spanned else 1 for i in range(dims))


@contextmanager
def _stage(name: str):
    """Prefix a ModeTailError or MetricDegenerateError with the solve stage."""
    try:
        yield
    except (ModeTailError, MetricDegenerateError) as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def picard_solve(
    model: CuspModel,
    boundary: dict,
    grid: RadialGrid,
    torus_resolution: int,
    cutoff: float = 9.0,
    tol: float = 1e-10,
    max_iter: int = 40,
    final_order: int = 4,
    tail_tol: float | None = None,
):
    """Fixed-point solve of the Monge-Ampere equation with boundary data at
    x0 given as torus mode coefficients.

    cutoff is the mode cutoff in multiples of the first eigenvalue.  Returns
    (Field, PicardState); the state records the contraction history, a
    per-iteration trace, the spectral tail indicator, and the final residual
    measured with the `final_order` radial stencils.  The solve collocates
    on `boundary_torus_shape`: torus_resolution points along the lattice
    axes the boundary data spans, one along the others.  The collocation
    geometry is built once here, before any mode is enumerated (it refuses
    n > 3), and shared by every collocation call.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter}")
    lam1 = first_eigenvalue(model)
    boundary = {tuple(int(i) for i in k): complex(v) for k, v in boundary.items()}
    _check_boundary_symmetry(boundary)
    shape = boundary_torus_shape(boundary, 2 * model.d, torus_resolution)
    colloc = geometry.Collocation(model, grid, shape)
    below = modes_below(model, cutoff * lam1)
    u, diag = assemble_representation(model, boundary, Field.zero(grid, shape), below)
    history, trace = [], []
    for it in range(1, max_iter + 1):
        t0 = time.perf_counter()
        with _stage(f"Picard iteration {it}"):
            g_field, res_sup = geometry.quadratic_remainder(model, u, _ITERATION_ORDER, colloc, with_residual=True)
            g_field = -(model.n + 1) * g_field
            t1 = time.perf_counter()
            u_old = u
            u, diag = assemble_representation(model, boundary, g_field, below, tail_tol=tail_tol)
        t2 = time.perf_counter()
        change = (u - u_old).sup_norm()
        del u_old
        history.append(change)
        trace.append({"sup_change": change, "residual_sup": res_sup, **diag,
                      "collocation_s": t1 - t0, "assembly_s": t2 - t1})
        if change < tol:
            break
        if it >= 3 and history[-1] > history[-2]:
            raise NonContractionError(
                f"Picard iteration {it} stopped contracting: change {history[-1]:.3e} "
                f"after {history[-2]:.3e}; boundary data too large for the fixed point"
            )
    else:
        raise NonContractionError(
            f"no convergence within {max_iter} iterations: Picard iteration {it} "
            f"changed the iterate by {history[-1]:.3e}, tolerance {tol:.1e}"
        )

    # one last pass with the noise-floored inhomogeneity keeps the deep
    # exponential tails of each mode profile clean for rate analysis
    g_clean = truncate_mode_noise(g_field)
    del g_field
    with _stage(f"final pass after Picard iteration {it}"):
        u, diag = assemble_representation(model, boundary, g_clean, below, tail_tol=tail_tol)
    del g_clean

    with _stage("final residual"):
        residual = geometry.monge_ampere_residual(model, u, final_order, colloc)
    res_sup = residual.sup_norm(grid.interior(final_order))
    state = PicardState(
        iterate=u,
        iteration=it,
        sup_change=history[-1],
        contraction_history=history,
        trace=trace,
        diagnostics={
            "tail_indicator": diag["tail_indicator"],
            "modes_solved": diag["modes_solved"],
            "residual_sup": res_sup,
            "ell0_decay_power": _ell0_decay_power(u),
            "lambda1": lam1,
            "torus_shape": shape,
            "torus_shape_reason": (
                f"boundary modes with nonzero coefficients vary along lattice axes "
                f"{[i for i, m in enumerate(shape) if m > 1]}; every other axis is sampled once"
            ),
        },
    )
    return u, state


def _check_boundary_symmetry(boundary: dict):
    for k, v in boundary.items():
        mk = tuple(-i for i in k)
        other = boundary.get(mk)
        if other is None or abs(np.conj(other) - v) > 1e-12 * max(1.0, abs(v)):
            raise ConfigError(f"boundary data not conjugate-symmetric at mode {k}")


def extract_tangent_cone(u: Field, n: int, window: slice | None = None):
    """Least-squares fit of the radial mean against -(n+1) log(1 + c x) on
    the inner half of the grid (or the given slice); returns (c, rms)."""
    x = u.grid.x
    prof = u.radial_mean()
    if window is None:
        window = slice(len(x) // 2, len(x))
    xs = x[window]
    ys = prof[window]
    if len(xs) < 4:
        raise ConfigError("tangent cone fit needs at least 4 nodes")
    c = 0.0
    for _ in range(60):
        modelv = -(n + 1) * np.log1p(c * xs)
        r = ys - modelv
        J = -(n + 1) * xs / (1.0 + c * xs)
        denom = float(J @ J)
        if denom == 0.0:
            break
        dc = float(J @ r) / denom
        c += dc
        if abs(dc) <= 1e-15 * max(1.0, abs(c)):
            break
    rms = float(np.sqrt(np.mean((ys + (n + 1) * np.log1p(c * xs)) ** 2)))
    return c, rms
