"""Per-mode Green operator, the full representation of the linearized
problem, and the Picard fixed point for the nonlinear equation.

For a positive torus eigenvalue lambda the bounded solution of

    x^2 v'' + (n+1) x v' - (n+1) v - lambda v / x = f,   v(x0) prescribed,

is assembled from the kernel pair H1, H2 (Bessel-backed, carried as
mantissa/exponent) by variation of parameters.  Every product of kernels
pairs exponents of opposite sign.  The exponent sigma = 2 sqrt(lambda) s is
affine in s = 1/sqrt(x), and the grid is uniform in s (`RadialGrid` holds
the one uniformity rule), so a solve sees sigma only through its step
d = 2 sqrt(lambda) h per node: every pairing exp(sigma_k - sigma_l) is
rho^(l - k) for the one scalar rho = exp(-d), and the quadrature and the
two scans of a mode solve are geometric, weighting nodes by powers of rho,
and take no exponential per node.  Everything a solve needs apart from f
depends only on (n, lambda, grid) and is memoized as a `SolvePlan`
(`_solve_plan`) in the rows of `h_pair`'s block; there the homogeneous
term exp(sigma_0 - sigma) <= 1, written over the exponent row, is the one
array exponentiated node by node.  A solve on a held plan does only the
work that depends on f: two cumulative integrals of one reverse scan each
(`_integral`), the up integral being the down integral of the mirrored
terms with no tail, read reversed.  Each runs in its own rows of one buffer
allocated per call (`_work`), so concurrent callers share no buffer and
nothing is held between solves.  They are two `pool.run` tasks, on the
thread pool past its size rule (two blocks of 2^13 nodes per worker), with
the same operations in the same order either way.

The nonlinear solve iterates  u <- T[-(n+1) Q(u)]  where T is the
representation operator at fixed boundary data and Q the quadratic-and-up
remainder of the Monge-Ampere operator.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import geometry, pool
from .bessel import h_pair
from .errors import ConfigError, CuspLabError, NonContractionError
from .fields import Field, check_torus_shape
from .grid import RadialGrid
from .model import CuspModel
from .radial import interval_integrals, radial_rep_l0
from .spectrum import first_eigenvalue, mode_eigenvalue, modes_below

_BLOCK_RANGE = 30.0
# a mode of g no larger than this fraction of g's largest mode, with no
# boundary data, is left unsolved by assemble_representation
_MODE_FLOOR = 1e-14
# radial stencil order of the collocation inside each Picard iteration and
# of the final residual
_ITERATION_ORDER = 4
# largest collocation grid, prod(torus shape) * nodes, that picard_solve
# builds, refused before anything is allocated: about 0.4 GB at the 0.18 kB
# a point of n = 2 solves on (16, 16); it admits (16, 16) on 4800 nodes
_COLLOCATION_POINTS = 2**21
# principal-minor products a collocation point expands to (`geometry._minor`, about n!): n = 7 solves, n = 8 is not
_MINOR_PRODUCTS = math.factorial(7)
# plans and scan weights held; each assembly walks its eigenvalues in one order (13 on (16, 16) at cutoff 25)
_PLANS_HELD = 32


@functools.lru_cache(maxsize=_PLANS_HELD)
def _scan_weights(d: float, K: int) -> tuple:
    """Rows (w, 1/w, rho/w), w = rho^-j = exp(d j) for j < K: a scan's fixed vectors, held read-only per (d, K)."""
    w = np.exp(d * np.arange(K))  # in [1, e^30]; exactly 1 on each block's first node
    w_inv = 1.0 / w  # complex terms are multiplied, never divided, so real parts match real terms'
    weights = np.stack([w, w_inv, np.exp(-d) * w_inv])  # rho^(j + 1): from the previous block's last node to node j
    weights.flags.writeable = False
    return weights


def _scan_shape(nn: int, d: float) -> tuple:
    """(blocks, K) of a scan of nn terms at step d: blocks of K nodes with K d <= 30."""
    K = max(1, min(nn, int(_BLOCK_RANGE / d)))
    return -(-nn // K), K


def exp_weighted_revcumsum(sigma: np.ndarray, d: float, out: np.ndarray | None = None) -> np.ndarray:
    """R_i = sum_{j >= i} sigma_j exp(-(j - i) d): the terms sigma_j weighted
    by exp(phi_i - phi_j) for an exponent phi of finite step d > 0 per node
    (any other d raises).  The terms are named sigma because that is the
    keyword perfbench/spans.py's scan counter reads when they are not passed
    by position.

    With rho = exp(-d) this is the geometric scan R_i = sigma_i + rho R_{i+1},
    run forward over sigma[::-1].  The nodes are cut into blocks of K with
    K d <= 30, the first block starting on the last node; one reshape to
    (blocks, K) and one cumsum along the block axis, weighted by the fixed
    vector rho^-j (`_scan_weights`), sum every block, and a scalar loop over
    the blocks carries each block's last value into the block after.  Stable
    for arbitrarily large total exponent spans, and no exponential is taken
    per node.  The scan runs in `out` when given, a buffer of two rows of at
    least blocks K elements (`_scan_shape`) of the result's dtype whose
    first row does not overlap sigma: the first row holds the scan, the
    second takes the carry products, and the result is a view of the first.
    """
    if not (d > 0 and math.isfinite(d)):
        raise ConfigError(f"scan step must be finite and positive, got d = {d}")
    nn = len(sigma)
    blocks, K = _scan_shape(nn, d)
    w, w_inv, rho_head = _scan_weights(d, K)
    if out is None:
        out = np.empty((2, blocks * K), dtype=np.result_type(sigma.dtype, float))
    flat = out[0, : blocks * K]
    flat[:nn] = sigma[::-1]
    flat[nn:] = 0.0  # zeros after the first node
    scan = flat.reshape(blocks, K)
    scan *= w
    np.cumsum(scan, axis=1, out=scan)
    scan *= w_inv  # sums within each block
    carry = np.zeros(blocks, dtype=scan.dtype)  # scan value at the last node of block b - 1
    for b in range(1, blocks):
        carry[b] = scan[b - 1, -1] + rho_head[-1] * carry[b - 1]
    spare = out[1, : (blocks - 1) * K].reshape(blocks - 1, K)
    scan[1:] += np.multiply(carry[1:, None], rho_head, out=spare)
    return flat[nn - 1 :: -1]


def exp_weighted_cumsum(sigma: np.ndarray, d: float, out: np.ndarray | None = None) -> np.ndarray:
    """F_i = sum_{j <= i} sigma_j exp(-(i - j) d) for a step d per node: the
    reverse scan of the reversed terms, in `out` when given."""
    return exp_weighted_revcumsum(sigma[::-1], d, out)[::-1]


def _work(nn: int, d: float, dtype, count: int = 1) -> np.ndarray:
    """Buffers of `count` cumulative integrals of nn nodes at step d, in one
    allocation: for each, three rows as long as the scan's blocks, for the
    integrand and then the scan, the products of the interval rule and then
    the scan's carry products, and the interval integrals."""
    blocks, K = _scan_shape(nn, d)
    return np.empty((count, 3, blocks * K), dtype=dtype)


def _cumulative_down(y: np.ndarray, h: float, d: float, tail_mass, work: np.ndarray | None = None) -> np.ndarray:
    """P_i = int_{s_i}^{s_end} y(s) exp(sigma_i - sigma(s)) ds + paired tail.

    The 4th-order interval rule of `radial.interval_integrals` on step h,
    each interval weighted from its first node by powers of rho = exp(-d),
    summed by one reverse scan; the tail mass sits at the deepest node.
    Everything runs in `work` (`_work`), whose first row y may occupy, and
    the result is a view of that row.
    """
    nn = len(y)
    work = _work(nn, d, np.result_type(y.dtype, float))[0] if work is None else work
    seg = work[2, :nn]
    seg[-1] = tail_mass
    interval_integrals(h, y, np.exp(-d), out=seg[:-1], work=work[1])
    return exp_weighted_revcumsum(seg, d, out=work[:2])


@dataclass(frozen=True)
class SolvePlan:
    """Everything a mode solve needs apart from f, at one (n, lam, grid).

    m1 and m2 are the kernel pair's mantissas on the grid's nodes, and d is
    the step per node of its exponent sigma = 2 sqrt(lam) s, read from the
    end nodes: on a grid uniform in s, the scans and the interval rule see
    sigma only through d.  weight = x^(n-1) |dt/ds| = x^(n-1) 2/s^3 takes f
    to the integrand density in s; it depends on n and the grid only, and
    plans of one n and grid share one array (`_grid_weight`).  hom =
    (m2/m2[0]) exp(sigma_0 - sigma) is the homogeneous solution with value 1
    at x0, the one per-node exponential of the plan; m1, m2 and hom are the
    rows of the kernel pair's block.  h is the grid step; two_m1_0 = 2 m1[0],
    and tail times f at the deepest node is the below-grid tail of
    int_0^x t^(n-1) H2 f dt.  Every array is read-only.
    """

    m1: np.ndarray
    m2: np.ndarray
    weight: np.ndarray
    hom: np.ndarray
    d: float
    h: float
    two_m1_0: float
    tail: float


@functools.lru_cache(maxsize=8)
def _grid_weight(n: int, grid: RadialGrid) -> np.ndarray:
    weight = grid.x ** (n - 1) * (2.0 / grid.s**3)
    weight.flags.writeable = False
    return weight


@functools.lru_cache(maxsize=_PLANS_HELD)
def _solve_plan(n: int, lam: float, grid: RadialGrid) -> SolvePlan:
    """The solve plan at eigenvalue lam on the grid, built once.

    The plan depends on the mode only through lam, and on the square torus
    4 or 8 characters share each lam bit for bit, so the last `_PLANS_HELD`
    plans are held.  The key is the exact lam, and grids are equal when
    their nodes are equal bit for bit (`RadialGrid.__eq__`).
    """
    x = grid.x
    # the kernel peaks at x0: e^s K_{n+2}(s) < Gamma(n+2) (2/s)^(n+2) for s = 2 sqrt(lambda/x0) <= log 2, before and
    # after h_pair's factor x0^(-n/2); refused where that bound leaves the float range (taken in logs, which stay in it)
    log_k = math.lgamma(n + 2) + (n + 2) * 0.5 * (math.log(x[0]) - math.log(lam)) + max(0.0, -0.5 * n * math.log(x[0]))
    if log_k >= math.log(np.finfo(float).max):
        raise ConfigError(f"mode eigenvalue lambda = {lam:.6g} at x0 = {x[0]:.6g}, n = {n}: the kernel e^s K_{n + 2}(s) "
                          f"at s = 2 sqrt(lambda/x0) leaves the float range")
    pair = h_pair(n, lam, x)
    m1, m2, sigma = pair.h1_mantissa, pair.h2_mantissa, pair.exponent
    d = float((sigma[-1] - sigma[0]) / (len(sigma) - 1))
    rho = np.exp(-d)
    # the interval rule forms rho^(+-1), rho^(+-2) and rho^3; rho^3 is the
    # first to leave the normal floats, once d passes about 236
    if not rho * rho * rho >= np.finfo(float).tiny:
        raise ConfigError(f"mode eigenvalue lambda = {lam:.6g} on grid step h = {grid.h:.6g}: exponent step "
                          f"d = 2 sqrt(lambda) h = {d:.6g} per node is past about 236, where exp(-3 d) underflows")
    np.subtract(sigma[0], sigma, out=sigma)  # the exponent row becomes hom; sigma never falls: exp(<= 0)
    hom = np.exp(sigma, out=sigma)
    hom *= m2 / m2[0]
    for row in (m1, m2, hom):
        row.flags.writeable = False
    # below-grid tail of int_0^x t^{n-1} H2 f dt per unit f at the deepest
    # node, bounded by the decay of exp(-2 sqrt(lam)/sqrt(t)):
    # tail < x^{3/2} integrand(x) / sqrt(lam)
    with np.errstate(over="ignore"):
        tail = (1.0 / np.sqrt(lam)) * x[-1] ** 1.5 * x[-1] ** (n - 1) * m2[-1]
    if not np.isfinite(tail):
        raise ConfigError(f"mode eigenvalue lambda = {lam:.6g} at x = {x[-1]:.6g}, n = {n}: the tail of the "
                          f"down integral below the grid leaves the float range")
    return SolvePlan(m1, m2, _grid_weight(n, grid), hom, d, grid.h, float(2.0 * m1[0]), float(tail))


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


def _integral(plan: SolvePlan, work: np.ndarray, f, weight, inner, outer, tail):
    """One cumulative integral of a solve in its buffer `work`: (P outer, P[0])
    with P = `_cumulative_down` of f weight inner and the tail mass given.
    On the mirrored nodes with no tail, read reversed, this is the up
    integral int_{s_0}^{s_i} y(s) exp(sigma(s) - sigma_i) ds: mirroring
    turns each interval's weight from its last node into one from its first."""
    y = np.multiply(f, weight, out=work[0, : len(f)])
    y *= inner
    P = _cumulative_down(y, plan.h, plan.d, tail, work)
    p0 = P[0]
    P *= outer
    return P, p0


def _solve_with_plan(plan: SolvePlan, f: np.ndarray, v_x0: complex) -> np.ndarray:
    """Variation of parameters on a plan: the only work that depends on f.

    Both cumulative integrals, the up one on the mirrored nodes, run in one
    buffer allocated per call, one `_work` block each, as two `pool.run`
    tasks; no buffer is shared between calls, so concurrent solves on one
    plan are safe."""
    nn = len(f)
    dtype = np.result_type(f.dtype, float)
    # the result is allocated before the buffer, so the buffer is freed on
    # top of the heap and the next solve's buffer takes its place
    out = np.empty(nn, dtype=np.result_type(v_x0, dtype))
    work = _work(nn, plan.d, dtype, 2)
    m1, m2, w = plan.m1, plan.m2, plan.weight
    (P, p0), (Q, _) = pool.run([(_integral, plan, work[0], f, w, m2, m1, plan.tail * f[-1]),
                                (_integral, plan, work[1], f[::-1], w[::-1], m1[::-1], m2[::-1], 0.0)], nn)
    coef = v_x0 + plan.two_m1_0 * p0
    P += Q[::-1]
    P *= 2.0
    np.multiply(coef, plan.hom, out=out)
    out -= P
    return out


def mode_solve(problem: ModeProblem) -> np.ndarray:
    """Bounded solution of the mode equation with prescribed boundary value;
    real when f and v(x0) are real."""
    plan = _solve_plan(problem.n, problem.lam, problem.grid)
    return _solve_with_plan(plan, problem.f, problem.v_x0)


def mode_ode_residual(problem: ModeProblem, v: np.ndarray) -> np.ndarray:
    """x^2 v'' + (n+1) x v' - (n+1) v - lambda v/x - f on all nodes, with
    2nd-order radial stencils."""
    g = problem.grid
    x = g.x
    vx, vxx = g.deriv_x(v)
    return x**2 * vxx + (problem.n + 1) * x * vx - (problem.n + 1) * v - problem.lam * v / x - problem.f


def truncate_mode_noise(g: Field) -> Field:
    """Zero each mode profile where it has fallen below 1e-14 times its own
    peak.  Roundoff in collocation space puts an absolute noise floor under
    every coefficient; beyond the knee the true profiles decay doubly
    exponentially, so dropping the floored values commits the smaller error."""
    size = np.abs(g.coeffs)
    peak = np.max(size, axis=-1, keepdims=True)
    return Field(g.grid, np.where(size < 1e-14 * peak, 0.0, g.coeffs))


def assemble_representation(model: CuspModel, boundary: dict, g: Field, below: tuple):
    """Combine the zero-mode kernel with mode solves for the modes below the
    cutoff, given as the (keys, lams) arrays of `spectrum.modes_below` on
    the torus shape of g; returns (Field, diagnostics).

    boundary maps integer mode keys to boundary coefficients at x0; nonzero
    boundary data forces its mode in.  Modes of g above the cutoff are not
    solved; their largest sup-norm is reported as the tail indicator, never
    enforced.
    Each +/- pair is solved once: `Field.set_mode` stores a solution with
    its conjugate as that of -k, and a key whose slot is filled is skipped.
    """
    grid = g.grid
    n = model.n
    dims = 2 * model.d
    zero = (0,) * dims
    keys = dict(zip(map(tuple, below[0].tolist()), below[1]))
    for k, v in boundary.items():
        kk = tuple(int(i) for i in k)
        if kk != zero and v != 0 and kk not in keys:
            keys[kk] = mode_eigenvalue(model, kk)  # boundary data forces the mode in

    out = Field.zero(grid, g.torus_shape)
    beta0 = complex(boundary.get(zero, 0.0)).real
    out.coeffs[zero] = radial_rep_l0(n, grid, g.radial_mean(), beta0)

    sup = np.max(np.abs(g.coeffs), axis=-1)
    scale = float(np.max(sup))
    unsolved = np.ones(sup.shape, dtype=bool)
    unsolved[zero] = False
    modes_solved = 0
    for k, lam in keys.items():
        slot = out.index(k)
        if not unsolved[slot]:
            continue  # filled with the conjugate of mode -k's solution
        unsolved[slot] = unsolved[out.index([-i for i in k])] = False
        beta = complex(boundary.get(k, 0.0))
        if beta == 0.0 and sup[slot] <= _MODE_FLOOR * scale:
            continue
        out.set_mode(k, _solve_with_plan(_solve_plan(n, lam, grid), g.mode(k), beta))
        modes_solved += 1

    tail = float(np.max(sup[unsolved], initial=0.0))
    return out, {"tail_indicator": tail, "modes_solved": modes_solved}


@dataclass
class PicardState:
    """Outcome of `picard_solve`.  `trace` holds one record per iteration:
    sup_change, residual_sup (sup |M(u)| at interior collocation points),
    tail_indicator, modes_solved, and the seconds of collocation and assembly.
    `diagnostics` holds the torus shape the solve collocated on, with the
    lattice axes the boundary data spans as its reason."""

    iteration: int
    diagnostics: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)


def _ell0_decay_power(u: Field) -> float:
    prof = np.abs(u.radial_mean())
    x = u.grid.x
    half = len(x) // 2
    mask = prof[half:] > 1e-300
    lx = np.log(x[half:][mask])
    if mask.sum() < 4 or not np.ptp(lx) > 1e-12 * np.max(np.abs(lx)):  # as in radial._power_fit
        return float("nan")
    return float(np.polyfit(lx, np.log(prof[half:][mask]), 1)[0])


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


def _check_contraction(it: int, previous: float, change: float, tol: float, max_iter: int):
    """Raise NonContractionError unless Picard iteration `it`, at ratio
    q = change/previous, still contracts fast enough: q < 1, and the
    geometric projection it + log(tol/change)/log q of the iteration that
    reaches tol is at most 2 max_iter.  A drift whose changes shrink like
    1/k has q -> 1 and is refused early instead of running on until the
    metric degenerates."""
    q = change / previous  # both at least tol > 0: neither broke the loop
    projected = it + math.log(tol / change) / math.log(q) if q < 1 else math.inf
    if q >= 1 or projected > 2 * max_iter:
        raise NonContractionError(
            f"Picard iteration {it} stopped contracting: change {change:.3e} after {previous:.3e} "
            f"(ratio {q:.3f}, tolerance {tol:.1e} projected at iteration {projected:.0f}, "
            f"past 2 max_iter = {2 * max_iter}); boundary data too large for the fixed point"
        )


@contextmanager
def _stage(name: str):
    """Prefix any package error with the solve stage."""
    try:
        yield
    except CuspLabError as exc:
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
):
    """Fixed-point solve of the Monge-Ampere equation with boundary data at
    x0 given as torus mode coefficients.

    cutoff is the mode cutoff in multiples of the first eigenvalue.  Returns
    (Field, PicardState); the state records a per-iteration trace, the
    spectral tail indicator (reported, never enforced), and the final
    residual, measured like every iteration's with 4th-order radial
    stencils.  From iteration 3 on, a solve that stops contracting fast
    enough raises (`_check_contraction`).  The solve collocates on
    `boundary_torus_shape`: torus_resolution points along the lattice axes
    the boundary data spans, one along the others; a grid of more than
    `_COLLOCATION_POINTS` torus points times nodes is refused before the
    modes are enumerated, and n > 7 (`_MINOR_PRODUCTS`) before anything.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if (products := math.factorial(model.n)) > _MINOR_PRODUCTS:
        raise ConfigError(f"n = {model.n} expands about {products} minor products a point, over {_MINOR_PRODUCTS}")
    lam1 = first_eigenvalue(model)
    boundary = {tuple(int(i) for i in k): complex(v) for k, v in boundary.items()}
    _check_boundary_symmetry(boundary)
    shape = boundary_torus_shape(boundary, 2 * model.d, torus_resolution)
    points = math.prod(shape) * len(grid)
    if points > _COLLOCATION_POINTS:
        raise ConfigError(
            f"collocation grid {shape} x {len(grid)} nodes has {points} points, over the budget of "
            f"{_COLLOCATION_POINTS}; lower torus_resolution or the node count"
        )
    below = modes_below(model, cutoff * lam1, shape)
    u, diag = assemble_representation(model, boundary, Field.zero(grid, shape), below)
    trace = []
    for it in range(1, max_iter + 1):
        t0 = time.perf_counter()
        with _stage(f"Picard iteration {it}"):
            g_field, res_sup = geometry.quadratic_remainder(model, u, _ITERATION_ORDER, with_residual=True)
            g_field = -(model.n + 1) * g_field
            t1 = time.perf_counter()
            u_old = u
            u, diag = assemble_representation(model, boundary, g_field, below)
        t2 = time.perf_counter()
        change = (u - u_old).sup_norm()
        del u_old
        trace.append({"sup_change": change, "residual_sup": res_sup, **diag,
                      "collocation_s": t1 - t0, "assembly_s": t2 - t1})
        if change < tol:
            break
        if it >= 3:
            _check_contraction(it, trace[-2]["sup_change"], change, tol, max_iter)
    else:
        raise NonContractionError(
            f"no convergence within {max_iter} iterations: Picard iteration {it} "
            f"changed the iterate by {change:.3e}, tolerance {tol:.1e}"
        )

    # one last pass with the noise-floored inhomogeneity keeps the deep
    # exponential tails of each mode profile clean for rate analysis
    g_clean = truncate_mode_noise(g_field)
    del g_field
    with _stage(f"final pass after Picard iteration {it}"):
        u, diag = assemble_representation(model, boundary, g_clean, below)
    del g_clean

    with _stage("final residual"):
        residual = geometry.monge_ampere_residual(model, u, _ITERATION_ORDER)
    res_sup = residual.sup_norm(grid.interior(_ITERATION_ORDER))
    state = PicardState(
        iteration=it,
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


def extract_tangent_cone(u: Field, n: int):
    """Least-squares fit of the radial mean against -(n+1) log(1 + c x) on
    the inner half of the grid, by Gauss-Newton steps kept inside
    1 + c x > 0; returns (c, rms)."""
    x = u.grid.x
    prof = u.radial_mean()
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
        while math.isfinite(dc) and np.any(1.0 + (c + dc) * xs <= 0.0):  # halve a step that leaves 1 + c x > 0
            dc *= 0.5
        c += dc
        if abs(dc) <= 1e-15 * max(1.0, abs(c)):
            break
    rms = float(np.sqrt(np.mean((ys + (n + 1) * np.log1p(c * xs)) ** 2)))
    return c, rms
