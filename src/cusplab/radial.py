"""Purely radial machinery.

Three independent pieces live here:

* the one-parameter ODE family psi' = ((n+1)(e^{psi+a} + b))^{1/(n+1)}
  behind the rotation-invariant Einstein metrics, integrated in its
  first-order (monotone) form so the conserved combination
  (psi')^{n+1}/(n+1) - e^{psi+a} is available as a free invariant,
* the formal power series psi = C_1 x + C_2 x^2 + ... obtained by matching
  orders in the radial equation; the recursion is triangular with pivot
  (k-1)(k+n+1) and its limit is the closed form -(n+1) log(1 + c x),
* the variation-of-parameters kernel for the zero torus mode, built from
  the homogeneous solutions x and x^{-n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DecayPreconditionError, NumericalError
from .grid import RadialGrid, uniform_derivative

# solve_ivp raises any smaller rtol to this, with a UserWarning
_MIN_TOL = 100 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class CalabiTrajectory:
    """Solution samples of the radial Einstein ODE.

    t_nodes are decreasing (toward the cusp); psi_prime is evaluated from
    the first-order equation, so the first integral is conserved by
    construction and accuracy is judged by the second-order residual.
    """

    n: int
    a: float
    b: float
    t_nodes: np.ndarray
    psi: np.ndarray
    psi_prime: np.ndarray
    breakdown_t: float | None = None

    def first_integral(self) -> np.ndarray:
        return self.psi_prime ** (self.n + 1) / (self.n + 1) - np.exp(self.psi + self.a)

    def first_integral_drift(self) -> float:
        fi = self.first_integral()
        scale = max(1.0, abs(self.b))
        return float(np.max(np.abs(fi - self.b)) / scale)

    def ode_residual(self) -> float:
        """Residual of (psi')^{n-1} psi'' = e^{psi+a} with a 4th-order psi''
        on at least 6 nodes, sup-normalized by the largest forcing value (the
        forcing decays exponentially along the cusp, so pointwise
        normalization would just measure roundoff there).  Interior nodes only."""
        t = self.t_nodes
        if len(t) < 6:
            raise NumericalError(f"trajectory has {len(t)} nodes before breakdown, fewer than its residual's 6")
        psi_pp = uniform_derivative(self.psi_prime, t[1] - t[0], 1, order=4)
        rhs = np.exp(self.psi + self.a)
        res = self.psi_prime ** (self.n - 1) * psi_pp - rhs
        return float(np.max(np.abs(res[2:-2])) / np.max(rhs))


def integrate_calabi(
    n: int,
    a: float,
    b: float,
    t0: float,
    t_end: float,
    tol: float = 1e-12,
    psi0: float = 0.0,
) -> CalabiTrajectory:
    """Integrate psi' = ((n+1)(e^{psi+a} + b))^{1/(n+1)} from t0 down to t_end,
    sampled on 800 uniform nodes.

    For b < 0 the admissible interval has a finite lower bound; integration
    stops at the breakdown floor e^{psi+a} + b = -b/2 and records the
    breakdown t-value.  An initial level at or below that floor, and a tol
    below solve_ivp's rtol floor of 100 machine epsilons (which it would
    raise tol to), are refused.
    """
    if t_end >= t0:
        raise ConfigError("t_end must be below t0 (integration runs toward the cusp)")
    if not np.isfinite(t0 - t_end):
        raise ConfigError(f"t0 - t_end overflows at t0 = {t0:g}, t_end = {t_end:g}")
    if not tol >= _MIN_TOL:
        raise ConfigError(f"tol = {tol:g} is below solve_ivp's rtol floor 100 eps = {_MIN_TOL}")
    level = np.exp(psi0 + a) + b
    floor = -0.5 * b  # for b < 0, stop when e^{psi+a} has eaten half the margin
    if b < 0 and not level > floor:
        raise ConfigError(f"initial level e^(psi0 + a) + b = {level:.6g} is at or below "
                          f"the breakdown floor -b/2 = {floor:.6g}")
    if level <= 0:
        raise ConfigError("initial value violates positivity of the conserved level")

    p = n + 1

    def rhs(t, y):
        lvl = np.exp(y[0] + a) + b
        return [(p * lvl) ** (1.0 / p)]

    events = None
    if b < 0:
        def near_breakdown(t, y):
            return (np.exp(y[0] + a) + b) - floor

        near_breakdown.terminal = True
        near_breakdown.direction = -1
        events = [near_breakdown]

    # imported here: scipy.integrate pulls in scipy.optimize, and only this
    # trajectory needs it, so no other command pays for the import
    from scipy.integrate import solve_ivp

    t_nodes = np.linspace(t0, t_end, 800)
    sol = solve_ivp(
        rhs,
        (t0, t_end),
        [psi0],
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=t_nodes,
        events=events,
        dense_output=False,
    )
    if not sol.success and sol.status != 1:
        raise NumericalError(f"radial ODE integration failed: {sol.message}")
    breakdown = None
    if sol.status == 1 and events is not None:
        breakdown = float(sol.t_events[0][0])
    t_used = sol.t
    psi = sol.y[0]
    psi_prime = np.array([rhs(t, [y])[0] for t, y in zip(t_used, psi)])
    if np.any(psi_prime <= 0):
        raise NumericalError("psi' lost positivity along the trajectory")
    return CalabiTrajectory(n, a, b, t_used, psi, psi_prime, breakdown)


def cone_angle(n: int, b: float):
    """Cone angle 2 pi ((n+1) b)^{1/(n+1)} of the conical family, together
    with an empirical slope limit from a long integration (Aitken-accelerated
    psi' at t = -20, -40, -80)."""
    if b <= 0:
        raise ConfigError(f"need b > 0, got {b}")
    c = ((n + 1) * b) ** (1.0 / (n + 1))
    traj = integrate_calabi(n, 0.0, b, t0=-1.0, t_end=-80.0, tol=1e-12, psi0=0.0)
    probes = []
    for t_probe in (-20.0, -40.0, -80.0):
        idx = int(np.argmin(np.abs(traj.t_nodes - t_probe)))
        probes.append(traj.psi_prime[idx])
    p0, p1, p2 = probes
    denom = p2 - 2.0 * p1 + p0
    if abs(denom) > 1e-14 * max(1.0, abs(p2)):
        empirical = p2 - (p2 - p1) ** 2 / denom
    else:
        empirical = p2
    return 2.0 * np.pi * c, float(empirical)


def radial_volume_ratio(n: int, x, psi, psi_x, psi_xx):
    """(n+1+x psi')^{n-1} (n+1+x(x psi)'') / (n+1)^n for a radial potential.

    Derivatives are passed explicitly so closed forms stay exact; grid
    callers supply finite differences.
    """
    x = np.asarray(x, dtype=float)
    f1 = n + 1 + x * psi_x
    f2 = n + 1 + 2.0 * x * psi_x + x**2 * psi_xx
    if np.any(f1 <= 0) or np.any(f2 <= 0):
        raise NumericalError("volume ratio degenerate: a metric factor lost positivity")
    return f1 ** (n - 1) * f2 / (n + 1) ** n


# --- formal power series ---


def _log1p_minus_series(u: list, n: int, K: int) -> list:
    """log(1 + y) - y for y = u/(n+1) as a truncated series in x through
    order K, in exact rational arithmetic (u holds Fractions, u[0] = 0).

    L = log(1 + y) solves (1 + y) L' = y', whose x^(k-1) coefficient gives
    k L_k = k y_k - sum_{j<k} j L_j y_{k-j}.
    """
    y = [u[k] / (n + 1) for k in range(K + 1)]
    L = [Fraction(0)] * (K + 1)
    for k in range(1, K + 1):
        L[k] = y[k] - sum((j * L[j] * y[k - j] for j in range(1, k)), Fraction(0)) / k
    return [lk - yk for lk, yk in zip(L, y)]


# The exact coefficients cost a fast-growing amount of rational arithmetic
# (order 40 takes about 0.2 s on a 2-vCPU VM), so orders past the cap
# are refused before any of it starts.
_MAX_ORDER = 40


@lru_cache(maxsize=32)
def _unit_coefficients(n: int, K: int):
    """Exact coefficients D_k of the formal solution with D_1 = 1.

    The radial equation is invariant under rescaling x, so the general
    solution is C_k = D_k c1^k.  Computed once in rational arithmetic; the
    triangular pivot (k-1)(k+n+1) never vanishes for k >= 2.
    """
    D = [Fraction(0)] * (K + 1)
    D[1] = Fraction(1)
    for k in range(2, K + 1):
        # the x^k coefficient of log(1 + y) - y involves u_1..u_k only: truncate at k
        u = [i * D[i] for i in range(k + 1)]
        v = [i * (i + 1) * D[i] for i in range(k + 1)]
        val = -(n + 1) * ((n - 1) * _log1p_minus_series(u, n, k)[k] + _log1p_minus_series(v, n, k)[k])
        D[k] = val / ((k - 1) * (k + n + 1))
    return tuple(D)


def expand_formal(n: int, c1: float, K: int) -> np.ndarray:
    """Coefficients C_0..C_K of psi = sum_{k>=1} C_k x^k (C_0 = 0) from
    order matching; C_1 given.

    Matching the x^k coefficient gives (k-1)(k+n+1) C_k on the linear side
    and a polynomial in C_1..C_{k-1} on the nonlinear side, so the system
    is triangular and never singular for k >= 2.
    """
    if not 1 <= K <= _MAX_ORDER:
        raise ConfigError(f"need 1 <= K <= {_MAX_ORDER}, got {K}")
    D = _unit_coefficients(n, K)
    C = np.zeros(K + 1)
    try:
        for k in range(1, K + 1):
            C[k] = float(D[k]) * c1**k
    except OverflowError:
        raise NumericalError(f"c1^k overflows at c1 = {c1:g}, k = {k}") from None
    return C


def series_equation_residual(n: int, coeffs: np.ndarray) -> float:
    """Max |coefficient| of (linear side - nonlinear side) through order K
    for the coefficients C_0..C_K of `expand_formal`; zero for a solution.

    Evaluated exactly on the rationals equal to the float coefficients, so
    the residual measures the coefficients' own error and not cancellation
    among the alternating, binomial-sized terms of log(1 + u/(n+1)).
    """
    K = len(coeffs) - 1
    C = [Fraction(float(c)) for c in coeffs]
    lhs = [(k - 1) * (k + n + 1) * C[k] for k in range(K + 1)]
    u = [k * C[k] for k in range(K + 1)]
    v = [k * (k + 1) * C[k] for k in range(K + 1)]
    q1 = _log1p_minus_series(u, n, K)
    q2 = _log1p_minus_series(v, n, K)
    rhs = [-(n + 1) * ((n - 1) * q1[k] + q2[k]) for k in range(K + 1)]
    return float(max(abs(l - r) for l, r in zip(lhs, rhs)))


def tangent_cone_coefficients(n: int, c: float, K: int) -> np.ndarray:
    """Taylor coefficients of -(n+1) log(1 + c x) through order K."""
    k = np.arange(K + 1, dtype=float)
    out = np.zeros(K + 1)
    out[1:] = (n + 1) * (-c) ** k[1:] / k[1:]
    return out


# --- zero-mode kernel ---


def interval_integrals(h: float, y: np.ndarray, rho: float = 1.0, out: np.ndarray | None = None,
                       work: np.ndarray | None = None) -> np.ndarray:
    """Per-interval integrals of y ds on a uniform grid of step h, 4th order,
    written to `out` when given (len(y) - 1 values); the products of the
    rule go to `work` when given, a row of at least len(y) - 3 elements of
    out's dtype.

    Each interval integrates the cubic through its four nearest nodes, so
    the error varies smoothly from node to node (no odd/even sawtooth) and
    stays harmless under second differences.  With a ratio rho = exp(-d),
    interval k integrates y(s) exp(sigma_k - sigma(s)) for an exponent
    sigma of uniform step d per node instead: the same weights act on
    y_l rho^(l - k), so the mode kernels' exponents never meet unpaired and
    only the five scalars rho^(+-1), rho^(+-2), rho^3 are ever formed.  At
    rho = 1 every factor is exactly 1 and the plain rule comes out bit for bit.
    """
    nn = len(y)
    if nn < 4:
        raise ConfigError("cumulative integral needs at least 4 nodes")
    rho2, inv = rho * rho, 1.0 / rho
    seg = np.empty(nn - 1, dtype=y.dtype) if out is None else out
    mid = seg[1:-1]
    term = np.empty(nn - 3, dtype=seg.dtype) if work is None else work[: nn - 3]
    np.multiply(-inv, y[:-3], out=mid)
    for weight, yl in ((13.0, y[1:-2]), (13.0 * rho, y[2:-1]), (-rho2, y[3:])):
        mid += np.multiply(weight, yl, out=term)
    mid *= h / 24.0
    seg[0] = (h / 24.0) * (9.0 * y[0] + 19.0 * rho * y[1] - 5.0 * rho2 * y[2] + rho2 * rho * y[3])
    seg[-1] = (h / 24.0) * (inv * inv * y[-4] - 5.0 * inv * y[-3] + 19.0 * y[-2] + 9.0 * rho * y[-1])
    return seg


def cumulative_integral(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """int_{s_0}^{s_i} y ds, accumulated from the first node."""
    seg = interval_integrals(s[1] - s[0], y)
    out = np.zeros(len(s), dtype=y.dtype)
    np.cumsum(seg, out=out[1:])
    return out


def reverse_cumulative_integral(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """int_{s_i}^{s_end} y ds, accumulated from the last node so that values
    near the far end keep full relative accuracy (no large-sum cancellation)."""
    seg = interval_integrals(s[1] - s[0], y)
    out = np.zeros(len(s), dtype=y.dtype)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def _power_fit(x_tail: np.ndarray, g_tail: np.ndarray) -> float:
    """Log-log slope of |g| on the deepest nodes."""
    mask = np.abs(g_tail) > 0
    if mask.sum() < 2:
        return np.inf  # identically zero tail: any decay rate works
    lx = np.log(x_tail[mask])
    if not np.ptp(lx) > 1e-12 * np.max(np.abs(lx)):  # a narrower span leaves polyfit rank deficient
        raise ConfigError(f"the deepest nodes span {np.ptp(lx):.3g} of log x, too little to fit the tail's decay power")
    return float(np.polyfit(lx, np.log(np.abs(g_tail[mask])), 1)[0])


def radial_rep_l0(n: int, grid: RadialGrid, g0: np.ndarray, u_x0: float) -> np.ndarray:
    """Solution of x^2 u'' + (n+1) x u' - (n+1) u = g0 with value u_x0 at the
    boundary node and decay at x -> 0, by variation of parameters on the
    homogeneous solutions x and x^{-n-1}.

    g0 must decay at least like x^{1+eps}, so that the t^{-2} kernel
    integral stays bounded as x -> 0; the below-grid tail of the t^n kernel
    integral is estimated from a fitted power of the deepest nodes.
    """
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (len(grid),):
        raise ConfigError("g0 must be sampled on the grid")
    x = grid.x
    s = grid.s
    x0 = grid.x0
    try:  # x^-(n+1) also bounds the radial derivatives' s^6 = x^-3 at the deepest node
        x0_power, _ = x0 ** (-(n + 2)), x[-1].item() ** -(n + 1)
    except OverflowError:
        raise ConfigError(f"x0 = {x0:.6g} or the deepest node x = {x[-1]:.6g} is too small for n = {n}: "
                          "x0^-(n+2) or x^-(n+1) overflows") from None
    gmax = float(np.max(np.abs(g0)))

    tail_P = 0.0
    if gmax > 0 and abs(g0[-1]) > 1e-13 * gmax:
        tail_p = _power_fit(x[-6:], g0[-6:])
        if tail_p < 1.02:
            raise DecayPreconditionError(
                f"zero-mode inhomogeneity decays like x^{tail_p:.3f}; "
                "need better than x^1 for the kernel integrals"
            )
        xm = x[-1]
        tail_P = g0[-1] * xm ** (n + 1) / (n + 1 + tail_p)

    # integrals in s: dt = -2 s^{-3} ds
    w = 2.0 / s**3
    yP = x**n * g0 * w
    yQ = g0 / x**2 * w
    P = tail_P + reverse_cumulative_integral(s, yP)  # int_0^{x_i} t^n g0 dt
    Q = cumulative_integral(s, yQ)  # int_{x_i}^{x0} t^{-2} g0 dt
    coeff = u_x0 / x0 + x0_power / (n + 2) * P[0]
    return coeff * x - x ** (-(n + 1)) / (n + 2) * P - x / (n + 2) * Q
