"""Decay-rate fitting and related diagnostics.

The sharp envelope for a remainder governed by the first torus eigenvalue is

    H(x) = x^{-n/2 + 1/4} exp(-2 sqrt(lambda_1) / sqrt(x)).

decay_fit estimates (amplitude, power p, exponential coefficient delta) in
the model A x^p exp(-delta/sqrt(x)) by linear least squares of log|v|
against {1, log x, 1/sqrt(x)}; rate_fit solves with cosine boundary data,
fits the profile of its (1, 0, ...) mode and returns the envelope's targets
delta = 2 sqrt(lambda) and p = -n/2 + 1/4 beside the fit.

lemma43_check validates the two calculus inequalities

    int_0^x  t^k exp(-c/sqrt(t)) dt  <  (2/c)       x^{k+3/2} exp(-c/sqrt(x)),
    int_x^x0 t^k exp(+c/sqrt(t)) dt  <  ((2+eps)/c) x^{k+3/2} exp(+c/sqrt(x)),

the second on the admissible window x0 <= (eps/(2+eps) * c/(2k+3))^2, and
the limit 2 of the first ratio as x -> 0.  Substituting tau = 1/sqrt(t)
turns both ratios into well-conditioned one-dimensional integrals

    R1(x) = 2c int_0^inf        (1 + w/tau0)^{-(2k+3)} e^{-c w} dw,
    R2(x) = 2c int_0^{tau0-tau1} (1 - w/tau0)^{-(2k+3)} e^{-c w} dw,

with tau0 = 1/sqrt(x), both evaluated by panelled Gauss-Legendre
quadrature, R1's infinite range cut at w = 45/c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import modes, spectrum
from .errors import ConfigError, NumericalError


def barrier_sign(n: int, p: float) -> float:
    """Coefficient of x^p in L(x^p): (p-1)(p+n+1)/(n+1).

    Negative for 0 < p < 1 (supersolutions), zero at the homogeneous
    exponents p = 1 and p = -n-1, positive for p > 1.
    """
    return (p - 1.0) * (p + n + 1.0) / (n + 1.0)


def window_from_s(lam1: float, s_lo: float, s_hi: float):
    """Convert a window in s = 2 sqrt(lam1)/sqrt(x) units to x bounds (x_hi = inf past the float range)."""
    with np.errstate(over="ignore"):
        return (2.0 * np.sqrt(lam1) / s_hi) ** 2, (2.0 * np.sqrt(lam1) / s_lo) ** 2


# decay_fit's least-squares fit of three parameters needs this many window nodes
MIN_FIT_NODES = 8


def window_mask(x, window) -> np.ndarray:
    """The nodes of x in the window (x_lo, x_hi); refuses fewer than MIN_FIT_NODES."""
    x_lo, x_hi = window
    mask = (x >= x_lo) & (x <= x_hi)
    if mask.sum() < MIN_FIT_NODES:
        raise ConfigError(f"window x in [{x_lo:.6g}, {x_hi:.6g}] holds {mask.sum()} grid nodes; need {MIN_FIT_NODES}")
    return mask


@dataclass(frozen=True)
class DecayFit:
    delta: float
    p: float
    amplitude: float
    rms: float
    nodes: int

    def envelope(self, x):
        """The fitted model A x^p exp(-delta/sqrt(x)) at x."""
        return self.amplitude * x**self.p * np.exp(-self.delta / np.sqrt(x))


def decay_fit(x, profile, window) -> DecayFit:
    """Fit |profile| ~ A x^p exp(-delta/sqrt(x)) on the window (x_lo, x_hi).

    All three parameters are fitted.  The profile must have one sign on the
    window; the rms of log|profile| against the model is always reported.
    An envelope past the float range on the window raises NumericalError.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(profile, dtype=float)
    mask = window_mask(x, window)
    xv = x[mask]
    vv = v[mask]
    if np.any(vv == 0) or (np.any(vv > 0) and np.any(vv < 0)):
        raise ConfigError("profile changes sign (or vanishes) inside the fit window")
    y = np.log(np.abs(vv))
    cols = np.column_stack([np.ones_like(xv), np.log(xv), -1.0 / np.sqrt(xv)])
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    log_a, p_fit, delta_fit = coef
    resid = y - cols @ coef
    with np.errstate(over="ignore", invalid="ignore"):
        fit = DecayFit(delta=float(delta_fit), p=float(p_fit), amplitude=float(np.exp(log_a)),
                       rms=float(np.sqrt(np.mean(resid**2))), nodes=int(mask.sum()))
        finite = np.all(np.isfinite(fit.envelope(xv)))
    if not finite:
        raise NumericalError(f"decay fit A = {fit.amplitude:.3e}, p = {fit.p:.6g}, delta = {fit.delta:.6g}: its envelope "
                             f"leaves the float range on a window of {fit.nodes} nodes too narrow to separate the three")
    return fit


def cosine_key(n: int) -> tuple:
    """The torus mode (1, 0, ...) of the cosine boundary, the mode `rate_fit` fits."""
    return (1,) + (0,) * (2 * n - 3)


def cosine_boundary(n: int, amplitude: float) -> dict:
    """Boundary data amplitude cos(2 pi t_1): `cosine_key` and its conjugate at amplitude/2 each."""
    k = cosine_key(n)
    return {k: amplitude / 2.0, tuple(-i for i in k): amplitude / 2.0}


def rate_fit(model, grid, boundary: dict, s_lo: float, s_hi: float, **solver):
    """Solve with `boundary` (`solver` goes to modes.picard_solve) and fit the
    profile of its (1, 0, ...) mode on the window s = 2 sqrt(lam)/sqrt(x) in
    [s_lo, s_hi], lam that mode's eigenvalue.  Boundary data without the mode,
    s_lo >= s_hi and a window of too few nodes are refused before the solve.
    Returns (fit, the theory's (delta, p) = (2 sqrt(lam), -n/2 + 1/4), the
    window's nodes x, |profile| on them, u, state)."""
    key = cosine_key(model.n)
    if not boundary.get(key):
        raise ConfigError("the rate fit needs boundary data with a nonzero (1, 0, ...) mode")
    if not s_lo < s_hi:
        raise ConfigError(f"the fit window needs s_lo < s_hi, got s_lo = {s_lo}, s_hi = {s_hi}")
    lam = spectrum.mode_eigenvalue(model, key)
    window = window_from_s(lam, s_lo, s_hi)
    mask = window_mask(grid.x, window)
    u, state = modes.picard_solve(model, boundary, grid, **solver)
    x, profile = grid.x[mask], np.abs(u.mode(key)[mask])
    targets = (2.0 * np.sqrt(lam), -model.n / 2.0 + 0.25)
    return decay_fit(x, profile, window), targets, x, profile, u, state


# --- calculus inequality checks ---


@lru_cache(maxsize=1)
def _legendre_nodes():
    return np.polynomial.legendre.leggauss(64)


def _panelled_exp_integral(fn, c: float, upper: float) -> float:
    """int_0^upper fn(w) e^{-c w} dw by Gauss-Legendre panels of width ~8/c."""
    yg, wg = _legendre_nodes()
    panels = max(1, int(np.ceil(upper * c / 8.0)))
    edges = np.linspace(0.0, upper, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        wmid = 0.5 * (b - a) * yg + 0.5 * (a + b)
        ww = 0.5 * (b - a) * wg
        total += float(ww @ (fn(wmid) * np.exp(-c * wmid)))
    return total


def _ratio(c: float, k: float, x, sign: float, tau1: float) -> np.ndarray:
    """2c int_0^upper (1 + sign w/tau0)^{-(2k+3)} e^{-cw} dw at each x, with
    tau0 = 1/sqrt(x) and upper = min(tau0 - tau1, 45/c): the integrand is
    ~ e^{-c w}, so past ~45/c the contribution is below 1e-18."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        tau0 = 1.0 / np.sqrt(xi)
        upper = min(tau0 - tau1, 45.0 / c)
        out[i] = 2.0 * c * _panelled_exp_integral(
            lambda w: (1.0 + sign * w / tau0) ** (-(2.0 * k + 3.0)), c, upper
        )
    return out


def ratio_lower(c: float, k: float, x) -> np.ndarray:
    """R1(x) = c int_0^x t^k e^{-c/sqrt(t)} dt / (x^{k+3/2} e^{-c/sqrt(x)}).

    With tau0 = 1/sqrt(x) this is 2c int_0^inf (1+w/tau0)^{-(2k+3)} e^{-cw} dw,
    manifestly approaching 2 as x -> 0."""
    return _ratio(c, k, x, 1.0, -np.inf)


def ratio_upper(c: float, k: float, x, x0: float) -> np.ndarray:
    """R2(x) = c int_x^{x0} t^k e^{+c/sqrt(t)} dt / (x^{k+3/2} e^{+c/sqrt(x)})."""
    return _ratio(c, k, x, -1.0, 1.0 / np.sqrt(x0))


@dataclass(frozen=True)
class CalculusReport:
    c: float
    k: float
    eps: float
    sup_r1: float
    limit_r1: float
    sup_r2: float
    x0_admissible: float
    passed: bool


def lemma43_check(c: float, k: float, x_max: float, eps: float = 1.0) -> CalculusReport:
    """Check sup R1 < 2, R1 -> 2 as x -> 0 (within 1%), and sup R2 < 2+eps on
    the admissible window for the second inequality (200 and 100 nodes)."""
    if c <= 0 or k <= -1.5:
        raise ConfigError("need c > 0 and k > -3/2")
    root = eps / (2.0 + eps) * c / (2.0 * k + 3.0)
    if not 1e-150 < root < 1e150:  # keeps x0 and the nodes down to 1e-6 x0 normal floats
        raise ConfigError(f"admissible x0 = ({root:.3g})^2 leaves float range (c = {c:g}, k = {k:g}, eps = {eps:g})")
    x0_adm = root**2
    xs = np.geomspace(1e-6, x_max, 200)
    r1 = ratio_lower(c, k, xs)
    sup_r1 = float(np.max(r1))
    limit_r1 = float(r1[0])
    xs2 = np.geomspace(x0_adm * 1e-6, x0_adm * 0.999, 100)
    sup_r2 = float(np.max(ratio_upper(c, k, xs2, x0_adm)))
    passed = (sup_r1 < 2.0) and (abs(limit_r1 - 2.0) <= 0.02) and sup_r2 < 2.0 + eps
    return CalculusReport(c, k, eps, sup_r1, limit_r1, sup_r2, x0_adm, passed)
