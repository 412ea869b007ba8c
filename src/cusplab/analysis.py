"""Decay-rate fitting and related diagnostics.

The sharp envelope for a remainder governed by the first torus eigenvalue is

    H(x) = x^{-n/2 + 1/4} exp(-2 sqrt(lambda_1) / sqrt(x)).

decay_fit estimates (amplitude, power p, exponential coefficient delta) in
the model A x^p exp(-delta/sqrt(x)) by linear least squares of log|v|
against {1, log x, 1/sqrt(x)}.

lemma43_check validates the two calculus inequalities

    int_0^x  t^k exp(-c/sqrt(t)) dt  <  (2/c)       x^{k+3/2} exp(-c/sqrt(x)),
    int_x^x0 t^k exp(+c/sqrt(t)) dt  <  ((2+eps)/c) x^{k+3/2} exp(+c/sqrt(x)),

the second on the admissible window x0 <= (eps/(2+eps) * c/(2k+3))^2, and
the limit 2 of the first ratio as x -> 0.  Substituting tau = 1/sqrt(t)
turns both ratios into well-conditioned one-dimensional integrals

    R1(x) = 2c int_0^inf        (1 + w/tau0)^{-(2k+3)} e^{-c w} dw,
    R2(x) = 2c int_0^{tau0-tau1} (1 - w/tau0)^{-(2k+3)} e^{-c w} dw,

with tau0 = 1/sqrt(x), evaluated by Gauss-Laguerre resp. panelled
Gauss-Legendre quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


def barrier_sign(n: int, p: float) -> float:
    """Coefficient of x^p in L(x^p): (p-1)(p+n+1)/(n+1).

    Negative for 0 < p < 1 (supersolutions), zero at the homogeneous
    exponents p = 1 and p = -n-1, positive for p > 1.
    """
    return (p - 1.0) * (p + n + 1.0) / (n + 1.0)


def window_from_s(lam1: float, s_lo: float, s_hi: float):
    """Convert a window in s = 2 sqrt(lambda_1)/sqrt(x) units to x bounds."""
    return (2.0 * np.sqrt(lam1) / s_hi) ** 2, (2.0 * np.sqrt(lam1) / s_lo) ** 2


# decay_fit's least-squares fit of three parameters needs this many window nodes
MIN_FIT_NODES = 8


@dataclass(frozen=True)
class DecayFit:
    window: tuple
    delta: float
    p: float
    amplitude: float
    rms: float
    nodes: int


def decay_fit(x, profile, window) -> DecayFit:
    """Fit |profile| ~ A x^p exp(-delta/sqrt(x)) on the window (x_lo, x_hi).

    All three parameters are fitted.  The profile must have one sign on the
    window; the rms of log|profile| against the model is always reported.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(profile, dtype=float)
    x_lo, x_hi = window
    mask = (x >= x_lo) & (x <= x_hi)
    if mask.sum() < MIN_FIT_NODES:
        raise ConfigError(f"window ({x_lo:.6g}, {x_hi:.6g}) contains {mask.sum()} nodes; need >= {MIN_FIT_NODES}")
    xv = x[mask]
    vv = v[mask]
    if np.any(vv == 0) or (np.any(vv > 0) and np.any(vv < 0)):
        raise ConfigError("profile changes sign (or vanishes) inside the fit window")
    y = np.log(np.abs(vv))
    cols = np.column_stack([np.ones_like(xv), np.log(xv), -1.0 / np.sqrt(xv)])
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    log_a, p_fit, delta_fit = coef
    resid = y - cols @ coef
    return DecayFit(
        window=(float(x_lo), float(x_hi)),
        delta=float(delta_fit),
        p=float(p_fit),
        amplitude=float(np.exp(log_a)),
        rms=float(np.sqrt(np.mean(resid**2))),
        nodes=int(mask.sum()),
    )


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


def ratio_lower(c: float, k: float, x) -> np.ndarray:
    """R1(x) = c int_0^x t^k e^{-c/sqrt(t)} dt / (x^{k+3/2} e^{-c/sqrt(x)}).

    With tau0 = 1/sqrt(x) this is 2c int_0^inf (1+w/tau0)^{-(2k+3)} e^{-cw} dw,
    manifestly approaching 2 as x -> 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        tau0 = 1.0 / np.sqrt(xi)
        upper = 45.0 / c
        out[i] = 2.0 * c * _panelled_exp_integral(
            lambda w: (1.0 + w / tau0) ** (-(2.0 * k + 3.0)), c, upper
        )
    return out


def ratio_upper(c: float, k: float, x, x0: float) -> np.ndarray:
    """R2(x) = c int_x^{x0} t^k e^{+c/sqrt(t)} dt / (x^{k+3/2} e^{+c/sqrt(x)})."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    tau1 = 1.0 / np.sqrt(x0)
    for i, xi in enumerate(x):
        tau0 = 1.0 / np.sqrt(xi)
        # integrand ~ e^{-c w}: past ~45/c the contribution is below 1e-18
        upper = min(tau0 - tau1, 45.0 / c)
        out[i] = 2.0 * c * _panelled_exp_integral(
            lambda w: (1.0 - w / tau0) ** (-(2.0 * k + 3.0)), c, upper
        )
    return out


@dataclass(frozen=True)
class CalculusReport:
    c: float
    k: float
    eps: float
    sup_r1: float
    limit_r1: float
    sup_r2: float | None
    x0_admissible: float | None
    passed: bool


def lemma43_check(c: float, k: float, x_max: float, eps: float = 1.0, num: int = 200) -> CalculusReport:
    """Check sup R1 < 2, R1 -> 2 as x -> 0 (within 1%), and sup R2 < 2+eps on
    the admissible window for the second inequality."""
    if c <= 0 or k <= -1.5:
        raise ConfigError("need c > 0 and k > -3/2")
    xs = np.geomspace(1e-6, x_max, num)
    r1 = ratio_lower(c, k, xs)
    sup_r1 = float(np.max(r1))
    limit_r1 = float(r1[0])
    sup_r2 = None
    x0_adm = None
    if 2.0 * k + 3.0 > 0:
        x0_adm = (eps / (2.0 + eps) * c / (2.0 * k + 3.0)) ** 2
        xs2 = np.geomspace(x0_adm * 1e-6, x0_adm * 0.999, num // 2)
        r2 = ratio_upper(c, k, xs2, x0_adm)
        sup_r2 = float(np.max(r2))
        r2_ok = sup_r2 < 2.0 + eps
    else:
        r2_ok = True  # admissible window empty: nothing to check
    passed = (sup_r1 < 2.0) and (abs(limit_r1 - 2.0) <= 0.02) and r2_ok
    return CalculusReport(c, k, eps, sup_r1, limit_r1, sup_r2, x0_adm, passed)
