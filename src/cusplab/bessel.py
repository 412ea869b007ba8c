"""Radial mode kernels in overflow-safe scaled form.

The homogeneous radial mode solutions are

    H1(x) = x^{-n/2} I_{n+2}(2 sqrt(lambda)/sqrt(x)),
    H2(x) = x^{-n/2} K_{n+2}(2 sqrt(lambda)/sqrt(x)),

increasing resp. decreasing in 1/x, with Wronskian H1 H2' - H1' H2 =
1/(2 x^{n+1}).  `HPair` is the one (mantissa, exponent) type: it stores
H1 = h1_mantissa * exp(+s) and H2 = h2_mantissa * exp(-s) with
s = 2 sqrt(lambda)/sqrt(x).  Downstream code combines exponents additively
and only exponentiates differences that are guaranteed to be <= 0, so raw
values like I_alpha(2000) are never materialized.

The scaled values e^{-s} I_alpha(s) and e^{s} K_alpha(s) of any order are
``scipy.special.ive`` and ``kve`` (Amos's algorithm, ACM TOMS 644); callers
that want them call scipy directly.  `h_pair` builds order n + 2 from
orders 0 and 1 by the order recurrences of DLMF 10.29.1.  It takes three
scaled calls, ``k0e``, ``k1e`` and ``i0e``, each a few times cheaper than one
``ive``/``kve`` call; e^{-s} I_1 follows from the Wronskian of DLMF 10.28.2.
`h_pair` writes its exponent and mantissas into the rows of one (3, N)
block, in `pool.run` tasks of `pool.BLOCK` = 2^13 nodes, each written
straight into slices of the rows, so no full-grid temporary is made; the
tasks run on the thread pool past its size rule (two blocks per worker) and
on the caller below it, with the same operations on every node either way.
`wronskian_residuals` checks both kernel identities, with derivatives
taken through the stable order recurrences I' = (I_{a-1} + I_{a+1})/2,
K' = -(K_{a-1} + K_{a+1})/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, ive, k0e, k1e, kve

from . import pool
from .errors import ConfigError


def _check_args(alpha: int, s) -> np.ndarray:
    if alpha < 3 or alpha != int(alpha):
        raise ConfigError(f"order must be an integer >= 3, got {alpha}")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s <= 0):
        raise ConfigError("argument s must be positive")
    return s


def _i_prime(alpha: int, s: np.ndarray) -> np.ndarray:
    """e^{-s} I_alpha'(s) by the order recurrence I' = (I_{a-1} + I_{a+1}) / 2."""
    return 0.5 * (ive(alpha - 1, s) + ive(alpha + 1, s))


def _k_prime(alpha: int, s: np.ndarray) -> np.ndarray:
    """e^{+s} K_alpha'(s) by the order recurrence K' = -(K_{a-1} + K_{a+1}) / 2."""
    return -0.5 * (kve(alpha - 1, s) + kve(alpha + 1, s))


def wronskian_residuals(alpha: int, s):
    """Relative residuals of the two kernel identities at argument s.

    First: I_a K_a' - I_a' K_a = -1/s.  Second: with n = alpha - 2,
    lambda = 1 and t = 4/s^2, the mode Wronskian H1 H2' - H1' H2 =
    1/(2 t^{n+1}).  All products combine scaled mantissas so both hold
    at any magnitude of s.
    """
    sv = _check_args(alpha, s)
    i0, i1 = ive(alpha, sv), _i_prime(alpha, sv)
    k0, k1 = kve(alpha, sv), _k_prime(alpha, sv)
    abel = i0 * k1 - i1 * k0
    res_abel = np.abs(abel + 1.0 / sv) * sv

    n = alpha - 2
    lam = 1.0
    t = 4.0 * lam / sv**2
    tpow = t ** (-0.5 * n)
    h1 = tpow * i0
    h2 = tpow * k0
    dpref = -0.5 * n * tpow / t
    spref = np.sqrt(lam) * tpow / t**1.5
    h1p = dpref * i0 - spref * i1
    h2p = dpref * k0 - spref * k1
    wr = h1 * h2p - h1p * h2
    target = 0.5 * t ** (-(n + 1.0))
    res_mode = np.abs(wr - target) / target
    return res_abel, res_mode


@dataclass(frozen=True)
class HPair:
    """Homogeneous mode solutions in scaled form at nodes x.

    h1 = h1_mantissa * exp(+exponent), h2 = h2_mantissa * exp(-exponent)
    with exponent = 2 sqrt(lambda) / sqrt(x).
    """

    h1_mantissa: np.ndarray
    h2_mantissa: np.ndarray
    exponent: np.ndarray


def _raise_order(alpha: int, s: np.ndarray, f0: np.ndarray, f1: np.ndarray, sign: float) -> np.ndarray:
    """Order alpha from the order-0 and order-1 values f0, f1 by
    f_{a+1} = f_{a-1} + sign (2a/s) f_a (DLMF 10.29.1): sign +1 for e^{s} K,
    -1 for e^{-s} I."""
    c = sign * 2.0 / s
    prev, cur = f0, f1
    for a in range(1, alpha):
        prev, cur = cur, prev + (a * c) * cur
    return cur


def _i_far(alpha: int, s: np.ndarray, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """e^{-s} I_alpha(s) for alpha >= 1 and s >= 2 alpha, from e^{-s} I_0 and
    the scaled K_0, K_1 already at hand.  e^{-s} I_1 comes from the
    Wronskian I_0 K_1 + I_1 K_0 = 1/s (DLMF 10.28.2), whose scale factors
    cancel; both products are about 1/(2s), so the difference loses at most
    a bit."""
    i0 = i0e(s)
    return _raise_order(alpha, s, i0, (1.0 / s - i0 * k1) / k0, -1.0)


def _pair_block(n: int, c: float, x: np.ndarray, s: np.ndarray, m1: np.ndarray, m2: np.ndarray):
    """Exponent s = c/sqrt(x) and both mantissas at the nodes x of one
    block, written into s, m1 and m2 (slices of `h_pair`'s rows)."""
    alpha = n + 2
    np.divide(c, np.sqrt(x), out=s)
    pref = x ** (-0.5 * n)
    k0, k1 = k0e(s), k1e(s)
    # K's forward recurrence adds positive terms, so it is stable for all s.
    # I's cancels as s falls under the order (relative error 2.4e-12 at
    # s = 2 and 0.7 at s = 0.05 for alpha = 5); from s = 2 alpha on, started
    # from the Wronskian's I_1, it stays within 2.2e-15 of 40-digit values
    # for alpha = 3, 4 and 8.2e-15 for alpha = 5, 6, and ive serves the
    # nodes below.
    far = s >= 2.0 * alpha
    if far.all():
        i = _i_far(alpha, s, k0, k1)
    else:
        i = np.empty_like(s)
        i[far] = _i_far(alpha, s[far], k0[far], k1[far])
        i[~far] = ive(alpha, s[~far])
    np.multiply(pref, i, out=m1)
    np.multiply(pref, _raise_order(alpha, s, k0, k1, 1.0), out=m2)


def h_pair(n: int, lam: float, x) -> HPair:
    """Both homogeneous solutions of the mode equation at eigenvalue lam on
    the nodes x (a scalar or a 1-D array), from three scaled Bessel calls
    (k0e, k1e, i0e), plus ive on the nodes below the far branch
    s >= 2(n + 2); the exponent, m1 and m2 are the rows of one (3, N) block,
    filled by one `_pair_block` task per `pool.BLOCK` nodes (`pool.run`)."""
    if not (lam > 0 and np.isfinite(lam)):
        raise ConfigError(f"need a finite lambda > 0, got {lam}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xv <= 0):
        raise ConfigError("x must be positive")
    nodes = len(xv)
    s, m1, m2 = np.empty((3, nodes))
    c = 2.0 * np.sqrt(lam)
    blocks = [slice(a, a + pool.BLOCK) for a in range(0, nodes, pool.BLOCK)]
    pool.run([(_pair_block, n, c, xv[b], s[b], m1[b], m2[b]) for b in blocks], nodes)
    return HPair(m1, m2, s)
