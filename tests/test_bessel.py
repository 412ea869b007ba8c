import mpmath as mp
import numpy as np
import pytest
from scipy.special import ive, k0e, k1e, kve

from cusplab import bessel
from cusplab.errors import ConfigError

mp.mp.dps = 40


def _oracle_i_scaled(alpha, s):
    return float(mp.besseli(alpha, s) * mp.e ** (-s))


def _oracle_k_scaled(alpha, s):
    return float(mp.besselk(alpha, s) * mp.e ** (s))


def test_reference_value_i4_at_2():
    # ascending series oracle in extended precision: I_4(2) = 0.050728569979...
    ref = _oracle_i_scaled(4, 2.0) * np.exp(2.0)
    assert ref == pytest.approx(5.0728569979e-2, rel=1e-9)
    assert ive(4, 2.0) * np.exp(2.0) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha", range(3, 12))
def test_scaled_values_match_extended_precision_oracle(alpha):
    # typed invariant: 1e-13 relative from small arguments to s = 3000
    s = np.geomspace(0.05, 3000.0, 25)
    iv = ive(alpha, s)
    kv = kve(alpha, s)
    for j, sj in enumerate(s):
        oi, ok = _oracle_i_scaled(alpha, sj), _oracle_k_scaled(alpha, sj)
        assert abs(iv[j] - oi) / oi < 1e-13
        assert abs(kv[j] - ok) / ok < 1e-13


def test_accuracy_far_beyond_double_overflow_range():
    # s = 2000: raw I/K would overflow/underflow, mantissas stay accurate
    for alpha in (4, 8):
        for s in (500.0, 2000.0):
            iv = ive(alpha, s)
            kv = kve(alpha, s)
            assert abs(iv - _oracle_i_scaled(alpha, s)) / _oracle_i_scaled(alpha, s) < 1e-10
            assert abs(kv - _oracle_k_scaled(alpha, s)) / _oracle_k_scaled(alpha, s) < 1e-10


def test_asymptotic_leading_terms():
    # e^{-s} I_a sqrt(2 pi s) -> 1 and e^{s} K_a sqrt(2 s / pi) -> 1
    s = 1e4
    for alpha in (4, 8):
        fi = ive(alpha, s) * np.sqrt(2.0 * np.pi * s)
        fk = kve(alpha, s) / np.sqrt(np.pi / (2.0 * s))
        corr = (4 * alpha**2 - 1) / (8 * s)
        assert abs(fi - 1.0) < 2 * corr
        assert abs(fk - 1.0) < 2 * corr


def test_positivity_and_monotonicity():
    s = np.geomspace(0.5, 100.0, 50)
    for alpha in (4, 7):
        iv = ive(alpha, s)
        kv = kve(alpha, s)
        assert np.all(iv > 0)
        assert np.all(kv > 0)
        raw_k = kv * np.exp(-s)  # K itself, safe at these s
        assert np.all(np.diff(raw_k) < 0)


def test_wronskian_spot_values():
    r_abel, _ = bessel.wronskian_residuals(4, 2.0)
    assert r_abel[0] < 1e-10
    # I4 K4' - I4' K4 = -1/s at s=2, i.e. the combination itself is -0.5;
    # scaled derivatives by the order recurrences, independently of the module
    iv, kv = ive(4, 2.0), kve(4, 2.0)
    ivp = 0.5 * (ive(3, 2.0) + ive(5, 2.0))
    kvp = -0.5 * (kve(3, 2.0) + kve(5, 2.0))
    assert iv * kvp - ivp * kv == pytest.approx(-0.5, rel=1e-10)


def test_wronskian_sweep_includes_extreme_arguments():
    s = np.geomspace(0.5, 500.0, 120)
    for alpha in range(4, 9):
        r_abel, r_mode = bessel.wronskian_residuals(alpha, s)
        assert np.max(r_abel) < 1e-9
        assert np.max(r_mode) < 1e-9
    # the huge-argument identity only works because products pair exponents
    r_abel, r_mode = bessel.wronskian_residuals(4, 500.0)
    assert r_abel[0] < 1e-10 and r_mode[0] < 1e-10


def _h_log_fd(n, lam, x):
    """Mode-ODE residual of H1/H2 via 5-point centered differences on a log
    grid, combining scaled values relative to the center node.  The step is
    tied to the local exponential rate so truncation stays uniform in x."""
    sigma_x = 2.0 * np.sqrt(lam) / np.sqrt(x)
    delta = 0.05 / sigma_x
    out = []
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * delta
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * delta)
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * delta**2)
    for which in ("h1", "h2"):
        xs = x * np.exp(offsets)
        pair = bessel.h_pair(n, lam, xs)
        mant = pair.h1_mantissa if which == "h1" else pair.h2_mantissa
        sign = 1.0 if which == "h1" else -1.0
        rel = mant * np.exp(sign * (pair.exponent - pair.exponent[2]))
        d1 = w1 @ rel
        d2 = w2 @ rel
        h = rel[2]
        hx = d1 / x
        hxx = (d2 - d1) / x**2
        res = x**2 * hxx + (n + 1) * x * hx - (n + 1) * h - lam * h / x
        scale = abs(lam * h / x) + abs(x**2 * hxx)
        out.append(abs(res) / scale)
    return out


@pytest.mark.parametrize("x", [0.3, 0.05, 0.004])
def test_h_pair_solves_mode_ode(x):
    n, lam = 2, np.pi**2
    r1, r2 = _h_log_fd(n, lam, x)
    assert r1 < 1e-7
    assert r2 < 1e-7


def test_h2_asymptotic_profile_power():
    # log H2 + 2 sqrt(lam)/sqrt(x) - (-n/2 + 1/4) log x tends to a constant
    n, lam = 2, np.pi**2
    x = np.geomspace(1e-4, 1e-2, 20)
    pair = bessel.h_pair(n, lam, x)
    val = np.log(pair.h2_mantissa) + (-(-n / 2 + 0.25)) * np.log(x)
    # exponent part cancels exactly: log H2 = log mantissa - exponent.
    # the drift across the window is the large-argument correction ~ mu/(8 s)
    drift = np.max(val) - np.min(val)
    assert drift < 0.15
    assert val[0] == pytest.approx(0.5 * np.log(np.pi / (4 * np.sqrt(lam))), abs=0.02)


def test_h1_h2_product_is_power_law():
    n, lam = 2, np.pi**2
    x = np.geomspace(1e-4, 1e-2, 10)
    pair = bessel.h_pair(n, lam, x)
    product = pair.h1_mantissa * pair.h2_mantissa  # exponents cancel exactly
    target = x ** (-n + 0.5) / (4 * np.sqrt(lam))
    assert np.max(np.abs(product - target) / target) < 0.05


def test_h_pair_monotonicity():
    # in log space the scaled pair is exact at any depth: log H2 strictly
    # increasing in x (decreasing toward the cusp), log H1 the other way
    n, lam = 2, 4 * np.pi**2
    x = np.geomspace(1e-4, 0.05, 200)
    pair = bessel.h_pair(n, lam, x)
    log_h2 = np.log(pair.h2_mantissa) - pair.exponent
    log_h1 = np.log(pair.h1_mantissa) + pair.exponent
    assert np.all(np.diff(log_h2) > 0)
    assert np.all(np.diff(log_h1) < 0)


def test_argument_validation():
    with pytest.raises(ConfigError):
        bessel.wronskian_residuals(2, 1.0)
    with pytest.raises(ConfigError):
        bessel.wronskian_residuals(4, -1.0)
    with pytest.raises(ConfigError):
        bessel.h_pair(2, -1.0, 0.1)
    for lam in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            bessel.h_pair(2, lam, 0.1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_pair_matches_extended_precision_oracle(n):
    # the mantissas divided by x^{-n/2} are e^{-s} I_{n+2}(s) and e^{s} K_{n+2}(s);
    # nodes on both sides of s = 2(n+2), where I switches from ive to the recurrence
    alpha = n + 2
    s = np.concatenate([np.geomspace(0.05, 3000.0, 40), 2 * alpha * (1 + np.array([-1e-6, 1e-6]))])
    x = 4.0 / s**2  # lambda = 1
    pair = bessel.h_pair(n, 1.0, x)
    sv = pair.exponent
    assert np.any(sv < 2 * alpha) and np.any(sv >= 2 * alpha)
    pref = x ** (-0.5 * n)
    for j, sj in enumerate(sv):
        oi, ok = _oracle_i_scaled(alpha, sj), _oracle_k_scaled(alpha, sj)
        assert abs(pair.h1_mantissa[j] / pref[j] - oi) / oi < 1e-13
        assert abs(pair.h2_mantissa[j] / pref[j] - ok) / ok < 1e-13


def test_far_branch_i1_from_wronskian():
    # e^{-s} I_1 from I_0 K_1 + I_1 K_0 = 1/s (DLMF 10.28.2) on the far branch
    # s >= 2(n + 2) >= 8, against 40-digit values
    s = np.concatenate([np.linspace(8.0, 60.0, 120), np.geomspace(60.0, 3000.0, 120)])
    got = bessel._i_far(1, s, k0e(s), k1e(s))
    for j, sj in enumerate(s):
        ref = _oracle_i_scaled(1, sj)
        assert abs(got[j] - ref) / ref < 2e-15


@pytest.mark.parametrize("n", [2, 3])
def test_h_pair_all_far_nodes_match_oracle(n):
    # every node on the far branch: the path that skips the mask copies
    alpha = n + 2
    s = np.geomspace(2 * alpha, 3000.0, 30)
    x = 4.0 / s**2
    pair = bessel.h_pair(n, 1.0, x)
    pref = x ** (-0.5 * n)
    for j, sj in enumerate(pair.exponent):
        oi, ok = _oracle_i_scaled(alpha, sj), _oracle_k_scaled(alpha, sj)
        assert abs(pair.h1_mantissa[j] / pref[j] - oi) / oi < 1e-13
        assert abs(pair.h2_mantissa[j] / pref[j] - ok) / ok < 1e-13
