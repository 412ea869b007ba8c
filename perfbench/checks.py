"""Correctness checks on workload outputs.

Every check recomputes what it tests from the outputs with the benchmark's
own arithmetic (least squares, centred differences, closed forms) and
compares against the theory, never against a stored copy of an earlier
output.  Each returns (figures, failures): the figures are printed next to
the timings, and a non-empty failure list rejects the run.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

RESIDUAL_BOUND = 1e-7
DELTA_REL_TOL = 0.02
P_TOL = 0.1
GREEN_REL_TOL = 1e-6
N3_PROFILE_TOL = 1e-7
N3_C_TOL = 1e-6

# Square torus with A = 1: the eigenvalue of the character k is
# pi^2 (k1^2 + k2^2), so the first one is pi^2 at k = (1, 0).
LAMBDA1_SQUARE = math.pi**2


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv_columns(path) -> dict:
    """Columns of a CLI CSV by header name, as float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def fit_decay(x, remainder):
    """Least-squares fit of log|remainder| = log A + p log x - delta/sqrt(x);
    returns (delta, p)."""
    x = np.asarray(x, dtype=float)
    y = np.log(np.abs(np.asarray(remainder, dtype=float)))
    cols = np.column_stack([np.ones_like(x), np.log(x), -1.0 / np.sqrt(x)])
    (_, p, delta), *_ = np.linalg.lstsq(cols, y, rcond=None)
    return float(delta), float(p)


def check_rate_fit(x, remainder, residual_sup, n=2, lam1=LAMBDA1_SQUARE):
    """Sharp decay of the first-eigenvalue remainder: delta = 2 sqrt(lambda1)
    within 2 %, p = -n/2 + 1/4 within 0.1, and a converged solve."""
    delta, p = fit_decay(x, remainder)
    delta_target = 2.0 * math.sqrt(lam1)
    p_target = -n / 2.0 + 0.25
    delta_rel_err = abs(delta - delta_target) / delta_target
    figures = {"residual_sup": residual_sup, "delta": delta, "delta_rel_err": delta_rel_err, "p": p}
    failures = []
    if not residual_sup <= RESIDUAL_BOUND:
        failures.append(f"residual_sup {residual_sup:.3e} above {RESIDUAL_BOUND:g}")
    if not delta_rel_err <= DELTA_REL_TOL:
        failures.append(f"delta {delta:.6g} not within 2 % of {delta_target:.6g}")
    if not abs(p - p_target) <= P_TOL:
        failures.append(f"p {p:.4g} not within {P_TOL} of {p_target}")
    return figures, failures


def mode_residual(s, f, v, n, lam):
    """x^2 v'' + (n+1) x v' - (n+1) v - lam v / x - f on interior nodes, from
    second-order centred differences in s = 1/sqrt(x) (uniform nodes)."""
    s = np.asarray(s, dtype=float)
    h = s[1] - s[0]
    v_s = (v[2:] - v[:-2]) / (2.0 * h)
    v_ss = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    si = s[1:-1]
    x = 1.0 / si**2
    v_x = -0.5 * si**3 * v_s
    v_xx = 0.75 * si**5 * v_s + 0.25 * si**6 * v_ss
    vi = v[1:-1]
    return x**2 * v_xx + (n + 1) * x * v_x - (n + 1) * vi - lam * vi / x - f[1:-1]


def check_mode_solve(s, f, v, n, lam, v_x0):
    """Mode-ODE residual <= 1e-6 sup|f| on interior nodes and v(x0) = v_x0."""
    res = mode_residual(s, f, v, n, lam)
    rel = float(np.max(np.abs(res)) / np.max(np.abs(f)))
    boundary_err = abs(complex(v[0]) - v_x0)
    failures = []
    if not rel <= GREEN_REL_TOL:
        failures.append(f"mode residual {rel:.3e} sup|f| at lambda {lam:.6g} above {GREEN_REL_TOL:g}")
    if not boundary_err <= 1e-12 * max(1.0, abs(v_x0)):
        failures.append(f"v(x0) = {complex(v[0])} differs from the prescribed {v_x0}")
    return {"rel_residual": rel, "boundary_err": boundary_err}, failures


def check_tangent_cone(x, u_mode0, c_fit, residual_sup, n=3, c=0.2):
    """Constant boundary data: the radial mean is -(n+1) log(1 + c x) to
    1e-7, the fitted tangent-cone constant is c to 1e-6, and the solve
    converged."""
    exact = -(n + 1) * np.log1p(c * np.asarray(x, dtype=float))
    sup_err = float(np.max(np.abs(np.asarray(u_mode0) - exact)))
    figures = {"sup_err": sup_err, "c": c_fit, "c_err": abs(c_fit - c), "residual_sup": residual_sup}
    failures = []
    if not sup_err <= N3_PROFILE_TOL:
        failures.append(f"u_mode0 off the closed form by {sup_err:.3e}")
    if not abs(c_fit - c) <= N3_C_TOL:
        failures.append(f"tangent_cone_c {c_fit!r} not within {N3_C_TOL:g} of {c}")
    if not residual_sup <= RESIDUAL_BOUND:
        failures.append(f"residual_sup {residual_sup:.3e} above {RESIDUAL_BOUND:g}")
    return figures, failures
