"""Each benchmark check accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math

import numpy as np
import pytest

import checks
from spans import Tracer, round_summary

TWO_PI = 2.0 * math.pi


def decay_profile(delta, p, amplitude=1e8):
    s = np.linspace(40.0, 200.0, 500)
    x = (TWO_PI / s) ** 2
    return x, amplitude * x**p * np.exp(-delta / np.sqrt(x))


def test_fit_decay_recovers_exact_parameters():
    x, rem = decay_profile(6.1, -0.7)
    delta, p = checks.fit_decay(x, rem)
    assert delta == pytest.approx(6.1, rel=1e-10)
    assert p == pytest.approx(-0.7, abs=1e-9)


def test_rate_fit_accepts_sharp_rate():
    x, rem = decay_profile(TWO_PI, -0.75)
    figures, failures = checks.check_rate_fit(x, rem, residual_sup=2.4e-8)
    assert failures == []
    assert figures["delta_rel_err"] < 1e-10


def test_rate_fit_rejects_delta_five_percent_off():
    x, rem = decay_profile(1.05 * TWO_PI, -0.75)
    _, failures = checks.check_rate_fit(x, rem, residual_sup=2.4e-8)
    assert len(failures) == 1 and "delta" in failures[0]


def test_rate_fit_rejects_wrong_power():
    x, rem = decay_profile(TWO_PI, -0.6)
    _, failures = checks.check_rate_fit(x, rem, residual_sup=2.4e-8)
    assert len(failures) == 1 and failures[0].startswith("p ")


@pytest.mark.parametrize("residual", [2e-7, float("nan")])
def test_rate_fit_rejects_residual_above_bound(residual):
    x, rem = decay_profile(TWO_PI, -0.75)
    _, failures = checks.check_rate_fit(x, rem, residual_sup=residual)
    assert len(failures) == 1 and "residual_sup" in failures[0]


def tangent_cone_profile(c=0.2, n=3):
    x = 1.0 / np.linspace(1.0 / math.sqrt(0.05), 34.0, 600) ** 2
    return x, -(n + 1) * np.log1p(c * x)


def test_tangent_cone_accepts_closed_form():
    x, u0 = tangent_cone_profile()
    figures, failures = checks.check_tangent_cone(x, u0, 0.2 + 1e-9, 1.2e-8)
    assert failures == []
    assert figures["sup_err"] < 1e-15


def test_tangent_cone_rejects_shifted_profile():
    x, u0 = tangent_cone_profile()
    _, failures = checks.check_tangent_cone(x, u0 + 2e-7, 0.2, 1.2e-8)
    assert len(failures) == 1 and "u_mode0" in failures[0]


def test_tangent_cone_rejects_profile_of_another_cone():
    x, u0 = tangent_cone_profile(c=0.2001)
    _, failures = checks.check_tangent_cone(x, u0, 0.2, 1.2e-8)
    assert len(failures) == 1 and "u_mode0" in failures[0]


def test_tangent_cone_rejects_wrong_constant_and_residual():
    x, u0 = tangent_cone_profile()
    _, failures = checks.check_tangent_cone(x, u0, 0.20001, 3e-7)
    assert len(failures) == 2


def manufactured_mode_problem(n=2, lam=8 * math.pi**2, nodes=120_000):
    """v = x^3 - x0 x^2 (so v(x0) = 0) and the f that makes it exact."""
    x0 = 0.1
    s = np.linspace(1.0 / math.sqrt(x0), 20.0, nodes)
    x = 1.0 / s**2
    v = x**3 - x0 * x**2
    v_x = 3 * x**2 - 2 * x0 * x
    v_xx = 6 * x - 2 * x0
    f = x**2 * v_xx + (n + 1) * x * v_x - (n + 1) * v - lam * v / x
    return s, f, v, n, lam


def test_mode_check_accepts_exact_solution():
    s, f, v, n, lam = manufactured_mode_problem()
    figures, failures = checks.check_mode_solve(s, f, v, n, lam, 0.0)
    assert failures == []
    assert figures["rel_residual"] < 1e-7


def test_mode_check_rejects_residual_above_bound():
    s, f, v, n, lam = manufactured_mode_problem()
    bump = 1e-5 * np.max(np.abs(v)) * np.exp(-(((s - 10.0) / 0.5) ** 2))
    _, failures = checks.check_mode_solve(s, f, v + bump, n, lam, 0.0)
    assert len(failures) == 1 and "mode residual" in failures[0]


def test_mode_check_rejects_wrong_eigenvalue():
    s, f, v, n, lam = manufactured_mode_problem()
    _, failures = checks.check_mode_solve(s, f, v, n, 1.01 * lam, 0.0)
    assert len(failures) == 1 and "mode residual" in failures[0]


def test_mode_check_rejects_boundary_value():
    s, f, v, n, lam = manufactured_mode_problem()
    _, failures = checks.check_mode_solve(s, f, v, n, lam, 1e-6)
    assert len(failures) == 1 and "v(x0)" in failures[0]


def test_round_summary_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner") as counts:
            counts["nodes"] = 7
        with tracer.span("inner") as counts:
            counts["nodes"] = 5
    summary = round_summary(tracer.spans)
    outer, inner = summary["outer"], summary["inner"]
    assert inner["calls"] == 2 and inner["counts"] == {"nodes": 12}
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"], abs=1e-12)
    assert inner["self_s"] == pytest.approx(inner["s"], abs=1e-12)
