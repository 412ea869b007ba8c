"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line printed per criterion (run with -s to watch them live)."""

import numpy as np
import pytest

from cusplab import acceptance
from cusplab.model import CuspModel


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA, ids=lambda f: f.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_nan_residual_fails_a1(monkeypatch):
    # one NaN among the residuals fails the criterion; a running max()
    # used to drop it and pass on the finite residuals
    wronskian_residuals = acceptance.bessel.wronskian_residuals

    def one_nan(alpha, s):
        r_abel, r_mode = wronskian_residuals(alpha, s)
        if alpha == 6:
            r_mode = r_mode.copy()
            r_mode[3] = np.nan
        return r_abel, r_mode

    monkeypatch.setattr(acceptance.bessel, "wronskian_residuals", one_nan)
    result = acceptance.criterion_a1()
    assert not result.passed and np.isnan(result.details["max_residual"])


def test_only_the_hexagonal_rate_tells_2_sqrt_lambda1_from_2pi(monkeypatch):
    # on the square torus 2 sqrt(lambda_1) = 2 pi; on A10's hexagonal torus
    # it lies 1.27% above, past A10's 2e-3 bound: with delta's target set to
    # 2 pi, A5 still passes and A10 fails
    rate_fit = acceptance.analysis.rate_fit

    def two_pi(*args, **kwargs):
        fit, (_, p0), *rest = rate_fit(*args, **kwargs)
        return (fit, (2.0 * np.pi, p0), *rest)

    monkeypatch.setattr(acceptance.analysis, "rate_fit", two_pi)
    assert acceptance.criterion_a5().passed
    a10 = acceptance.criterion_a10()
    assert not a10.passed and a10.details["delta_rel_err"] > 1e-2


def test_rate_criterion_runs_at_n3():
    # the cosine boundary comes from analysis.cosine_boundary at every n; a
    # literal (1, 0) key used to fail at n = 3 with "mode (1, 0) needs 4 entries"
    result = acceptance._rate_criterion("n = 3 rate", CuspModel(3, np.eye(4), np.eye(2)), 2e-3, 0.15)
    assert result.passed, result.line()
