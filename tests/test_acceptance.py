"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line printed per criterion (run with -s to watch them live)."""

import numpy as np
import pytest

from cusplab import acceptance


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
