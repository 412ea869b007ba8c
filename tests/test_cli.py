import configparser
import contextlib
import csv
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab import acceptance, cli
from cusplab.errors import ConfigError, NumericalError


SQUARE_CFG = """
[model]
n = 2
lattice = 1 0 ; 0 1
A = 1

[spectrum]
count = 12

[expand]
n = 2
c = 1
order = 20

[calabi]
a = 0
b = 0.5
t0 = -1
t_end = -30
tol = 1e-12

[lemma43]
c = 2
k = 0
eps = 1
x_max = 10
"""


N3_SOLVE_CFG = """
[model]
n = 3
lattice = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1
A = 1 0.2+0.1j ; 0.2-0.1j 0.8

[grid]
x0 = 0.05
s_max = 34
nodes = 200

[boundary]
kind = constant
amplitude = -0.04
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "square.cfg"
    path.write_text(SQUARE_CFG)
    return str(path)


def test_spectrum_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["spectrum", cfg_path, "-o", str(out)])
    assert rc == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["results"]["lambda1"] == pytest.approx(np.pi**2, rel=1e-12)
    assert payload["config"]["model"]["n"] == "2"
    assert payload["config"]["model"]["a"] == "1"  # keys as configparser stores them
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,mode,lambda"
    assert len(lines) == 13


def test_spectrum_command_count_one(tmp_path):
    # the zero mode alone: lambda1 still comes from the spectrum
    path = tmp_path / "one.cfg"
    path.write_text(SQUARE_CFG.replace("count = 12", "count = 1"))
    out = tmp_path / "out"
    assert cli.main(["spectrum", str(path), "-o", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["results"]["lambda1"] == pytest.approx(np.pi**2, rel=1e-12)
    assert (out / "spectrum.csv").read_text().splitlines() == ["index,mode,lambda", "0,0 0,0"]


def test_csv_output_deterministic(cfg_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        for command in ("spectrum", "expand", "calabi", "lemma43"):
            assert cli.main([command, cfg_path, "-o", str(out)]) == 0
    for name in ("spectrum", "expand", "calabi", "lemma43"):
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
        assert (out1 / f"{name}.json").read_bytes() == (out2 / f"{name}.json").read_bytes()


def test_solve_output_deterministic_and_traced(tmp_path):
    # collocation's FFT path feeds solve.csv: a rerun must write the same bytes
    cfg = tmp_path / "cosine.cfg"
    cfg.write_text(
        SQUARE_CFG
        + """
[grid]
x0 = 0.05
s_max = 16
nodes = 400

[solver]
torus_resolution = 8

[boundary]
kind = cosine
amplitude = 1e-4
"""
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli.main(["solve", str(cfg), "-o", str(out)]) == 0
    csv_bytes = (out1 / "solve.csv").read_bytes()
    assert csv_bytes == (out2 / "solve.csv").read_bytes()
    assert csv_bytes.startswith(b"x,s,u_mode0,u_mode1_cos")
    # the sidecar holds one trace record per iteration; the CSV no timings
    res = json.loads((out1 / "solve.json").read_text())["results"]
    assert len(res["trace"]) == res["iterations"] >= 2
    # the trace is the one record of the Picard changes: no top-level copies
    assert "contraction_history" not in res and "sup_change" not in res
    changes = [r["sup_change"] for r in res["trace"]]
    assert changes[-1] < 1e-10 <= min(changes[:-1])  # stopped at the first change below the default tol
    keys = {"sup_change", "residual_sup", "tail_indicator", "modes_solved", "collocation_s", "assembly_s"}
    assert all(set(r) == keys for r in res["trace"])
    assert all(r["collocation_s"] > 0 and r["assembly_s"] > 0 for r in res["trace"])


def test_expand_command_matches_closed_form(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["expand", cfg_path, "-o", str(out)]) == 0
    payload = json.loads((out / "expand.json").read_text())
    assert payload["results"]["max_rel_err"] < 1e-12


def test_calabi_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["calabi", cfg_path, "-o", str(out)]) == 0
    payload = json.loads((out / "calabi.json").read_text())
    res = payload["results"]
    assert res["first_integral_drift"] < 1e-10
    assert res["cone_angle"] == pytest.approx(2 * np.pi * 1.5 ** (1 / 3), rel=1e-10)
    assert abs(res["cone_angle_empirical"] - res["cone_angle"]) / res["cone_angle"] < 1e-3


def test_lemma43_command(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["lemma43", cfg_path, "-o", str(out)]) == 0
    payload = json.loads((out / "lemma43.json").read_text())
    assert payload["results"]["passed"] is True
    assert payload["results"]["sup_r1"] < 2.0


def test_invalid_config_exit_code(tmp_path, monkeypatch):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nn = 1\nlattice = 1\nA = 1\n")
    rc = cli.main(["spectrum", str(bad), "-o", str(tmp_path / "o")])
    assert rc == 2
    bad.write_text("[model]\nn = 2\nlattice = 1+0.5j 0 ; 0 1\nA = 1\n")
    assert cli.main(["spectrum", str(bad), "-o", str(tmp_path / "o")]) == 2
    rc = cli.main(["spectrum", str(tmp_path / "missing.cfg"), "-o", str(tmp_path / "o")])
    assert rc == 2
    # a huge cutoff only selects among the modes the torus grid holds: the
    # constant n = 3 boundary collocates on (1, 1, 1, 1), which holds none,
    # and the n = 2 cosine on (16, 1) holds the 7 +/- pairs k_1 = 1..7
    cutoff = "[solver]\ncutoff = 1e6\ntorus_resolution = {}\n"
    bad.write_text(N3_SOLVE_CFG + cutoff.format(4))
    assert cli.main(["solve", str(bad), "-o", str(tmp_path / "n3")]) == 0
    res = json.loads((tmp_path / "n3" / "solve.json").read_text())["results"]
    assert res["torus_shape"] == [1, 1, 1, 1] and res["modes_solved"] == 0
    bad.write_text(SQUARE_CFG + "[grid]\nx0 = 0.05\ns_max = 16\nnodes = 400\n" + cutoff.format(16)
                   + "[boundary]\nkind = cosine\namplitude = 3e-3\n")
    assert cli.main(["solve", str(bad), "-o", str(tmp_path / "n2")]) == 0
    res = json.loads((tmp_path / "n2" / "solve.json").read_text())["results"]
    assert res["torus_shape"] == [16, 1] and res["modes_solved"] == 7 and res["tail_indicator"] == 0.0
    assert all(record["modes_solved"] == 7 for record in res["trace"])

    # sizes that would exhaust memory are refused before they are allocated;
    # the patches make an allocation of one of them fail at once
    def small(fn):
        def call(start, stop, num=50, **kwargs):
            assert num <= 2**24, f"{fn.__name__} asked for {num} points"
            return fn(start, stop, num, **kwargs)

        return call

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} past the cap")

        return call

    huge_cfg = SQUARE_CFG + "[grid]\nx0 = 0.05\ns_max = 16\nnodes = 400\n[boundary]\nkind = cosine\namplitude = 1e-3\n"
    with monkeypatch.context() as patch:
        patch.setattr(np, "linspace", small(np.linspace))
        patch.setattr(np, "geomspace", small(np.geomspace))
        patch.setattr(cli.modes, "modes_below", refuse("modes enumerated"))
        patch.setattr(cli.bessel, "wronskian_residuals", refuse("Bessel sweep started"))
        for command, text in [
            ("bessel-sweep", SQUARE_CFG + "[bessel]\npoints = 2147483648\n"),
            # within the point cap, but the rows of all orders are held at once
            ("bessel-sweep", SQUARE_CFG + "[bessel]\nalpha_max = 1000\npoints = 65536\n"),
            ("solve", huge_cfg.replace("nodes = 400", "nodes = 2147483648")),
            ("solve", huge_cfg + "[solver]\ntorus_resolution = 1073741824\n"),
        ]:
            bad.write_text(text)
            assert cli.main([command, str(bad), "-o", str(tmp_path / "o")]) == 2, text

    # solver-bound configs must be rejected before any solve starts
    def no_solve(*args, **kwargs):
        raise AssertionError("picard_solve called on an invalid config")

    def no_calabi(*args, **kwargs):
        raise AssertionError("integrate_calabi called on an invalid config")

    def no_expand(*args, **kwargs):
        raise AssertionError("expand_formal called on an invalid config")

    monkeypatch.setattr(cli.modes, "picard_solve", no_solve)
    monkeypatch.setattr(cli.radial, "integrate_calabi", no_calabi)
    monkeypatch.setattr(cli.radial, "expand_formal", no_expand)
    solve_cfg = SQUARE_CFG + "[grid]\nx0 = 0.05\ns_max = 16\nnodes = 400\n"
    cosine = "[boundary]\nkind = cosine\namplitude = 1e-3\n"
    for command, text in [
        ("solve", solve_cfg + "[solver]\ncutoff = abc\n"),
        ("solve", solve_cfg + "[boundary]\nkind = cosine\namplitude = nan\n"),
        ("rate-fit", solve_cfg + "[boundary]\nkind = constant\namplitude = 0.1\n"),
        ("solve", solve_cfg.replace("lattice = 1 0 ; 0 1", "lattice = 1 0 ; 0 nan")),
        ("solve", solve_cfg.replace("n = 2\n", "n = 2\nn = 3\n", 1)),
        ("solve", solve_cfg + "[boundary]\namplitude = 1%\n"),
        ("solve", solve_cfg + "[solver]\ncutoff = -1\n"),
        ("solve", solve_cfg + "[solver]\ncutoff = 0\n"),
        ("solve", solve_cfg + "[solver]\ntol = -1\n"),
        ("solve", solve_cfg + "[solver]\ntol = 0\n"),
        ("solve", solve_cfg + "[solver]\nmax_iter = 0\n"),
        ("calabi", SQUARE_CFG.replace("tol = 1e-12", "tol = 0")),
        ("bessel-sweep", SQUARE_CFG + "[bessel]\npoints = 0\n"),
        ("lemma43", SQUARE_CFG.replace("x_max = 10", "x_max = -1")),
        ("lemma43", SQUARE_CFG.replace("x_max = 10", "x_max = 0")),
        ("rate-fit", solve_cfg + cosine + "[ratefit]\ns_lo = 200\ns_hi = 40\n"),
        ("rate-fit", solve_cfg + cosine + "[ratefit]\ns_lo = 40\ns_hi = 40\n"),
        # the radial stencil order is not a key, so setting it is refused
        ("solve", solve_cfg + "[solver]\nfinal_order = 3\n"),
        ("rate-fit", solve_cfg + cosine + "[solver]\nfinal_order = 6\n"),
        ("bessel-sweep", SQUARE_CFG + "[bessel]\ns_min = 0\n"),
        ("bessel-sweep", SQUARE_CFG + "[bessel]\ns_max = -1\n"),
        ("bessel-sweep", SQUARE_CFG + "[bessel]\nalpha_min = 9\nalpha_max = 4\n"),
        ("solve", solve_cfg + "[solver]\ntorus_resolution = -4\n"),
        ("lemma43", SQUARE_CFG.replace("eps = 1", "eps = 0")),
        ("lemma43", SQUARE_CFG.replace("eps = 1", "eps = -2")),
        ("lemma43", SQUARE_CFG.replace("eps = 1", "eps = -1")),
        ("calabi", SQUARE_CFG.replace("[model]\nn = 2", "[model]\nn = -1")),
        ("calabi", SQUARE_CFG.replace("[model]\nn = 2", "[model]\nn = 0")),
        ("expand", SQUARE_CFG.replace("[expand]\nn = 2", "[expand]\nn = -1")),
        ("expand", SQUARE_CFG.replace("[expand]\nn = 2", "[expand]\nn = 0")),
        ("expand", SQUARE_CFG.replace("[expand]\nn = 2", "[expand]\nn = -2")),
        ("expand", SQUARE_CFG.replace("[expand]\nn = 2\nc = 1", "[expand]\nn = 2\nc = 0")),
        # misspelt names, which used to fall back to the defaults silently
        ("spectrum", SQUARE_CFG.replace("count = 12", "cont = 3")),
        ("solve", solve_cfg + "[solver]\ncutof = 2\n"),
        ("solve", solve_cfg + "[solvr]\ncutoff = 2\n"),
        # [model] scale moved no output and is no longer a key
        ("solve", solve_cfg.replace("A = 1\n", "A = 1\nscale = 1.0\n", 1)),
        # a fit window that holds no grid node is refused before the solve
        ("rate-fit", solve_cfg + cosine + "[ratefit]\ns_lo = 1e9\ns_hi = 2e9\n"),
    ]:
        assert text != SQUARE_CFG  # each replacement above must take effect
        bad.write_text(text)
        assert cli.main([command, str(bad), "-o", str(tmp_path / "o")]) == 2, text


def test_int_past_float_range_names_section_and_key():
    cfg = configparser.ConfigParser()
    cfg.read_string(f"[expand]\nn = {10**308}\n[model]\nn = {BIG_INT}\n")
    assert cli.section(cfg, "expand")["n"] == 10**308
    with pytest.raises(ConfigError, match=r"^\[model\] n = '1000+' is past the float range$"):
        cli.section(cfg, "model")


def test_missing_required_key_exit_code(tmp_path, capsys):
    path = tmp_path / "no-x0.cfg"
    path.write_text((SQUARE_CFG + SOLVE_SECTIONS).replace("x0 = 0.05\n", ""))
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: [grid] x0 is missing\n"


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 comment used to end in a UnicodeDecodeError traceback
    path = tmp_path / "latin1.cfg"
    path.write_bytes(SQUARE_CFG.replace("[model]\n", "[model]\n# caf\xe9\n", 1).encode("latin-1"))
    assert cli.main(["spectrum", str(path), "-o", str(tmp_path / "o")]) == 2
    offset = SQUARE_CFG.index("[model]\n") + len("[model]\n# caf")
    assert capsys.readouterr().err == f"config error: config file {path} is not UTF-8: byte {offset} is 0xe9\n"
    path.write_bytes(SQUARE_CFG.replace("[model]\n", "[model]\n# caf\xe9\n", 1).encode("utf-8"))
    assert cli.main(["spectrum", str(path), "-o", str(tmp_path / "o")]) == 0


def test_config_lines_split_as_in_text_mode(tmp_path):
    # CR and CRLF line ends read as the newline they stand for
    path = tmp_path / "crlf.cfg"
    for end in ("\r\n", "\r"):
        path.write_bytes(SQUARE_CFG.replace("\n", end).encode())
        assert cli.build_model(cli.load_config(str(path))).n == 2


def test_output_directory_that_cannot_be_made_exits_2(cfg_path, tmp_path, capsys):
    # -o naming a file, or a path under one, used to end in a FileExistsError
    # or NotADirectoryError traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert cli.main(["spectrum", cfg_path, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make the output directory {out}: ") and "Traceback" not in err


def test_report_failure_exit_code(cfg_path, tmp_path, monkeypatch, capsys):
    # a failing criterion still writes both outputs, then exits 4
    failed = acceptance.CriterionResult("A2", False, {"stub": 1.0})
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [failed])
    out = tmp_path / "o"
    assert cli.main(["report", cfg_path, "-o", str(out)]) == 4
    assert capsys.readouterr().out.startswith("[FAIL] A2")
    assert (out / "report.csv").read_text().splitlines() == ["criterion,passed", "A2,false"]
    assert json.loads((out / "report.json").read_text())["results"]["all_passed"] is False


def test_expand_order_cap(tmp_path, monkeypatch):
    # past the cap the exact coefficients are refused before any rational
    # arithmetic; the patch keeps an uncapped build from running for minutes
    def no_coefficients(*args, **kwargs):
        raise AssertionError("exact coefficients computed past the order cap")

    monkeypatch.setattr(cli.radial, "_unit_coefficients", no_coefficients)
    with pytest.raises(ConfigError):
        cli.radial.expand_formal(2, -3.0, 400)
    path = tmp_path / "order.cfg"
    path.write_text(SQUARE_CFG.replace("order = 20", "order = 400"))
    assert cli.main(["expand", str(path), "-o", str(tmp_path / "o")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # at order 150 the scaled Bessel values under- and overflow, so the
    # Wronskian residuals are NaN: a numerical failure, not a pass
    path = tmp_path / "nan.cfg"
    path.write_text(SQUARE_CFG + "[bessel]\nalpha_min = 150\nalpha_max = 150\n")
    with np.errstate(all="ignore"):
        assert cli.main(["bessel-sweep", str(path), "-o", str(tmp_path / "o")]) == 3


# an int no float holds
BIG_INT = str(10**400)

# the tier-1 solve grid, with a cosine boundary mode
SOLVE_SECTIONS = "[grid]\nx0 = 0.05\ns_max = 20\nnodes = 400\n[boundary]\nkind = cosine\namplitude = 1e-3\n"


@pytest.mark.parametrize(
    "command, old, new, code",
    [
        # closed-form coefficients that underflow to 0 give NaN relative
        # errors, which a running max() used to drop, reporting 0
        ("expand", "c = 1\norder = 20", "c = 1e-200\norder = 40", 3),
        ("expand", "c = 1\n", "c = 1e30\n", 3),
        ("lemma43", "c = 2\n", "c = 1e-300\n", 2),
        ("lemma43", "k = 0\n", "k = 1e300\n", 2),
        ("lemma43", "c = 2\n", "c = 1e300\n", 2),
        ("calabi", "t0 = -1\nt_end = -30", "t0 = 1e308\nt_end = -1e308", 2),
        ("calabi", "a = 0\nb = 0.5", "a = 0\nb = 1\npsi0 = -1e308", 3),
        # a breakdown before the sixth node leaves too few nodes for the ODE
        # residual's stencil: this used to end in an IndexError traceback
        pytest.param("calabi", "a = 0\nb = 0.5", "a = 0\nb = -0.5\npsi0 = -0.25", 3,
                     id="calabi-breakdown-before-sixth-node"),
        # an initial level 0.001 under the breakdown floor -b/2 = 0.4995: this
        # used to start the integration and end in "psi' lost positivity"
        pytest.param("calabi", "a = 0\nb = 0.5", "a = 0\nb = -0.999\npsi0 = 0", 2,
                     id="calabi-initial-level-below-breakdown-floor"),
        # solve_ivp would raise this tol to 100 eps and the run record 1e-300
        pytest.param("calabi", "tol = 1e-12", "tol = 1e-300", 2, id="calabi-tol-below-rtol-floor"),
        # ints past the float range: each used to end in an OverflowError traceback
        pytest.param("expand", "[expand]\nn = 2\n", f"[expand]\nn = {BIG_INT}\n", 2, id="expand-n-past-float-range"),
        pytest.param("calabi", "[model]\nn = 2\n", f"[model]\nn = {BIG_INT}\n", 2, id="calabi-n-past-float-range"),
        pytest.param("bessel-sweep", "[spectrum]\n", f"[bessel]\nalpha_min = {BIG_INT}\nalpha_max = {BIG_INT}\n[spectrum]\n",
                     2, id="bessel-orders-past-float-range"),
        # nearly parallel basis vectors (det B = 1): Cholesky cannot factor the eigenvalue form
        *(pytest.param(command, "lattice = 1 0 ; 0 1", "lattice = 10000 10000 ; 10000 10000.0001", 2,
                       id=f"{command}-eigenvalue-form-not-positive-definite") for command in ("spectrum", "solve")),
        # a mode step d = 2 sqrt(lambda) h of 2450 per node: exp(-d) underflows
        ("solve", "A = 1\n", "A = 1e-8\n", 2),
        ("solve", "A = 1\n", "A = 1e-12\n", 2),
        # x0^-(n+2) overflows the float range
        ("solve", "x0 = 0.05\ns_max = 20", "x0 = 1e-300\ns_max = 2e150", 2),
        # the deepest node's x^-(n+1) overflows, though x0^-(n+2) does not
        pytest.param(
            "solve", ("x0 = 0.05\ns_max = 20", "kind = cosine\namplitude = 1e-3"),
            ("x0 = 1e-70\ns_max = 1e52", "kind = constant\namplitude = -1e-3"), 2, id="solve-deepest-node-overflow",
        ),
        # a large A used to break a positivity guard taken in a frame whose
        # entries grow like A^2: a LinAlgError traceback from the failure
        # report at A = 6.1e8 (u = 0 is exact here), a false degeneracy at
        # A = 1e6 on a metric within 0.07 % of the background, now refused
        # because (4, 1) cannot resolve the solution
        pytest.param(
            "solve", ("A = 1\n", "nodes = 400\n", "amplitude = 1e-3\n", "s_max = 20"),
            ("A = 6.1e8\n", "nodes = 50\n[solver]\ncutoff = 0.00287\ntorus_resolution = 4\n",
             "amplitude = -1.14e-199\n", "s_max = 4.47213595599958"), 0, id="solve-A-6.1e8-frame-free-guard",
        ),
        pytest.param(
            "solve", ("A = 1\n", "nodes = 400\n"), ("A = 1e6\n", "nodes = 400\n[solver]\ntorus_resolution = 4\n"), 2,
            id="solve-A-1e6-frame-free-guard",
        ),
        # found by test_fuzzed_tiny_solves_exit_cleanly: s_max^2 overflows in x = 1/s^2
        pytest.param("solve", "x0 = 0.05\ns_max = 20", "x0 = 1.0\ns_max = 1e155", 2, id="solve-s_max-squared-overflows"),
        # the tangent-cone fit's Gauss-Newton step used to leave 1 + c x > 0 (NaN c)
        pytest.param(
            "solve", ("x0 = 0.05\ns_max = 20", "nodes = 400\n", "kind = cosine\namplitude = 1e-3"),
            ("x0 = 1.0\ns_max = 1.0863896155683441", "nodes = 49\n[solver]\ntol = 1.0\nmax_iter = 2\ntorus_resolution = 4\n",
             "kind = constant\namplitude = 17.573920784162386"), 0, id="solve-tangent-cone-step-leaves-domain",
        ),
        # det h of an n = 3 iterate overflows: the guard's failure report used to
        # end in a LinAlgError traceback from np.roots on non-finite e_k
        pytest.param(
            "solve", ("n = 2\nlattice = 1 0 ; 0 1\nA = 1\n", "x0 = 0.05\ns_max = 20", "nodes = 400\n",
                      "kind = cosine\namplitude = 1e-3"),
            ("n = 3\nlattice = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\nA = 1 0 ; 0 1\n", "x0 = 0.0316\ns_max = 5e27",
             "nodes = 53\n[solver]\ntol = 1e-12\nmax_iter = 2\ntorus_resolution = 4\n", "kind = constant\namplitude = -1"),
            3, id="solve-n3-hessian-overflows",
        ),
        # eigenvalues 2.5e-24 and 2.1e-8 passed the positivity check, then inv(A)
        # raised LinAlgError: A must be positive definite to working precision
        pytest.param(
            "solve", "n = 2\nlattice = 1 0 ; 0 1\nA = 1\n",
            "n = 3\nlattice = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\nA = 8.097031469220685e-09 "
            "5.9462896893155236e-09+8.421318114789624e-09j ; 5.9462896893155236e-09-8.421318114789624e-09j "
            "1.3125422602559407e-08\n", 2, id="solve-A-singular-to-rounding",
        ),
        # a grid 4e-13 wide in log x: both log-log slopes (the zero mode's
        # tail power, and the reported ell0_decay_power) raised RankWarning
        pytest.param(
            "solve", ("n = 2\nlattice = 1 0 ; 0 1\nA = 1\n", "x0 = 0.05\ns_max = 20", "nodes = 400\n", "amplitude = 1e-3"),
            ("n = 3\nlattice = 31.622776601683793 0 0 0 ; 0 223.79465593327046 0 0 ; 0 0 1 0 ; 0 0 0 0.033777216073319245\n"
             "A = 0.880556857449228 3597.8766037199994-84749.1437232534j ; 3597.8766037199994+84749.1437232534j "
             "20493690896.709866\n", "x0 = 1.7461432882321365e-26\ns_max = 7567632967977.562",
             "nodes = 28\n[solver]\ncutoff = 0.3173065954292505\ntorus_resolution = 4\nmax_iter = 2\ntol = 10\n",
             "amplitude = 8.767760761898876e-121"), 2, id="solve-tail-power-span-too-narrow",
        ),
        pytest.param(
            "solve", ("x0 = 0.05\ns_max = 20", "nodes = 400\n", "amplitude = 1e-3"),
            ("x0 = 1.7461432882321365e-26\ns_max = 7567632967977.562",
             "nodes = 28\n[solver]\ncutoff = 0.3173065954292505\ntorus_resolution = 4\nmax_iter = 2\ntol = 10\n",
             "amplitude = 8.767760761898876e-121"), 0, id="solve-ell0-decay-span-too-narrow",
        ),
        # lambda_1 = 9.9e-200 and 9.9e-300: at x0 the kernel e^s K_4(s) passes
        # the float range; the solve used to run on infinite kernels and exit 3
        pytest.param("solve", "A = 1\n", "A = 1e200\n", 2, id="solve-A-1e200-kernel-leaves-float-range"),
        pytest.param("solve", "lattice = 1 0 ; 0 1", "lattice = 1e150 0 ; 0 1e150", 2,
                     id="solve-lattice-1e150-kernel-leaves-float-range"),
        # a window of s_lo = 1e-300 used to overflow x_hi; on a grid 1.2e-10 wide
        # the decay fit's amplitude overflowed and its envelope was NaN
        pytest.param(
            "rate-fit", ("A = 1\n", "x0 = 0.05\ns_max = 20", "nodes = 400\n", "amplitude = 1e-3\n"),
            ("A = 1e-12\n", "x0 = 1.0\ns_max = 1.0000000001209561",
             "nodes = 45\n[solver]\ncutoff = 0.2725597471230348\ntol = 3.378137382263277e-54\nmax_iter = 3\n"
             "torus_resolution = 4\n", "amplitude = 8.450885799611047e-288\n[ratefit]\ns_lo = 1e-300\ns_hi = 1e300\n"),
            3, id="rate-fit-decay-fit-leaves-float-range",
        ),
    ],
)
def test_extreme_finite_configs_exit_cleanly(command, old, new, code, tmp_path, capsys):
    # finite values whose powers, squares or differences leave the float
    # range, and NaN figures, end in exit 0, 2 or 3, never in a traceback;
    # a tuple of old strings is replaced by the new ones in turn
    path = tmp_path / "extreme.cfg"
    cfg = SQUARE_CFG + SOLVE_SECTIONS
    for old_text, new_text in zip(*(v if isinstance(v, tuple) else (v,) for v in (old, new))):
        assert old_text in cfg
        cfg = cfg.replace(old_text, new_text, 1)
    path.write_text(cfg)
    with np.errstate(all="ignore"):
        assert cli.main([command, str(path), "-o", str(tmp_path / "o")]) == code
    assert "Traceback" not in capsys.readouterr().err


KERNEL_PAST_FLOATS = "the kernel e^s K_4(s) at s = 2 sqrt(lambda/x0)"


@pytest.mark.parametrize(
    "old, new, stage",
    [
        pytest.param("A = 1\n", "A = 1e200\n", KERNEL_PAST_FLOATS, id="A-1e200-kernel"),
        pytest.param("lattice = 1 0 ; 0 1", "lattice = 1e150 0 ; 0 1e150", KERNEL_PAST_FLOATS, id="lattice-1e150-kernel"),
        pytest.param("A = 1\n", "A = 1e140\n", "the tail of the down integral below the grid", id="A-1e140-tail"),
    ],
)
def test_tiny_eigenvalue_is_refused_before_its_kernels_overflow(old, new, stage, tmp_path, capsys):
    # refused while the solve plan is built, with no RuntimeWarning on the
    # way (pytest turns one into an error): the message names lambda, the
    # node and n
    path = tmp_path / "tiny.cfg"
    path.write_text((SQUARE_CFG + SOLVE_SECTIONS).replace(old, new, 1))
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mode eigenvalue lambda = ")
    assert ", n = 2: " + stage in err and ("x0 = 0.05" in err) == (stage == KERNEL_PAST_FLOATS)


def test_lattice_independence_does_not_depend_on_scale(tmp_path, capsys):
    # no np.errstate: det B overflowed at 1e160 with a RuntimeWarning (an
    # error here), and 1e-4 I_4 was refused as linearly dependent
    path = tmp_path / "lattice.cfg"
    path.write_text(_dimension_config(3).replace("lattice = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1",
                                                 "lattice = 1e-4 0 0 0 ; 0 1e-4 0 0 ; 0 0 1e-4 0 ; 0 0 0 1e-4"))
    assert cli.main(["spectrum", str(path), "-o", str(tmp_path / "small")]) == 0
    res = json.loads((tmp_path / "small" / "spectrum.json").read_text())["results"]
    assert res["lambda1"] == pytest.approx(np.pi**2 * 1e8, rel=1e-12)
    path.write_text((SQUARE_CFG + SOLVE_SECTIONS).replace("lattice = 1 0 ; 0 1", "lattice = 1e160 0 ; 0 1e160"))
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "large")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "linearly dependent" not in err and "Traceback" not in err


A5_CFG = SQUARE_CFG + """
[grid]
x0 = 0.05
s_max = 34
nodes = 4800

[solver]
cutoff = 25
tol = 1e-11
max_iter = 30
torus_resolution = 16

[boundary]
kind = cosine
amplitude = 1e-3

[ratefit]
s_lo = 40
s_hi = 200
"""


def test_rate_fit_command_matches_criterion_a5(tmp_path):
    # the command on A5's config and the criterion run one solve-and-fit
    # path, so they report the same figures to the last bit
    cfg = tmp_path / "a5.cfg"
    cfg.write_text(A5_CFG)
    out = tmp_path / "out"
    assert cli.main(["rate-fit", str(cfg), "-o", str(out)]) == 0
    res = json.loads((out / "rate-fit.json").read_text())["results"]
    a5 = acceptance.criterion_a5()
    figures = (res["delta"], res["p"], res["residual_sup"], res["iterations"])
    assert figures == tuple(a5.details[key] for key in ("delta", "p", "residual", "iterations"))


def test_stage_failure_names_its_stage(tmp_path, capsys):
    # at amplitude 1e-2 the second iterate is too rough for a (16, 1) torus
    # grid: the collocation refuses it, and the message says where
    cfg = tmp_path / "a5.cfg"
    cfg.write_text(A5_CFG.replace("amplitude = 1e-3", "amplitude = 1e-2"))
    assert cli.main(["rate-fit", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: Picard iteration 2: torus shape (16, 1) too small")


def test_rate_fit_targets_the_fitted_mode(tmp_path):
    # on lattice diag(1, 2) lambda_1 = pi^2/4 sits on mode (0, 1), while the
    # fitted (1, 0) profile has lambda = pi^2 and decays at 2 pi
    cfg = tmp_path / "rect.cfg"
    cfg.write_text(
        SQUARE_CFG.replace("lattice = 1 0 ; 0 1", "lattice = 1 0 ; 0 2")
        + """
[grid]
x0 = 0.05
s_max = 20
nodes = 600

[solver]
cutoff = 5

[boundary]
kind = cosine
amplitude = 1e-3

[ratefit]
s_lo = 40
s_hi = 120
"""
    )
    out = tmp_path / "out"
    assert cli.main(["rate-fit", str(cfg), "-o", str(out)]) == 0
    res = json.loads((out / "rate-fit.json").read_text())["results"]
    assert len(res["trace"]) == res["iterations"] >= 2
    # the solve collocates on (16, 1), whose halved axis is axis 0: the pair
    # (1, 0), (-1, 0) is one stored mode and one solve in every iteration
    assert [t["modes_solved"] for t in res["trace"]] == [1] * res["iterations"]
    # the sidecar of every solve command carries the solve's diagnostics
    assert res["lambda1"] == pytest.approx(np.pi**2 / 4, rel=1e-14)
    assert {"tail_indicator", "modes_solved", "ell0_decay_power"} <= set(res)
    assert res["delta_target"] == pytest.approx(2 * np.pi, rel=1e-14)
    assert abs(res["delta"] / res["delta_target"] - 1) < 0.01
    # the cosine boundary (1, 0) spans lattice axis 0 only
    assert res["torus_shape"] == [16, 1]
    assert "lattice axes [0]" in res["torus_shape_reason"]


def test_solve_command_small(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(
        SQUARE_CFG
        + """
[grid]
x0 = 0.05
s_max = 16
nodes = 1200

[solver]
cutoff = 9
tol = 1e-10
max_iter = 30
torus_resolution = 8

[boundary]
kind = constant
amplitude = -0.0299
"""
    )
    out = tmp_path / "out"
    assert cli.main(["solve", str(cfg), "-o", str(out)]) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["results"]["residual_sup"] < 1e-6
    assert payload["results"]["tangent_cone_c"] == pytest.approx(0.2, abs=1e-3)
    header = (out / "solve.csv").read_text().splitlines()[0]
    # a constant boundary solves no (1, 0) mode, so there is no cosine column
    assert header == "x,s,u_mode0"


def test_solve_sidecar_records_torus_shape(tmp_path):
    # a constant n = 3 boundary spans no lattice axis: the solve collocates
    # one torus point per node, the (1, 0, 0, 0) profile read on that field
    # is zero, and the shape goes into the sidecar, never into the CSV
    cfg = tmp_path / "n3.cfg"
    cfg.write_text(N3_SOLVE_CFG + "[solver]\ntorus_resolution = 4\n")
    out = tmp_path / "out"
    assert cli.main(["solve", str(cfg), "-o", str(out)]) == 0
    res = json.loads((out / "solve.json").read_text())["results"]
    assert res["torus_shape"] == [1, 1, 1, 1]
    assert "lattice axes []" in res["torus_shape_reason"]
    text = (out / "solve.csv").read_text()
    assert text.splitlines()[0] == "x,s,u_mode0"
    assert "torus" not in text


def _dimension_config(n: int, nodes: int = 4800) -> str:
    """The square config at dimension n: lattice I_2(n-1), A = I_(n-1), and
    the grid and boundary of a rate solve (4800 nodes by default, boundary
    (+-1, 0, ...) at 1e-5, m = 8)."""
    eye = lambda k: " ; ".join(" ".join(str(int(i == j)) for j in range(k)) for i in range(k))  # noqa: E731
    return (
        f"[model]\nn = {n}\nlattice = {eye(2 * n - 2)}\nA = {eye(n - 1)}\n"
        + SQUARE_CFG[SQUARE_CFG.index("[spectrum]") :].replace("[expand]\nn = 2", f"[expand]\nn = {n}")
        + f"[grid]\nx0 = 0.05\ns_max = 34\nnodes = {nodes}\n[solver]\ncutoff = 25\ntol = 1e-11\ntorus_resolution = 8\n"
        + "[boundary]\nkind = cosine\namplitude = 1e-5\n"
    )


def test_solve_and_rate_fit_run_up_to_dimension_seven(tmp_path, capsys, monkeypatch):
    # one collocation path serves every n: n = 4 solves on the one lattice
    # axis its boundary spans, and so do n = 6 and 7 on 400 nodes; n = 8 is
    # refused at the minor-product budget before any collocation, while its
    # spectrum, which has no dimension bound, still runs
    cfg = tmp_path / "n4.cfg"
    cfg.write_text(_dimension_config(4))
    for command in ("solve", "rate-fit"):
        assert cli.main([command, str(cfg), "-o", str(tmp_path / command)]) == 0
        res = json.loads((tmp_path / command / f"{command}.json").read_text())["results"]
        assert res["torus_shape"] == [8, 1, 1, 1, 1, 1]
        assert res["residual_sup"] <= 1e-11
    for command in ("calabi", "expand", "spectrum"):
        assert cli.main([command, str(cfg), "-o", str(tmp_path / command)]) == 0
    for n in (6, 7):
        cfg.write_text(_dimension_config(n, nodes=400))
        for command in ("solve", "rate-fit", "spectrum"):
            assert cli.main([command, str(cfg), "-o", str(tmp_path / f"{command}{n}")]) == 0
        res = json.loads((tmp_path / f"rate-fit{n}" / "rate-fit.json").read_text())["results"]
        assert res["torus_shape"] == [8] + [1] * (2 * n - 3)
        assert res["residual_sup"] <= 1e-7
    capsys.readouterr()
    cfg.write_text(_dimension_config(8, nodes=400))

    def collocated(*args, **kwargs):
        raise AssertionError("n = 8 collocated")

    with monkeypatch.context() as patch:
        patch.setattr(cli.modes.geometry, "quadratic_remainder", collocated)
        for command in ("solve", "rate-fit"):
            assert cli.main([command, str(cfg), "-o", str(tmp_path / f"{command}8")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: n = 8 expands about 40320 minor products a point, over 5040")
            assert "Traceback" not in err
    assert cli.main(["spectrum", str(cfg), "-o", str(tmp_path / "spectrum8")]) == 0


def test_model_dimension_has_one_default(tmp_path):
    # [model] n defaults to 2 for every reader; calabi needs no lattice or A
    path = tmp_path / "default.cfg"
    path.write_text(SQUARE_CFG.replace("[model]\nn = 2\n", "[model]\n"))
    assert cli.build_model(cli.load_config(str(path))).n == 2
    path.write_text("[calabi]\nb = 0.5\nt_end = -30\n")
    assert cli.main(["calabi", str(path), "-o", str(tmp_path / "o")]) == 0


def test_readme_example_uses_only_table_keys(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(_readme_example())
    cfg = cli.load_config(str(path))  # refuses a key or section the table does not list
    assert set(cfg.sections()) == set(cli.TABLE)
    for name in cfg.sections():  # the example sets every key
        assert set(cfg[name]) == {key.lower() for key in cli.TABLE[name]}


def test_solver_section_is_picard_solve_options():
    # every option of the solve is a config key, and every key an option
    params = set(inspect.signature(cli.modes.picard_solve).parameters) - {"model", "boundary", "grid"}
    assert params == set(cli.TABLE["solver"])


# sections each command reads; the fuzz test draws keys from these alone, so
# that most draws get past the config check and into the command
COMMAND_SECTIONS = {
    "spectrum": ["model", "spectrum"],
    "calabi": ["model", "calabi"],
    "bessel-sweep": ["bessel"],
    "expand": ["expand"],
    "lemma43": ["lemma43"],
    "solve": ["model", "grid", "solver", "boundary"],
    "rate-fit": ["model", "grid", "solver", "boundary", "ratefit"],
    "geometry-check": [],
    "green-test": [],
    "report": [],
}
# valid values besides each key's default, at tier-1 sizes
FUZZ_VALUES = {
    ("model", "lattice"): ["1 0 ; 0 1", "1 0.5 ; 0 0.8660254"],
    ("model", "A"): ["1", "1.3"],
    ("grid", "x0"): ["0.05"],
    ("grid", "s_max"): ["16"],
    ("grid", "nodes"): ["400", "60"],
    ("solver", "cutoff"): ["3"],
    ("solver", "tol"): ["1e-10"],
    ("solver", "torus_resolution"): ["8"],
    ("boundary", "kind"): ["cosine"],
    ("boundary", "amplitude"): ["1e-3"],
    ("spectrum", "count"): ["3"],
    ("calabi", "b"): ["0.5"],
    ("calabi", "t_end"): ["-5"],
    ("bessel", "alpha_max"): ["5"],
    ("bessel", "points"): ["5"],
    ("expand", "order"): ["5"],
    ("ratefit", "s_hi"): ["100"],
    ("lemma43", "x_max"): ["1"],
}
FUZZ_TOKENS = ["abc", "nan", "inf", "-1", "0", "1%", ""]


@st.composite
def fuzzed_config(draw, sections):
    """A config of valid values for `sections`, with up to two keys set to
    a bad token or left out, and at times a misspelt key or section."""
    entries = {}
    for name in sections:
        for key, (kind, default, check) in cli.TABLE[name].items():
            valid = ([] if default is None else [str(default)]) + FUZZ_VALUES.get((name, key), [])
            entries[name, key] = draw(st.sampled_from(valid))
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        entries[draw(st.sampled_from(sorted(entries)))] = draw(st.sampled_from(FUZZ_TOKENS + [None]))
    text = {name: [f"[{name}]"] for name in sections}
    for (name, key), value in entries.items():
        if value is not None:  # None leaves the key out
            text[name].append(f"{key} = {value}")
    if sections and draw(st.integers(0, 7)) == 0:
        name = draw(st.sampled_from(sections))
        text[name].append(f"{draw(st.sampled_from(list(cli.TABLE[name])))}x = 1")
    if draw(st.integers(0, 7)) == 0:
        text["solvr"] = ["[solvr]", "cutoff = 2"]
    return "\n".join(line for lines in text.values() for line in lines) + "\n"


def _stub_result(name):
    return acceptance.CriterionResult(name, True, {"stub": 1.0})


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_fuzzed_configs_exit_cleanly(command, tmp_path, monkeypatch):
    # the solvers and criteria are patched out: the test is of config
    # handling, and every value drawn is tier-1 sized
    def no_solve(*args, **kwargs):
        raise NumericalError("picard_solve patched out")

    monkeypatch.setattr(cli.modes, "picard_solve", no_solve)
    monkeypatch.setattr(cli.acceptance, "criterion_a4", lambda: _stub_result("A4"))
    monkeypatch.setattr(cli.acceptance, "criterion_a9", lambda: _stub_result("A9"))
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [_stub_result("A1")])
    path = tmp_path / "fuzz.cfg"

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(fuzzed_config(COMMAND_SECTIONS[command]))
    def run(text):
        path.write_text(text)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), np.errstate(all="ignore"):
            rc = cli.main([command, str(path), "-o", str(tmp_path / "o")])
        assert rc in {0, 2, 3, 4}, text
        assert "Traceback" not in err.getvalue(), text

    run()


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


def _signed(magnitude):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda sv: sv[0] * sv[1])


def _entry(value) -> str:
    value = complex(value)
    return repr(value.real) if value.imag == 0 else f"{value.real!r}{value.imag:+}j"


def _matrix_text(rows) -> str:
    return " ; ".join(" ".join(_entry(v) for v in row) for row in rows)


def _mostly(usual, rare):
    """`usual` nine draws in ten, else `rare`: most configs get past the
    config checks and into a solve."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 5 else usual)  # hypothesis favours the bounds


@st.composite
def tiny_solve_config(draw, command):
    """A real tiny solve: at most 60 nodes, m <= 4, max_iter <= 6, with
    log-uniform extremes of every [model], [grid], [solver] and [boundary]
    key, and at times a value the config checks or the solve refuse."""
    n = draw(_mostly(st.sampled_from([2, 3, 4, 5]), st.just(8)))  # n = 8 is refused at the minor-product budget
    d = n - 1
    lattice = np.diag([draw(_log_uniform(1e-3, 1e3)) for _ in range(2 * d)])
    for i, j in draw(st.lists(st.tuples(st.integers(0, 2 * d - 1), st.integers(0, 2 * d - 1)), max_size=2)):
        lattice[i, j] += draw(_signed(_log_uniform(1e-3, 1e3)))
    A = np.diag([draw(_log_uniform(1e-12, 1e12)) for _ in range(d)]).astype(complex)
    # Hermitian couplings of relative size up to 1.2 between every pair of axes, so at times indefinite
    pairs, coupling = list(itertools.combinations(range(d), 2)), st.tuples(st.floats(0.0, 1.2), st.floats(0, 6.3))
    for (a, b), (size, phase) in zip(pairs, draw(st.lists(coupling, min_size=len(pairs), max_size=len(pairs)))):
        A[a, b] = size * np.sqrt(A[a, a].real * A[b, b].real) * np.exp(1j * phase)
        A[b, a] = np.conj(A[a, b])
    x0 = draw(_mostly(_log_uniform(1e-60, 1e3), _log_uniform(1e-300, 1e-60)))
    s_max = draw(_mostly(_log_uniform(1e-12, 1e3).map(lambda r: x0**-0.5 * (1.0 + r)), _log_uniform(1e-3, 1e300)))
    amplitude = draw(_mostly(_signed(_log_uniform(1e-300, 1e2)), st.just(0.0)))
    # the rate fit needs the (1, 0, ...) mode of a cosine boundary
    cosine = st.just("cosine")
    kind = draw(_mostly(cosine, st.just("constant")) if command == "rate-fit" else cosine | st.just("constant"))
    sections = {
        "model": {"n": n, "lattice": _matrix_text(lattice), "A": _matrix_text(A)},
        "grid": {"x0": x0, "s_max": s_max, "nodes": draw(_mostly(st.integers(8, 60), st.integers(1, 7)))},
        "solver": {"cutoff": draw(_log_uniform(1e-4, 1e6)), "tol": draw(_log_uniform(1e-300, 1e2)),
                   "max_iter": draw(st.integers(1, 6)),
                   "torus_resolution": draw(_mostly(st.just(4), st.sampled_from([1, 2, 3])))},
        "boundary": {"kind": kind, "amplitude": amplitude},
    }
    if command == "rate-fit":  # mostly every node, else the default window or a drawn one
        s_lo = draw(_log_uniform(1e-3, 1e6))
        drawn = st.sampled_from([{}, {"s_lo": s_lo, "s_hi": s_lo * draw(_log_uniform(1.001, 1e3))}])
        sections["ratefit"] = draw(_mostly(st.just({"s_lo": 1e-300, "s_hi": 1e300}), drawn))
    # str() of a float is its shortest round-tripping repr
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


@pytest.mark.parametrize("command", ["solve", "rate-fit"])
def test_fuzzed_tiny_solves_exit_cleanly(command, tmp_path):
    # real solves, nothing patched out, RuntimeWarnings raised as errors
    path = tmp_path / "tiny.cfg"

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(tiny_solve_config(command))
    def run(text):
        path.write_text(text)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main([command, str(path), "-o", str(tmp_path / "o")])
        assert rc in {0, 2, 3, 4}, text
        assert "Traceback" not in err.getvalue(), text

    run()


def _write_csv_reference(path, header, columns):
    """The reference writer: `csv.writer`'s default dialect over `cli._fmt` of every cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cli._fmt(v) for v in row] for row in zip(*columns))


def _csv_edge_tables():
    chunk = cli._CSV_CHUNK
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.1, 1 / 3, 1e300, -2.5e-300])
    text = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "", "a b", "%s", "100%", "'"]
    scalars = [True, np.bool_(False), np.int64(-7), 2**70, np.float32(0.1), np.float64(1 / 3), 1.5, None, 1 + 2j]
    yield "text", ["t,1", 'q"', "plain"], [text, np.arange(len(text)), np.linspace(0, 1, len(text))]
    yield "scalars", ["value", "double"], [scalars, [2 * v if isinstance(v, float) else v for v in scalars]]
    float32 = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-45, 0.1, 1 / 3, 3.4e38, -1e-38, 7.0], dtype=np.float32)
    yield "special-floats", ["f64", "f32", "list"], [floats, float32, floats.tolist()]
    yield "int-array", ["alpha", "s"], [np.full(5, 4), np.geomspace(0.5, 500, 5)]
    yield "bool-complex-arrays", ["b", "c"], [np.array([True, False]), np.array([1 + 2j, np.nan])]
    yield "no-rows", ["x", "y"], [np.zeros(0), []]
    yield "no-columns", ["x"], []
    yield "one-column", [""], [["", "a", "", ","]]
    yield "one-float-column", ["x"], [np.array([0.25, -0.0])]
    for rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
        yield f"rows-{rows}", ["i", "x", "flag"], [range(rows), x, [bool(v > 0) for v in x]]


@pytest.mark.parametrize("header, columns", [pytest.param(h, c, id=name) for name, h, c in _csv_edge_tables()])
def test_write_csv_matches_reference_writer(header, columns, tmp_path):
    cli.write_csv(tmp_path / "chunked.csv", header, columns)
    _write_csv_reference(tmp_path / "reference.csv", header, columns)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _readme_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_csv_columns_format_like_rows(command, tmp_path, monkeypatch):
    # README's example config at 1200 nodes; the criteria are stubbed with
    # details of every type a table holds
    details = {"float": 0.1, "numpy_float": np.float64(1 / 3), "int": 7, "flag": False, "text": "a b, c"}
    stub = acceptance.CriterionResult("A0", True, details)
    for name in ("criterion_a4", "criterion_a9"):
        monkeypatch.setattr(cli.acceptance, name, lambda: stub)
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [stub, acceptance.CriterionResult("A1", True)])
    written = []
    write_csv = cli.write_csv

    def write_both(path, header, columns):
        columns = list(columns)
        write_csv(path, header, columns)
        _write_csv_reference(tmp_path / "reference.csv", header, columns)
        written.append((path.read_bytes(), (tmp_path / "reference.csv").read_bytes()))

    monkeypatch.setattr(cli, "write_csv", write_both)
    example = _readme_example()
    assert "nodes = 4800\n" in example
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example.replace("nodes = 4800\n", "nodes = 1200\n"))
    assert cli.main([command, str(cfg), "-o", str(tmp_path / "out")]) == 0
    [(chunked, reference)] = written
    assert chunked.count(b"\n") > 1
    assert chunked == reference


def test_cli_import_leaves_linalg_and_sparse_unloaded():
    # nothing uses scipy.linalg, and scipy.sparse serves only the
    # finite-difference spectrum oracle; neither is loaded on import
    import cusplab

    src = str(Path(cusplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, cusplab.cli; print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_degenerate_metric_report_needs_no_scipy_linalg(tmp_path):
    # the positivity guard and its failure report read the e_k of the solve
    # and one numpy root finding: a solve whose guard fires exits 3 with no
    # traceback and never loads scipy.linalg
    import cusplab

    src = str(Path(cusplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(SQUARE_CFG + "[grid]\nx0 = 0.05\ns_max = 12\nnodes = 600\n[solver]\ntorus_resolution = 8\n"
                   "[boundary]\nkind = cosine\namplitude = 1.0\n")
    code = ("import sys, cusplab.cli; rc = cusplab.cli.main(['solve', sys.argv[1], '-o', sys.argv[2]]); "
            "print('scipy.linalg' in sys.modules); sys.exit(rc)")
    out = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stdout.strip() == "False"
    assert "perturbed metric degenerate" in out.stderr and "Traceback" not in out.stderr
