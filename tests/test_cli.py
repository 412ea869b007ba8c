import contextlib
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
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
scale = 1.0

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
    # a cutoff whose mode box exceeds the point budget is refused at once
    bad.write_text(N3_SOLVE_CFG + "[solver]\ncutoff = 1e6\ntorus_resolution = 4\n")
    assert cli.main(["solve", str(bad), "-o", str(tmp_path / "o")]) == 2

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
        patch.setattr(cli.modes.geometry, "Collocation", refuse("collocation built"))
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
        ("solve", solve_cfg.replace("scale = 1.0", "scale = inf")),
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
        # a fit window that holds no grid node is refused before the solve
        ("rate-fit", solve_cfg + cosine + "[ratefit]\ns_lo = 1e9\ns_hi = 2e9\n"),
    ]:
        assert text != SQUARE_CFG  # each replacement above must take effect
        bad.write_text(text)
        assert cli.main([command, str(bad), "-o", str(tmp_path / "o")]) == 2, text


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
        # a mode step d = 2 sqrt(lambda) h of 2450 per node: exp(-d) underflows
        ("solve", "A = 1\n", "A = 1e-8\n", 2),
        ("solve", "A = 1\n", "A = 1e-12\n", 2),
        # x0^-(n+2) overflows the float range
        ("solve", "x0 = 0.05\ns_max = 20", "x0 = 1e-300\ns_max = 2e150", 2),
    ],
)
def test_extreme_finite_configs_exit_cleanly(command, old, new, code, tmp_path, capsys):
    # finite values whose powers, squares or differences leave the float
    # range, and NaN figures, end in exit 2 or 3, never in a traceback
    path = tmp_path / "extreme.cfg"
    cfg = SQUARE_CFG + SOLVE_SECTIONS
    assert old in cfg
    path.write_text(cfg.replace(old, new, 1))
    with np.errstate(all="ignore"):
        assert cli.main([command, str(path), "-o", str(tmp_path / "o")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_rate_fit_command_matches_criterion_a5(tmp_path):
    # the command on A5's config and the criterion run one solve-and-fit
    # path, so they report the same figures to the last bit
    cfg = tmp_path / "a5.cfg"
    cfg.write_text(
        SQUARE_CFG
        + """
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
    )
    out = tmp_path / "out"
    assert cli.main(["rate-fit", str(cfg), "-o", str(out)]) == 0
    res = json.loads((out / "rate-fit.json").read_text())["results"]
    a5 = acceptance.criterion_a5()
    figures = (res["delta"], res["p"], res["residual_sup"], res["iterations"])
    assert figures == tuple(a5.details[key] for key in ("delta", "p", "residual", "iterations"))


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


def test_solve_refuses_dimension_four(tmp_path, capsys):
    # collocation covers n = 2 and n = 3; the other commands keep every n
    lattice = " ; ".join(" ".join(str(int(i == j)) for j in range(6)) for i in range(6))
    model = f"[model]\nn = 4\nlattice = {lattice}\nA = 1 0 0 ; 0 1 0 ; 0 0 1\n"
    cfg = tmp_path / "n4.cfg"
    cfg.write_text(
        model
        + SQUARE_CFG[SQUARE_CFG.index("[spectrum]") :].replace("[expand]\nn = 2", "[expand]\nn = 4")
        + "[grid]\nx0 = 0.05\ns_max = 16\nnodes = 200\n[boundary]\nkind = cosine\namplitude = 1e-3\n"
    )
    for command in ("solve", "rate-fit"):
        assert cli.main([command, str(cfg), "-o", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n = 4" in err and "Traceback" not in err
    for command in ("calabi", "expand", "spectrum"):
        assert cli.main([command, str(cfg), "-o", str(tmp_path / command)]) == 0


def test_model_dimension_has_one_default(tmp_path):
    # [model] n defaults to 2 for every reader; calabi needs no lattice or A
    path = tmp_path / "default.cfg"
    path.write_text(SQUARE_CFG.replace("[model]\nn = 2\n", "[model]\n"))
    assert cli.build_model(cli.load_config(str(path))).n == 2
    path.write_text("[calabi]\nb = 0.5\nt_end = -30\n")
    assert cli.main(["calabi", str(path), "-o", str(tmp_path / "o")]) == 0


def test_readme_example_uses_only_table_keys(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(example)
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


CSV_CFG = SQUARE_CFG + """
[bessel]
alpha_max = 5
points = 7

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


def _write_csv_rowwise(path, header, columns):
    """The row-by-row reference: every cell through `cli._fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cli._fmt(v) for v in row])


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_csv_columns_format_like_rows(command, tmp_path, monkeypatch):
    # the criteria are stubbed with details of every type a table holds
    details = {"float": 0.1, "numpy_float": np.float64(1 / 3), "int": 7, "flag": False, "text": "a b"}
    stub = acceptance.CriterionResult("A0", True, details)
    for name in ("criterion_a4", "criterion_a9"):
        monkeypatch.setattr(cli.acceptance, name, lambda: stub)
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [stub, acceptance.CriterionResult("A1", True)])
    written = []
    write_csv = cli.write_csv

    def write_both(path, header, columns):
        columns = [col if isinstance(col, np.ndarray) else list(col) for col in columns]
        write_csv(path, header, columns)
        _write_csv_rowwise(tmp_path / "rowwise.csv", header, columns)
        written.append((path.read_bytes(), (tmp_path / "rowwise.csv").read_bytes()))

    monkeypatch.setattr(cli, "write_csv", write_both)
    cfg = tmp_path / "all.cfg"
    cfg.write_text(CSV_CFG)
    assert cli.main([command, str(cfg), "-o", str(tmp_path / "out")]) == 0
    [(columnwise, rowwise)] = written
    assert columnwise.count(b"\n") > 1
    assert columnwise == rowwise


def test_cli_import_leaves_linalg_and_sparse_unloaded():
    # scipy.linalg serves only the degenerate-point report and scipy.sparse
    # only the finite-difference spectrum oracle; neither is loaded on import
    import cusplab

    src = str(Path(cusplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, cusplab.cli; print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
