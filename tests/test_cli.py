import json
import numpy as np
import pytest

from cusplab import cli
from cusplab.errors import ConfigError


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
    assert [r["sup_change"] for r in res["trace"]] == res["contraction_history"]
    keys = {"sup_change", "tail_indicator", "modes_solved", "collocation_s", "assembly_s"}
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
    rc = cli.main(["spectrum", str(tmp_path / "missing.cfg"), "-o", str(tmp_path / "o")])
    assert rc == 2
    # a cutoff whose mode box exceeds the point budget is refused at once
    bad.write_text(N3_SOLVE_CFG + "[solver]\ncutoff = 1e6\ntorus_resolution = 4\n")
    assert cli.main(["solve", str(bad), "-o", str(tmp_path / "o")]) == 2

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
    assert len(res["trace"]) >= 2 and res["trace"][-1]["modes_solved"] >= 2
    assert res["delta_target"] == pytest.approx(2 * np.pi, rel=1e-14)
    assert abs(res["delta"] / res["delta_target"] - 1) < 0.01


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
