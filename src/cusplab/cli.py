"""Batch command-line front end.

Subcommands read an INI-style config, run one experiment, and write a CSV
table plus a JSON sidecar (parameters and derived scalars) into the output
directory.  Runs are deterministic: identical configs produce byte-identical
CSV output.  The sidecars of `solve` and `rate-fit` also hold the Picard
solve's per-iteration trace, whose stage timings vary between runs.

Config schema (sections and keys; all numeric unless noted):

    [model]    n, lattice (rows 'a b; c d' are basis vectors), A (rows),
               scale
    [grid]     x0, s_max, nodes
    [solver]   cutoff, tol, max_iter, torus_resolution, final_order (2 or 4)
    [boundary] kind = constant | cosine, amplitude
    [spectrum] count
    [calabi]   a, b, t0, t_end, tol, psi0
    [bessel]   alpha_min, alpha_max, s_min, s_max, points
    [expand]   n, c, order
    [ratefit]  s_lo, s_hi
    [lemma43]  c, k, eps, x_max

Exit codes: 0 ok, 2 invalid config, 3 numerical failure, 4 acceptance
failure in `report`.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, analysis, bessel, modes, radial, spectrum
from .errors import ConfigError, CuspLabError, NumericalError
from .grid import RadialGrid
from .model import CuspModel


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(path: Path, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    matrix = np.array([[complex(v) if ("j" in v or "J" in v) else float(v) for v in r.split()] for r in rows])
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"non-finite entry in {text!r}")
    return matrix


def load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
        _resolved(cfg)  # interpolates every value, so a malformed one fails here
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    return cfg


def _number(cfg, section: str, key: str, default=None, kind=float, positive=False, choices=None):
    """[section] key (or default when absent) as a finite value of type kind,
    above zero when `positive` is set and one of `choices` when given.

    Raises ConfigError for a missing, non-numeric, non-finite or out-of-range
    value, so a bad config is rejected before any computation starts.
    """
    raw = cfg.get(section, key, fallback=default)
    if raw is None:
        raise ConfigError(f"[{section}] {key} is missing")
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    if positive and value <= 0:
        raise ConfigError(f"[{section}] {key} = {raw!r} must be positive")
    if choices is not None and value not in choices:
        raise ConfigError(f"[{section}] {key} = {raw!r} must be one of {choices}")
    return value


def _dimension(cfg, section: str) -> int:
    """[section] n, the complex dimension: an integer n >= 2, as the model
    cusp requires."""
    n = _number(cfg, section, "n", 2, int)
    if n < 2:
        raise ConfigError(f"[{section}] n = {n} must be at least 2")
    return n


def build_model(cfg: configparser.ConfigParser) -> CuspModel:
    n = _number(cfg, "model", "n", kind=int)
    scale = _number(cfg, "model", "scale", 1.0)
    try:
        sec = cfg["model"]
        lattice = np.real(_parse_matrix(sec["lattice"])).T  # rows are basis vectors
        A = _parse_matrix(sec["A"])
        return CuspModel(n=n, lattice=lattice, A=A, scale=scale)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid [model] section: {exc}") from exc


def build_grid(cfg: configparser.ConfigParser) -> RadialGrid:
    x0 = _number(cfg, "grid", "x0")
    s_max = _number(cfg, "grid", "s_max")
    nodes = _number(cfg, "grid", "nodes", kind=int)
    try:
        return RadialGrid.make(x0, s_max, nodes)
    except ValueError as exc:
        raise ConfigError(f"invalid [grid] section: {exc}") from exc


def _resolved(cfg: configparser.ConfigParser) -> dict:
    return {s: dict(cfg[s]) for s in cfg.sections()}


def _boundary_from_config(cfg, grid, n) -> dict:
    kind = cfg.get("boundary", "kind", fallback="constant")
    amp = _number(cfg, "boundary", "amplitude", 0.0)
    dims = 2 * (n - 1)
    zero = (0,) * dims
    if kind == "constant":
        return {zero: amp}
    if kind == "cosine":
        k = tuple([1] + [0] * (dims - 1))
        mk = tuple(-i for i in k)
        return {k: amp / 2.0, mk: amp / 2.0}
    raise ConfigError(f"unknown boundary kind {kind!r}")


def _solver_options(cfg, cutoff: float, tol: float) -> dict:
    """Keyword arguments of modes.picard_solve from [solver]; cutoff and tol
    are the calling command's defaults."""
    return {
        "torus_resolution": _number(cfg, "solver", "torus_resolution", 16, int, positive=True),
        "cutoff": _number(cfg, "solver", "cutoff", cutoff, positive=True),
        "tol": _number(cfg, "solver", "tol", tol, positive=True),
        "max_iter": _number(cfg, "solver", "max_iter", 40, int, positive=True),
        "final_order": _number(cfg, "solver", "final_order", 4, int, choices=(2, 4)),
    }


# --- subcommand implementations ---


def cmd_spectrum(cfg, out_dir: Path) -> dict:
    model = build_model(cfg)
    count = _number(cfg, "spectrum", "count", 12, int)
    keys, lams = spectrum.eigenvalues_up_to(model, count)
    rows = [[i, " ".join(map(str, k)), lam] for i, (k, lam) in enumerate(zip(keys.tolist(), lams))]
    write_csv(out_dir / "spectrum.csv", ["index", "mode", "lambda"], rows)
    return {"lambda1": spectrum.first_eigenvalue(model), "count": count}


def cmd_geometry_check(cfg, out_dir: Path) -> dict:
    result = acceptance.criterion_a9()
    rows = [[k, v] for k, v in sorted(result.details.items())]
    write_csv(out_dir / "geometry-check.csv", ["check", "value"], rows)
    return {"passed": result.passed, **result.details}


def cmd_calabi(cfg, out_dir: Path) -> dict:
    n = _dimension(cfg, "model")
    a = _number(cfg, "calabi", "a", 0.0)
    b = _number(cfg, "calabi", "b", 0.0)
    t0 = _number(cfg, "calabi", "t0", -1.0)
    t_end = _number(cfg, "calabi", "t_end", -50.0)
    tol = _number(cfg, "calabi", "tol", 1e-12, positive=True)
    psi0 = _number(cfg, "calabi", "psi0", 0.0)
    traj = radial.integrate_calabi(n, a, b, t0, t_end, tol, psi0)
    fi = traj.first_integral()
    rows = [[t, p, pp, f] for t, p, pp, f in zip(traj.t_nodes, traj.psi, traj.psi_prime, fi)]
    write_csv(out_dir / "calabi.csv", ["t", "psi", "psi_prime", "first_integral"], rows)
    payload = {
        "first_integral_drift": traj.first_integral_drift(),
        "ode_residual": traj.ode_residual(),
        "breakdown_t": traj.breakdown_t,
    }
    if b > 0:
        angle, empirical = radial.cone_angle(n, b)
        payload["cone_angle"] = angle
        payload["cone_angle_empirical"] = 2.0 * np.pi * empirical
    return payload


def cmd_bessel_sweep(cfg, out_dir: Path) -> dict:
    a_min = _number(cfg, "bessel", "alpha_min", 4, int)
    a_max = _number(cfg, "bessel", "alpha_max", 8, int)
    if a_min > a_max:
        raise ConfigError(f"[bessel] alpha_min = {a_min} exceeds alpha_max = {a_max}")
    s_min = _number(cfg, "bessel", "s_min", 0.5, positive=True)
    s_max = _number(cfg, "bessel", "s_max", 500.0, positive=True)
    points = _number(cfg, "bessel", "points", 120, int, positive=True)
    s = np.geomspace(s_min, s_max, points)
    rows = []
    worst = 0.0
    for alpha in range(a_min, a_max + 1):
        iv = bessel.bessel_i_scaled(alpha, s)
        kv = bessel.bessel_k_scaled(alpha, s)
        r_abel, r_mode = bessel.wronskian_residuals(alpha, s)
        if not (np.all(np.isfinite(r_abel)) and np.all(np.isfinite(r_mode))):
            raise NumericalError(f"non-finite Wronskian residual at alpha = {alpha}")
        worst = max(worst, float(np.max(r_abel)), float(np.max(r_mode)))
        for i, sv in enumerate(s):
            rows.append([alpha, sv, iv.mantissa[i], kv.mantissa[i], r_abel[i], r_mode[i]])
    write_csv(
        out_dir / "bessel-sweep.csv",
        ["alpha", "s", "i_scaled", "k_scaled", "abel_residual", "mode_wronskian_residual"],
        rows,
    )
    return {"max_residual": worst}


def cmd_expand(cfg, out_dir: Path) -> dict:
    n = _dimension(cfg, "expand")
    c = _number(cfg, "expand", "c", 1.0)
    if c == 0:
        raise ConfigError("[expand] c = 0 makes every closed-form coefficient zero")
    order = _number(cfg, "expand", "order", 20, int)
    series = radial.expand_formal(n, -(n + 1) * c, order)
    target = radial.tangent_cone_coefficients(n, c, order)
    rows = []
    worst = 0.0
    for k in range(1, order + 1):
        rel = abs(series.coeffs[k] - target[k]) / abs(target[k])
        worst = max(worst, rel)
        rows.append([k, series.coeffs[k], target[k], rel])
    write_csv(out_dir / "expand.csv", ["k", "coefficient", "closed_form", "rel_err"], rows)
    return {"max_rel_err": worst, "equation_residual": radial.series_equation_residual(series)}


def cmd_green_test(cfg, out_dir: Path) -> dict:
    result = acceptance.criterion_a4()
    rows = [[k, v] for k, v in sorted(result.details.items())]
    write_csv(out_dir / "green-test.csv", ["check", "value"], rows)
    return {"passed": result.passed, **result.details}


def cmd_solve(cfg, out_dir: Path) -> dict:
    model = build_model(cfg)
    grid = build_grid(cfg)
    boundary = _boundary_from_config(cfg, grid, model.n)
    u, state = modes.picard_solve(model, boundary, grid, **_solver_options(cfg, cutoff=9.0, tol=1e-10))
    c_fit, c_rms = modes.extract_tangent_cone(u, model.n)
    mode1_key = tuple([1] + [0] * (2 * model.d - 1))
    prof1 = u.mode(mode1_key)
    header, columns = ["x", "s", "u_mode0"], [grid.x, grid.s, u.radial_mean()]
    if np.any(prof1):  # the (1, 0, ...) mode was solved
        header.append("u_mode1_cos")
        columns.append(2.0 * prof1.real)
    write_csv(out_dir / "solve.csv", header, zip(*columns))
    return {
        "iterations": state.iteration,
        "sup_change": state.sup_change,
        "contraction_history": state.contraction_history,
        "trace": state.trace,
        "tangent_cone_c": c_fit,
        "tangent_cone_rms": c_rms,
        **state.diagnostics,
    }


def cmd_rate_fit(cfg, out_dir: Path) -> dict:
    model = build_model(cfg)
    grid = build_grid(cfg)
    boundary = _boundary_from_config(cfg, grid, model.n)
    mode1_key = tuple([1] + [0] * (2 * model.d - 1))
    if not boundary.get(mode1_key):
        raise ConfigError("rate-fit needs a cosine boundary with nonzero amplitude")
    options = _solver_options(cfg, cutoff=25.0, tol=1e-11)
    s_lo = _number(cfg, "ratefit", "s_lo", 40.0, positive=True)
    s_hi = _number(cfg, "ratefit", "s_hi", 200.0)
    if s_lo >= s_hi:
        raise ConfigError(f"[ratefit] needs s_lo < s_hi, got s_lo = {s_lo}, s_hi = {s_hi}")
    u, state = modes.picard_solve(model, boundary, grid, **options)
    lam = spectrum.mode_eigenvalue(model, mode1_key)  # the fitted profile decays at 2 sqrt(lam)
    window = analysis.window_from_s(lam, s_lo, s_hi)
    prof = np.abs(u.mode(mode1_key))
    fit = analysis.decay_fit(grid.x, prof, window, mode="free_delta")
    mask = (grid.x >= window[0]) & (grid.x <= window[1])
    env = fit.amplitude * grid.x[mask] ** fit.p * np.exp(-fit.delta / np.sqrt(grid.x[mask]))
    rows = [[xv, pv, ev] for xv, pv, ev in zip(grid.x[mask], prof[mask], env)]
    write_csv(out_dir / "rate-fit.csv", ["x", "remainder", "fitted_model"], rows)
    return {
        "delta": fit.delta,
        "delta_target": 2.0 * np.sqrt(lam),
        "p": fit.p,
        "p_target": -model.n / 2.0 + 0.25,
        "amplitude": fit.amplitude,
        "rms": fit.rms,
        "residual_sup": state.diagnostics["residual_sup"],
        "trace": state.trace,
    }


def cmd_lemma43(cfg, out_dir: Path) -> dict:
    c = _number(cfg, "lemma43", "c", 2.0)
    k = _number(cfg, "lemma43", "k", 0.0)
    eps = _number(cfg, "lemma43", "eps", 1.0, positive=True)
    x_max = _number(cfg, "lemma43", "x_max", 10.0, positive=True)
    report = analysis.lemma43_check(c, k, x_max, eps)
    xs = np.geomspace(1e-6, x_max, 60)
    r1 = analysis.ratio_lower(c, k, xs)
    rows = [[xv, rv] for xv, rv in zip(xs, r1)]
    write_csv(out_dir / "lemma43.csv", ["x", "r1"], rows)
    return {
        "sup_r1": report.sup_r1,
        "limit_r1": report.limit_r1,
        "sup_r2": report.sup_r2,
        "x0_admissible": report.x0_admissible,
        "passed": report.passed,
    }


def cmd_report(cfg, out_dir: Path) -> dict:
    results = acceptance.run_all()
    # no timings in the CSV: outputs must be byte-identical across reruns
    rows = [[r.name, r.passed] for r in results]
    write_csv(out_dir / "report.csv", ["criterion", "passed"], rows)
    payload = {
        "criteria": {
            r.name: {"passed": r.passed, "seconds": r.seconds, **r.details} for r in results
        },
        "all_passed": all(r.passed for r in results),
    }
    for r in results:
        print(r.line())
    return payload


COMMANDS = {
    "spectrum": cmd_spectrum,
    "geometry-check": cmd_geometry_check,
    "calabi": cmd_calabi,
    "bessel-sweep": cmd_bessel_sweep,
    "expand": cmd_expand,
    "green-test": cmd_green_test,
    "solve": cmd_solve,
    "rate-fit": cmd_rate_fit,
    "lemma43": cmd_lemma43,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cusplab", description="Cusp metric numerical laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the INI config file")
    parser.add_argument("-o", "--out-dir", default=".", help="output directory")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(args.config)
        payload = COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CuspLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sidecar = {"command": args.command, "config": _resolved(cfg), "results": payload}
    write_json(out_dir / f"{args.command}.json", sidecar)
    if args.command == "report" and not payload["all_passed"]:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
