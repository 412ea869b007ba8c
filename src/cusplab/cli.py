"""Batch command-line front end.

Subcommands read an INI-style config, run one experiment, and write a CSV
table plus a JSON sidecar (parameters and derived scalars) into the output
directory.  Runs are deterministic: identical configs produce byte-identical
CSV output.  The sidecars of `solve` and `rate-fit` also hold one solve
record (`_solve_record`): the iteration count, the per-iteration trace, whose
stage timings vary between runs, and the solve's diagnostics, among them the
torus shape the solve collocated on: `[solver] torus_resolution` points
along each lattice axis the boundary modes vary along, one along the others
(a constant boundary collocates one torus point per radial node, the cosine
boundary (1, 0, ...) m points).  The shape goes only into the sidecar.

`TABLE` below is the config schema: every section, key, type, default and
check.  Each command reads its sections through `section`, so a missing,
malformed, non-finite or out-of-range value, and any section or key the
table does not list, is refused before any computation starts.

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
from scipy.special import ive, kve

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


def _fmt_column(column) -> list:
    """The cells of one column: a float array in one pass, anything else by `_fmt`."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return [format(v, ".17g") for v in column.tolist()]
    return [_fmt(v) for v in column]


def write_csv(path: Path, header: list, columns):
    """A CSV file with the given header over equal-length columns."""
    cells = [_fmt_column(col) for col in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def write_json(path: Path, payload: dict):
    """The payload as sorted, indented JSON; numpy scalars and arrays go
    through their own `tolist`."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
        fh.write("\n")


def matrix(text: str) -> np.ndarray:
    """A matrix written as ';'-separated rows of whitespace-separated real or
    complex entries."""
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return np.array([[complex(v) if ("j" in v or "J" in v) else float(v) for v in r.split()] for r in rows])


# section -> key -> (type, default, check).  A default of None marks a key
# that the config must give, or whose default the reading command passes.
# A check is "positive", a closed interval (lo, hi) or a set of choices.
# The counts [grid] nodes and [bessel] points are capped before anything is
# allocated; a solve's torus grid is capped by picard_solve's point budget.
TABLE = {
    "model": {
        "n": (int, 2, (2, math.inf)),  # complex dimension
        "lattice": (matrix, None, None),  # rows are the torus basis vectors
        "A": (matrix, None, None),  # Hermitian positive definite
        "scale": (float, 1.0, None),
    },
    "grid": {"x0": (float, None, None), "s_max": (float, None, None), "nodes": (int, None, (1, 2**20))},
    "solver": {  # cutoff is in multiples of lambda_1
        "cutoff": (float, None, "positive"), "tol": (float, None, "positive"), "max_iter": (int, 40, "positive"),
        "torus_resolution": (int, 16, "positive"),
    },
    "boundary": {"kind": (str, "constant", {"constant", "cosine"}), "amplitude": (float, 0.0, None)},
    "spectrum": {"count": (int, 12, "positive")},
    "calabi": {
        "a": (float, 0.0, None), "b": (float, 0.0, None), "t0": (float, -1.0, None),
        "t_end": (float, -50.0, None), "tol": (float, 1e-12, "positive"), "psi0": (float, 0.0, None),
    },
    "bessel": {
        "alpha_min": (int, 4, None), "alpha_max": (int, 8, None), "s_min": (float, 0.5, "positive"),
        "s_max": (float, 500.0, "positive"), "points": (int, 120, (1, 2**16)),
    },
    "expand": {"n": (int, 2, (2, math.inf)), "c": (float, 1.0, None), "order": (int, 20, (1, radial._MAX_ORDER))},
    "ratefit": {"s_lo": (float, 40.0, "positive"), "s_hi": (float, 200.0, None)},  # s = 2 sqrt(lam)/sqrt(x)
    "lemma43": {
        "c": (float, 2.0, None), "k": (float, 0.0, None),
        "eps": (float, 1.0, "positive"), "x_max": (float, 10.0, "positive"),
    },
}


class _Section(dict):
    """Checked values of one section; reading a required key that the config
    leaves out raises ConfigError."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, key):
        raise ConfigError(f"[{self.name}] {key} is missing")


def section(cfg: configparser.ConfigParser, name: str, **defaults) -> dict:
    """The checked values of [name]: each key of TABLE[name] as the config
    gives it, else from `defaults`, else the table's default.

    Raises ConfigError for an unknown section or key (keys compare
    lower-cased, as configparser stores them) and for a malformed,
    non-finite or out-of-range value.
    """
    if name not in TABLE:
        raise ConfigError(f"unknown section [{name}]; the sections are {', '.join(TABLE)}")
    keys = {key.lower(): key for key in TABLE[name]}
    given = dict(cfg[name]) if cfg.has_section(name) else {}
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in [{name}]; the keys are {', '.join(TABLE[name])}")
    out = _Section(name)
    for lower, key in keys.items():
        kind, default, check = TABLE[name][key]
        if lower not in given:
            default = defaults.get(key, default)
            if default is not None:
                out[key] = default
            continue
        raw = given[lower]
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"[{name}] {key} = {raw!r} is not a valid {kind.__name__}") from None
        if kind in (float, matrix) and not np.all(np.isfinite(value)):
            raise ConfigError(f"[{name}] {key} = {raw!r} is not finite")
        if check == "positive" and not value > 0:
            raise ConfigError(f"[{name}] {key} = {raw!r} must be positive")
        if isinstance(check, tuple) and not check[0] <= value <= check[1]:
            raise ConfigError(f"[{name}] {key} = {raw!r} must lie in [{check[0]}, {check[1]}]")
        if isinstance(check, set) and value not in check:
            raise ConfigError(f"[{name}] {key} = {raw!r} must be one of {sorted(check)}")
        out[key] = value
    return out


def load_config(path: str) -> configparser.ConfigParser:
    """The parsed config, with every section checked against TABLE."""
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
        for name in cfg.sections():  # reading interpolates, so a malformed value fails here
            section(cfg, name)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    return cfg


def build_model(cfg: configparser.ConfigParser) -> CuspModel:
    sec = section(cfg, "model")
    lattice = sec["lattice"].T  # rows are basis vectors
    return CuspModel(n=sec["n"], lattice=lattice, A=sec["A"], scale=sec["scale"])


def build_grid(cfg: configparser.ConfigParser) -> RadialGrid:
    sec = section(cfg, "grid")
    return RadialGrid.make(sec["x0"], sec["s_max"], sec["nodes"])


def _boundary(cfg, n: int) -> dict:
    sec = section(cfg, "boundary")
    amp = sec["amplitude"]
    dims = 2 * (n - 1)
    if sec["kind"] == "constant":
        return {(0,) * dims: amp}
    k = (1,) + (0,) * (dims - 1)
    return {k: amp / 2.0, tuple(-i for i in k): amp / 2.0}


def _check_table(result: acceptance.CriterionResult, path: Path) -> dict:
    """A criterion's details as a (check, value) table; its sidecar fields."""
    write_csv(path, ["check", "value"], zip(*sorted(result.details.items())))
    return {"passed": result.passed, **result.details}


def _solve_record(state: modes.PicardState) -> dict:
    """The sidecar fields of a Picard solve, the same for every command that solves."""
    return {"iterations": state.iteration, "trace": state.trace, **state.diagnostics}


# --- subcommand implementations ---


def cmd_spectrum(cfg, out_dir: Path) -> dict:
    model = build_model(cfg)
    count = section(cfg, "spectrum")["count"]
    keys, lams = spectrum.eigenvalues_up_to(model, count)
    columns = [range(len(lams)), [" ".join(map(str, k)) for k in keys.tolist()], lams]
    write_csv(out_dir / "spectrum.csv", ["index", "mode", "lambda"], columns)
    return {"lambda1": spectrum.first_eigenvalue(model), "count": count}


def cmd_geometry_check(cfg, out_dir: Path) -> dict:
    return _check_table(acceptance.criterion_a9(), out_dir / "geometry-check.csv")


def cmd_calabi(cfg, out_dir: Path) -> dict:
    n = section(cfg, "model")["n"]
    sec = section(cfg, "calabi")
    traj = radial.integrate_calabi(n, **sec)
    fi = traj.first_integral()
    columns = [traj.t_nodes, traj.psi, traj.psi_prime, fi]
    write_csv(out_dir / "calabi.csv", ["t", "psi", "psi_prime", "first_integral"], columns)
    payload = {
        "first_integral_drift": traj.first_integral_drift(),
        "ode_residual": traj.ode_residual(),
        "breakdown_t": traj.breakdown_t,
    }
    if not np.isfinite([payload["first_integral_drift"], payload["ode_residual"]]).all():
        raise NumericalError(f"non-finite trajectory figures: {payload}")
    if sec["b"] > 0:
        angle, empirical = radial.cone_angle(n, sec["b"])
        payload["cone_angle"] = angle
        payload["cone_angle_empirical"] = 2.0 * np.pi * empirical
    return payload


# rows of a Bessel sweep; their formatted cells, about 0.3 kB a row, are all held at once
_SWEEP_ROWS = 2**18


def cmd_bessel_sweep(cfg, out_dir: Path) -> dict:
    sec = section(cfg, "bessel")
    a_min, a_max = sec["alpha_min"], sec["alpha_max"]
    if a_min > a_max:
        raise ConfigError(f"[bessel] alpha_min = {a_min} exceeds alpha_max = {a_max}")
    count = (a_max - a_min + 1) * sec["points"]
    if count > _SWEEP_ROWS:
        raise ConfigError(f"[bessel] orders {a_min}..{a_max} at {sec['points']} points make {count} rows, "
                          f"over the cap of {_SWEEP_ROWS}")
    s = np.geomspace(sec["s_min"], sec["s_max"], sec["points"])
    blocks = []
    worst = 0.0
    for alpha in range(a_min, a_max + 1):
        r_abel, r_mode = bessel.wronskian_residuals(alpha, s)  # refuses alpha < 3
        if not (np.all(np.isfinite(r_abel)) and np.all(np.isfinite(r_mode))):
            raise NumericalError(f"non-finite Wronskian residual at alpha = {alpha}")
        worst = max(worst, float(np.max(r_abel)), float(np.max(r_mode)))
        blocks.append([np.full(len(s), alpha), s, ive(alpha, s), kve(alpha, s), r_abel, r_mode])
    header = ["alpha", "s", "i_scaled", "k_scaled", "abel_residual", "mode_wronskian_residual"]
    write_csv(out_dir / "bessel-sweep.csv", header, [np.concatenate(col) for col in zip(*blocks)])
    return {"max_residual": worst}


def cmd_expand(cfg, out_dir: Path) -> dict:
    sec = section(cfg, "expand")
    n, c, order = sec["n"], sec["c"], sec["order"]
    if c == 0:
        raise ConfigError("[expand] c = 0 makes every closed-form coefficient zero")
    series = radial.expand_formal(n, -(n + 1) * c, order)
    target = radial.tangent_cone_coefficients(n, c, order)
    rel = np.abs(series.coeffs[1:] - target[1:]) / np.abs(target[1:])
    worst = float(np.max(rel))
    if not np.isfinite(worst):  # np.max keeps a NaN that a running max() drops
        raise NumericalError(f"[expand] c = {c}: c^k under- or overflows by order {order}, rel_err = {worst}")
    columns = [range(1, order + 1), series.coeffs[1:], target[1:], rel]
    write_csv(out_dir / "expand.csv", ["k", "coefficient", "closed_form", "rel_err"], columns)
    return {"max_rel_err": worst, "equation_residual": radial.series_equation_residual(series)}


def cmd_green_test(cfg, out_dir: Path) -> dict:
    return _check_table(acceptance.criterion_a4(), out_dir / "green-test.csv")


def cmd_solve(cfg, out_dir: Path) -> dict:
    model = build_model(cfg)
    grid = build_grid(cfg)
    boundary = _boundary(cfg, model.n)
    u, state = modes.picard_solve(model, boundary, grid, **section(cfg, "solver", cutoff=9.0, tol=1e-10))
    c_fit, c_rms = modes.extract_tangent_cone(u, model.n)
    mode1_key = tuple([1] + [0] * (2 * model.d - 1))
    prof1 = u.mode(mode1_key)
    header, columns = ["x", "s", "u_mode0"], [grid.x, grid.s, u.radial_mean()]
    if np.any(prof1):  # the (1, 0, ...) mode was solved
        header.append("u_mode1_cos")
        columns.append(2.0 * prof1.real)
    write_csv(out_dir / "solve.csv", header, columns)
    return {**_solve_record(state), "tangent_cone_c": c_fit, "tangent_cone_rms": c_rms}


def cmd_rate_fit(cfg, out_dir: Path) -> dict:
    model = build_model(cfg)
    grid = build_grid(cfg)
    options = section(cfg, "solver", cutoff=25.0, tol=1e-11)
    window = section(cfg, "ratefit")
    fit, lam, prof, _, state = analysis.rate_fit(model, grid, _boundary(cfg, model.n), **window, **options)
    mask = analysis.window_mask(grid.x, fit.window)
    x = grid.x[mask]
    env = fit.amplitude * x**fit.p * np.exp(-fit.delta / np.sqrt(x))
    write_csv(out_dir / "rate-fit.csv", ["x", "remainder", "fitted_model"], [x, prof[mask], env])
    return {
        **_solve_record(state),
        "delta": fit.delta,
        "delta_target": 2.0 * np.sqrt(lam),
        "p": fit.p,
        "p_target": -model.n / 2.0 + 0.25,
        "amplitude": fit.amplitude,
        "rms": fit.rms,
    }


def cmd_lemma43(cfg, out_dir: Path) -> dict:
    sec = section(cfg, "lemma43")
    report = analysis.lemma43_check(**sec)
    xs = np.geomspace(1e-6, sec["x_max"], 60)
    r1 = analysis.ratio_lower(sec["c"], sec["k"], xs)
    write_csv(out_dir / "lemma43.csv", ["x", "r1"], [xs, r1])
    return {key: getattr(report, key) for key in ("sup_r1", "limit_r1", "sup_r2", "x0_admissible", "passed")}


def cmd_report(cfg, out_dir: Path) -> dict:
    results = acceptance.run_all()
    # no timings in the CSV: outputs must be byte-identical across reruns
    write_csv(out_dir / "report.csv", ["criterion", "passed"], [[r.name for r in results], [r.passed for r in results]])
    criteria = {r.name: {"passed": r.passed, "seconds": r.seconds, **r.details} for r in results}
    payload = {"criteria": criteria, "all_passed": all(r.passed for r in results)}
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
    resolved = {name: dict(cfg[name]) for name in cfg.sections()}
    sidecar = {"command": args.command, "config": resolved, "results": payload}
    write_json(out_dir / f"{args.command}.json", sidecar)
    if args.command == "report" and not payload["all_passed"]:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
