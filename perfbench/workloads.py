"""The three benchmark workloads.

Each workload has the same life cycle inside its child process:

    setup()          import cusplab and build the model and grid
    make_inputs()    draw the inputs from the seed (untimed)
    run_round()      the timed call
    check_round()    verify the outputs (untimed)

A seed never changes the amount of work: it draws the values of
green_sweep's inhomogeneities and nothing else.  The picard inputs are
fixed, because the CLI's cosine boundary has no phase to draw and changing
the tangent-cone constant changes the iteration count.
"""

from __future__ import annotations

import glob
import json
import math
import os
import shutil
import time

import numpy as np

import checks

PICARD_A5_CONFIG = """\
[model]
n = 2
lattice = 1 0 ; 0 1
A = 1

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

N3_C = 0.2
N3_X0 = 0.05

PICARD_N3_CONFIG = f"""\
[model]
n = 3
lattice = 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1
A = 1 0.2+0.1j ; 0.2-0.1j 0.8

[grid]
x0 = {N3_X0!r}
s_max = 34
nodes = 600

[solver]
cutoff = 9
tol = 1e-12
max_iter = 40
torus_resolution = 4

[boundary]
kind = constant
amplitude = {-4.0 * math.log1p(N3_C * N3_X0)!r}
"""


class PicardWorkload:
    """One `cusplab <command>` CLI call per round on a fixed config."""

    ops_per_round = 1

    def __init__(self, out_dir, command, config_text):
        self.command = command
        self.cli_out = os.path.join(out_dir, "cli")
        self.config_path = os.path.join(out_dir, f"{command}.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(config_text)

    def setup(self):
        t0 = time.perf_counter()
        from cusplab import cli

        import_s = time.perf_counter() - t0
        self.cli = cli
        cfg = cli.load_config(self.config_path)
        # built as the CLI builds them, so that set-up time includes them
        cli.build_model(cfg)
        cli.build_grid(cfg)
        return import_s

    def make_inputs(self, seed):
        """The config is fixed and the seed draws nothing; clears the CLI
        outputs of the previous round."""
        shutil.rmtree(self.cli_out, ignore_errors=True)

    def run_round(self):
        return self.cli.main([self.command, self.config_path, "-o", self.cli_out])

    def check_round(self, rc):
        """(figures, failures, failed operations) of one round."""
        if rc != 0:
            return {"exit_code": rc}, [], 1
        figures, failures = self.check_outputs()
        figures["csv_sha256"] = {
            os.path.basename(p): checks.sha256_file(p)
            for p in sorted(glob.glob(os.path.join(self.cli_out, "*.csv")))
        }
        return figures, failures, 0

    def _results(self):
        with open(os.path.join(self.cli_out, f"{self.command}.json")) as fh:
            return json.load(fh)["results"]


class PicardA5(PicardWorkload):
    """`cusplab rate-fit` on the A5 config (n = 2, cosine boundary)."""

    def __init__(self, out_dir):
        super().__init__(out_dir, "rate-fit", PICARD_A5_CONFIG)

    def check_outputs(self):
        cols = checks.read_csv_columns(os.path.join(self.cli_out, "rate-fit.csv"))
        results = self._results()
        return checks.check_rate_fit(cols["x"], cols["remainder"], results["residual_sup"])


class PicardN3(PicardWorkload):
    """`cusplab solve` at n = 3 with constant boundary data."""

    def __init__(self, out_dir):
        super().__init__(out_dir, "solve", PICARD_N3_CONFIG)

    def check_outputs(self):
        cols = checks.read_csv_columns(os.path.join(self.cli_out, "solve.csv"))
        results = self._results()
        return checks.check_tangent_cone(
            cols["x"], cols["u_mode0"], results["tangent_cone_c"], results["residual_sup"], n=3, c=N3_C
        )


def square_torus_modes(lam_ratio):
    """Nonzero k in Z^2 with pi^2 |k|^2 <= lam_ratio * pi^2, with eigenvalue."""
    r = int(math.isqrt(int(lam_ratio)))
    return [
        ((k1, k2), math.pi**2 * (k1 * k1 + k2 * k2))
        for k1 in range(-r, r + 1)
        for k2 in range(-r, r + 1)
        if 0 < k1 * k1 + k2 * k2 <= lam_ratio
    ]


def bounded_inhomogeneity(rng, s):
    """Smooth bounded profile in s with sup norm 1: four cosine and four
    sine harmonics over the grid span, with normal coefficients."""
    span = s[-1] - s[0]
    t = np.pi * (s - s[0]) / span
    out = np.zeros_like(s)
    for m in range(1, 5):
        out += rng.normal() * np.cos(m * t) + rng.normal() * np.sin(m * t)
    return out / np.max(np.abs(out))


class GreenSweep:
    """`modes.mode_solve` for every square-torus mode with lambda <= 10 lambda1.

    The boundary value is 0: with v(x0) = 1 the homogeneous part alone has
    a second-order centred-difference truncation error of 4e-4 at
    lambda = 8 pi^2, far above the 1e-6 bound the check applies.
    """

    LAM_RATIO = 10

    def __init__(self, out_dir):
        self.mode_list = square_torus_modes(self.LAM_RATIO)
        self.ops_per_round = len(self.mode_list)

    def setup(self):
        t0 = time.perf_counter()
        from cusplab import modes
        from cusplab.grid import RadialGrid
        from cusplab.model import CuspModel

        import_s = time.perf_counter() - t0
        self.modes = modes
        self.model = CuspModel(n=2, lattice=np.eye(2), A=np.eye(1))
        self.grid = RadialGrid.make(x0=0.1, s_max=20.0, num=120_000)
        return import_s

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        self.problems = [
            self.modes.ModeProblem(
                n=self.model.n,
                lam=lam,
                f=bounded_inhomogeneity(rng, self.grid.s),
                v_x0=0.0,
                grid=self.grid,
            )
            for _, lam in self.mode_list
        ]

    def run_round(self):
        return [self.modes.mode_solve(p) for p in self.problems]

    def check_round(self, solutions):
        worst = 0.0
        failures = []
        for p, v in zip(self.problems, solutions):
            figures, bad = checks.check_mode_solve(self.grid.s, p.f, v, p.n, p.lam, p.v_x0)
            worst = max(worst, figures["rel_residual"])
            failures += bad
        return {"worst_rel_residual": worst}, failures, 0


WORKLOADS = {
    "picard_a5": PicardA5,
    "green_sweep": GreenSweep,
    "picard_n3": PicardN3,
}
