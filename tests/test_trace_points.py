"""The traced benchmark (perfbench/spans.py) rebinds cusplab functions by
name and its counters read their arguments and results; a rename in cusplab
must fail here rather than in a traced run."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from cusplab import bessel, cli, modes
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _patch_points():
    return [(module, attr) for module, attr, _, _ in _spans().PATCH_POINTS]


@pytest.mark.parametrize("module, attr", _patch_points())
def test_patch_point_resolves(module, attr):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert name in vars(owner) and callable(getattr(owner, name))


@pytest.mark.parametrize(
    "module, attr, index, name",
    [
        ("cusplab.modes", "exp_weighted_cumsum", 0, "sigma"),
        ("cusplab.modes", "exp_weighted_revcumsum", 0, "sigma"),
        ("cusplab.geometry", "quadratic_remainder", 1, "f"),
        ("cusplab.geometry", "monge_ampere_residual", 1, "f"),
    ],
)
def test_counted_argument_position(module, attr, index, name):
    # the counters take an argument by position or, failing that, by name
    params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
    assert params[index] == name


def test_scan_spans_count_the_scanned_elements():
    # one mode solve makes two scans of N elements, one reverse scan for
    # each cumulative integral
    grid = RadialGrid.make(0.05, 12.0, 200)
    prob = modes.ModeProblem(n=2, lam=np.pi**2, f=np.sin(grid.s), v_x0=1.0, grid=grid)
    tracer = _spans().Tracer()
    with tracer.installed():
        modes.mode_solve(prob)
    scans = [sp["counts"]["elements"] for sp in tracer.spans if sp["name"] == "modes.scan"]
    assert scans == [200, 200]


def test_counters_read_real_objects():
    spans = _spans()
    grid = RadialGrid.make(0.05, 12.0, 200)
    pair = bessel.h_pair(2, np.pi**2, grid.x)
    assert spans._hpair_nodes((), {}, pair) == {"nodes": 200}
    assert spans._scan_elements((pair.exponent,), {}, None) == {"elements": 200}
    f = Field.zero(grid, (8, 8))
    assert spans._field_points((None, f), {}, None) == {"points": 64 * 200}

    model = CuspModel(2, np.eye(2), np.array([[1.0]]))
    beta = -3 * np.log1p(0.2 * grid.x0)
    u, state = modes.picard_solve(model, {(0, 0): beta}, grid, torus_resolution=4, tol=1e-12)
    counts = spans._picard_counts((), {}, (u, state))
    assert counts == {"iterations": state.iteration, "modes_solved": state.diagnostics["modes_solved"]}
    assert counts["iterations"] >= 2


def test_traced_rate_fit_records_one_picard_solve(tmp_path):
    # rate-fit reaches picard_solve through the module attribute, so the
    # tracer's wrapper sees the one solve and counts its iterations
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[model]\nlattice = 1 0 ; 0 1\nA = 1\n"
        "[grid]\nx0 = 0.05\ns_max = 20\nnodes = 600\n"
        "[solver]\ncutoff = 5\n"
        "[boundary]\nkind = cosine\namplitude = 1e-3\n"
        "[ratefit]\ns_lo = 40\ns_hi = 120\n"
    )
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(["rate-fit", str(cfg), "-o", str(tmp_path / "out")]) == 0
    summary = spans.round_summary(tracer.spans)
    res = json.loads((tmp_path / "out" / "rate-fit.json").read_text())["results"]
    assert summary["modes.picard_solve"]["calls"] == 1
    assert summary["modes.picard_solve"]["counts"]["iterations"] == res["iterations"]
