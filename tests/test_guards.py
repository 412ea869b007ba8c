"""Input guards that no other test reaches: each refuses its misuse with a
ConfigError naming it, and with no warning on the way (pytest turns a
RuntimeWarning into an error)."""

import numpy as np
import pytest

from cusplab import bessel, geometry, grid, modes, radial, spectrum
from cusplab.errors import ConfigError
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel, CuspPoint

SQUARE = CuspModel(2, np.eye(2), np.eye(1))
GRID = RadialGrid.make(0.1, 5.0, 16)

GUARDS = {
    "bessel-h_pair-x": (lambda: bessel.h_pair(2, 1.0, [0.5, -0.5]), "x must be positive"),
    "fields-from_modes-empty": (lambda: Field.from_modes(GRID, {}, (4, 1)), "at least one mode"),
    "fields-from_modes-profile": (
        lambda: Field.from_modes(GRID, {(0, 0): np.ones(3)}, (4, 1)), r"profile for mode \(0, 0\) has shape",
    ),
    "fields-add-grids": (
        lambda: Field.zero(GRID, (4, 1)) + Field.zero(RadialGrid.make(0.1, 6.0, 16), (4, 1)), "different grids",
    ),
    "fields-add-layouts": (lambda: Field.zero(GRID, (4, 1)) + Field.zero(GRID, (8, 1)), "torus layouts differ"),
    "geometry-point-dimension": (
        lambda: geometry.metric_coefficients(SQUARE, CuspPoint(np.zeros(2), x=0.5)), "point dimension",
    ),
    "geometry-cross_section-eps": (
        lambda: geometry.cross_section_metric(SQUARE, 1.0, CuspPoint(np.zeros(1), x=0.5)), "need 0 < eps < 1",
    ),
    "grid-stencil-order": (
        lambda: grid.uniform_derivative(np.zeros(16), 0.1, 1, order=3), "unsupported stencil order 3",
    ),
    "grid-too-coarse": (lambda: grid.uniform_derivative(np.zeros(3), 0.1, 2), "grid too coarse"),
    "grid-make-x0": (lambda: RadialGrid.make(0.0, 5.0, 16), "x0 must be positive"),
    "model-n": (lambda: CuspModel(1, np.eye(2), np.eye(1)), "need n >= 2"),
    "model-A-hermitian": (lambda: CuspModel(3, np.eye(4), np.array([[1.0, 0.5], [0.0, 1.0]])), "A must be Hermitian"),
    "model-point-x": (lambda: CuspPoint(np.zeros(1), x=0.0), "x must be positive"),
    "modes-problem-f": (
        lambda: modes.ModeProblem(2, 1.0, np.zeros(3), 0.0, GRID), "inhomogeneity must be sampled on the grid",
    ),
    "modes-tangent-cone-nodes": (
        lambda: modes.extract_tangent_cone(Field.zero(RadialGrid.make(0.1, 5.0, 6), (1, 1)), 2),
        "at least 4 nodes",
    ),
    "radial-calabi-direction": (lambda: radial.integrate_calabi(2, 0.0, 0.0, 0.0, 1.0), "t_end must be below t0"),
    "radial-calabi-level": (
        lambda: radial.integrate_calabi(2, -1000.0, 0.0, 0.0, -1.0), "positivity of the conserved level",
    ),
    "radial-interval-nodes": (lambda: radial.interval_integrals(0.1, np.zeros(3)), "at least 4 nodes"),
    "radial-rep-l0-g0": (lambda: radial.radial_rep_l0(2, GRID, np.zeros(3), 0.0), "g0 must be sampled on the grid"),
    "spectrum-count": (lambda: spectrum.eigenvalues_up_to(SQUARE, 0), "count must be >= 1"),
}


@pytest.mark.parametrize("call, message", list(GUARDS.values()), ids=list(GUARDS))
def test_input_guard_refuses(call, message):
    with pytest.raises(ConfigError, match=message):
        call()
