import itertools

import numpy as np
import pytest

from cusplab import fields, spectrum
from cusplab.errors import ConfigError
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel


def square_model(a=1.0):
    return CuspModel(2, np.eye(2), np.array([[a]]))


def test_dual_lattice_self_dual_and_scaling():
    # the real covector of mode k is xi = B^{-T} k, so B^T xi = k
    k = np.array([[1, 0], [0, 1], [2, -3]])
    for B in (np.eye(2), 2.0 * np.eye(2)):
        c = spectrum.mode_covector(CuspModel(2, B, np.array([[1.0]])), k)
        xi = np.stack([c.real[:, 0], -c.imag[:, 0]], axis=-1)
        assert np.allclose(xi, k / B[0, 0])
        assert np.allclose(xi @ B, k)


def test_dual_lattice_sheared_basis():
    B = np.array([[1.0, 0.0], [0.5, 1.0]]).T  # columns (1,0.5), (0,1)
    k = np.array([[1, 0], [0, 1], [-2, 5]])
    c = spectrum.mode_covector(CuspModel(2, B, np.array([[1.0]])), k)
    xi = np.stack([c.real[:, 0], -c.imag[:, 0]], axis=-1)
    assert np.allclose(xi @ B, k)  # rows: B^T xi = k


def test_complex_lattice_refused():
    # a nonzero imaginary part is refused, not cast away
    with pytest.raises(ConfigError, match="lattice must be real"):
        CuspModel(2, np.array([[1 + 0.5j, 0], [0, 1]]), np.array([[1.0]]))
    model = CuspModel(2, np.array([[1 + 0j, 0], [0, 1]]), np.array([[1.0]]))
    assert model.lattice.dtype == np.float64 and np.array_equal(model.lattice, np.eye(2))


def test_square_torus_spectrum():
    m = square_model()
    keys, lams = spectrum.eigenvalues_up_to(m, 6)
    assert lams[0] == 0.0
    assert tuple(keys[0]) == (0, 0)
    # multiplicity four at pi^2 from the four unit dual vectors
    assert np.allclose(lams[1:5], np.pi**2)
    assert lams[5] == pytest.approx(2 * np.pi**2)
    assert spectrum.first_eigenvalue(m) == pytest.approx(np.pi**2)


def test_doubling_a_halves_eigenvalues():
    _, lam_a = spectrum.eigenvalues_up_to(square_model(1.0), 8)
    _, lam_b = spectrum.eigenvalues_up_to(square_model(2.0), 8)
    assert np.allclose(lam_b, lam_a / 2.0)


def test_rectangular_torus_first_eigenvalue():
    m = CuspModel(2, np.diag([1.0, 2.0]), np.array([[1.0]]))
    assert spectrum.first_eigenvalue(m) == pytest.approx(np.pi**2 / 4.0)


def test_basis_relabeling_invariance():
    B1 = np.array([[1.0, 0.3], [0.0, 1.2]])
    B2 = B1[:, ::-1]  # swap the basis vectors
    m1 = CuspModel(2, B1, np.array([[0.8]]))
    m2 = CuspModel(2, B2, np.array([[0.8]]))
    _, l1 = spectrum.eigenvalues_up_to(m1, 10)
    _, l2 = spectrum.eigenvalues_up_to(m2, 10)
    assert np.allclose(l1, l2)


def test_modes_below_matches_enumeration():
    m = square_model()
    lam_max = 10 * np.pi**2
    keys, lams = spectrum.modes_below(m, lam_max, (8, 8))  # holds |k_i| <= 3
    assert np.all((0 < lams) & (lams <= lam_max))
    # count k with 0 < |k|^2 <= 10: |k|^2 in {1,2,4,5,8,9,10}
    counts = {1: 4, 2: 4, 4: 4, 5: 8, 8: 4, 9: 4, 10: 8}
    assert len(lams) == len(keys) == sum(counts.values())


def test_characters_discretely_orthonormal():
    m = 16
    t = np.arange(m) / m
    tt = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
    k1, k2 = (1, 0), (2, -1)
    chi1 = np.exp(2j * np.pi * (tt @ np.array(k1)))
    chi2 = np.exp(2j * np.pi * (tt @ np.array(k2)))
    inner = np.vdot(chi1, chi2) / m**2
    norm = np.vdot(chi1, chi1) / m**2
    assert abs(inner) < 1e-14
    assert norm == pytest.approx(1.0, rel=1e-14)


def test_fd_oracle_agrees_with_character_formula():
    m = square_model()
    lam1 = spectrum.first_eigenvalue(m)
    fd = spectrum.fd_first_eigenvalue(m, 64)
    assert abs(fd - lam1) / lam1 < 2e-3


def test_fd_oracle_rejects_higher_dimension():
    m = CuspModel(3, np.eye(4), np.eye(2))
    with pytest.raises(Exception):
        spectrum.fd_eigenvalues(m, 16)


HEXAGONAL = CuspModel(2, np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]), np.array([[1.3]]))
PICARD_N3 = CuspModel(3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]))


def _reference_box(model, radius):
    """(lam, k) of every key in the box max|k_i| <= radius, one solve per
    point, sorted; and the least eigenvalue on the box edge."""
    d = model.d
    entries, edge = [], np.inf
    for k in itertools.product(range(-radius, radius + 1), repeat=2 * d):
        xi = np.linalg.solve(model.lattice.T, np.array(k, dtype=float))
        c = xi[:d] - 1j * xi[d:]
        lam = float(np.pi**2 * np.real(c.conj() @ (model.A_inv @ c)))
        entries.append((lam, k))
        if max(map(abs, k)) == radius:
            edge = min(edge, lam)
    return sorted(entries), edge


def _assert_sorted_by_lam_then_key(keys, lams):
    rows = [(lam, tuple(k)) for lam, k in zip(lams.tolist(), keys.tolist())]
    assert rows == sorted(rows)


@pytest.mark.parametrize(
    "model, radius, cutoff, count, shape",
    [(HEXAGONAL, 12, 9.5, 31, (32, 32)), (PICARD_N3, 5, 9.1, 45, (16,) * 4), (HEXAGONAL, 12, 9.5, 31, (4, 8))],
    ids=["hexagonal", "picard_n3", "hexagonal-cut"],
)
def test_enumeration_matches_per_point_reference(model, radius, cutoff, count, shape):
    entries, edge = _reference_box(model, radius)
    ref = {k: lam for lam, k in entries}
    lam_max = cutoff * spectrum.first_eigenvalue(model)
    assert edge > lam_max  # the reference box holds every mode below lam_max
    ref_lams = np.array([lam for lam, _ in entries])
    # no reference eigenvalue sits at lam_max or across the count-th gap
    assert np.min(np.abs(ref_lams - lam_max)) > 1e-12 * lam_max
    assert ref_lams[count] - ref_lams[count - 1] > 1e-12 * ref_lams[count]

    # the modes the torus grid holds: 2|k_i| < m_i on every axis
    held = {k: lam for k, lam in ref.items() if all(2 * abs(ki) < m for ki, m in zip(k, shape))}
    keys, lams = spectrum.modes_below(model, lam_max, shape)
    assert {tuple(k) for k in keys.tolist()} == {k for k, lam in held.items() if 0 < lam <= lam_max}
    _assert_sorted_by_lam_then_key(keys, lams)
    np.testing.assert_allclose(lams, [ref[tuple(k)] for k in keys.tolist()], rtol=1e-14, atol=0)

    keys, lams = spectrum.eigenvalues_up_to(model, count)
    assert keys.shape == (count, 2 * model.d)
    assert {tuple(k) for k in keys.tolist()} == {k for _, k in entries[:count]}
    _assert_sorted_by_lam_then_key(keys, lams)
    np.testing.assert_allclose(lams, [ref[tuple(k)] for k in keys.tolist()], rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize(
    "model, shape",
    [(HEXAGONAL, (4, 1)), (HEXAGONAL, (16, 16)), (HEXAGONAL, (1, 16)), (PICARD_N3, (4,) * 4)],
    ids=["4x1", "16x16", "1x16", "4x4x4x4"],
)
def test_enumeration_is_the_modes_the_field_holds(model, shape):
    # modes_below enumerates exactly the nonzero modes `fields` stores a
    # slot for: +/- every stored, non-Nyquist index of the half spectrum
    keys, lams = spectrum.modes_below(model, 1e300, shape)
    field = Field.zero(RadialGrid.make(0.1, 14.0, 8), shape)
    for k in keys.tolist():
        field.index(k)  # raises ConfigError on a key that aliases
    stored = fields.mode_indices(shape).reshape(-1, len(shape))
    stored = stored[np.all(2 * np.abs(stored) < shape, axis=1)]
    stored = stored[spectrum.mode_eigenvalue(model, stored) > 0]
    expected = {tuple(k) for k in np.concatenate([stored, -stored]).tolist()}
    assert {tuple(k) for k in keys.tolist()} == expected
    assert len(keys) == len(expected) == np.prod([2 * ((m - 1) // 2) + 1 for m in shape]) - 1
    assert np.all(lams > 0)


def test_box_point_budget_refuses_before_building(monkeypatch):
    # eigenvalues_up_to refuses a cube past the point budget before building
    # it; modes_below builds only the box of modes the torus grid holds
    budget = spectrum._BOX_POINTS
    indices = np.indices
    built = []

    def guarded(dimensions, *args, **kwargs):
        assert np.prod(dimensions) <= budget, f"box {dimensions} built over the budget"
        built.append(tuple(dimensions))
        return indices(dimensions, *args, **kwargs)

    monkeypatch.setattr(np, "indices", guarded)
    with pytest.raises(ConfigError, match="eigenvalue enumeration did not close"):
        spectrum.eigenvalues_up_to(PICARD_N3, budget + 1)
    lam1 = spectrum.first_eigenvalue(PICARD_N3)
    built.clear()
    # a cutoff of 1e6 lambda_1 at n = 3 takes every held mode: 3 x 15 - 1
    keys, _ = spectrum.modes_below(PICARD_N3, 1e6 * lam1, (4, 1, 16, 1))
    assert built == [(3, 1, 15, 1)]
    assert len(keys) == 44
