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


def test_lattice_independence_does_not_depend_on_scale():
    # Hadamard's ratio on columns scaled to a largest entry of 1: |det B| < 1e-14
    # refused 1e-8 I_2 and 1e-4 I_4, and overflowed det at 1e160 I_2 (a
    # RuntimeWarning, an error here); a zero column is refused without a warning
    for n, scale in ((2, 1e-8), (3, 1e-4), (2, 1e160)):
        CuspModel(n, scale * np.eye(2 * n - 2), np.eye(n - 1))
    for B in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]], [[0.0, 1.0], [0.0, 1.0]]):
        with pytest.raises(ConfigError, match="linearly dependent"):
            CuspModel(2, np.array(B), np.array([[1.0]]))
    for bad in (np.inf, np.nan):  # an inf was accepted, a NaN warned inside det
        with pytest.raises(ConfigError, match="lattice entries must be finite"):
            CuspModel(2, np.array([[bad, 0.0], [0.0, 1.0]]), np.array([[1.0]]))


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
    point, sorted."""
    d = model.d
    entries = []
    for k in itertools.product(range(-radius, radius + 1), repeat=2 * d):
        xi = np.linalg.solve(model.lattice.T, np.array(k, dtype=float))
        c = xi[:d] - 1j * xi[d:]
        entries.append((float(np.pi**2 * np.real(c.conj() @ (model.A_inv @ c))), k))
    return sorted(entries)


def _polarised_form(model):
    """G with lambda_k = k^T G k, polarised from `mode_eigenvalue` alone."""
    eye = np.eye(2 * model.d, dtype=np.int64)
    unit = spectrum.mode_eigenvalue(model, eye)
    return (spectrum.mode_eigenvalue(model, eye[:, None] + eye[None, :]) - unit[:, None] - unit[None, :]) / 2.0


def _ellipsoid_radii(model, bound):
    """Per-axis radii of a box that holds every key with lambda_k <= bound:
    |k_j| <= sqrt(bound (G^-1)_jj) on the ellipsoid k^T G k <= bound."""
    return np.floor(np.sqrt(bound * np.diag(np.linalg.inv(_polarised_form(model))) * 1.01)).astype(int) + 1


def _brute_force(model, radii, bound):
    """(keys, lams) of every key of the box |k_i| <= radii[i] with lambda_k
    <= bound, sorted by (lam, k).  Each key's polarised-form value screens
    it at twice the bound, far above the form's rounding on these lattices,
    and `mode_eigenvalue` gives the lam of each key the screen keeps."""
    radii = np.asarray(radii)
    box = np.indices(2 * radii + 1, dtype=float).reshape(len(radii), -1) - radii[:, None]
    keys = box[:, np.sum((_polarised_form(model) @ box) * box, axis=0) <= 2.0 * bound].T.astype(np.int64)
    lams = spectrum.mode_eigenvalue(model, keys)
    keys, lams = keys[lams <= bound], lams[lams <= bound]
    order = np.lexsort((*keys.T[::-1], lams))
    return keys[order], lams[order]


def _rows(keys, lams):
    return [(lam, tuple(k)) for lam, k in zip(lams.tolist(), keys.tolist())]


def _assert_sorted_by_lam_then_key(keys, lams):
    rows = [(lam, tuple(k)) for lam, k in zip(lams.tolist(), keys.tolist())]
    assert rows == sorted(rows)


@pytest.mark.parametrize(
    "model, radius, cutoff, count, shape",
    [(HEXAGONAL, 12, 9.5, 31, (32, 32)), (PICARD_N3, 5, 9.1, 45, (16,) * 4), (HEXAGONAL, 12, 9.5, 31, (4, 8))],
    ids=["hexagonal", "picard_n3", "hexagonal-cut"],
)
def test_enumeration_matches_per_point_reference(model, radius, cutoff, count, shape):
    entries = _reference_box(model, radius)
    ref = {k: lam for lam, k in entries}
    lam_max = cutoff * spectrum.first_eigenvalue(model)
    # the reference box holds every mode below lam_max
    assert np.all(_ellipsoid_radii(model, lam_max) <= radius)
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


def test_search_budget_refuses_before_building(monkeypatch):
    # the search refuses a level past its partial-key budget before building
    # it; modes_below holds only partial keys of modes the torus grid holds
    budget = 2**12
    monkeypatch.setattr(spectrum, "_SEARCH_KEYS", budget)
    repeat = np.repeat
    built = []

    def guarded(a, repeats, *args, **kwargs):
        if np.ndim(repeats):
            assert np.sum(repeats) <= budget, f"level of {np.sum(repeats)} partial keys built over the budget"
            built.append(int(np.sum(repeats)))
        return repeat(a, repeats, *args, **kwargs)

    monkeypatch.setattr(np, "repeat", guarded)
    with pytest.raises(ConfigError, match="partial keys under .* pass the search budget 4096"):
        spectrum.eigenvalues_up_to(PICARD_N3, budget + 1)
    lam1 = spectrum.first_eigenvalue(PICARD_N3)
    built.clear()
    # a cutoff of 1e6 lambda_1 at n = 3 takes every held mode: 3 x 15 - 1
    keys, _ = spectrum.modes_below(PICARD_N3, 1e6 * lam1, (4, 1, 16, 1))
    assert max(built) == 45
    assert len(keys) == 44


def _random_lattices(n: int, count: int):
    """Seeded lattices B = N(0, 1) + 2 I with A = X X^H + I/2, X complex normal."""
    rng, m = np.random.default_rng(n), 2 * n - 2
    for _ in range(count):
        B = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
        X = rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1))
        yield CuspModel(n, B, X @ X.conj().T + np.eye(n - 1) / 2.0)


# xi = B^-T k with B^-T = [[-phi, 1], [1e-3, 1e-3 phi]]: lambda_1 = 0.03349 sits at
# +-(13, 21), while no key of the cube max|k_i| <= 4 reads below 0.5505
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
SHEARED = CuspModel(2, np.linalg.inv(np.array([[-GOLDEN, 1e-3], [1.0, 1e-3 * GOLDEN]])), np.array([[1.0]]))
# a lattice of the tiny-solve fuzz's kind: axes from 0.77 to 182, an off-diagonal
# entry 17 times the diagonal beside it, A of condition 5e12 (mu = 3.9e14 in `_form`)
EXTREME = CuspModel(
    3,
    np.array([[182.0, 0, 0, 0], [0.0338, 7.76, 0, 0], [0, -34.2, 2.0, 0], [0, 0, 0, 0.766]]),
    np.array([[6.37, -1.46e-7 - 2.34e-6j], [-1.46e-7 + 2.34e-6j, 2.14e-12]]),
)


def _assert_exact(model, shape):
    """eigenvalues_up_to, first_eigenvalue and modes_below match the brute-force box bit for bit."""
    found = spectrum.eigenvalues_up_to(model, 12)
    ref = _brute_force(model, _ellipsoid_radii(model, found[1][-1]), found[1][-1])
    assert _rows(*found) == _rows(*ref)[:12]
    for count in (2, 5):
        assert _rows(*spectrum.eigenvalues_up_to(model, count)) == _rows(*ref)[:count]
    assert spectrum.first_eigenvalue(model) == ref[1][1]
    lam_max = 9.0 * ref[1][1]
    ref_keys, ref_lams = _brute_force(model, [(m - 1) // 2 for m in shape], lam_max)
    assert _rows(*spectrum.modes_below(model, lam_max, shape)) == _rows(ref_keys[1:], ref_lams[1:])


@pytest.mark.parametrize(
    "models, shape",
    [([SHEARED], (64, 64)), ([EXTREME], (16, 8, 8, 64)), (list(_random_lattices(2, 50)), (16, 16)),
     (list(_random_lattices(3, 30)), (8, 8, 4, 4)), (list(_random_lattices(4, 10)), (4,) * 6)],
    ids=["sheared-golden", "extreme", "random-n2", "random-n3", "random-n4"],
)
def test_enumeration_is_exact_against_brute_force_box(models, shape):
    # the brute-force box spans the ellipsoid lambda_k <= bound, which no
    # cube certified by its shell need hold on a sheared lattice
    for model in models:
        _assert_exact(model, shape)


def test_unfactorable_form_refused():
    # nearly parallel basis vectors of norm 1.4e4 (det B = 1): G has condition
    # 1e16, and Cholesky cannot factor it
    model = CuspModel(2, 1e4 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-8]]), np.array([[1.0]]))
    for enumerate_modes in (lambda: spectrum.first_eigenvalue(model), lambda: spectrum.modes_below(model, 1.0, (4, 4))):
        with pytest.raises(ConfigError, match="eigenvalue form of the lattice and A is not positive definite"):
            enumerate_modes()
