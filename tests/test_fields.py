import itertools

import numpy as np
import pytest

from cusplab.errors import ConfigError
from cusplab.fields import Field, halved_axis, mode_indices
from cusplab.grid import RadialGrid


def _grid():
    return RadialGrid.make(0.1, 5.0, 32)


@pytest.mark.parametrize(
    "m, k", [(8, (1, 2)), (4, (1, -1, 1, 1))], ids=["dims2-m8", "dims4-m4"]
)
def test_roundtrip_modes_values_modes(m, k):
    # at 4 dims and m = 4 the Nyquist planes hold 68 % of the array
    grid = _grid()
    rng = np.random.default_rng(11)
    prof = rng.normal(size=32) + 1j * rng.normal(size=32)
    dims = len(k)
    mk = tuple(-ki for ki in k)
    modes = {(0,) * dims: rng.normal(size=32).astype(complex), k: prof, mk: prof.conj()}
    f = Field.from_modes(grid, modes, (m,) * dims)
    vals = f.values()
    assert vals.shape == (m,) * dims + (32,)
    g = Field.from_values(grid, vals)
    for key, p in modes.items():
        assert np.allclose(g.mode(key), p, atol=1e-13)
    nyquist = np.any(np.abs(mode_indices((m,) * dims)) == m // 2, axis=-1)
    assert not np.any(g.coeffs[nyquist])
    assert g.torus_resolution == m
    assert g.torus_dims == dims


@pytest.mark.parametrize("k", [(1, 2), (1, 0)], ids=["k_last-nonzero", "k_last-zero"])
def test_from_modes_rejects_nonreal_field(k):
    grid = _grid()
    p = (1.0 + 0.5j) * np.ones(32)
    mk = tuple(-ki for ki in k)
    f = Field.from_modes(grid, {k: p, mk: p.conj()}, (8, 8))
    assert np.array_equal(f.mode(mk), p.conj())
    for modes in ({k: p}, {k: p, mk: 2 * p.conj()}, {k: p, mk: p}):
        with pytest.raises(ConfigError):
            Field.from_modes(grid, modes, (8, 8))
    with pytest.raises(ConfigError):  # the torus-constant profile must be real
        Field.from_modes(grid, {(0, 0): p}, (8, 8))


def test_aliasing_guards():
    grid = _grid()
    with pytest.raises(ConfigError):
        Field.from_modes(grid, {(4, 0): np.ones(32, dtype=complex)}, (8, 8))  # Nyquist mode
    vals = np.zeros((4, 4, 32))
    vals[...] = np.cos(2 * np.pi * np.arange(4) * 2 / 4)[:, None, None]  # Nyquist content
    with pytest.raises(ConfigError):
        Field.from_values(grid, vals)


@pytest.mark.parametrize("shape, k", [((16, 16), (1, 0)), ((16, 16), (2, -1)), ((16, 16), (-2, 1)), ((16, 1), (-3, 0))])
def test_set_mode_stores_the_conjugate_pair(shape, k):
    grid = RadialGrid.make(0.1, 14.0, 40)
    prof = np.exp(-0.1 * np.arange(40)) * (0.3 + 0.2j)
    f = Field.zero(grid, shape)
    f.set_mode(k, prof)
    mk = tuple(-ki for ki in k)
    assert np.array_equal(f.mode(k), prof) and np.array_equal(f.mode(mk), prof.conj())
    assert np.array_equal(f.coeffs, Field.from_modes(grid, {k: prof, mk: prof.conj()}, shape).coeffs)


def test_algebra_and_norms():
    grid = _grid()
    a = Field.from_radial(grid, grid.x, (8, 8))
    b = Field.from_radial(grid, grid.x**2, (8, 8))
    c = a + 2.0 * b - b
    assert np.allclose(c.radial_mean(), grid.x + grid.x**2)
    assert c.sup_norm() == pytest.approx(np.max(grid.x + grid.x**2))
    assert c.sup_norm(grid.interior(2)) <= c.sup_norm()


@pytest.mark.parametrize(
    "shape, k", [((8, 1), (1, 0)), ((1, 1, 1, 4), (0, 0, 0, 1))], ids=["dims2-8x1", "dims4-1x1x1x4"]
)
def test_roundtrip_on_collapsed_axes(shape, k):
    # an axis of size 1 is neither a Nyquist nor an aliasing axis for k_i = 0
    grid = _grid()
    rng = np.random.default_rng(5)
    prof = rng.normal(size=32) + 1j * rng.normal(size=32)
    modes = {(0,) * len(shape): rng.normal(size=32).astype(complex), k: prof, tuple(-ki for ki in k): prof.conj()}
    f = Field.from_modes(grid, modes, shape)
    assert (f.torus_shape, f.torus_resolution, f.torus_dims) == (shape, max(shape), len(shape))
    vals = f.values()
    assert vals.shape == shape + (32,)
    g = Field.from_values(grid, vals)
    for key, p in modes.items():
        assert np.allclose(g.mode(key), p, atol=1e-13)
    radial = Field.from_radial(grid, grid.x, (1,) * len(shape))
    assert np.array_equal(Field.from_values(grid, radial.values()).radial_mean(), grid.x)


def test_mode_on_collapsed_axis():
    grid = _grid()
    p = (1.0 + 0.5j) * grid.x
    f = Field.from_modes(grid, {(1, 0): p, (-1, 0): p.conj()}, (8, 1))
    # read: the field is constant along axis 1, so every mode varying along it is zero
    for k in [(1, 1), (0, -1), (-3, 2)]:
        assert np.array_equal(f.mode(k), np.zeros(32))
    assert np.array_equal(f.mode((-1, 0)), p.conj())
    assert not np.any(Field.from_radial(grid, grid.x, (1, 1, 1, 1)).mode((1, 0, 0, 0)))
    # store: refused
    with pytest.raises(ConfigError):
        Field.from_modes(grid, {(0, 1): p, (0, -1): p.conj()}, (8, 1))
    with pytest.raises(ConfigError):
        f.index((1, 1))
    # alias: an axis of size 8 still refuses |k_i| >= 4, whatever k is on the collapsed axis
    for k in [(4, 0), (4, 1), (-5, 2)]:
        with pytest.raises(ConfigError):
            f.mode(k)
    with pytest.raises(ConfigError):
        f.mode((1, 0, 0))


@pytest.mark.parametrize("shape", [(8, 2), (6, 1), (1, 0), (-4, -4)])
def test_torus_shape_axes_are_one_or_powers_of_two(shape):
    with pytest.raises(ConfigError):
        Field.zero(_grid(), shape)


_LAYOUTS = {  # torus shape: stored half shape, halved along the last axis of size > 1
    (16, 1): (9, 1),
    (1, 16): (1, 9),
    (8, 1, 1, 1): (5, 1, 1, 1),
    (1, 1, 8, 1): (1, 1, 5, 1),
    (4, 1, 8, 1): (4, 1, 5, 1),
    (1, 1, 1, 1): (1, 1, 1, 1),
}


def _all_held_modes(shape, rng):
    """A profile for every mode the grid holds off the Nyquist planes, with
    b_{-k} = conj(b_k) and a real b_0."""
    ranges = [range(-((m - 1) // 2), (m - 1) // 2 + 1) for m in shape]
    modes = {}
    for k in itertools.product(*ranges):
        mk = tuple(-ki for ki in k)
        if k not in modes:
            p = rng.normal(size=32) + (1j * rng.normal(size=32) if k != mk else 0.0)
            modes[k], modes[mk] = p.astype(complex), p.conj().astype(complex)
    return modes


@pytest.mark.parametrize("shape", list(_LAYOUTS), ids=lambda s: "x".join(map(str, s)))
def test_half_spectrum_layout(shape):
    grid = _grid()
    modes = _all_held_modes(shape, np.random.default_rng(7))
    f = Field.from_modes(grid, modes, shape)
    assert f.coeffs.shape == _LAYOUTS[shape] + (32,)
    assert f.torus_shape == shape
    # values: the character sum sum_k b_k chi_k(t) on the uniform grid
    t = np.stack(np.meshgrid(*(np.arange(m) / m for m in shape), indexing="ij"), axis=-1)
    brute = sum(np.exp(2j * np.pi * (t @ np.array(k)))[..., None] * p for k, p in modes.items())
    vals = f.values()
    assert np.max(np.abs(vals - brute)) <= 1e-14 * np.max(np.abs(brute))
    assert np.max(np.abs(Field.from_values(grid, vals).coeffs - f.coeffs)) <= 1e-14 * np.max(np.abs(f.coeffs))
    # the conjugate rule on the halved axis j: off the k_j = 0 plane, -k
    # shares the slot of k and reads its conjugate
    j = halved_axis(shape)
    for k, p in modes.items():
        mk = tuple(-ki for ki in k)
        assert f.index(k) == tuple(ki % m for ki, m in zip(k if k[j] >= 0 else mk, shape))
        assert (f.index(k) == f.index(mk)) == (k[j] != 0 or k == mk)
        assert np.array_equal(f.mode(k), p if k[j] >= 0 else modes[mk].conj())
    # a coefficient array halved along the last axis, where that axis has size 1, is refused
    old = shape[:-1] + (shape[-1] // 2 + 1,)
    if old != _LAYOUTS[shape]:
        with pytest.raises(ConfigError, match="half spectrum"):
            Field(grid, np.zeros(old + (32,), dtype=complex))


@pytest.mark.parametrize("shape", [(16, 16), (1, 16)])
def test_last_axis_spanned_values_match_full_irfftn(shape):
    grid = _grid()
    f = Field.from_modes(grid, _all_held_modes(shape, np.random.default_rng(3)), shape)
    assert np.array_equal(f.values(), np.fft.irfftn(f.coeffs, s=shape, axes=(0, 1), norm="forward"))
