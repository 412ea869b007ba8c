"""Circle-invariant fields on the cusp.

A Field is real valued.  Its torus grid has a per-axis shape
(m_1, ..., m_dims), each m_i either 1 or a power of two >= 4; an axis of
size 1 carries only the mode k_i = 0, so the field is constant along it.
The field stores its torus Fourier coefficients over a shared radial grid
as a real-FFT half spectrum, one dense complex array of the torus shape
with the halved axis j cut to m_j//2+1, then len(grid): j is the last axis
of size > 1 (the last axis when all have size 1, where halving changes
nothing).  The radial profile of the integer dual-lattice index k with
k_j >= 0 sits at index k_i mod m_i, and that of -k is its complex
conjugate.  The characters are chi_k(t) = exp(2*pi*i k.t) in fractional
lattice coordinates t, so the coefficients and the collocation values on
the uniform torus grid of that shape are one real FFT over the axes of
size > 1 apart (`real_values`, `Field.from_values`); with no such axis
they coincide.  The Nyquist planes (some 2|k_i| = m_i) stay zero.  No
other module maps modes to slots (`Field.set_mode` itself writes the
conjugate of a profile to the slot of -k); only
`geometry.holomorphic_hessian` relies on the k_j >= 0 half (`halved_axis`),
counting a k_j > 0 row for k and -k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import RadialGrid

_CONJ_RTOL = 1e-12
# largest Nyquist content, relative to the largest coefficient, that
# Field.from_values drops silently
_NYQUIST_RTOL = 1e-8


def _axis_size_ok(m: int) -> bool:
    return m == 1 or (m >= 4 and (m & (m - 1)) == 0)


def check_torus_shape(shape: tuple):
    """Raise ConfigError unless every axis size is 1 or a power of two >= 4."""
    for m in shape:
        if not _axis_size_ok(m):
            raise ConfigError(f"torus_resolution must be a power of two >= 4, got {m}")


def halved_axis(shape: tuple) -> int:
    """The torus axis on which only k_j >= 0 is stored: the last axis whose
    size is not 1, or the last axis when every size is 1.  Reads a torus
    shape and a stored half shape alike (a halved axis of size m >= 4 keeps
    m//2+1 >= 3 entries)."""
    return max((i for i, m in enumerate(shape) if m != 1), default=len(shape) - 1)


def mode_indices(shape: tuple) -> np.ndarray:
    """Integer mode index k at each stored position of the half spectrum of
    a torus grid of the given shape, `_half_shape(shape)` + (dims,); the
    Nyquist positions read 2|k_i| = m_i."""
    j = halved_axis(shape)
    axes = [np.arange(m // 2 + 1) if i == j else (np.arange(m) + m // 2) % m - m // 2 for i, m in enumerate(shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _fft_axes(shape: tuple) -> tuple:
    """The torus axes of size > 1, the only ones a transform has work on."""
    return tuple(i for i, m in enumerate(shape) if m > 1)


def real_values(coeffs: np.ndarray, shape: tuple) -> np.ndarray:
    """Collocation values, shape + (N,), of the real field whose half
    spectrum on a torus grid of that shape is `coeffs` (torus axes first,
    last axis radial)."""
    axes = _fft_axes(shape)
    if not axes:
        return coeffs.real.copy()
    return np.fft.irfftn(coeffs, s=[shape[i] for i in axes], axes=axes, norm="forward")


def _half_shape(shape: tuple) -> tuple:
    j = halved_axis(shape)
    return shape[:j] + (shape[j] // 2 + 1,) + shape[j + 1 :]


@dataclass
class Field:
    grid: RadialGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        shape = self.torus_shape if self.coeffs.ndim >= 2 else ()
        valid = shape and all(map(_axis_size_ok, shape))
        if not (valid and self.coeffs.shape == _half_shape(shape) + (len(self.grid),)):
            raise ConfigError(
                f"coefficients must be a half spectrum: the torus shape with its last axis of "
                f"size > 1 cut to m//2+1, then {len(self.grid)}; got {self.coeffs.shape}"
            )

    # --- constructors ---

    @classmethod
    def zero(cls, grid: RadialGrid, shape: tuple) -> "Field":
        """The zero field on a torus grid of the given per-axis shape."""
        check_torus_shape(shape)
        return cls(grid, np.zeros(_half_shape(shape) + (len(grid),), dtype=complex))

    @classmethod
    def from_radial(cls, grid: RadialGrid, profile, shape: tuple) -> "Field":
        return cls.from_modes(grid, {(0,) * len(shape): profile}, shape)

    @classmethod
    def from_modes(cls, grid: RadialGrid, modes: dict, shape: tuple) -> "Field":
        """Field on a torus grid of the given shape with the given profile
        for each integer mode key, zero elsewhere.  The profile of -k must
        be the complex conjugate of that of k (a missing key counts as
        zero), so that the field is real."""
        if not modes:
            raise ConfigError("field needs at least one mode (use Field.zero)")
        f = cls.zero(grid, shape)
        profiles = {tuple(int(ki) for ki in k): np.asarray(p, dtype=complex) for k, p in modes.items()}
        for k, prof in profiles.items():
            if prof.shape != (len(grid),):
                raise ConfigError(f"profile for mode {k} has shape {prof.shape}, want ({len(grid)},)")
            slot = f.index(k)
            mk = tuple(-ki for ki in k)
            partner = profiles.get(mk, np.zeros_like(prof))
            defect = np.max(np.abs(partner - prof.conj())) if partner.shape == prof.shape else np.inf
            if defect > _CONJ_RTOL * np.max(np.abs(prof)):
                raise ConfigError(f"profile of mode {mk} is not the conjugate of that of mode {k}")
            if k[halved_axis(shape)] >= 0:
                f.coeffs[slot] = prof
        return f

    @classmethod
    def from_values(
        cls,
        grid: RadialGrid,
        values: np.ndarray,
        nyquist_abs: float = 0.0,
    ) -> "Field":
        """Build a Field from real collocation values of shape
        torus shape + (len(grid),).

        Nyquist bins must be negligible, at most `_NYQUIST_RTOL` times the
        largest coefficient or below the absolute allowance `nyquist_abs`
        (for values produced by arithmetic whose roundoff floor exceeds the
        field scale); they are dropped.
        """
        values = np.asarray(values)
        shape = values.shape[:-1]
        check_torus_shape(shape)
        axes = _fft_axes(shape)
        coeffs = np.fft.rfftn(values, axes=axes, norm="forward") if axes else values.astype(complex)
        scale = np.max(np.abs(coeffs)) + 1e-300
        nyquist = np.any(2 * np.abs(mode_indices(shape)) == shape, axis=-1)
        nyq_max = float(np.max(np.abs(coeffs[nyquist]), initial=0.0))
        if nyq_max > _NYQUIST_RTOL * scale and nyq_max > nyquist_abs:
            raise ConfigError(
                f"torus shape {shape} too small: Nyquist content {nyq_max:.3e} "
                f"vs scale {scale:.3e}"
            )
        coeffs[nyquist] = 0.0
        return cls(grid, coeffs)

    # --- structure ---

    @property
    def torus_shape(self) -> tuple:
        """Per-axis size (m_1, ..., m_dims) of the torus grid."""
        half = self.coeffs.shape[:-1]
        j = halved_axis(half)
        return half[:j] + (2 * (half[j] - 1) if half[j] > 1 else 1,) + half[j + 1 :]

    @property
    def torus_resolution(self) -> int:
        """The largest axis size of the torus grid."""
        return max(self.torus_shape)

    @property
    def torus_dims(self) -> int:
        return self.coeffs.ndim - 1

    def index(self, k) -> tuple:
        """Array index of the integer mode k, or of -k when k_j < 0 on the
        halved axis j (`halved_axis`);
        rejects keys that alias (some 2|k_i| >= m_i, so on an axis of size 1
        every k_i != 0)."""
        shape = self.torus_shape
        k = tuple(int(ki) for ki in k)
        if len(k) != len(shape):
            raise ConfigError(f"mode {k} needs {len(shape)} entries")
        if any(2 * abs(ki) >= m for ki, m in zip(k, shape)):
            raise ConfigError(f"mode {k} aliases on a torus grid of shape {shape}")
        sign = -1 if k[halved_axis(shape)] < 0 else 1
        return tuple(sign * ki % m for ki, m in zip(k, shape))

    def mode(self, k) -> np.ndarray:
        """Radial profile of the integer mode k: zero when not present, and
        zero when k varies along an axis of size 1, since the field is
        constant along that axis by construction."""
        k = tuple(int(ki) for ki in k)
        shape = self.torus_shape
        if len(k) == len(shape) and any(ki and m == 1 for ki, m in zip(k, shape)):
            self.index([0 if m == 1 else ki for ki, m in zip(k, shape)])  # refuses the other axes' aliases
            return np.zeros(len(self.grid), dtype=complex)
        prof = self.coeffs[self.index(k)]
        return prof.conj() if k[halved_axis(shape)] < 0 else prof.copy()

    def set_mode(self, k, profile: np.ndarray):
        """Store the radial profile of the integer mode k, and its conjugate
        as that of -k where the layout stores -k apart (k != 0 with k_j = 0
        on the halved axis j)."""
        slot, other = self.index(k), self.index([-ki for ki in k])
        self.coeffs[slot] = np.conj(profile) if k[halved_axis(self.torus_shape)] < 0 else profile
        if other != slot:
            self.coeffs[other] = np.conj(profile)

    def radial_mean(self) -> np.ndarray:
        """Profile of the torus-constant mode (real part)."""
        return self.coeffs[(0,) * self.torus_dims].real.copy()

    def values(self) -> np.ndarray:
        """Collocation values on the uniform torus grid, last axis radial."""
        return real_values(self.coeffs, self.torus_shape)

    def sup_norm(self, interior: slice | None = None) -> float:
        vals = self.values()
        if interior is not None:
            vals = vals[..., interior]
        return float(np.max(np.abs(vals)))

    # --- algebra ---

    def _same_layout(self, other: "Field") -> np.ndarray:
        if other.grid != self.grid:
            raise ConfigError("fields live on different grids")
        if other.coeffs.shape != self.coeffs.shape:
            raise ConfigError(
                f"torus layouts differ: {other.coeffs.shape[:-1]} vs {self.coeffs.shape[:-1]}"
            )
        return other.coeffs

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.coeffs + self._same_layout(other))

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.coeffs - self._same_layout(other))

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def torus_points(lattice: np.ndarray, shape: tuple) -> np.ndarray:
    """Complex coordinates z' of the collocation grid of the given per-axis
    shape, shape + (d,)."""
    d = lattice.shape[0] // 2
    mesh = np.meshgrid(*(np.arange(m) / m for m in shape), indexing="ij")
    t = np.stack(mesh, axis=-1)
    v = t @ lattice.T
    return v[..., :d] + 1j * v[..., d:]
