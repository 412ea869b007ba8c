"""Circle-invariant fields on the cusp.

A Field stores torus Fourier coefficients over a shared radial grid in one
dense complex array of shape (m,)*dims + (len(grid),), in numpy FFT index
order: the complex radial profile of the integer dual-lattice index k sits
at index k mod m.  The characters are chi_k(t) = exp(2*pi*i k.t) in
fractional lattice coordinates t, so the coefficient <-> collocation-value
conversion is one discrete Fourier transform on a uniform torus grid of size
m per direction.  The Nyquist planes (some k_i = -m/2) stay zero.

Real-valuedness corresponds to coefficient conjugate symmetry between k
and -k; constructors enforce it up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import RadialGrid

_REAL_TOL = 1e-9


def mode_indices(m: int, dims: int) -> np.ndarray:
    """Integer mode index k at each FFT position, shape (m,)*dims + (dims,);
    the Nyquist positions read -m/2."""
    k = (np.arange(m) + m // 2) % m - m // 2
    return np.stack(np.meshgrid(*[k] * dims, indexing="ij"), axis=-1)


@dataclass
class Field:
    grid: RadialGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        shape = self.coeffs.shape
        m = shape[0] if shape else 0
        if len(shape) < 2 or shape != (m,) * (len(shape) - 1) + (len(self.grid),):
            raise ConfigError(
                f"coefficients must have shape (m,)*dims + ({len(self.grid)},), "
                f"got {self.coeffs.shape}"
            )
        if m < 4 or (m & (m - 1)) != 0:
            raise ConfigError(f"torus_resolution must be a power of two >= 4, got {m}")

    # --- constructors ---

    @classmethod
    def zero(cls, grid: RadialGrid, torus_dims: int, torus_resolution: int) -> "Field":
        shape = (torus_resolution,) * torus_dims + (len(grid),)
        return cls(grid, np.zeros(shape, dtype=complex))

    @classmethod
    def from_radial(cls, grid: RadialGrid, profile, torus_dims: int, torus_resolution: int) -> "Field":
        return cls.from_modes(grid, {(0,) * torus_dims: profile}, torus_resolution)

    @classmethod
    def from_modes(cls, grid: RadialGrid, modes: dict, torus_resolution: int) -> "Field":
        """Field with the given profile for each integer mode key, zero elsewhere."""
        if not modes:
            raise ConfigError("field needs at least one mode (use Field.zero)")
        dims = len(next(iter(modes)))
        f = cls.zero(grid, dims, torus_resolution)
        nn = len(grid)
        for k, prof in modes.items():
            prof = np.asarray(prof, dtype=complex)
            if prof.shape != (nn,):
                raise ConfigError(f"profile for mode {k} has shape {prof.shape}, want ({nn},)")
            f.coeffs[f.index(k)] = prof
        return f

    @classmethod
    def from_values(
        cls,
        grid: RadialGrid,
        values: np.ndarray,
        nyquist_tol: float = 1e-8,
        nyquist_abs: float = 0.0,
    ) -> "Field":
        """Build a Field from collocation values of shape (m,)*dims + (len(grid),).

        Nyquist bins must be negligible, relative to the largest coefficient
        or below the absolute allowance `nyquist_abs` (for values produced by
        arithmetic whose roundoff floor exceeds the field scale); they are
        dropped.
        """
        values = np.asarray(values)
        dims = values.ndim - 1
        m = values.shape[0]
        if values.shape[:-1] != (m,) * dims:
            raise ConfigError(f"values must be (m,)*dims + (N,), got {values.shape}")
        coeffs = np.fft.fftn(values, axes=tuple(range(dims))) / m**dims
        scale = np.max(np.abs(coeffs)) + 1e-300
        nyquist = np.any(mode_indices(m, dims) == -(m // 2), axis=-1)
        nyq_max = float(np.max(np.abs(coeffs[nyquist])))
        if nyq_max > nyquist_tol * scale and nyq_max > nyquist_abs:
            raise ConfigError(
                f"torus_resolution {m} too small: Nyquist content {nyq_max:.3e} "
                f"vs scale {scale:.3e}"
            )
        coeffs[nyquist] = 0.0
        return cls(grid, coeffs)

    # --- structure ---

    @property
    def torus_resolution(self) -> int:
        return self.coeffs.shape[0]

    @property
    def torus_dims(self) -> int:
        return self.coeffs.ndim - 1

    def index(self, k) -> tuple:
        """Array index of the integer mode k; rejects keys that alias."""
        m = self.torus_resolution
        k = tuple(int(ki) for ki in k)
        if len(k) != self.torus_dims:
            raise ConfigError(f"mode {k} needs {self.torus_dims} entries")
        if max(abs(ki) for ki in k) >= m // 2:
            raise ConfigError(f"mode {k} aliases on a grid of size {m}")
        return tuple(ki % m for ki in k)

    def mode(self, k) -> np.ndarray:
        """Radial profile of the integer mode k (zero when not present)."""
        return self.coeffs[self.index(k)].copy()

    def radial_mean(self) -> np.ndarray:
        """Profile of the torus-constant mode (real part)."""
        return self.coeffs[(0,) * self.torus_dims].real.copy()

    def values(self, real_tol: float = _REAL_TOL) -> np.ndarray:
        """Collocation values on the uniform torus grid, last axis radial."""
        m = self.torus_resolution
        dims = self.torus_dims
        vals = np.fft.ifftn(self.coeffs, axes=tuple(range(dims))) * m**dims
        scale = np.max(np.abs(vals.real)) + 1e-300
        imag = np.max(np.abs(vals.imag))
        if imag > real_tol * scale:
            raise ConfigError(
                f"field is not real valued: imaginary part {imag:.3e} vs scale {scale:.3e}"
            )
        return vals.real

    def conjugate_symmetry_defect(self) -> float:
        """Max |c(k) - conj(c(-k))| over all modes (0 for a real field)."""
        axes = tuple(range(self.torus_dims))
        reflected = np.roll(np.flip(self.coeffs, axes), 1, axes)  # index -k mod m
        return float(np.max(np.abs(self.coeffs - reflected.conj())))

    def sup_norm(self, interior: slice | None = None) -> float:
        vals = self.values()
        if interior is not None:
            vals = vals[..., interior]
        return float(np.max(np.abs(vals)))

    # --- algebra ---

    def _same_layout(self, other: "Field") -> np.ndarray:
        if other.grid is not self.grid and not np.array_equal(other.grid.s, self.grid.s):
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


def torus_points(lattice: np.ndarray, m: int) -> np.ndarray:
    """Complex coordinates z' of the collocation grid, shape (m,)*2d + (d,)."""
    twod = lattice.shape[0]
    d = twod // 2
    t_axes = [np.arange(m) / m for _ in range(twod)]
    mesh = np.meshgrid(*t_axes, indexing="ij")
    t = np.stack(mesh, axis=-1)
    v = t @ lattice.T
    return v[..., :d] + 1j * v[..., d:]
