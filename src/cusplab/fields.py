"""Circle-invariant fields on the cusp.

A Field is real valued.  It stores its torus Fourier coefficients over a
shared radial grid as the `rfftn` half spectrum, one dense complex array of
shape (m,)*(dims-1) + (m//2+1, len(grid)): the radial profile of the
integer dual-lattice index k with k_last >= 0 sits at index k mod m, and
that of -k is its complex conjugate.  The characters are
chi_k(t) = exp(2*pi*i k.t) in fractional lattice coordinates t, so the
coefficients and the collocation values on a uniform torus grid of size m
per direction are one real FFT apart (`real_values`, `Field.from_values`).
The Nyquist planes (some |k_i| = m/2) stay zero.  No other module knows
this layout.
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


def mode_indices(m: int, dims: int) -> np.ndarray:
    """Integer mode index k at each stored position of a half spectrum,
    shape (m,)*(dims-1) + (m//2+1, dims); the Nyquist positions read
    |k_i| = m/2."""
    k = (np.arange(m) + m // 2) % m - m // 2
    axes = [k] * (dims - 1) + [np.arange(m // 2 + 1)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def real_values(coeffs: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """Collocation values, shape (m,)*dims + (N,), of the real field whose
    half spectrum is `coeffs` (torus axes first, last axis radial)."""
    dims = coeffs.ndim - 1
    return np.fft.irfftn(coeffs, s=(m,) * dims, axes=tuple(range(dims)), norm="forward", out=out)


@dataclass
class Field:
    grid: RadialGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        shape = self.coeffs.shape
        m = 2 * (shape[-2] - 1) if len(shape) > 1 else 0
        if shape != (m,) * (len(shape) - 2) + (m // 2 + 1, len(self.grid)):
            raise ConfigError(
                f"coefficients must have shape (m,)*(dims-1) + (m//2+1, {len(self.grid)}), "
                f"got {self.coeffs.shape}"
            )
        if m < 4 or (m & (m - 1)) != 0:
            raise ConfigError(f"torus_resolution must be a power of two >= 4, got {m}")

    # --- constructors ---

    @classmethod
    def zero(cls, grid: RadialGrid, torus_dims: int, torus_resolution: int) -> "Field":
        m = torus_resolution
        return cls(grid, np.zeros((m,) * (torus_dims - 1) + (m // 2 + 1, len(grid)), dtype=complex))

    @classmethod
    def from_radial(cls, grid: RadialGrid, profile, torus_dims: int, torus_resolution: int) -> "Field":
        return cls.from_modes(grid, {(0,) * torus_dims: profile}, torus_resolution)

    @classmethod
    def from_modes(cls, grid: RadialGrid, modes: dict, torus_resolution: int) -> "Field":
        """Field with the given profile for each integer mode key, zero
        elsewhere.  The profile of -k must be the complex conjugate of that
        of k (a missing key counts as zero), so that the field is real."""
        if not modes:
            raise ConfigError("field needs at least one mode (use Field.zero)")
        f = cls.zero(grid, len(next(iter(modes))), torus_resolution)
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
            if k[-1] >= 0:
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
        (m,)*dims + (len(grid),).

        Nyquist bins must be negligible, at most `_NYQUIST_RTOL` times the
        largest coefficient or below the absolute allowance `nyquist_abs`
        (for values produced by arithmetic whose roundoff floor exceeds the
        field scale); they are dropped.
        """
        values = np.asarray(values)
        dims = values.ndim - 1
        m = values.shape[0]
        if values.shape[:-1] != (m,) * dims:
            raise ConfigError(f"values must be (m,)*dims + (N,), got {values.shape}")
        coeffs = np.fft.rfftn(values, axes=tuple(range(dims)), norm="forward")
        scale = np.max(np.abs(coeffs)) + 1e-300
        nyquist = np.any(np.abs(mode_indices(m, dims)) == m // 2, axis=-1)
        nyq_max = float(np.max(np.abs(coeffs[nyquist])))
        if nyq_max > _NYQUIST_RTOL * scale and nyq_max > nyquist_abs:
            raise ConfigError(
                f"torus_resolution {m} too small: Nyquist content {nyq_max:.3e} "
                f"vs scale {scale:.3e}"
            )
        coeffs[nyquist] = 0.0
        return cls(grid, coeffs)

    # --- structure ---

    @property
    def torus_resolution(self) -> int:
        return 2 * (self.coeffs.shape[-2] - 1)

    @property
    def torus_dims(self) -> int:
        return self.coeffs.ndim - 1

    def index(self, k) -> tuple:
        """Array index of the integer mode k, or of -k when k_last < 0;
        rejects keys that alias."""
        m = self.torus_resolution
        k = tuple(int(ki) for ki in k)
        if len(k) != self.torus_dims:
            raise ConfigError(f"mode {k} needs {self.torus_dims} entries")
        if max(abs(ki) for ki in k) >= m // 2:
            raise ConfigError(f"mode {k} aliases on a grid of size {m}")
        sign = -1 if k[-1] < 0 else 1
        return tuple(sign * ki % m for ki in k)

    def mode(self, k) -> np.ndarray:
        """Radial profile of the integer mode k (zero when not present)."""
        prof = self.coeffs[self.index(k)]
        return prof.conj() if int(k[-1]) < 0 else prof.copy()

    def radial_mean(self) -> np.ndarray:
        """Profile of the torus-constant mode (real part)."""
        return self.coeffs[(0,) * self.torus_dims].real.copy()

    def values(self) -> np.ndarray:
        """Collocation values on the uniform torus grid, last axis radial."""
        return real_values(self.coeffs, self.torus_resolution)

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
