"""Cusp model data: the disk bundle over a flat torus and points on it.

A model cusp is described by the complex dimension ``n`` of the total space,
a lattice spanning the torus cross-section, a Hermitian positive definite
matrix ``A`` defining the fiber weight ``phi(z') = -<A z', z'>`` on the
universal cover.  All geometric formulas downstream read these three
ingredients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_HERM_RTOL = 1e-12


def _independence(B: np.ndarray) -> float:
    """|det B| over the product of B's column norms (Hadamard's ratio, in [0, 1]), taken on columns scaled to a
    largest entry of 1, so neither the lattice's scale nor its units move it; 0 for a zero column."""
    peak = np.max(np.abs(B), axis=0)
    if not np.all(peak > 0):
        return 0.0
    C = B / peak
    return float(np.exp(np.linalg.slogdet(C)[1] - np.sum(np.log(np.linalg.norm(C, axis=0)))))


@dataclass(frozen=True)
class CuspModel:
    """Parameters of the model cusp.

    n : complex dimension of the total space, n >= 2.
    lattice : (2n-2, 2n-2) real matrix whose columns span the torus lattice.
    A : (n-1, n-1) Hermitian positive definite matrix.  The flat torus metric
        has coefficients A, and phi(z') = -sum_{ab} A[a,b] z'_a conj(z'_b).
    """

    n: int
    lattice: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"need n >= 2, got n={self.n}")
        d = self.n - 1
        A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        if A.shape != (d, d):
            raise ConfigError(f"A must be {d}x{d}, got {A.shape}")
        if not np.allclose(A, A.conj().T, rtol=_HERM_RTOL, atol=1e-300):
            raise ConfigError("A must be Hermitian")
        eigs = np.linalg.eigvalsh(A)
        if not eigs.min() > 1e-15 * eigs.max():  # a smaller ratio is singular to rounding: inv(A) can fail
            raise ConfigError(f"A must be positive definite to working precision (eigenvalues {eigs})")
        B = np.atleast_2d(np.asarray(self.lattice))
        if np.any(np.imag(B) != 0):
            raise ConfigError("lattice must be real")
        B = np.real(B).astype(float)
        if B.shape != (2 * d, 2 * d):
            raise ConfigError(f"lattice must be {2*d}x{2*d}, got {B.shape}")
        if not np.all(np.isfinite(B)):
            raise ConfigError("lattice entries must be finite")
        if _independence(B) < 1e-14:
            raise ConfigError("lattice basis is linearly dependent")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "lattice", B)

    @property
    def d(self) -> int:
        """Complex dimension of the torus cross-section."""
        return self.n - 1

    @property
    def A_inv(self) -> np.ndarray:
        return np.linalg.inv(self.A)

    # --- fiber weight phi and its derivatives on the universal cover ---

    def phi(self, z_prime):
        """phi(z') = -<A z', z'> (real valued)."""
        z = np.asarray(z_prime, dtype=complex)
        return -np.real(np.einsum("...a,ab,...b->...", z, self.A, z.conj()))

    def phi_grad(self, z_prime):
        """Holomorphic gradient phi_a = -sum_b A[a,b] conj(z'_b)."""
        z = np.asarray(z_prime, dtype=complex)
        return -np.einsum("ab,...b->...a", self.A, z.conj())

    def radius_from_x(self, z_prime, x: float) -> float:
        """|z_n| on the level set { x = 1/sigma } through z'."""
        sigma = 1.0 / x
        logr2 = self.phi(z_prime) - sigma
        return float(np.exp(0.5 * logr2))


@dataclass(frozen=True)
class CuspPoint:
    """A point on the cusp in the (z', x, theta) chart.

    z_prime : complex (n-1)-vector, universal cover coordinate of the torus.
    x : radial coordinate, x = 1/sigma with sigma = -log h; metric formulas
        require 0 < x < 1.
    theta : fiber angle, carried but unused by circle-invariant fields.
    """

    z_prime: np.ndarray
    x: float
    theta: float = 0.0

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z_prime, dtype=complex))
        if not self.x > 0:
            raise ConfigError(f"x must be positive, got {self.x}")
        object.__setattr__(self, "z_prime", z)
