"""Cusp model data: the disk bundle over a flat torus and points on it.

A model cusp is described by the complex dimension ``n`` of the total space,
a lattice spanning the torus cross-section, a Hermitian positive definite
matrix ``A`` defining the fiber weight ``phi(z') = -<A z', z'>`` on the
universal cover, and an overall scale of the bundle metric.  All geometric
formulas downstream read these four ingredients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_HERM_RTOL = 1e-12


@dataclass(frozen=True)
class CuspModel:
    """Parameters of the model cusp.

    n : complex dimension of the total space, n >= 2.
    lattice : (2n-2, 2n-2) real matrix whose columns span the torus lattice.
    A : (n-1, n-1) Hermitian positive definite matrix.  The flat torus metric
        has coefficients A, and phi(z') = -sum_{ab} A[a,b] z'_a conj(z'_b).
    scale : positive factor multiplying the Hermitian bundle metric.
    """

    n: int
    lattice: np.ndarray
    A: np.ndarray
    scale: float = 1.0

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
        if eigs.min() <= 0:
            raise ConfigError(f"A must be positive definite (eigenvalues {eigs})")
        B = np.atleast_2d(np.asarray(self.lattice))
        if np.any(np.imag(B) != 0):
            raise ConfigError("lattice must be real")
        B = np.real(B).astype(float)
        if B.shape != (2 * d, 2 * d):
            raise ConfigError(f"lattice must be {2*d}x{2*d}, got {B.shape}")
        if abs(np.linalg.det(B)) < 1e-14:
            raise ConfigError("lattice basis is linearly dependent")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
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

    @property
    def phi_hess(self) -> np.ndarray:
        """Complex Hessian phi_{a bbar} = -A (constant on the cover)."""
        return -self.A

    # --- real quadratic form pieces used by the cross-section metric ---

    @property
    def A_real(self) -> np.ndarray:
        return np.real(self.A)

    @property
    def A_imag(self) -> np.ndarray:
        return np.imag(self.A)

    def phi_real_gradients(self, z_prime):
        """First derivatives of phi in the real chart (x_a, y_a).

        Returns (phi_x, phi_y) with phi_x[a] = d phi / d x_a and similarly
        for y.  Derived from phi = -<A z', z'> with A = S + iT.
        """
        z = np.asarray(z_prime, dtype=complex)
        xr = np.real(z)
        yr = np.imag(z)
        S = self.A_real
        T = self.A_imag
        phi_x = -2.0 * (xr @ S.T + yr @ T.T)
        phi_y = -2.0 * (yr @ S.T - xr @ T.T)
        return phi_x, phi_y

    def radius_from_x(self, z_prime, x: float) -> float:
        """|z_n| on the level set { x = 1/sigma } through z'."""
        sigma = 1.0 / x
        logr2 = self.phi(z_prime) - sigma - np.log(self.scale)
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
