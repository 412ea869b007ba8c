"""Eigenvalues and characters of the torus operator.

The constant-coefficient operator acting in the torus directions sends the
character chi_k(t) = exp(2*pi*i k.t) to lambda_k chi_k with

    lambda_k = pi^2 <A^{-1} c, c>,   c_a = xi_a - i xi_{a+d},  xi = B^{-T} k,

where B has the lattice basis as columns and k runs over integer dual
coordinates.  Enumeration is brute force over integer boxes, each one
array computation.  `modes_below` takes the one box of modes a torus grid
holds; `eigenvalues_up_to` doubles the radius of a cube until the
requested eigenvalues are certified to lie strictly inside it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import CuspModel


def mode_covector(model: CuspModel, k) -> np.ndarray:
    """Complexified covector c of the integer mode k (last axis of k; any
    leading axes are kept)."""
    d = model.d
    k = np.asarray(k, dtype=float)
    xi = np.linalg.solve(model.lattice.T, k[..., None])[..., 0]
    return xi[..., :d] - 1j * xi[..., d:]


def mode_eigenvalue(model: CuspModel, k):
    """Eigenvalue of the torus operator on the character with index k (last
    axis of k; any leading axes are kept)."""
    c = mode_covector(model, k)
    return np.pi**2 * np.real(np.sum(c.conj() * (c @ model.A_inv.T), axis=-1))


# The cube max|k_i| <= r has (2r + 1)^(2d) points.  Past this many the
# radius doubling of `eigenvalues_up_to` is refused before anything is
# allocated: the radius stops at 256, 8, 4 and 2 for n = 2 to 5, and n >= 6 gets no cube.
_BOX_POINTS = 2**20


def _box(model: CuspModel, radii):
    """Integer keys of the box |k_i| <= radii[i], shape (M, 2d), in
    lexicographic order, and their eigenvalues."""
    keys = np.indices([2 * r + 1 for r in radii]).reshape(len(radii), -1).T - radii
    return keys, mode_eigenvalue(model, keys)


def _sorted(keys: np.ndarray, lams: np.ndarray):
    """(keys, lams) in ascending (lam, k) order."""
    order = np.lexsort((*keys.T[::-1], lams))
    return keys[order], lams[order]


def eigenvalues_up_to(model: CuspModel, count: int):
    """The `count` smallest eigenvalues with multiplicity: (keys, lams)
    arrays of shapes (count, 2d) and (count,), sorted by (lam, k)."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    dims = 2 * model.d
    radius = 2
    while True:
        if (points := (2 * radius + 1) ** dims) > _BOX_POINTS:
            raise ConfigError(f"eigenvalue enumeration did not close: radius {radius} in {dims} lattice dimensions "
                              f"needs {points} box points, over the budget of {_BOX_POINTS}")
        keys, lams = _box(model, (radius,) * dims)
        edge_min = np.min(lams[np.max(np.abs(keys), axis=1) == radius])
        keys, lams = _sorted(keys, lams)
        if len(lams) > count and lams[count - 1] < edge_min:
            return keys[:count], lams[:count]
        radius *= 2


def modes_below(model: CuspModel, lam_max: float, shape: tuple):
    """All nonzero modes with eigenvalue <= lam_max that a torus grid of the
    given shape holds, |k_i| <= (m_i - 1)//2 (2|k_i| < m_i, the rule of
    `Field.index`): (keys, lams) arrays of shapes (M, 2d) and (M,), sorted
    by (lam, k)."""
    keys, lams = _box(model, [(m - 1) // 2 for m in shape])
    below = (lams > 0) & (lams <= lam_max)
    return _sorted(keys[below], lams[below])


def first_eigenvalue(model: CuspModel) -> float:
    """Smallest positive eigenvalue."""
    _, lams = eigenvalues_up_to(model, 2)
    lam1 = float(lams[1])
    if lam1 <= 0:
        raise ConfigError("first eigenvalue not positive; degenerate lattice?")
    return lam1


# --- independent finite-difference oracle (2-real-dimensional torus) ---


def fd_eigenvalues(model: CuspModel, resolution: int) -> np.ndarray:
    """The six lowest eigenvalues of the torus operator by a 2nd-order finite-difference
    discretization in fractional lattice coordinates.

    Only implemented for a one-complex-dimensional cross-section (n = 2);
    serves as the independent cross-check of the character formula.
    """
    if model.d != 1:
        raise ConfigError("finite-difference oracle only supports n = 2")
    # imported here: only this oracle uses sparse matrices, so no solve pays
    # for loading scipy.sparse
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    a = float(np.real(model.A[0, 0]))
    B = model.lattice
    M = np.linalg.inv(B) @ np.linalg.inv(B).T
    m = resolution
    h = 1.0 / m
    ones = np.ones(m)
    d2 = sp.diags([ones, -2.0 * ones, ones], [-1, 0, 1], shape=(m, m)).tolil()
    d2[0, -1] = 1.0
    d2[-1, 0] = 1.0
    d1 = sp.diags([-ones, ones], [-1, 1], shape=(m, m)).tolil()
    d1[0, -1] = -1.0
    d1[-1, 0] = 1.0
    d2 = (d2 / h**2).tocsr()
    d1 = (d1 / (2.0 * h)).tocsr()
    eye = sp.identity(m, format="csr")
    lap = (
        M[0, 0] * sp.kron(d2, eye)
        + M[1, 1] * sp.kron(eye, d2)
        + 2.0 * M[0, 1] * sp.kron(d1, d1)
    )
    op = (-(1.0 / (4.0 * a)) * lap).tocsc()
    sigma = -0.1 * np.pi**2 / a
    v0 = np.ones(m * m) / m  # fixed start vector keeps runs bit-reproducible
    vals = spla.eigsh(op, k=6, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False)
    return np.sort(vals)


def fd_first_eigenvalue(model: CuspModel, resolution: int) -> float:
    """Smallest positive finite-difference eigenvalue."""
    vals = fd_eigenvalues(model, resolution)
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-12)
    positive = vals[vals > 1e-8 * scale]
    if len(positive) == 0:
        raise ConfigError("finite-difference oracle found no positive eigenvalue")
    return float(positive[0])
