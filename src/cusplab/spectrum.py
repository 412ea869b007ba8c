"""Eigenvalues and characters of the torus operator.

The constant-coefficient operator acting in the torus directions sends the
character chi_k(t) = exp(2*pi*i k.t) to lambda_k chi_k with

    lambda_k = pi^2 <A^{-1} c, c>,   c_a = xi_a - i xi_{a+d},  xi = B^{-T} k,

where B has the lattice basis as columns and k runs over integer dual
coordinates.  Enumeration is brute force over integer boxes with radius
doubling until the requested eigenvalues are certified to lie strictly
inside the box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError
from .model import CuspModel


@dataclass(frozen=True)
class SpectrumEntry:
    k: tuple
    xi: np.ndarray
    lam: float
    c: np.ndarray


def dual_lattice(model: CuspModel) -> np.ndarray:
    """Columns are the dual basis: <xi_i, v_j> = delta_ij."""
    B = model.lattice
    return np.linalg.inv(B).T


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


def _entry(model: CuspModel, k: tuple) -> SpectrumEntry:
    d = model.d
    xi = np.linalg.solve(model.lattice.T, np.asarray(k, dtype=float))
    c = xi[:d] - 1j * xi[d:]
    lam = float(np.pi**2 * np.real(c.conj() @ (model.A_inv @ c)))
    return SpectrumEntry(tuple(int(i) for i in k), xi, lam, c)


def _enumerate_box(model: CuspModel, radius: int):
    dims = 2 * model.d
    ks = itertools.product(range(-radius, radius + 1), repeat=dims)
    return [_entry(model, k) for k in ks]


def _boundary_min(model: CuspModel, radius: int) -> float:
    dims = 2 * model.d
    best = np.inf
    for k in itertools.product(range(-radius, radius + 1), repeat=dims):
        if max(abs(ki) for ki in k) != radius:
            continue
        lam = mode_eigenvalue(model, k)
        best = min(best, lam)
    return best


def eigenvalues_up_to(model: CuspModel, count: int) -> list[SpectrumEntry]:
    """The `count` smallest eigenvalues with multiplicity, sorted ascending."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    radius = 2
    while True:
        entries = _enumerate_box(model, radius)
        entries.sort(key=lambda e: (e.lam, e.k))
        if len(entries) > count and entries[count - 1].lam < _boundary_min(model, radius):
            return entries[:count]
        radius *= 2
        if radius > 4096:
            raise ConfigError("eigenvalue enumeration did not close; check lattice/A scales")


def modes_below(model: CuspModel, lam_max: float) -> list[SpectrumEntry]:
    """All nonzero modes with eigenvalue <= lam_max, sorted ascending."""
    radius = 2
    while _boundary_min(model, radius) <= lam_max:
        radius *= 2
        if radius > 4096:
            raise ConfigError("mode enumeration did not close; check lattice/A scales")
    out = [e for e in _enumerate_box(model, radius) if 0 < e.lam <= lam_max]
    out.sort(key=lambda e: (e.lam, e.k))
    return out


def first_eigenvalue(model: CuspModel) -> float:
    """Smallest positive eigenvalue."""
    entries = eigenvalues_up_to(model, 2)
    lam1 = entries[1].lam
    if lam1 <= 0:
        raise ConfigError("first eigenvalue not positive; degenerate lattice?")
    return lam1


# --- independent finite-difference oracle (2-real-dimensional torus) ---


def fd_eigenvalues(model: CuspModel, resolution: int, count: int = 6) -> np.ndarray:
    """Low eigenvalues of the torus operator by a 2nd-order finite-difference
    discretization in fractional lattice coordinates.

    Only implemented for a one-complex-dimensional cross-section (n = 2);
    serves as the independent cross-check of the character formula.
    """
    if model.d != 1:
        raise ConfigError("finite-difference oracle only supports n = 2")
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
    vals = spla.eigsh(op, k=count, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False)
    return np.sort(vals)


def fd_first_eigenvalue(model: CuspModel, resolution: int) -> float:
    """Smallest positive finite-difference eigenvalue."""
    vals = fd_eigenvalues(model, resolution, count=6)
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-12)
    positive = vals[vals > 1e-8 * scale]
    if len(positive) == 0:
        raise ConfigError("finite-difference oracle found no positive eigenvalue")
    return float(positive[0])
