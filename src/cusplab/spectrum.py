"""Eigenvalues and characters of the torus operator.

The constant-coefficient operator acting in the torus directions sends the
character chi_k(t) = exp(2*pi*i k.t) to lambda_k chi_k with

    lambda_k = pi^2 <A^{-1} c, c>,   c_a = xi_a - i xi_{a+d},  xi = B^{-T} k,

where B has the lattice basis as columns and k runs over integer dual
coordinates.  c(k) is linear in k, so lambda_k = k^T G k, and both
enumerations are one exact short-vector search under a bound (Fincke and
Pohst, Math. Comp. 44 (1985) 463-471), clipped to a torus grid's modes by
`modes_below`; `eigenvalues_up_to` doubles the bound until enough lie under it.
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


# Partial keys one coordinate of `_search` may hold, refused before they are built (117 MB at n = 8).
_SEARCH_KEYS = 2**20
# A search bound's relative slack beside 2^-46 mu (`_form`, the rounding of R and the partial sums): how far
# `mode_eigenvalue` may stray from the Gram form; a search that sees a sixteenth of it refuses the form.
_SLACK = 2.0**-20


def _form(model: CuspModel):
    """(R, slack): G = R^T R, R upper triangular, with G = pi^2 Re(C^H A^-1 C), C the unit keys' covectors, and
    the relative slack of a search bound, with mu = (sum_j sqrt(G_jj (G^-1)_jj))^2."""
    C = mode_covector(model, np.eye(2 * model.d))
    G = np.pi**2 * np.real(C.conj() @ model.A_inv @ C.T)
    try:
        R = np.linalg.cholesky((G + G.T) / 2.0).T
    except np.linalg.LinAlgError:
        R = np.zeros_like(G)
    if not (np.isfinite(R).all() and np.min(np.diag(R)) ** 2 > 0):
        raise ConfigError("the eigenvalue form of the lattice and A is not positive definite to working precision")
    with np.errstate(over="ignore"):  # sqrt(G_jj) and sqrt((G^-1)_jj): norms of column j of R and row j of R^-1
        mu = np.sum(np.linalg.norm(R, axis=0) * np.linalg.norm(np.linalg.inv(R), axis=1)) ** 2
    return R, _SLACK + 2.0**-46 * mu


def _search(model: CuspModel, form: tuple, bound: float, radii=np.inf):
    """Keys with lambda_k <= bound, |k_i| <= radii[i] and their `mode_eigenvalue`s, sorted by (lam, k).  As lambda_k =
    sum_i R_ii^2 (k_i - c_i)^2, c_i a function of k_(i+1..), k is fixed from the last coordinate down, one step each."""
    R, slack = form
    diag, radii = np.diag(R), np.broadcast_to(radii, len(R))
    top = max(bound, 0.0) * (1.0 + slack)
    keys, rest = np.zeros((1, 0), dtype=np.int64), np.array([top])
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite width or bound is clipped or refused
        for i in range(len(R) - 1, -1, -1):
            centre, width = -(keys @ R[i, i + 1 :]) / diag[i], np.sqrt(np.maximum(rest, 0.0)) / diag[i]
            lo, hi = np.maximum(np.ceil(centre - width), -radii[i]), np.minimum(np.floor(centre + width), radii[i])
            counts = np.maximum(hi - lo + 1.0, 0.0)
            if not (total := counts.sum()) <= _SEARCH_KEYS:  # NaN or inf too
                raise ConfigError(f"{total:.6g} partial keys under {bound:.6g} pass the search budget {_SEARCH_KEYS}")
            counts = counts.astype(np.int64)
            k = (np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(int(total))).astype(np.int64)
            rest = np.repeat(rest, counts) - (diag[i] * (k - np.repeat(centre, counts))) ** 2
            keys = np.column_stack([k, np.repeat(keys, counts, axis=0)])
    lams = mode_eigenvalue(model, keys)  # the Gram form's check has no finite tolerance under an infinite bound
    if top < np.inf and np.max(np.abs(lams - (top - rest))) > slack * top / 16.0:
        raise ConfigError(f"eigenvalues under {bound:.6g} not resolved: mode_eigenvalue strays from the Gram form")
    order = np.lexsort((*keys.T[::-1], lams))[: np.count_nonzero(lams <= bound)]
    return keys[order], lams[order]


def eigenvalues_up_to(model: CuspModel, count: int):
    """The `count` smallest eigenvalues with multiplicity: (keys, lams)
    arrays of shapes (count, 2d) and (count,), sorted by (lam, k).  As
    min_i R_ii^2 <= lambda_1 <= min_i G_ii, the bound starts at the least of
    G_ii and 4 R_ii^2 and doubles until `count` keys lie under it; the search
    is exact, so they are the `count` smallest."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    form = _form(model)
    bound = float(min(np.sum(form[0] ** 2, axis=0).min(), 4.0 * np.min(np.diag(form[0])) ** 2))
    while len((found := _search(model, form, bound))[1]) < count:
        bound *= 2.0
    return found[0][:count], found[1][:count]


def modes_below(model: CuspModel, lam_max: float, shape: tuple):
    """All nonzero modes with eigenvalue <= lam_max that a torus grid of the
    given shape holds, |k_i| <= (m_i - 1)//2 (2|k_i| < m_i, the rule of
    `Field.index`): (keys, lams) arrays of shapes (M, 2d) and (M,), sorted
    by (lam, k); lam_max = inf gives every nonzero mode the grid holds."""
    keys, lams = _search(model, _form(model), lam_max, [(m - 1) // 2 for m in shape])
    return keys[lams > 0], lams[lams > 0]


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
