"""Radial discretization shared by all profiles.

Nodes are uniform in s = 1/sqrt(x), so x = 1/s**2 is strictly decreasing
along the grid and every e-fold of the decisive exponential exp(-c/sqrt(x))
gets equal resolution.  Radial derivatives are taken in s by centered
differences (2nd order by default, optional 4th order) and converted with
the chain rule

    f_x  = -(s**3 / 2) f_s,
    f_xx = (3 s**5 / 4) f_s + (s**6 / 4) f_ss.

The outermost node at each end uses a one-sided stencil and is excluded
from residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError


def fd_weights(xs: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite difference weights for the m-th derivative at x0 on nodes xs.

    Fornberg's recursion; exact for polynomials up to degree len(xs)-1.
    """
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    x_prev = xs[0] - x0
    for i in range(1, n):
        c2 = 1.0
        x_i = xs[i] - x0
        for j in range(i):
            x_j = xs[j] - x0
            dx = x_i - x_j
            c2 *= dx
            if j == i - 1:
                for k in range(min(i, m), 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - x_prev * c[i - 1, k]) / c2
                c[i, 0] = -c1 * x_prev * c[i - 1, 0] / c2
            for k in range(min(i, m), 0, -1):
                c[j, k] = (x_i * c[j, k] - k * c[j, k - 1]) / dx
            c[j, 0] = x_i * c[j, 0] / dx
        c1 = c2
        x_prev = x_i
    return c[:, m]


@lru_cache(maxsize=64)
def _uniform_stencils(order: int, deriv: int, h: float):
    """Interior and one-sided boundary weights on a uniform grid of step h."""
    if order == 2:
        half = 1
        npts = 4 if deriv == 2 else 3
    elif order == 4:
        half = 2
        npts = 6
    else:
        raise ConfigError(f"unsupported stencil order {order}")
    offs = np.arange(-half, half + 1) * h
    interior = fd_weights(offs, 0.0, deriv)
    lows = []
    highs = []
    for i in range(half):
        xs = np.arange(npts) * h
        lows.append(fd_weights(xs, i * h, deriv))
        xs_hi = -xs[::-1]
        highs.append(fd_weights(xs_hi, -i * h, deriv))
    return interior, lows, highs, half, npts


def uniform_derivative(f: np.ndarray, h: float, deriv: int, order: int = 2) -> np.ndarray:
    """d^deriv f / ds^deriv along the last axis of f, uniform step h."""
    interior, lows, highs, half, npts = _uniform_stencils(order, deriv, h)
    nn = f.shape[-1]
    if nn < npts:
        raise ConfigError(f"grid too coarse: need at least {npts} nodes, got {nn}")
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    width = 2 * half + 1
    acc = interior[0] * f[..., 0 : nn - width + 1]
    for j in range(1, width):
        acc = acc + interior[j] * f[..., j : nn - width + 1 + j]
    out[..., half : nn - half] = acc
    for i in range(half):
        out[..., i] = np.tensordot(f[..., :npts], lows[i], axes=([-1], [0]))
        out[..., nn - 1 - i] = np.tensordot(f[..., nn - npts :], highs[i], axes=([-1], [0]))
    return out


# Uniformity tolerance of the nodes, relative to the largest |s|: a grid's
# steps may deviate from its endpoint step by UNIFORM_TOL times its largest
# |s|.  This is the one uniformity rule: the mode solves read the exponent
# 2 sqrt(lambda) s of a grid through its endpoint step alone.
UNIFORM_TOL = 5e-13


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly decreasing radial nodes in (0, x0], uniform in s = 1/sqrt(x).

    The grid owns a read-only, contiguous copy of the nodes it is given, so
    editing the caller's array later cannot move a node past the uniformity
    check or change `h`, `x` or a memoized solve plan.  Two grids are equal
    when their nodes are equal bit for bit, and hash by the node count and
    end nodes, so a grid keys `functools.lru_cache`."""

    s: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float, order="C")
        if s.ndim != 1 or len(s) < 5:
            raise ConfigError("grid needs at least 5 nodes")
        ds = np.diff(s)
        if not np.all(ds > 0):
            raise ConfigError("s nodes must be strictly increasing")
        d = (s[-1] - s[0]) / (len(s) - 1)
        if not max(ds.max() - d, d - ds.min()) <= UNIFORM_TOL * max(abs(s[0]), abs(s[-1])):
            raise ConfigError("s nodes must be uniform")
        if not s[-1] <= 2.0**511:  # the largest s whose x = 1/s^2 is a normal float
            raise ConfigError(f"s_max = {s[-1]:.6g} is past 2^511, where x = 1/s^2 leaves the float range")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @classmethod
    def make(cls, x0: float, s_max: float, num: int) -> "RadialGrid":
        if not 0 < x0:
            raise ConfigError(f"x0 must be positive, got {x0}")
        s0 = 1.0 / np.sqrt(x0)
        if s_max <= s0:
            raise ConfigError(f"s_max={s_max} must exceed 1/sqrt(x0)={s0:.4g}")
        return cls(np.linspace(s0, s_max, num))

    def __eq__(self, other) -> bool:
        return isinstance(other, RadialGrid) and (self.s is other.s or np.array_equal(self.s, other.s))

    def __hash__(self) -> int:
        return hash((len(self.s), self.s[0], self.s[-1]))

    def __len__(self) -> int:
        return len(self.s)

    @cached_property
    def x(self) -> np.ndarray:
        """Node values of x, strictly decreasing, x[0] = x0; computed once,
        read-only."""
        x = 1.0 / self.s**2
        x.flags.writeable = False
        return x

    @property
    def x0(self) -> float:
        return float(1.0 / self.s[0] ** 2)

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    def interior(self, order: int = 2) -> slice:
        half = 1 if order == 2 else 2
        return slice(half, len(self.s) - half)

    def deriv_s(self, f: np.ndarray, deriv: int, order: int = 2) -> np.ndarray:
        return uniform_derivative(np.asarray(f), self.h, deriv, order)

    def deriv_x(self, f: np.ndarray, order: int = 2):
        """(f_x, f_xx) along the last axis via the s chain rule."""
        fs = self.deriv_s(f, 1, order)
        fss = self.deriv_s(f, 2, order)
        s = self.s
        f_x = -0.5 * s**3 * fs
        f_xx = 0.75 * s**5 * fs + 0.25 * s**6 * fss
        return f_x, f_xx
