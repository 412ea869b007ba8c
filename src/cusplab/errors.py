"""Exception types shared across the package."""


class CuspLabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(CuspLabError):
    """Invalid or inconsistent configuration input."""


class MetricDegenerateError(CuspLabError):
    """Perturbed metric lost positivity at some collocation point."""

    def __init__(self, x, where, eigmin):
        self.x = x
        self.where = tuple(int(i) for i in where)
        self.eigmin = eigmin
        super().__init__(
            f"perturbed metric degenerate at x={x:.6g}, torus index {self.where}: "
            f"smallest eigenvalue {eigmin:.3e}"
        )


class DecayPreconditionError(CuspLabError):
    """A radial inhomogeneity does not decay fast enough for the kernel integrals."""


class NonContractionError(CuspLabError):
    """Fixed-point iteration stopped contracting (boundary data too large)."""


class BoundaryStencilError(CuspLabError):
    """Radial derivative requested at an outermost grid node."""


class NumericalError(CuspLabError):
    """Generic numerical failure surfaced from a module."""
