"""The x1 axis of the truncated phenotype box [-L, L]^n, for any n >= 1.

The transverse traits factor out of every solve (eigen.fitness_fields), so
fields live on the x1 axis alone. The grid holds the nodes where the solve
command samples pde.integrate_to's final state (pde.FinalState.sample) and
the box of eigen's finite-difference ladder (twopatch eigen). That box is a computational
truncation: solutions of interest decay super-exponentially, so homogeneous
Dirichlet conditions (zero ghost nodes) are imposed at both ends. The node count is
odd so that x1 = 0 is an exact node and the habitat-swap reflection
x1 -> -x1 is a pure index reversal, never an interpolation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the x1 axis of the box [-L, L]^n.

    Attributes:
        n: trait dimension (integer >= 1); only x1 is discretized.
        L: half-width of the box (> 0).
        m: nodes on the axis including both boundary nodes; odd, >= 3.
        The spacing h = 2L / (m - 1) must be a finite float.
    """

    n: int
    L: float
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"trait dimension n must be an integer >= 1, got {self.n!r}")
        if not (self.L > 0):
            raise ValueError(f"L must be > 0, got {self.L!r}")
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError(f"m must be an odd integer >= 3, got {self.m!r}")
        if self.m - 1 > sys.float_info.max or not math.isfinite(self.h):
            raise ValueError(f"the spacing h = 2L / (m - 1) must be a finite float, got "
                             f"L = {self.L!r}, m = {self.m!r}")

    @property
    def h(self) -> float:
        """Node spacing 2L / (m - 1)."""
        return 2.0 * self.L / (self.m - 1)

    @property
    def shape(self) -> tuple[int]:
        return (self.m,)

    def axis(self) -> np.ndarray:
        # Built symmetrically around the center index so the midpoint is 0.0
        # exactly and axis[m-1-k] == -axis[k] bitwise.
        return (np.arange(self.m) - (self.m - 1) // 2) * self.h


def build_grid(n: int, L: float, m: int) -> Grid:
    """Construct and validate a grid."""
    return Grid(n=n, L=L, m=int(m))


def _check_shape(grid: Grid, f: np.ndarray) -> None:
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid shape {grid.shape}")


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order centered second difference with Dirichlet zero ghost nodes.

    Exact on quadratics at interior nodes (returns 2 for f = x1^2).
    Boundary nodes see zero beyond the box, matching the truncation.
    """
    _check_shape(grid, f)
    p = np.pad(f, 1)
    return (p[:-2] + p[2:] - 2.0 * f) / (grid.h * grid.h)


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Trapezoid quadrature of a nodal field along the axis."""
    _check_shape(grid, f)
    return float(np.trapezoid(f, dx=grid.h))
