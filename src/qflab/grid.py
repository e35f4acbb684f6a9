"""Uniform 1-D lattices.

Every operator in the package is a banded matrix acting on samples over a
:class:`Grid1D` (see :mod:`qflab.operators`).  The derivative stencils use
one-sided rows at the two ends, so algebraic-identity checks restrict
themselves to the interior block (see :meth:`Grid1D.interior`), where
one-sided-stencil artifacts cannot reach even after one matrix product.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform lattice of ``n`` nodes on ``[x_min, x_max]``.

    Node ``k`` sits at ``x_min + k*h`` with spacing
    ``h = (x_max - x_min) / (n - 1)``.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got n={self.n}")
        if not self.x_min < self.x_max:
            raise ValueError(
                f"grid requires x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]")
        # the second-difference stencil divides by h**2
        h2 = self.h * self.h
        if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ValueError(f"grid spacing h = {self.h:.3g} on [{self.x_min}, {self.x_max}] "
                             f"with n={self.n}: h**2 and 1/h**2 must be finite and nonzero")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)

    def interior(self) -> slice:
        """Rows/columns free of one-sided-stencil contamination: 4..n-5.

        The transpose of a derivative matrix with one-sided boundary rows is
        not a consistent derivative near the ends (the one-sided stencil
        reaches column 2), and operator products with two adjoint factors
        propagate that pollution one row further.  Row 4 is the first row
        whose entries and action stay clean for every product formed in this
        package.
        """
        return slice(4, self.n - 4)
