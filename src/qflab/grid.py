"""Uniform 1-D lattices and O(h^2) finite-difference derivative matrices.

Every operator in the package is realized as a banded matrix acting on
samples over a :class:`Grid1D`, stored as its diagonals (the scipy DIA
layout).  Interior rows use central stencils; the two boundary rows of each
derivative matrix use one-sided stencils of the same order, so the matrices
are total (no ghost nodes).  Algebraic-identity checks
therefore restrict themselves to the interior block (see
:meth:`Grid1D.interior`), where one-sided-stencil artifacts cannot reach even
after one matrix product.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse


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


def make_grid(x_min: float, x_max: float, n: int) -> Grid1D:
    """Validated constructor for :class:`Grid1D`."""
    return Grid1D(float(x_min), float(x_max), int(n))


@lru_cache(maxsize=8)
def derivative_matrices(g: Grid1D) -> tuple[sparse.dia_array, sparse.dia_array]:
    """First and second derivative matrices (D1, D2), both O(h^2).

    D1 is the central difference ``(u[k+1] - u[k-1]) / 2h`` with one-sided
    second-order stencils on the first and last row; D2 is the standard
    second difference ``(u[k+1] - 2u[k] + u[k-1]) / h^2`` with four-point
    one-sided boundary rows.  Both are real banded matrices in DIA storage
    (offsets -2..2 for D1, -3..3 for D2, the reach of the boundary rows);
    treat the cached arrays as read-only.
    """
    n, h = g.n, g.h
    if n < 4:
        raise ValueError(f"derivative matrices need at least 4 nodes, got n={n}")

    def banded(reach, interior, first, last):
        # interior row k holds interior[o + 1] at column k + o; the boundary
        # rows hold their stencils from column 0 and up to column n - 1
        data = np.zeros((2 * reach + 1, n))
        for o, c in zip((-1, 0, 1), interior):
            data[reach + o, 1 + o : n - 1 + o] = c
        for j, c in enumerate(first):
            data[reach + j, j] = c
        for j, c in enumerate(last):
            o = j - len(last) + 1
            data[reach + o, n - 1 + o] = c
        data.flags.writeable = False
        return sparse.dia_array((data, np.arange(-reach, reach + 1)), shape=(n, n))

    d1 = banded(2, (-0.5 / h, 0.0, 0.5 / h), np.array([-3.0, 4.0, -1.0]) / (2.0 * h),
                np.array([1.0, -4.0, 3.0]) / (2.0 * h))
    d2 = banded(3, (1.0 / h**2, -2.0 / h**2, 1.0 / h**2), np.array([2.0, -5.0, 4.0, -1.0]) / h**2,
                np.array([-1.0, 4.0, -5.0, 2.0]) / h**2)
    return d1, d2
