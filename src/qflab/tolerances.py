"""Single home for the numeric-comparison tolerance model.

Two regimes cover every assertion in the package:

* discretization checks (statements true up to the O(h^2) truncation of the
  difference stencils): ``DISC_COEFF * scale * h^2 + ROUND_COEFF * eps * n``;
* exact algebraic identities (true as matrix algebra, limited only by
  floating-point rounding): ``ROUND_COEFF * eps * n * scale``.

``scale`` carries the magnitude of whatever enters the comparison (derivative
bounds of the deformation function, operator entry sizes), so the constants
here never need per-test tuning.  Callers import the module as ``TOL``.
"""

import numpy as np

from .grid import Grid1D

EPS = float(np.finfo(np.float64).eps)
DISC_COEFF = 10.0
ROUND_COEFF = 100.0


def discretization(g: Grid1D, scale: float) -> float:
    """Bound for O(h^2)-convergent statements on grid ``g``."""
    return DISC_COEFF * max(scale, 1.0) * g.h**2 + ROUND_COEFF * EPS * g.n


def rounding(n: int, scale: float) -> float:
    """Bound for identities that are exact modulo floating-point rounding."""
    return ROUND_COEFF * EPS * n * max(scale, 1.0)
