"""Single home for the numeric-comparison tolerance model.

Two regimes cover every assertion in the package:

* discretization checks (statements true up to the O(h^2) truncation of the
  difference stencils): ``disc_coeff * scale * h^2 + round_coeff * eps * n``;
* exact algebraic identities (true as matrix algebra, limited only by
  floating-point rounding): ``round_coeff * eps * n * scale``.

``scale`` carries the magnitude of whatever enters the comparison (derivative
bounds of the deformation function, operator entry sizes), so the constants
here never need per-test tuning.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    disc_coeff: float = 10.0
    round_coeff: float = 100.0

    def discretization(self, g: Grid1D, scale: float) -> float:
        """Bound for O(h^2)-convergent statements on grid ``g``."""
        return self.disc_coeff * max(scale, 1.0) * g.h**2 + self.round_coeff * EPS * g.n

    def rounding(self, n: int, scale: float) -> float:
        """Bound for identities that are exact modulo floating-point rounding."""
        return self.round_coeff * EPS * n * max(scale, 1.0)


DEFAULT = Tolerances()
