"""qflab: a numerical laboratory for deformed-momentum quantum mechanics.

The deformed momentum P_f = -i d/dx + i f' generates two Hermitian and two
non-Hermitian Hamiltonians, a generalized supersymmetric quantum mechanics
with a duality f -> -f, and - with the right parameter identification - the
Black-Scholes pricing Hamiltonians of quantum finance.  Everything here is a
finite-matrix statement on a uniform grid, verified against independent
oracles (closed forms, analytic spectra, Monte Carlo).
"""

__version__ = "0.1.0"
