"""Numerical laboratory for edge statistics of deformed unitary-invariant ensembles.

Submodules
----------
numerics     polynomials, Gauss-Legendre panels, LU log-determinants
special      Airy Ai / Ai', Fermi weight, polylog-type integrals
equilibrium  one-cut equilibrium measures and derived conformal data
ensemble     deformed orthogonal polynomial ensembles and linear statistics
fredholm     finite-temperature Airy kernel Fredholm determinants
idpii        integro-differential Painleve-II solver (RK4 in closed form), K_infinity
cli          configuration, study runners and the command-line interface
"""

__version__ = "0.1.0"
