"""Exact computer algebra for the structure sets of fake lens spaces.

Subpackages:

- :mod:`rho_lattice.ring` -- truncated cyclic group ring arithmetic
- :mod:`rho_lattice.elements` -- the distinguished units f, f_k, f'_k, g
- :mod:`rho_lattice.abelian` -- Hermite bases, subgroup spans and finite abelian groups
- :mod:`rho_lattice.surgery` -- normal coordinates, rho-bar formulas, kernels
- :mod:`rho_lattice.suspension` -- suspension map and torsion invariants
- :mod:`rho_lattice.verify` -- the re-derivation harness behind ``rho-lattice verify``
- :mod:`rho_lattice.frozen` -- the base of the immutable value classes
"""

__version__ = "0.1.0"

SCHEMA = "rho-lattice/1"
# the ``verify`` suites, here so the CLI can list them without importing verify
SUITES = ("ring", "lemmas", "kernel", "suspension", "torsion")
