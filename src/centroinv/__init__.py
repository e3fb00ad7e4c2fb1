"""Descent statistics on 321-avoiding centrosymmetric involutions.

The package walks one tight circle of combinatorics: involutions fixed by the
half-turn of the permutation matrix and avoiding 321, their encodings as
subsets, symmetric non-nesting matchings, lattice paths and signed
permutation windows, the exact q-polynomials these encodings produce, and an
exhaustive harness that re-proves every identity at desk scale.

Start with ``matchings.subset_involution`` / ``matchings.excedance_subset``
for the basic bijection, ``qpoly`` for the closed forms, ``verify.verify``
for the theorem drivers, or the ``centroinv`` command line tool.
"""

BACKEND = "python"
__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
