"""Finite-field hypergeometric character sums, curve-counting oracles, and
Hecke-operator trace formulas for the arithmetic triangle groups of the
quaternion discriminant-6 family.
"""

__version__ = "0.1.0"

# Provenance label for benchmark reports: the numpy kernels are the only
# implementation.
kernel_backend = "pure"
