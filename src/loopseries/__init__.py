"""Exact loops of formal series with non-commutative coefficients.

Invertible series under the pointwise product and formal diffeomorphisms
under composition form loops over non-commutative coefficient algebras;
this package implements both, their representing coloop bialgebras with
closed-form codivisions, the recursive-operator and Lagrange-coefficient
combinatorics behind those formulas, and the exact Cayley-Dickson
coefficient algebras on which every identity and counterexample is
verified mechanically, with integer/rational arithmetic throughout.
"""

__version__ = "0.1.0"

# seed of the randomized witness sampler when none is given
DEFAULT_SEED = 0x123456789ABCDEF0

from .errors import DomainError, StructuralError

__all__ = ["DEFAULT_SEED", "DomainError", "StructuralError", "__version__"]
