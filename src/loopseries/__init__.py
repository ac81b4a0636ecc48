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


def _emit_json(command: str, data, seed=None, passed=None) -> str:
    """The JSON envelope of every command's output, keys sorted."""
    import json
    envelope = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "pass": passed,
        "data": data,
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


__all__ = ["DEFAULT_SEED", "DomainError", "StructuralError", "__version__"]
