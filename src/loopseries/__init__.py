"""Exact loops of formal series with non-commutative coefficients.

Invertible series under the pointwise product and formal diffeomorphisms
under composition form loops over non-commutative coefficient algebras;
this package implements both, their representing coloop bialgebras with
closed-form codivisions, the recursive-operator and Lagrange-coefficient
combinatorics behind those formulas, and the exact Cayley-Dickson
coefficient algebras on which every identity and counterexample is
verified mechanically, with integer/rational arithmetic throughout.
"""

import contextlib

__version__ = "0.1.0"

# seed of the randomized witness sampler when none is given
DEFAULT_SEED = 0x123456789ABCDEF0


class StructuralError(ValueError):
    """Malformed or mismatched inputs: wrong level, arity, flavor, copy set,
    an invalid index sequence, or a generator with no assigned image."""


class DomainError(ArithmeticError):
    """Input outside the mathematical domain of the operation, e.g. dividing
    by an element of norm zero."""


@contextlib.contextmanager
def _option(name: str):
    """Name the command-line option ``name`` in a ``StructuralError``
    raised in the block, as ``--m: (1, 0) is not an M-sequence ...``."""
    try:
        yield
    except StructuralError as exc:
        raise StructuralError(f"{name}: {exc}") from None


def _sum_text(terms) -> str:
    """The text of a signed sum of ``(coefficient, body)`` pairs, where an
    empty body is the scalar: zero terms are skipped, a unit magnitude is
    dropped before a body, the first term is signed ``-`` or not at all
    and the others ``+ `` or ``- ``; the empty sum is ``0``."""
    chunks = []
    for c, body in terms:
        if c == 0:
            continue
        if not body:
            text = str(abs(c))
        elif abs(c) == 1:
            text = body
        else:
            text = f"{abs(c)}*{body}"
        if chunks:
            chunks.append(("+ " if c > 0 else "- ") + text)
        else:
            chunks.append(text if c > 0 else "-" + text)
    return " ".join(chunks) or "0"


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
