"""Exact loops of formal series with non-commutative coefficients.

Invertible series under the pointwise product and formal diffeomorphisms
under composition form loops over non-commutative coefficient algebras;
this package implements both, their representing coloop bialgebras with
closed-form codivisions, the recursive-operator and Lagrange-coefficient
combinatorics behind those formulas, and the exact Cayley-Dickson
coefficient algebras on which every identity and counterexample is
verified mechanically, with integer/rational arithmetic throughout.

The vocabularies are stated here once, for the parser and the library:
the series flavors ``SERIES_FLAVORS`` (``inv`` for ``Inv(A)``, ``diff``
for ``Diff(A)``), the flavors of the coloops representing them
``COLOOP_FLAVORS`` (``inv``, Faa di Bruno ``fdb``), the division
``SIDES`` (``INVERSE_SIDES`` adds ``both``) and ``MODES`` (the
``recursive`` existence proof or the ``closed`` formulas). ``_choose``
refuses any other name with one message that lists the allowed ones.
No command reads a seed: each output is fixed by its arguments.
"""

import contextlib

__version__ = "0.1.0"

# the vocabularies that the parser offers and the library checks
SIDES = ("left", "right")
MODES = ("recursive", "closed")
SERIES_FLAVORS = ("inv", "diff")
COLOOP_FLAVORS = ("inv", "fdb")
INVERSE_SIDES = SIDES + ("both",)


class StructuralError(ValueError):
    """Malformed or mismatched inputs: wrong level, arity, flavor, copy set,
    an invalid index sequence, or a generator with no assigned image."""


class DomainError(ArithmeticError):
    """Input outside the mathematical domain of the operation, e.g. dividing
    by an element of norm zero."""


def _choose(what: str, value, allowed):
    """``value`` if it is one of ``allowed``; otherwise the one refusal of
    an unknown name, which lists the allowed ones."""
    if value not in allowed:
        raise StructuralError(
            f"{what} must be one of {tuple(allowed)}, got {value!r}")
    return value


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


def _emit_json(command: str, data, passed=None) -> str:
    """The JSON envelope of every command's output, keys sorted. No command
    reads a seed, so ``seed`` is always null."""
    import json
    envelope = {
        "version": __version__,
        "command": command,
        "seed": None,
        "pass": passed,
        "data": data,
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


__all__ = ["COLOOP_FLAVORS", "DomainError", "INVERSE_SIDES", "MODES",
           "SERIES_FLAVORS", "SIDES", "StructuralError", "__version__"]
