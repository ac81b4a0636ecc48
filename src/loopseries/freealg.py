"""Free graded associative algebra on labeled generator copies.

``NCPolynomial`` models exact-integer linear combinations of words in the
graded generators ``x_n`` (copy 1), ``y_n`` (copy 2), ``z_n`` (copy 3).
One copy gives the algebra ``H`` of non-commutative polynomials; two and
three copies give the free products ``H u H`` and ``H u H u H`` in which
all co-operations of the coloop bialgebras take their values.

A letter is a pair ``(copy, index)`` and a word a tuple of letters; the
degree of a word is the sum of its indices, the product is concatenation.
Maps out of these algebras are always algebra homomorphisms, so they are
represented by their generator tables (``MultiMorphism``); a copy
relabeling (``fold``) is the ``MultiMorphism`` of its label map.

``NCPolynomial`` is also a coefficient carrier: it has ``unit()`` and
``is_zero()`` and is associative, so a series whose coefficients are the
generators of one copy is the generic point of either series loop. A
scalar ``c`` is ``NCPolynomial.unit() * c``. ``evaluate`` sends the
generators into a concrete unital algebra, each word's product nested
to the left or to the right.

``TensorPoly`` holds tensors over the free algebra: its keys are tuples
of words, and the empty tuple is the scalar. Its ``tensor`` concatenates
tuples, the product of the tensor algebra ``T(A)`` of
:mod:`loopseries.operators`; its ``*`` multiplies tuples of one length
word by word, the product of ``H x ... x H`` that the canonical
projection ``project_pi`` lands in.

Both are ``Sparse`` linear combinations: the base holds the terms and
implements the linear structure (linear-time ``sum``, ``+``, ``-``,
integer scaling), equality, hashing and the signed text form once (the
package's ``_sum_text``, which Cayley-Dickson elements share); each
subclass adds its key order, the text of one monomial and its products.
A word has one text form (``_word_text``, ``x1*y2``) and one JSON form
(``_word_json``); the csv of ``coop`` writes a third, its ``copy:index``
pairs (``1:1 2:2``, in ``commands.cmd_coop``). The polynomial product and
``TensorPoly.tensor`` are one concatenation loop (``_concat``).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Mapping

from . import StructuralError, _sum_text

Letter = tuple[int, int]
Word = tuple[Letter, ...]

COPY_NAMES = {1: "x", 2: "y", 3: "z"}


def letter(copy: int, index: int) -> Letter:
    if copy not in COPY_NAMES:
        raise StructuralError(f"copy must be in {sorted(COPY_NAMES)}, got {copy}")
    if index < 1:
        raise StructuralError(f"generator index must be >= 1, got {index}")
    return (copy, index)


def word_degree(w: Word) -> int:
    return sum(idx for _, idx in w)


def _term_key(w: Word) -> tuple:
    return (word_degree(w), len(w), w)


def _word_text(w: Word) -> str:
    """A word in text, its letters joined by ``*``: ``x1*y2``."""
    return "*".join(f"{COPY_NAMES[cp]}{idx}" for cp, idx in w)


def _word_json(w: Word) -> list:
    """A word in JSON, one ``[copy, index]`` pair per letter."""
    return [[cp, idx] for cp, idx in w]


def _concat(xs: Mapping, ys: Mapping) -> dict:
    """Terms of the concatenation product of two term dicts whose keys
    are tuples: ``k1 + k2`` gets ``c1 * c2``; zeros are left for the final
    container to drop."""
    out: dict = {}
    for k1, c1 in xs.items():
        for k2, c2 in ys.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _add_terms(out: dict, terms: Mapping, scale: int = 1) -> None:
    """Add ``scale`` times ``terms`` into ``out`` in place; zero
    coefficients are left for the final container to drop."""
    for k, c in terms.items():
        out[k] = out.get(k, 0) + scale * c


class Sparse:
    """Exact integer linear combination of hashable keys, with zero terms
    dropped; immutable by convention.

    The module's polynomials and tensors share everything but their keys:
    a subclass gives the canonical key order (``_sort_key``), the text of
    one monomial (``_key_text``, empty for the scalar key) and its product.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: c for k, c in (terms or {}).items() if c != 0}

    def _like(self, terms: Mapping) -> "Sparse":
        return type(self)(terms)

    @classmethod
    def sum(cls, items: Iterable["Sparse"]):
        """Sum of ``items`` in time linear in their terms: every term goes
        into one dict and zeros are dropped once, at the end."""
        out: dict = {}
        for p in items:
            _add_terms(out, p.terms)
        return cls(out)

    def _combine(self, other: "Sparse", scale: int):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        _add_terms(out, other.terms, scale)
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return self._like({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple]:
        """Terms in the canonical order of the subclass."""
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def __str__(self) -> str:
        return _sum_text((c, self._key_text(k)) for k, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class NCPolynomial(Sparse):
    """Integer linear combination of words in labeled generators."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls()

    @classmethod
    def unit(cls) -> "NCPolynomial":
        return cls({(): 1})

    @classmethod
    def generator(cls, copy: int, index: int) -> "NCPolynomial":
        return cls({(letter(copy, index),): 1})

    # -- ring structure --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, NCPolynomial):
            return super().__mul__(other)
        return NCPolynomial(_concat(self.terms, other.terms))

    # -- text and JSON output ----------------------------------------------

    _sort_key = staticmethod(_term_key)
    _key_text = staticmethod(_word_text)

    def to_json(self) -> dict:
        return {
            "terms": [{"coeff": str(c), "word": _word_json(w)}
                      for w, c in self.sorted_terms()]
        }


class MultiMorphism:
    """Algebra homomorphism out of a labeled free algebra, given by its
    images on generators: ``image_fn(copy, index) -> NCPolynomial``.

    Images are fetched lazily, so that co-operation tables extend on
    demand. The one memo is ``image_terms``: the term list of each image,
    fetched on the first application that meets its letter and read by
    every later one.

    Applying it costs time linear in the output terms: each word is
    expanded once, over the Cartesian product of its letters' term lists,
    into one output dict, and a single ``NCPolynomial`` is built at the end.
    """

    def __init__(self, image_fn: Callable[[int, int], NCPolynomial]):
        self.image_fn = image_fn
        self.image_terms: dict[Letter, tuple[tuple[Word, int], ...]] = {}

    def __call__(self, p: NCPolynomial) -> NCPolynomial:
        out: dict[Word, int] = {}
        image_terms = self.image_terms
        for w, c in p.terms.items():
            factors = []
            for a in w:
                terms = image_terms.get(a)
                if terms is None:
                    terms = image_terms[a] = tuple(
                        self.image_fn(*a).terms.items())
                # the free algebra has no zero divisors, so the image of a
                # word vanishes exactly when a letter's image does
                if not terms:
                    break
                factors.append(terms)
            else:
                for choice in product(*factors):
                    word, coeff = (), c
                    for w2, c2 in choice:
                        word += w2
                        coeff *= c2
                    out[word] = out.get(word, 0) + coeff
        return NCPolynomial(out)


def fold(labelmap: Mapping[int, int], p: NCPolynomial) -> NCPolynomial:
    """Relabel copies, preserving letter order: an algebra homomorphism.

    The codiagonal ``mu`` is ``fold({1: 1, 2: 1})``; ``(id u mu)`` on three
    copies is ``fold({1: 1, 2: 2, 3: 2})``; embeddings and the canonical
    isomorphisms of the free product are the injective label maps. One
    relabeled letter object is shared by every word, through
    ``MultiMorphism.image_terms``.
    """
    try:
        return MultiMorphism(
            lambda cp, k: NCPolynomial.generator(labelmap[cp], k))(p)
    except KeyError as exc:
        raise StructuralError(f"label map {labelmap} undefined on copy {exc}")


# ---------------------------------------------------------------------------
# Tensors and the canonical projection.
# ---------------------------------------------------------------------------

TensorKey = tuple[Word, ...]


class TensorPoly(Sparse):
    """Integer combination of tuples of words, with an explicit scalar
    (length-0) component."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "TensorPoly":
        return cls()

    @classmethod
    def unit(cls) -> "TensorPoly":
        return cls({(): 1})

    def tensor(self, other: "TensorPoly") -> "TensorPoly":
        """The product of ``T(A)``: tuples concatenated."""
        return TensorPoly(_concat(self.terms, other.terms))

    def __mul__(self, other):
        """The product of ``H x ... x H``: tuples of one length multiplied
        word by word."""
        if not isinstance(other, TensorPoly):
            return super().__mul__(other)
        out: dict[TensorKey, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if len(k1) != len(k2):
                    raise StructuralError("tensor arity mismatch")
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return TensorPoly(out)

    @staticmethod
    def _sort_key(k: TensorKey) -> tuple:
        return (len(k), tuple(map(_term_key, k)))

    def _key_text(self, k: TensorKey) -> str:
        return " | ".join(_word_text(w) or "1" for w in k)


def project_pi(p: NCPolynomial, arity: int) -> TensorPoly:
    """Canonical projection: stably extract the subword of each copy and
    multiply within the copy, e.g. ``a1 b2 c1 d2 -> (ac) | (bd)``; each
    subword is written in copy-1 letters."""
    out: dict[TensorKey, int] = {}
    for w, c in p.terms.items():
        slots: list[list[Letter]] = [[] for _ in range(arity)]
        for cp, idx in w:
            if not 1 <= cp <= arity:
                raise StructuralError(f"copy {cp} outside arity {arity}")
            slots[cp - 1].append((1, idx))
        key = tuple(map(tuple, slots))
        out[key] = out.get(key, 0) + c
    return TensorPoly(out)


def evaluate(p: NCPolynomial, assignment: Callable[[int, int], object], one,
             right_nested: bool = False):
    """Evaluate under an algebra map sending each generator to an element
    of a unital algebra.

    ``assignment(copy, index)`` gives the image of a generator; words go
    to ordered products, the empty word to ``one``. A word's product is
    nested to the left, ``(a_1 a_2) a_3``, or with ``right_nested`` to
    the right, ``a_1 (a_2 a_3)``; the two agree over an associative
    algebra.
    """
    total = one * 0
    for w, c in p.terms.items():
        value = one
        for cp, idx in reversed(w) if right_nested else w:
            factor = assignment(cp, idx)
            value = factor * value if right_nested else value * factor
        total = total + value * c
    return total
