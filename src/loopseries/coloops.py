"""Co-operation tables for the two coloop bialgebras and their axiom battery.

Flavor ``inv`` represents invertible series (constant term 1) under the
pointwise product; flavor ``fdb`` represents formal diffeomorphisms under
composition. Each flavor carries generator tables for the coproduct, the
counit, the right and left codivisions and the two antipodes, living in
the labeled free algebra of :mod:`loopseries.freealg` (copy 1 letters
``x``, copy 2 letters ``y``, copy 3 letters ``z``).

Every entry of the coproduct and the two codivisions is a signed sum of
words, and each table is built once by adding the ``(word, coefficient)``
pairs of its direct formula into one term dict: the difference letter
``x_k - y_k`` becomes two words, and no polynomial product is taken. One
coproduct formula serves both flavors; ``inv`` keeps its ``l = 1`` terms
with unit coefficients (see ``_delta_words``). Both codivisions are one
word generator over ``combinatorics.codivision_terms``, the one place
that writes the closed formulas; the flavor only says whether the terms
carry (labeled) Lagrange coefficients. This direct formula is the one
route to each entry here; the tests rebuild the fdb entries by the
paper's second route and compare.

Every map has one name in one grammar, the image of a letter ``x_n``
under it (``Coloop.image``). A spec is a table or letter name
(``delta``, ``counit``, ``delta_r``, ``delta_l``, ``s_r``, ``s_l``, ``x``,
``y``, ``z``) or a tuple ``(name, *specs)``: the image of ``name`` under
the algebra map sending copy ``i`` through ``specs[i - 1]``. So
``mu . Delta_r`` is ``("delta_r", "x", "x")`` and ``S_r`` moved to copy 2
is ``("s_r", "y")``. ``coop`` prints an image, and ``AXIOMS`` writes each
axiom's pairs of sides as specs, so a new axiom is one row of that table.
The battery covers the counitary property, the four cocancellations,
partial counitality, the 5-terms identities, ``mu . codivision = unit .
counit``, the coinverse properties and the two-sided antipode; the
antipodes, the coassociator and its folds are written in the same
grammar. A copy relabeling after a morphism is composed into the
morphism's images, so a composite is one morphism application per tuple.

The tables represent the series loops over every unital carrier: under
``x_k -> a_k`` and ``y_k -> b_k`` each table's words, nested as
``Coloop._RIGHT_NESTED`` states, give the law, the divisions and the
inverses of ``loopseries.seriesloops`` (``freealg.evaluate``).
"""

from __future__ import annotations

import math
from typing import Callable

from . import COLOOP_FLAVORS, SIDES, StructuralError, _choose
from .combinatorics import codivision_terms, compositions
from .freealg import (
    MultiMorphism,
    NCPolynomial,
    TensorPoly,
    project_pi,
)


def _letters(n: int) -> tuple:
    """``letters[bit][k]``: one ``(copy, k)`` object per letter of copies
    1 and 2 up to ``k = n``, shared by every word of a table build; the
    bit 0 reads copy 1 first."""
    x, y = ([(cp, k) for k in range(n + 1)] for cp in (1, 2))
    return x, x, y


def _signed_sum(words) -> NCPolynomial:
    """The polynomial of ``(word, coefficient)`` pairs, added into one
    term dict; a word may repeat and coefficients may cancel."""
    terms: dict = {}
    for w, c in words:
        terms[w] = terms.get(w, 0) + c
    return NCPolynomial(terms)


class Coloop:
    """Generator tables of one coloop bialgebra, cached by degree."""

    def __init__(self, flavor: str):
        self.flavor = _choose("flavor", flavor, COLOOP_FLAVORS)
        self._cache: dict[tuple[str, int], NCPolynomial] = {}
        self._homs: dict[tuple[str, ...], MultiMorphism] = {}

    # -- table entries ------------------------------------------------------

    def coproduct(self, n: int) -> NCPolynomial:
        return self._entry("delta", n)

    # a side's tables end in its initial: delta_r and s_r, delta_l and s_l
    def codivision(self, side: str, n: int) -> NCPolynomial:
        return self._entry("delta_" + _choose("side", side, SIDES)[0], n)

    def antipode(self, side: str, n: int) -> NCPolynomial:
        """``S_r = (counit u id) delta_r`` resp.
        ``S_l = (id u counit) delta_l``,
        written in one copy."""
        return self._entry("s_" + _choose("side", side, SIDES)[0], n)

    def _entry(self, kind: str, n: int) -> NCPolynomial:
        if n < 1:
            raise StructuralError("tables are indexed by n >= 1")
        key = (kind, n)
        got = self._cache.get(key)
        if got is None:
            got = getattr(self, f"_build_{kind}")(n)
            self._cache[key] = got
        return got

    # -- table builds: signed words summed into one term dict ---------------

    def _build_delta(self, n: int) -> NCPolynomial:
        return _signed_sum(self._delta_words(n))

    def _delta_words(self, n: int):
        """``x_n + y_n`` and ``c x_{k0} y_{k1} ... y_{kl}`` over the
        compositions ``k`` of ``n``: ``c = binom(k_0 + 1, l)`` for fdb, and
        inv keeps the ``l = 1`` terms with ``c = 1``."""
        fdb = self.flavor == "fdb"
        x, _, y = _letters(n)
        yield (x[n],), 1
        yield (y[n],), 1
        for ell in range(1, n if fdb else min(n, 2)):
            for comp in compositions(n, ell + 1):
                yield ((x[comp[0]],) + tuple([y[k] for k in comp[1:]]),
                       math.comb(comp[0] + 1, ell) if fdb else 1)

    def _build_delta_r(self, n: int) -> NCPolynomial:
        return _signed_sum(self._codivision_words("right", n))

    def _build_delta_l(self, n: int) -> NCPolynomial:
        return _signed_sum(self._codivision_words("left", n))

    def _codivision_words(self, side: str, n: int):
        """``c w`` for each term ``(c, bits, comp)`` of
        ``codivision_terms``, letter ``i`` of ``w`` read off ``bits[i]``;
        the difference letter (bit 0) gives two words, ``x_k`` with ``c``
        and ``y_k`` with ``-c``."""
        letters = _letters(n)
        at = 0 if side == "right" else -1
        for c, bits, comp in codivision_terms(side, self.flavor == "fdb", n):
            word = [letters[bit][k] for bit, k in zip(bits, comp)]
            yield tuple(word), c
            word[at] = letters[2][comp[at]]
            yield tuple(word), -c

    def _build_s_r(self, n: int) -> NCPolynomial:
        return self.image(("delta_r", "counit", "x"), n)

    def _build_s_l(self, n: int) -> NCPolynomial:
        return self.image(("delta_l", "x", "counit"), n)

    # -- composition engine ---------------------------------------------------

    # Images of the letters ``x_k`` of one copy, by name.
    _IMAGES: dict[str, Callable[["Coloop", int], NCPolynomial]] = {
        "x": lambda self, k: NCPolynomial.generator(1, k),
        "y": lambda self, k: NCPolynomial.generator(2, k),
        "z": lambda self, k: NCPolynomial.generator(3, k),
        "counit": lambda self, k: NCPolynomial.zero(),
        "delta": lambda self, k: self.coproduct(k),
        "delta_r": lambda self, k: self.codivision("right", k),
        "delta_l": lambda self, k: self.codivision("left", k),
        "s_r": lambda self, k: self.antipode("right", k),
        "s_l": lambda self, k: self.antipode("left", k),
    }
    # The tables whose words a coefficient assignment evaluates nested to
    # the right, ``a_1 (a_2 a_3)``, as the left division does; every other
    # table nests to the left, as the right division does. The nesting
    # matters only over a non-associative carrier, so only for ``inv``.
    _RIGHT_NESTED = ("delta_l", "s_l")

    def image(self, spec, n: int) -> NCPolynomial:
        """The image of ``x_n`` under the map ``spec``: a name of
        ``_IMAGES``, or ``(name, *specs)``, the image of ``name`` under
        ``_hom(*specs)``."""
        if isinstance(spec, tuple) and spec:
            name, *specs = spec
            return self._hom(*specs)(self.image(name, n))
        fn = self._IMAGES.get(spec) if isinstance(spec, str) else None
        if fn is None:
            raise StructuralError(f"unknown image {spec!r}")
        if n < 1:
            raise StructuralError("tables are indexed by n >= 1")
        return fn(self, n)

    def _hom(self, *specs) -> MultiMorphism:
        """The algebra map sending the letters of copy ``i`` through the
        image ``specs[i - 1]``. One map per spec tuple and coloop, so its
        ``image_terms`` memo serves every degree and every axiom."""
        got = self._homs.get(specs)
        if got is None:
            def image_fn(cp: int, k: int) -> NCPolynomial:
                if cp > len(specs):
                    raise StructuralError(
                        f"{specs} has no image for copy {cp}")
                return self.image(specs[cp - 1], k)
            got = self._homs[specs] = MultiMorphism(image_fn)
        return got

    def coassociator(self, n: int) -> NCPolynomial:
        """``K = (Delta u id) Delta - (id u Delta) Delta`` in three copies."""
        return (self.image(("delta", "delta", "z"), n)
                - self.image(("delta", "x", ("delta", "y", "z")), n))

    def coassociator_fold1(self, n: int) -> NCPolynomial:
        """``(id u mu) K``: the right-coalternativity defect."""
        return self._hom("x", "y", "y")(self.coassociator(n))

    def coassociator_fold2(self, n: int) -> NCPolynomial:
        """``mu (id u mu) K``: the power-associativity defect."""
        return self._hom("x", "x", "x")(self.coassociator(n))

    def projected_coproduct(self, n: int) -> TensorPoly:
        """``Delta^(x) = pi . Delta``: the induced tensor comultiplication,
        a ``TensorPoly`` of pairs of copy-1 words, the coproduct of the
        non-commutative Faa di Bruno Hopf algebra for ``fdb``."""
        return project_pi(self.coproduct(n), 2)

    # -- axioms ----------------------------------------------------------------

    def axiom_check(self, axiom: str, n: int
                    ) -> tuple[bool, NCPolynomial | None]:
        """Evaluate one coloop axiom on the generator ``x_n``.

        Returns ``(holds, discrepancy)`` where the discrepancy is the exact
        difference of the two sides when they differ (``None`` otherwise).
        All maps involved are algebra homomorphisms, so generator-level
        verification is sufficient.
        """
        for lhs, rhs in self._axiom_sides(axiom, n):
            if lhs != rhs:
                return False, lhs - rhs
        return True, None

    def _axiom_sides(self, axiom: str, n: int):
        """The pairs of sides of ``axiom`` on ``x_n``, read from
        ``AXIOMS``."""
        rows = AXIOMS[_choose("axiom", axiom, AXIOMS)]
        return [(self.image(lhs, n), self.image(rhs, n)) for lhs, rhs in rows]


# Each axiom's pairs of sides on x_n, as image specs. A fold after a
# morphism is the morphism whose images are already folded, so
# ``(id u mu)(Delta_r u id) Delta`` is ``("delta", "delta_r", "y")`` and
# ``mu (S_r u id) Delta`` is ``("delta", "s_r", "x")``.
AXIOMS: dict[str, tuple] = {
    "counit": ((("delta", "counit", "y"), "y"),
               (("delta", "x", "counit"), "x")),
    "right-cocancel-1": ((("delta", "delta_r", "y"), "x"),),
    "right-cocancel-2": ((("delta_r", "delta", "y"), "x"),),
    "left-cocancel-1": ((("delta", "x", "delta_l"), "y"),),
    "left-cocancel-2": ((("delta_l", "x", "delta"), "y"),),
    "partial-counit": ((("delta_r", "x", "counit"), "x"),
                       (("delta_l", "counit", "y"), "y")),
    "five-terms-left": ((("delta", "s_r", "x"), "counit"),),
    "five-terms-right": ((("delta", "x", "s_l"), "counit"),),
    "mu-delta": ((("delta_r", "x", "x"), "counit"),
                 (("delta_l", "x", "x"), "counit")),
    "coinverse-right": (("delta_r", ("delta", "x", ("s_r", "y"))),),
    "coinverse-left": (("delta_l", ("delta", "s_l", "y")),),
    "antipode-two-sided": (("s_r", "s_l"),),
}

# Known negative results: axioms that are REQUIRED to fail,
# keyed by (flavor, axiom) with the degree of first failure. In the
# associative symbolic ring the invertible flavor is a cogroup, so its
# coinverse checks hold; its genuinely non-associative failures are
# reproduced over Cayley-Dickson coefficients in loopseries.witnesses.
EXPECTED_FAILURES: dict[tuple[str, str], int] = {
    ("fdb", "coinverse-left"): 3,
}


_COLOOPS: dict[str, Coloop] = {}


def get_coloop(flavor: str) -> Coloop:
    got = _COLOOPS.get(flavor)
    if got is None:
        got = Coloop(flavor)
        _COLOOPS[flavor] = got
    return got
