"""The graded operation ``|>`` and the recursive operators on ``T(A)``.

``A`` is the positive part of the labeled free algebra of
:mod:`loopseries.freealg`; a tensor element is held fully expanded, as an
integer combination of tuples of words (the scalar component is the empty
tuple). On monomials the graded operation is

    a |> (b_1 (x) ... (x) b_l)            = binom(|a|+1, l) a b_1 ... b_l
    (a_1 (x)...(x) a_p) |> (b_1 (x)...(x) b_q)
                                          = binom(|a_1|+1, p+q-1) a_1...b_q

together with ``1 |> 1 = 1``, ``1 |> b = b``, ``1 |> (length >= 2) = 0``
and ``a |> 1 = a``; it is extended bilinearly.

On top of it sit the left operator ``L_l``, the right operator ``R_l``,
the single-structure operators ``R_m`` indexed by M-sequences, and the
labeled operators ``R_l^e``, each available both through its recursive
definition and through its closed form, plus executable checks for every
identity relating them. ``R_l`` and ``R_l^e`` share one recursion, the
defining sum grouped by its first block (see ``right_op_e``), so a memo
entry costs ``l`` blocks rather than ``2^(l-1)`` compositions. Left-hand
scalar parts of ``a_1 |> R_l(...)`` reproduce the Lagrange coefficients
of :mod:`loopseries.combinatorics`.

``GradedTensorPoly`` is a ``freealg.Sparse`` combination: it inherits the
linear structure and text form and adds its key order and ``tensor``.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .combinatorics import (
    bit_sequences,
    is_m_sequence,
    m_sequences,
    m_sequences_labeled,
)
from .errors import StructuralError
from .freealg import COPY_NAMES, NCPolynomial, Sparse, Word, word_degree

TensorKey = tuple[Word, ...]


class GradedTensorPoly(Sparse):
    """Integer combination of tensor monomials over the free algebra,
    with an explicit scalar (length-0) component."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "GradedTensorPoly":
        return cls()

    @classmethod
    def unit(cls) -> "GradedTensorPoly":
        return cls({(): 1})

    @classmethod
    def from_factors(cls, factors: Sequence[NCPolynomial],
                     coeff: int = 1) -> "GradedTensorPoly":
        """Tensor monomial with polynomial entries, expanded bilinearly.

        Every factor must be homogeneous of positive degree (so that a
        difference like ``x_n - y_n`` is a legal degree-``n`` entry).
        """
        for f in factors:
            if not isinstance(f, NCPolynomial):
                raise StructuralError("tensor factors must be polynomials")
            if f.is_zero():
                return cls.zero()
            if not f.is_homogeneous() or f.degree() < 1:
                raise StructuralError(
                    f"tensor factor must be homogeneous of positive degree: {f}")
        return _tensor_monomial(factors, coeff)

    def tensor(self, other: "GradedTensorPoly") -> "GradedTensorPoly":
        out: dict[TensorKey, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return GradedTensorPoly(out)

    def length_part(self, length: int) -> "GradedTensorPoly":
        return GradedTensorPoly(
            {k: c for k, c in self.terms.items() if len(k) == length})

    def scalar_length_polynomial(self) -> NCPolynomial:
        """The length-1 component as a plain polynomial (plus nothing of
        the scalar component)."""
        return NCPolynomial(
            {k[0]: c for k, c in self.terms.items() if len(k) == 1})

    @staticmethod
    def _sort_key(k: TensorKey) -> tuple:
        return (len(k), tuple((word_degree(w), len(w), w) for w in k))

    def _key_text(self, k: TensorKey) -> str:
        return " | ".join("*".join(f"{COPY_NAMES[cp]}{i}" for cp, i in w)
                          for w in k)


def _tensor_monomial(factors: Sequence[NCPolynomial],
                     coeff: int = 1) -> GradedTensorPoly:
    """``from_factors`` without its checks, for nonzero factors that the
    caller has validated or built from validated ones."""
    out: dict[TensorKey, int] = {(): coeff}
    for f in factors:
        acc: dict[TensorKey, int] = {}
        for key, c in out.items():
            for w, cw in f.terms.items():
                nk = key + (w,)
                acc[nk] = acc.get(nk, 0) + c * cw
        out = acc
    return GradedTensorPoly(out)


def _mono_triangle(lk: TensorKey, rk: TensorKey) -> tuple[int, TensorKey]:
    """``|>`` on one pair of monomial keys; returns (coefficient, key)."""
    if not lk:
        if len(rk) <= 1:
            return 1, rk
        return 0, ()
    deg = word_degree(lk[0])
    k = len(lk) + len(rk) - 1
    coeff = math.comb(deg + 1, k)
    if coeff == 0:
        return 0, ()
    merged: Word = tuple(itertools.chain.from_iterable(lk + rk))
    return coeff, (merged,)


def triangle(lhs: GradedTensorPoly, rhs: GradedTensorPoly) -> GradedTensorPoly:
    """The graded operation ``lhs |> rhs``, extended bilinearly."""
    out: dict[TensorKey, int] = {}
    for lk, lc in lhs.terms.items():
        for rk, rc in rhs.terms.items():
            coeff, key = _mono_triangle(lk, rk)
            if coeff:
                out[key] = out.get(key, 0) + lc * rc * coeff
    return GradedTensorPoly(out)


def element(p: NCPolynomial) -> GradedTensorPoly:
    """A single homogeneous algebra element as a length-1 tensor."""
    return GradedTensorPoly.from_factors([p])


def _check_factors(factors: Sequence[NCPolynomial]) -> list[NCPolynomial]:
    factors = list(factors)
    for f in factors:
        if not isinstance(f, NCPolynomial) or not f.is_homogeneous() \
                or f.degree() < 1:
            raise StructuralError(
                f"operator inputs must be homogeneous of positive degree: {f}")
    return factors


def left_op(factors: Sequence[NCPolynomial],
            mode: str = "recursive") -> GradedTensorPoly:
    """Left recursive operator ``L_l``.

    ``recursive`` evaluates the defining alternating sum

        L_l(a_1..a_l) = sum_i (-1)^(l-1-i) (L_i(a_1..a_i) |> a_{i+1})
                         (x) a_{i+2} (x) ... (x) a_l ,

    ``closed`` evaluates the one-step form ``L_l = L_{l-1} |> a_l -
    L_{l-1} (x) a_l``, i.e. the signed sum of all 2^(l-1) left-nested
    ``|>``/tensor combinations. Both agree; ``L_1(a) = a``.
    """
    factors = _check_factors(factors)
    ell = len(factors)
    if ell == 0:
        return GradedTensorPoly.unit()
    if mode == "closed":
        acc = element(factors[0])
        for f in factors[1:]:
            e = element(f)
            acc = triangle(acc, e) - acc.tensor(e)
        return acc
    if mode != "recursive":
        raise StructuralError(f"unknown mode {mode!r}")
    memo: list[GradedTensorPoly] = [GradedTensorPoly.unit()]
    for i in range(1, ell + 1):
        memo.append(GradedTensorPoly.sum(
            (-1) ** (i - 1 - j)
            * triangle(memo[j], element(factors[j])).tensor(
                GradedTensorPoly.from_factors(factors[j + 1: i]))
            for j in range(i)))
    return memo[ell]


def right_op(factors: Sequence[NCPolynomial],
             mode: str = "recursive") -> GradedTensorPoly:
    """Right recursive operator ``R_l``.

    The defining sum runs over every composition ``(p_1..p_j)`` of ``l``
    and tensors the blocks ``a_{P_{i-1}+1} |> R_{p_i - 1}(following
    letters)``. Grouping it by the first block gives the factorization

        R_l(a_1..a_l) = sum_p (a_1 |> R_{p-1}(a_2..a_p)) (x) R_{l-p}(a_{p+1}..a_l),

    which ``recursive`` evaluates, as ``right_op_e`` with all bits 1.
    ``closed`` sums the single-structure operators ``R_m`` over all
    M-sequences. ``R_1(a) = a`` and ``R_2(a, b) = a |> b + a (x) b``.
    """
    factors = _check_factors(factors)
    if mode == "closed":
        return _closed_sum(m_sequences(len(factors)), factors)
    if mode != "recursive":
        raise StructuralError(f"unknown mode {mode!r}")
    return _right_labeled((1,) * len(factors), tuple(factors), {})


def _closed_sum(msequences, factors: list[NCPolynomial]) -> GradedTensorPoly:
    """The sum of ``R_m`` over ``msequences`` on checked ``factors``; the
    unit on no letters. The sequences come from ``m_sequences`` or
    ``m_sequences_labeled``, so they are M-sequences of the right length
    and ``_right_op_m`` checks nothing."""
    if not factors:
        return GradedTensorPoly.unit()
    degrees = [f.degree() for f in factors]
    return GradedTensorPoly.sum(_right_op_m(m, factors, degrees)
                                for m in msequences)


def right_op_m(m: Sequence[int],
               factors: Sequence[NCPolynomial]) -> GradedTensorPoly:
    """Single-structure operator ``R_m`` for an M-sequence ``m``.

    ``m_1`` is the number of tensor factors; scanning the letters, a zero
    entry ``m_{i+1}`` closes the current item after ``a_i`` while a value
    ``c > 0`` opens ``a_i |> (item ... item)`` over the next ``c`` items.
    The result is one tensor monomial whose total coefficient is
    ``prod_i binom(|a_i|+1, m_{i+1})`` (trailing entry read as 0).
    """
    factors = _check_factors(factors)
    m = tuple(m)
    if not is_m_sequence(m) or len(m) != len(factors):
        raise StructuralError(f"{m} is not an M-sequence matching the input")
    if not m:
        return GradedTensorPoly.unit()
    return _right_op_m(m, factors, [f.degree() for f in factors])


def _right_op_m(m: tuple[int, ...], factors: list[NCPolynomial],
                degrees: list[int]) -> GradedTensorPoly:
    """``R_m`` for a nonempty M-sequence ``m`` of the length of
    ``factors``, which are homogeneous of the positive ``degrees``."""

    def build_item(i: int) -> tuple[NCPolynomial, int]:
        a = factors[i]
        nested = m[i + 1] if i + 1 < len(m) else 0
        if nested == 0:
            return a, i + 1
        items, nxt = build_items(i + 1, nested)
        coeff = math.comb(degrees[i] + 1, nested)
        prod = a * coeff
        for it in items:
            prod = prod * it
        return prod, nxt

    def build_items(i: int, count: int) -> tuple[list[NCPolynomial], int]:
        items = []
        for _ in range(count):
            item, i = build_item(i)
            items.append(item)
        return items, i

    top, end = build_items(0, m[0])
    if end != len(m):
        raise StructuralError(f"sequence {m} does not parse to length {len(m)}")
    if any(f.is_zero() for f in top):
        return GradedTensorPoly.zero()
    return _tensor_monomial(top)


def right_op_e(e: Sequence[int], factors: Sequence[NCPolynomial],
               mode: str = "recursive") -> GradedTensorPoly:
    """Labeled right recursive operator ``R_l^e``.

    Equals ``right_op`` when ``e = (1,..,1)`` and vanishes when ``e``
    starts with the bit 2. In the defining sum the first block lead passes
    through ``R_1^(e_1)`` and each inner operator sees the bit slice
    aligned with its letters; the bits under the leads of later blocks
    are ignored. Grouping it by the first block gives

        R^e(a_1..a_l) = sum_p (a_1 |> R^(e_2..e_p)(a_2..a_p))
                              (x) R^(1, e_(p+2)..e_l)(a_(p+1)..a_l)

    for ``e_1 = 1``, with ``R`` of no letters the unit; the suffix's first
    bit is 1 because it sits under a later block lead. ``recursive``
    evaluates this with a memo that lives for one call; ``closed`` sums
    ``R_m`` over the restricted set ``M_l^e``.
    """
    factors = _check_factors(factors)
    e = tuple(e)
    if len(e) != len(factors):
        raise StructuralError(f"{len(e)} bits for {len(factors)} letters")
    if any(b not in (1, 2) for b in e):
        raise StructuralError(f"bits must be 1 or 2: {e}")
    if mode == "closed":
        return _closed_sum(m_sequences_labeled(len(factors), e), factors)
    if mode != "recursive":
        raise StructuralError(f"unknown mode {mode!r}")
    return _right_labeled(e, tuple(factors), {})


def _right_labeled(e: tuple[int, ...], factors: tuple[NCPolynomial, ...],
                   memo: dict) -> GradedTensorPoly:
    """``R_l^e`` by its first-block factorization; ``memo`` maps
    ``(e, factors)`` to the result and lives for one top-level call."""
    ell = len(factors)
    if ell == 0:
        return GradedTensorPoly.unit()
    if e[0] == 2:
        return GradedTensorPoly.zero()
    if ell == 1:
        return element(factors[0])
    got = memo.get((e, factors))
    if got is not None:
        return got
    lead = element(factors[0])
    blocks = []
    for p in range(1, ell + 1):
        block = triangle(lead, _right_labeled(e[1:p], factors[1:p], memo))
        if p < ell and not block.is_zero():
            block = block.tensor(_right_labeled(
                (1,) + e[p + 1:], factors[p:], memo))
        blocks.append(block)
    got = memo[(e, factors)] = GradedTensorPoly.sum(blocks)
    return got


# ---------------------------------------------------------------------------
# Executable identity checks, quantified over formal degree assignments.
# ---------------------------------------------------------------------------

def _letters(degrees: Sequence[int]) -> list[NCPolynomial]:
    return [NCPolynomial.generator(1, n) for n in degrees]


def _degree_tuples(count: int, bound: int):
    return itertools.product(range(1, bound + 1), repeat=count)


def operator_identity_check(identity: str, ell: int,
                            degree_bound: int = 2) -> bool:
    """Verify one proved operator identity symbolically.

    Both sides are expanded over the free algebra for every assignment of
    generator degrees ``<= degree_bound`` to the letters (and for ``Re1``
    additionally over every bit sequence); since the expansions are
    multilinear with integer coefficients that depend only on the degrees,
    agreement here proves the identity over every positively graded
    algebra. Identities: ``LR``, ``R2``, ``R3``, ``L3``, ``Re1``, ``R1``.
    """
    if ell < 1:
        raise StructuralError("identity checks need ell >= 1")
    if identity == "LR":
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            lhs = triangle(element(a[0]), right_op(a[1:]))
            rhs = triangle(left_op(a[:-1]), element(a[-1]))
            if lhs != rhs:
                return False
        return True
    if identity == "R2":
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            lhs = triangle(element(a[0]), right_op(a[1:]))
            rhs = GradedTensorPoly.sum(
                (-1) ** (ell - 1 - i) * triangle(
                    triangle(element(a[0]), right_op(a[1: i + 1])),
                    GradedTensorPoly.from_factors(a[i + 1:]))
                for i in range(ell))
            if lhs != rhs:
                return False
        return True
    if identity == "R3":
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            lhs = triangle(element(a[0]), right_op(a[1:]))
            rhs = GradedTensorPoly.sum(
                (-1) ** (i - 1) * triangle(
                    triangle(element(a[0]),
                             GradedTensorPoly.from_factors(a[1: i + 1])),
                    right_op(a[i + 1:]))
                for i in range(1, ell + 1))
            if lhs != rhs:
                return False
        return True
    if identity == "L3":
        for degs in _degree_tuples(ell, degree_bound):
            a = _letters(degs)
            lhs = left_op(a)
            parts = [(-1) ** (ell - 1) * GradedTensorPoly.from_factors(a)]
            for i in range(1, ell):
                head = triangle(element(a[0]),
                                GradedTensorPoly.from_factors(a[1: i + 1]))
                first = head.scalar_length_polynomial()
                parts.append((-1) ** (i - 1) * left_op([first] + a[i + 1:]))
            if lhs != GradedTensorPoly.sum(parts):
                return False
        return True
    if identity == "Re1":
        if ell < 2:
            return True
        for degs in _degree_tuples(ell, degree_bound):
            a = _letters(degs)
            for e in bit_sequences(ell):
                lhs = right_op_e(e, a)
                parts = [triangle(right_op_e(e[:1], a[:1]),
                                  right_op_e(e[1:], a[1:]))]
                for i in range(1, ell):
                    tail = triangle(element(a[i]),
                                    right_op_e(e[i + 1:], a[i + 1:]))
                    parts.append(right_op_e(e[:i], a[:i]).tensor(tail))
                if lhs != GradedTensorPoly.sum(parts):
                    return False
        return True
    if identity == "R1":
        from .combinatorics import lagrange_d, lagrange_d_labeled
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            product = NCPolynomial.one()
            for f in a:
                product = product * f
            for m in m_sequences(ell):
                got = triangle(element(a[0]), right_op_m(m, a[1:]))
                coeff = math.prod(
                    math.comb(degs[i] + 1, m[i]) for i in range(ell))
                if got != GradedTensorPoly.from_factors([product], coeff):
                    return False
            full = triangle(element(a[0]), right_op(a[1:]))
            want = GradedTensorPoly.from_factors(
                [product], lagrange_d(degs[:ell]))
            if full != want:
                return False
            for e in bit_sequences(ell):
                got = triangle(element(a[0]), right_op_e(e, a[1:]))
                de = lagrange_d_labeled(e, degs[:ell])
                want = (GradedTensorPoly.from_factors([product], de)
                        if de else GradedTensorPoly.zero())
                if got != want:
                    return False
        return True
    raise StructuralError(f"unknown identity {identity!r}")

