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
identity relating them. Left-hand scalar parts of ``a_1 |> R_l(...)``
reproduce the Lagrange coefficients of :mod:`loopseries.combinatorics`.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .combinatorics import (
    bit_sequences,
    compositions,
    is_m_sequence,
    m_sequences,
    m_sequences_labeled,
)
from .errors import StructuralError
from .freealg import NCPolynomial, Word, _add_terms, word_degree

TensorKey = tuple[Word, ...]


class GradedTensorPoly:
    """Integer combination of tensor monomials over the free algebra,
    with an explicit scalar (length-0) component."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[TensorKey, int] | None = None):
        self.terms: dict[TensorKey, int] = {
            k: c for k, c in (terms or {}).items() if c != 0
        }

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
        out = cls({(): coeff})
        for f in factors:
            if not isinstance(f, NCPolynomial):
                raise StructuralError("tensor factors must be polynomials")
            if f.is_zero():
                return cls.zero()
            if not f.is_homogeneous() or f.degree() < 1:
                raise StructuralError(
                    f"tensor factor must be homogeneous of positive degree: {f}")
            acc: dict[TensorKey, int] = {}
            for key, c in out.terms.items():
                for w, cw in f.terms.items():
                    nk = key + (w,)
                    acc[nk] = acc.get(nk, 0) + c * cw
            out = cls(acc)
        return out

    def __add__(self, other: "GradedTensorPoly") -> "GradedTensorPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return GradedTensorPoly(out)

    def __sub__(self, other: "GradedTensorPoly") -> "GradedTensorPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return GradedTensorPoly(out)

    def __neg__(self) -> "GradedTensorPoly":
        return GradedTensorPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar: int) -> "GradedTensorPoly":
        return GradedTensorPoly({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedTensorPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

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

    def sorted_terms(self):
        def key(k: TensorKey):
            return (len(k), tuple((word_degree(w), len(w), w) for w in k))
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def __str__(self) -> str:
        from .freealg import COPY_NAMES
        if not self.terms:
            return "0"
        chunks = []
        for k, c in self.sorted_terms():
            if not k:
                body = str(abs(c))
            else:
                slots = ["*".join(f"{COPY_NAMES[cp]}{i}" for cp, i in w)
                         for w in k]
                joined = " | ".join(slots)
                body = joined if abs(c) == 1 else f"{abs(c)}*{joined}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"GradedTensorPoly({self})"


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
        total = GradedTensorPoly.zero()
        for j in range(i):
            head = triangle(memo[j], element(factors[j]))
            tail = head
            for f in factors[j + 1: i]:
                tail = tail.tensor(element(f))
            total = total + (-1) ** (i - 1 - j) * tail
        memo.append(total)
    return memo[ell]


def right_op(factors: Sequence[NCPolynomial],
             mode: str = "recursive") -> GradedTensorPoly:
    """Right recursive operator ``R_l``.

    ``recursive`` evaluates the defining composition sum: for every
    ``j`` and every composition ``(p_1..p_j)`` of ``l``, the tensor of the
    blocks ``a_{P_{i-1}+1} |> R_{p_i - 1}(following letters)``. ``closed``
    sums the single-structure operators ``R_m`` over all M-sequences.
    ``R_1(a) = a`` and ``R_2(a, b) = a |> b + a (x) b``.
    """
    factors = _check_factors(factors)
    if mode == "closed":
        total = GradedTensorPoly.zero()
        for m in m_sequences(len(factors)):
            total = total + right_op_m(m, factors)
        return total if factors else GradedTensorPoly.unit()
    if mode != "recursive":
        raise StructuralError(f"unknown mode {mode!r}")
    return _right_recursive(tuple(factors), {})


def _right_recursive(factors: tuple[NCPolynomial, ...],
                     memo: dict) -> GradedTensorPoly:
    """``R_l`` by its defining sum; ``memo`` maps factor tuples to their
    ``R`` and lives for one top-level call."""
    got = memo.get(factors)
    if got is not None:
        return got
    ell = len(factors)
    if ell == 0:
        return GradedTensorPoly.unit()
    leads = [element(f) for f in factors]
    total: dict[TensorKey, int] = {}
    for j in range(1, ell + 1):
        for p in compositions(ell, j):
            prod = None
            pos = 0
            for pi in p:
                inner = _right_recursive(factors[pos + 1: pos + pi], memo)
                block = triangle(leads[pos], inner)
                prod = block if prod is None else prod.tensor(block)
                pos += pi
            _add_terms(total, prod.terms)
    got = memo[factors] = GradedTensorPoly(total)
    return got


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

    def build_item(i: int) -> tuple[NCPolynomial, int]:
        a = factors[i]
        nested = m[i + 1] if i + 1 < len(m) else 0
        if nested == 0:
            return a, i + 1
        items, nxt = build_items(i + 1, nested)
        coeff = math.comb(a.degree() + 1, nested)
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
    return GradedTensorPoly.from_factors(top)


def right_op_e(e: Sequence[int], factors: Sequence[NCPolynomial],
               mode: str = "recursive") -> GradedTensorPoly:
    """Labeled right recursive operator ``R_l^e``.

    Equals ``right_op`` when ``e = (1,..,1)`` and vanishes when ``e``
    starts with the bit 2. ``recursive`` follows the defining sum, in
    which the first block lead passes through ``R_1^(e_1)`` and each inner
    operator sees the bit slice aligned with its letters (the bits under
    the leads of later blocks are skipped); ``closed`` sums ``R_m`` over
    the restricted set ``M_l^e``.
    """
    factors = _check_factors(factors)
    e = tuple(e)
    if len(e) != len(factors):
        raise StructuralError(f"{len(e)} bits for {len(factors)} letters")
    if any(b not in (1, 2) for b in e):
        raise StructuralError(f"bits must be 1 or 2: {e}")
    if mode == "closed":
        total = GradedTensorPoly.zero()
        for m in m_sequences_labeled(len(factors), e):
            total = total + right_op_m(m, factors)
        return total if factors else GradedTensorPoly.unit()
    if mode != "recursive":
        raise StructuralError(f"unknown mode {mode!r}")
    return _right_labeled(e, tuple(factors), {})


def _right_labeled(e: tuple[int, ...], factors: tuple[NCPolynomial, ...],
                   memo: dict) -> GradedTensorPoly:
    """``R_l^e`` by its defining sum; ``memo`` maps ``(e, factors)`` to
    the result and lives for one top-level call."""
    ell = len(factors)
    if ell == 0:
        return GradedTensorPoly.unit()
    if ell == 1:
        return element(factors[0]) if e[0] == 1 else GradedTensorPoly.zero()
    if e[0] == 2:
        return GradedTensorPoly.zero()
    got = memo.get((e, factors))
    if got is not None:
        return got
    # the first lead passes through R_1^(e_1), which is the identity here
    # because e_1 = 1, so every lead is the plain element
    leads = [element(f) for f in factors]
    total: dict[TensorKey, int] = {}
    for j in range(1, ell + 1):
        for p in compositions(ell, j):
            prod = None
            pos = 0
            for pi in p:
                inner = _right_labeled(e[pos + 1: pos + pi],
                                       factors[pos + 1: pos + pi], memo)
                block = triangle(leads[pos], inner)
                prod = block if prod is None else prod.tensor(block)
                if prod.is_zero():
                    break
                pos += pi
            _add_terms(total, prod.terms)
    got = memo[(e, factors)] = GradedTensorPoly(total)
    return got


# ---------------------------------------------------------------------------
# Executable identity checks, quantified over formal degree assignments.
# ---------------------------------------------------------------------------

def _letters(degrees: Sequence[int]) -> list[NCPolynomial]:
    return [NCPolynomial.generator(1, n) for n in degrees]


def tensor_of(factors: Sequence[NCPolynomial]) -> GradedTensorPoly:
    """Plain tensor monomial of the given homogeneous entries."""
    out = GradedTensorPoly.unit()
    for f in factors:
        out = out.tensor(element(f))
    return out


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
            rhs = GradedTensorPoly.zero()
            for i in range(ell):
                head = triangle(element(a[0]), right_op(a[1: i + 1]))
                rhs = rhs + (-1) ** (ell - 1 - i) * triangle(
                    head, tensor_of(a[i + 1:]))
            if lhs != rhs:
                return False
        return True
    if identity == "R3":
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            lhs = triangle(element(a[0]), right_op(a[1:]))
            rhs = GradedTensorPoly.zero()
            for i in range(1, ell + 1):
                head = triangle(element(a[0]), tensor_of(a[1: i + 1]))
                rhs = rhs + (-1) ** (i - 1) * triangle(
                    head, right_op(a[i + 1:]))
            if lhs != rhs:
                return False
        return True
    if identity == "L3":
        for degs in _degree_tuples(ell, degree_bound):
            a = _letters(degs)
            lhs = left_op(a)
            rhs = (-1) ** (ell - 1) * tensor_of(a)
            for i in range(1, ell):
                head = triangle(element(a[0]), tensor_of(a[1: i + 1]))
                first = head.scalar_length_polynomial()
                rhs = rhs + (-1) ** (i - 1) * left_op([first] + a[i + 1:])
            if lhs != rhs:
                return False
        return True
    if identity == "Re1":
        if ell < 2:
            return True
        for degs in _degree_tuples(ell, degree_bound):
            a = _letters(degs)
            for e in bit_sequences(ell):
                lhs = right_op_e(e, a)
                rhs = triangle(right_op_e(e[:1], a[:1]),
                               right_op_e(e[1:], a[1:]))
                for i in range(1, ell):
                    tail = triangle(element(a[i]),
                                    right_op_e(e[i + 1:], a[i + 1:]))
                    rhs = rhs + right_op_e(e[:i], a[:i]).tensor(tail)
                if lhs != rhs:
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

