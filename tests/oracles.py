"""Checks, oracles and samplers that only the tests use.

The library computes each result by one route; the second routes that
the tests compare it with live here: the recursive Cayley-Dickson
doubling, the matrix entry loop, the proved Lagrange-coefficient
recurrences, the filtered index set ``M(l)^e`` behind ``d^e``, the tuple
form of the tree bijection, the operator identities, the fdb tables
rebuilt from the recursive operators, the nested-item parse of ``R_m``,
tensor coassociativity and the tuple-sum form of the non-commutative Faa
di Bruno coproduct over weak compositions, the seeded samplers of
random coefficients and the generic series over the free algebra. So do
the test-only structures: the octonion loops of invertible and of
norm-one elements, divided through the conjugate,
the eight-element hyperbolic-quaternion loop with its table-derived
division and loop axioms, the checked tensor constructors, the text
parser of the free algebra (the inverse of its text form), the linear
section of ``pi`` and the leaf count of a tree.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from random import Random
from typing import Sequence

from loopseries import DomainError, StructuralError
from loopseries.algebras import CDElement, MatrixElement
from loopseries.coloops import get_coloop
from loopseries.combinatorics import (
    bit_sequences,
    bit_sign,
    check_lagrange_args,
    compositions,
    is_m_sequence,
    lagrange_d,
    lagrange_d_labeled,
    m_sequences,
)
from loopseries.freealg import (
    COPY_NAMES,
    Letter,
    NCPolynomial,
    TensorPoly,
    Word,
    letter,
)
from loopseries.operators import (
    _check_factors,
    _tensor_monomial,
    left_op,
    right_op,
    right_op_e,
    right_op_m,
    triangle,
)
from loopseries.seriesloops import TruncatedSeries
from loopseries.witnesses import DoubledElement


# -- coefficient algebras -----------------------------------------------------

def doubling_conj(coords: tuple) -> list:
    if len(coords) == 1:
        return [coords[0]]
    half = len(coords) // 2
    a = doubling_conj(coords[:half])
    return a + [-c for c in coords[half:]]


def doubling_mul(x: tuple, y: tuple) -> list:
    """Doubling product ``(a, b)(c, d) = (ac - d*b, da + bc*)`` on
    coordinate tuples; the oracle of the sign-table product."""
    if len(x) == 1:
        return [x[0] * y[0]]
    half = len(x) // 2
    a, b = x[:half], x[half:]
    c, d = y[:half], y[half:]
    d_conj = doubling_conj(d)
    c_conj = doubling_conj(c)
    first = [p - q for p, q in zip(doubling_mul(a, c), doubling_mul(d_conj, b))]
    second = [p + q for p, q in zip(doubling_mul(d, a), doubling_mul(b, c_conj))]
    return first + second


def _generic_matmul(x, y) -> list[list]:
    """Row-by-column product of two square grids using only the entries'
    ``*`` and ``+``; the oracle of both integer matrix products."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                term = x[i][k] * y[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def cd_mul(x: CDElement, y: CDElement) -> CDElement:
    return x * y


def cd_conj(x: CDElement) -> CDElement:
    return x.conj()


def cd_norm(x: CDElement) -> Fraction:
    """Scalar part of ``x x*``; for any level this is the coordinate sum
    of squares (norm multiplicativity, not scalarity, is what breaks at
    level 4)."""
    n = x * x.conj()
    return n.coords[0]


def octonion_loop_div(kind: str, side: str, x: CDElement,
                      y: CDElement) -> CDElement:
    """Division in the loops of Cayley-Dickson elements through the
    conjugate: ``I``, the invertible elements, ``x^{-1} = x* / n(x)``;
    ``U``, the norm-one elements, ``x^{-1} = x*``. A genuine loop
    division exactly on the alternative levels, up to the octonions."""
    n = cd_norm(x)
    if kind == "I":
        if n == 0:
            raise DomainError("division by an element of norm zero")
        inv = x.conj() * (1 / n)
    elif kind == "U":
        if n != 1:
            raise DomainError("kind U needs a norm-one element")
        inv = x.conj()
    else:
        raise StructuralError(f"unknown element loop {kind!r}")
    return inv * y if side == "left" else y * inv


def double(a, b) -> DoubledElement:
    return DoubledElement(a, b)


class HQUnit:
    """Element of the eight-element hyperbolic-quaternion loop
    ``{+-1, +-i, +-j, +-k}`` with ``i^2 = j^2 = k^2 = 1`` and
    ``ij = k = -ji``, ``jk = i = -kj``, ``ki = j = -ik``."""

    __slots__ = ("sign", "basis")
    _TABLE = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
        ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (1, "1"),
        ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"),
        ("j", "j"): (1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"),
        ("k", "j"): (-1, "i"), ("k", "k"): (1, "1"),
    }

    def __init__(self, sign: int, basis: str):
        if sign not in (1, -1) or basis not in ("1", "i", "j", "k"):
            raise StructuralError(f"bad hyperbolic-quaternion unit {sign}*{basis}")
        self.sign = sign
        self.basis = basis

    def __mul__(self, other: "HQUnit") -> "HQUnit":
        s, b = self._TABLE[(self.basis, other.basis)]
        return HQUnit(self.sign * other.sign * s, b)

    def __neg__(self) -> "HQUnit":
        return HQUnit(-self.sign, self.basis)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HQUnit) and other.sign == self.sign
                and other.basis == self.basis)

    def __hash__(self) -> int:
        return hash((self.sign, self.basis))

    def __str__(self) -> str:
        return self.basis if self.sign == 1 else f"-{self.basis}"

    __repr__ = __str__


def hq_elements() -> list[HQUnit]:
    return [HQUnit(s, b) for b in ("1", "i", "j", "k") for s in (1, -1)]


def hq_divide(side: str, x: HQUnit, y: HQUnit) -> HQUnit:
    """Table-derived division: left gives the unique ``c`` with ``x c = y``,
    right the unique ``c`` with ``c x = y``."""
    sols = [c for c in hq_elements()
            if (x * c if side == "left" else c * x) == y]
    if len(sols) != 1:
        raise StructuralError(f"division not unique: {len(sols)} solutions")
    return sols[0]


def hq_mul(x: HQUnit, y: HQUnit) -> HQUnit:
    return x * y


def hq_loop_axioms() -> dict:
    """Verify the loop axioms for the hyperbolic-quaternion table.

    Returns a report: Latin-square property, two-sided unit, the four
    cancellation laws over all pairs, and a witness of non-associativity
    found by exhaustive search.
    """
    elems = hq_elements()
    n = len(elems)
    rows_ok = all(len({x * y for y in elems}) == n for x in elems)
    cols_ok = all(len({x * y for x in elems}) == n for y in elems)
    unit = HQUnit(1, "1")
    unit_ok = all(unit * x == x and x * unit == x for x in elems)
    cancel_ok = True
    for x in elems:
        for y in elems:
            ld = hq_divide("left", x, y)
            rd = hq_divide("right", x, y)
            if x * ld != y or not hq_divide("left", x, x * y) == y:
                cancel_ok = False
            if rd * x != y or not hq_divide("right", x, y * x) == y:
                cancel_ok = False
    witness = None
    for x in elems:
        for y in elems:
            for z in elems:
                if (x * y) * z != x * (y * z):
                    witness = (x, y, z)
                    break
            if witness:
                break
        if witness:
            break
    return {
        "latin_square": rows_ok and cols_ok,
        "two_sided_unit": unit_ok,
        "cancellation": cancel_ok,
        "nonassociative_witness": witness,
        "is_loop": rows_ok and cols_ok and unit_ok and cancel_ok,
    }


# -- seeded exact samplers ----------------------------------------------------

def random_rational(rng: Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span))


def random_matrix(rng: Random, dim: int, span: int = 4) -> MatrixElement:
    return MatrixElement([[random_rational(rng, span) for _ in range(dim)]
                          for _ in range(dim)])


def random_cd(rng: Random, level: int, span: int = 3) -> CDElement:
    return CDElement(level, [rng.randint(-span, span)
                             for _ in range(1 << level)])


def random_unit_octonion(rng: Random) -> CDElement:
    """Exact norm-one octonion via the Cayley transform of a random pure
    imaginary: ``x = (1 - u)^2 / (1 + n(u))``."""
    coords = [0] + [rng.randint(-2, 2) for _ in range(7)]
    u = CDElement(3, coords)
    one = CDElement.one(3)
    diff = one - u
    return (diff * diff) * Fraction(1, 1 + cd_norm(u))


# -- series laws --------------------------------------------------------------

def generic_series(flavor: str, order: int, copy: int) -> TruncatedSeries:
    """The generic series of copy ``copy``: its coefficient ``a_n`` is the
    generator of degree ``n`` of that copy, over the free algebra."""
    return TruncatedSeries(flavor, order, [NCPolynomial.generator(copy, n)
                                           for n in range(1, order + 1)])


def inv_convolution(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The product of invertible series as the plain binary convolution
    ``(ab)_n = sum_{m=0}^{n} a_m b_{n-m}``, unit factors multiplied too:
    the oracle of the ``inv`` law, over any coefficient algebra."""
    coeffs = []
    for n in range(1, a.order + 1):
        acc = a.coeff(0) * b.coeff(n)
        for m in range(1, n + 1):
            acc = acc + a.coeff(m) * b.coeff(n - m)
        coeffs.append(acc)
    return TruncatedSeries("inv", a.order, coeffs)


# -- Lagrange coefficients and trees ------------------------------------------

def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def weak_compositions(total: int, parts: int):
    """Tuples of ``parts`` non-negative integers summing to ``total``,
    first coordinate descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def m_sequences_labeled(length: int,
                        e: Sequence[int]) -> list[tuple[int, ...]]:
    """The subset ``M(length)^e``: sequences with ``m_i = 0`` wherever
    ``e_i = 2``. Empty whenever ``e`` starts with the bit 2. The
    brute-force index set of the ``d^e`` DP."""
    _, e = check_lagrange_args((1,) * length, e)
    return [m for m in m_sequences(length)
            if all(m[i] == 0 for i in range(length) if e[i] == 2)]


Tree = tuple
LEAF: Tree = ()


def tree_of_msequence(m: Sequence[int]) -> Tree:
    """The bijection ``M(l) -> planar binary trees with l+1 leaves`` on
    one sequence, unmemoized; the oracle of ``msequence_trees``.

    A tree is a nested pair ``(left, right)`` with ``()`` as the leaf. The
    sequence is split at its last decomposable position ``h`` (a proper
    prefix summing to ``h``) and the second part is grafted onto the
    rightmost leaf of the first; an indecomposable sequence peels one unit
    off its head and pairs the remainder with a new right leaf. Base cases:
    ``() -> leaf``, ``(1) -> (leaf, leaf)``.
    """
    m = tuple(m)
    if not is_m_sequence(m):
        raise StructuralError(f"{m} is not a valid M-sequence")
    return _phi(m)


def _phi(m: tuple[int, ...]) -> Tree:
    if not m:
        return LEAF
    for h in range(len(m) - 1, 0, -1):
        if sum(m[:h]) == h:
            return _graft_rightmost(_phi(m[:h]), _phi(m[h:]))
    # indecomposable: m = (k+1, m_2, ..., m_{l-1}, 0)
    reduced = (m[0] - 1,) + m[1:-1] if len(m) > 1 else ()
    return (_phi(reduced), LEAF)


def _graft_rightmost(t: Tree, s: Tree) -> Tree:
    if t == LEAF:
        return s
    return (t[0], _graft_rightmost(t[1], s))


def tree_to_parens(t: Tree) -> str:
    """Balanced-parenthesis form: a leaf is ``.``, a node ``(LR)``."""
    if t == LEAF:
        return "."
    return "(" + tree_to_parens(t[0]) + tree_to_parens(t[1]) + ")"


def tree_leaves(t: Tree) -> int:
    """The leaves of a planar binary tree of ``tree_of_msequence``."""
    if t == LEAF:
        return 1
    return tree_leaves(t[0]) + tree_leaves(t[1])


def d_recurrence_check(variant: str, ns: Sequence[int]) -> bool:
    """Check one proved recurrence for ``d_l`` against the direct sum.

    ``alt-sign``:
        ``d_l(ns) = sum_{i=0}^{l-1} (-1)^(l-1-i)
        binom(n_1+...+n_{i+1}+1, l-i) d_i(n_1..n_i)``
    ``product``:
        ``d_l(ns) = sum_j sum_{p in C(l,j)} binom(n_1+1, j)
        prod_i d_{p_i-1}(block_i)`` where block ``i`` spans the degrees
        at positions ``P_{i-1}+2 .. P_i``
    ``shift``:
        ``d_l(ns) = sum_{i=1}^{l} (-1)^(i-1) binom(n_1+1, i)
        d_{l-i}(n_1+...+n_{i+1}, n_{i+2}, ..., n_l)``
    """
    ns = tuple(ns)
    ell = len(ns)
    if ell == 0:
        return True
    direct = lagrange_d(ns)
    if variant == "alt-sign":
        rhs = sum(
            (-1) ** (ell - 1 - i)
            * math.comb(sum(ns[: i + 1]) + 1, ell - i)
            * lagrange_d(ns[:i])
            for i in range(ell)
        )
    elif variant == "product":
        rhs = 0
        for j in range(1, ell + 1):
            for p in compositions(ell, j):
                term = math.comb(ns[0] + 1, j)
                pos = 0
                for pi in p:
                    term *= lagrange_d(ns[pos + 1: pos + pi])
                    pos += pi
                rhs += term
    elif variant == "shift":
        rhs = 0
        for i in range(1, ell + 1):
            if i == ell:
                rhs += (-1) ** (i - 1) * math.comb(ns[0] + 1, i)
            else:
                head = (sum(ns[: i + 1]),) + ns[i + 1:]
                rhs += (-1) ** (i - 1) * math.comb(ns[0] + 1, i) * lagrange_d(head)
    else:
        raise StructuralError(f"unknown recurrence variant {variant!r}")
    return rhs == direct


# -- checked tensor constructors ----------------------------------------------

def from_factors(factors: Sequence[NCPolynomial],
                 coeff: int = 1) -> TensorPoly:
    """Tensor monomial with polynomial entries, expanded bilinearly.

    Every nonzero factor must be a letter in the sense of
    ``operators._check_factors`` (so a difference like ``x_n - y_n`` is a
    legal degree-``n`` entry); a zero factor anywhere makes the monomial
    zero.
    """
    factors = list(factors)
    letters, _ = _check_factors(
        [f for f in factors
         if not (isinstance(f, NCPolynomial) and f.is_zero())])
    if len(letters) < len(factors):
        return TensorPoly.zero()
    return _tensor_monomial(letters, coeff)


def element(p: NCPolynomial) -> TensorPoly:
    """A single homogeneous algebra element as a length-1 tensor."""
    return from_factors([p])


def scalar_length_polynomial(t: TensorPoly) -> NCPolynomial:
    """The length-1 component of ``t`` as a plain polynomial (plus nothing
    of the scalar component)."""
    return NCPolynomial({k[0]: c for k, c in t.terms.items() if len(k) == 1})


# -- the single-structure operator by its nested items ------------------------

def right_op_m_nested(m: Sequence[int],
                      factors: Sequence[NCPolynomial]) -> TensorPoly:
    """``R_m`` by parsing ``m`` into nested items: the ``m_1`` tensor
    factors are items, and item ``a_i`` is ``binom(|a_i|+1, m_{i+1}) a_i``
    times the next ``m_{i+1}`` items (trailing entry read as 0). The
    oracle of the one-scan ``operators.right_op_m``."""
    letters, degrees = _check_factors(factors)
    m = tuple(m)
    if not is_m_sequence(m) or len(m) != len(letters):
        raise StructuralError(f"{m} is not an M-sequence matching the input")
    if not m:
        return TensorPoly.unit()

    def build_item(i: int) -> tuple[NCPolynomial, int]:
        a = letters[i]
        nested = m[i + 1] if i + 1 < len(m) else 0
        if nested == 0:
            return a, i + 1
        items, nxt = build_items(i + 1, nested)
        prod = a * math.comb(degrees[i] + 1, nested)
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
    assert end == len(m), m
    return _tensor_monomial(top)


# -- operator identities, quantified over formal degree assignments -----------

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
            rhs = TensorPoly.sum(
                (-1) ** (ell - 1 - i) * triangle(
                    triangle(element(a[0]), right_op(a[1: i + 1])),
                    from_factors(a[i + 1:]))
                for i in range(ell))
            if lhs != rhs:
                return False
        return True
    if identity == "R3":
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            lhs = triangle(element(a[0]), right_op(a[1:]))
            rhs = TensorPoly.sum(
                (-1) ** (i - 1) * triangle(
                    triangle(element(a[0]),
                             from_factors(a[1: i + 1])),
                    right_op(a[i + 1:]))
                for i in range(1, ell + 1))
            if lhs != rhs:
                return False
        return True
    if identity == "L3":
        for degs in _degree_tuples(ell, degree_bound):
            a = _letters(degs)
            lhs = left_op(a)
            parts = [(-1) ** (ell - 1) * from_factors(a)]
            for i in range(1, ell):
                head = triangle(element(a[0]),
                                from_factors(a[1: i + 1]))
                first = scalar_length_polynomial(head)
                parts.append((-1) ** (i - 1) * left_op([first] + a[i + 1:]))
            if lhs != TensorPoly.sum(parts):
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
                if lhs != TensorPoly.sum(parts):
                    return False
        return True
    if identity == "R1":
        for degs in _degree_tuples(ell + 1, degree_bound):
            a = _letters(degs)
            product = NCPolynomial.unit()
            for f in a:
                product = product * f
            for m in m_sequences(ell):
                got = triangle(element(a[0]), right_op_m(m, a[1:]))
                coeff = math.prod(
                    math.comb(degs[i] + 1, m[i]) for i in range(ell))
                if got != from_factors([product], coeff):
                    return False
            full = triangle(element(a[0]), right_op(a[1:]))
            want = from_factors(
                [product], lagrange_d(degs[:ell]))
            if full != want:
                return False
            for e in bit_sequences(ell):
                got = triangle(element(a[0]), right_op_e(e, a[1:]))
                de = lagrange_d_labeled(e, degs[:ell])
                want = (from_factors([product], de)
                        if de else TensorPoly.zero())
                if got != want:
                    return False
        return True
    raise StructuralError(f"unknown identity {identity!r}")


# -- the fdb tables from the recursive operators ------------------------------

_X = lambda n: NCPolynomial.generator(1, n)  # noqa: E731
_Y = lambda n: NCPolynomial.generator(2, n)  # noqa: E731


def _u(n: int) -> NCPolynomial:
    return _X(n) - _Y(n)


def _v(n: int) -> NCPolynomial:
    return _Y(n) - _X(n)


def _labeled(bit: int, n: int) -> NCPolynomial:
    return _X(n) if bit == 1 else _Y(n)


def operator_expansions(kind: str, n: int) -> dict[str, NCPolynomial]:
    """The fdb table entry ``kind`` at degree ``n`` rebuilt from the
    recursive operators, one polynomial per expansion: ``delta`` by
    ``triangle``, ``delta_r`` through ``right_op`` and through
    ``left_op``, ``delta_l`` through ``right_op_e``.

    Each must equal the table that ``coloops`` builds from the direct
    formula with (labeled) Lagrange coefficients.
    """
    if n < 1:
        raise StructuralError("tables are indexed by n >= 1")
    if kind == "delta":
        parts = {"triangle": [_X(n) + _Y(n)]}
    elif kind == "delta_r":
        parts = {"right_op": [_u(n)], "left_op": [_u(n)]}
    elif kind == "delta_l":
        parts = {"right_op_e": [_v(n)]}
    else:
        raise StructuralError(f"no operator expansion for {kind!r}")
    for ell in range(1, n):
        sign = -1 if ell % 2 else 1
        for comp in compositions(n, ell + 1):
            if kind == "delta":
                block = triangle(element(_X(comp[0])),
                                 from_factors([_Y(k) for k in comp[1:]]))
                parts["triangle"].append(scalar_length_polynomial(block))
            elif kind == "delta_r":
                rhs = right_op([_Y(k) for k in comp[1:]])
                block = triangle(element(_u(comp[0])), rhs)
                parts["right_op"].append(
                    sign * scalar_length_polynomial(block))
                lhs = left_op([_u(comp[0])] + [_Y(k) for k in comp[1:ell]])
                block = triangle(lhs, element(_Y(comp[ell])))
                parts["left_op"].append(
                    sign * scalar_length_polynomial(block))
            else:
                for e in bit_sequences(ell):
                    lead = element(_labeled(e[0], comp[0]))
                    args = [_labeled(b, k) for b, k in zip(e[1:], comp[1:ell])]
                    args.append(_v(comp[ell]))
                    block = triangle(lead, right_op_e(e, args))
                    parts["right_op_e"].append(
                        (sign * bit_sign(e)) * scalar_length_polynomial(block))
    return {name: NCPolynomial.sum(polys) for name, polys in parts.items()}


# -- the free algebra's text form ----------------------------------------------

COPY_OF_NAME = {v: k for k, v in COPY_NAMES.items()}


def parse_polynomial(text: str) -> NCPolynomial:
    """Parse the text form, e.g. ``x2 - y2 - 2*x1*y1 + 2*y1*y1``; the
    inverse of ``str`` on ``NCPolynomial``."""
    stripped = text.replace(" ", "")
    if not stripped or stripped == "0":
        return NCPolynomial.zero()
    # a sign opens a term unless it follows a sign
    return NCPolynomial.sum(_parse_monomial(signed, text) for signed
                            in re.split(r"(?<=[^-+])(?=[-+])", stripped))


def _parse_monomial(signed: str, text: str) -> NCPolynomial:
    """One signed term; its integer factors and letter indices are plain
    ASCII digits, as ``int`` alone would also read ``1_0`` as 10."""
    chunk = signed.lstrip("+-")
    coeff = (-1) ** signed[:len(signed) - len(chunk)].count("-")
    w = []
    for factor in chunk.split("*"):
        if not factor:
            raise StructuralError(f"empty factor in {text!r}")
        name, idx = factor[0], factor[1:]
        if factor.isascii() and factor.isdigit():
            coeff *= int(factor)
        elif name in COPY_OF_NAME and idx.isascii() and idx.isdigit():
            w.append(letter(COPY_OF_NAME[name], int(idx)))
        else:
            raise StructuralError(f"bad factor {factor!r} in {text!r}")
    return NCPolynomial({tuple(w): coeff})


# -- the tensor Hopf algebra ---------------------------------------------------

def plain(key: Sequence[Sequence[int]]) -> tuple[Word, ...]:
    """A tensor key from its words' plain indices, in copy-1 letters as
    ``project_pi`` writes them: ``((1, 3), ())`` is ``x1*x3 | 1``."""
    return tuple(tuple((1, idx) for idx in w) for w in key)


def include_iota(t: TensorPoly) -> NCPolynomial:
    """Linear section of ``project_pi`` induced by the multiplication:
    ``a | b -> a^(1) b^(2)``."""
    out: dict[Word, int] = {}
    for key, c in t.terms.items():
        w: list[Letter] = []
        for cp0, word in enumerate(key, start=1):
            w.extend((cp0, idx) for _, idx in word)
        out[tuple(w)] = out.get(tuple(w), 0) + c
    return NCPolynomial(out)


def _tensor_coproduct_hom(flavor: str):
    """``Delta^(x)`` extended multiplicatively to copy-1 words."""
    coloop = get_coloop(flavor)

    def on_word(word: Word) -> TensorPoly:
        out = TensorPoly({((), ()): 1})
        for _, idx in word:
            out = out * coloop.projected_coproduct(idx)
        return out

    return on_word


def tensor_coassociative(flavor: str, n: int) -> bool:
    """Degreewise coassociativity of ``Delta^(x)`` on the generator."""
    hom = _tensor_coproduct_hom(flavor)
    dx = get_coloop(flavor).projected_coproduct(n).terms.items()
    left = TensorPoly.sum(
        TensorPoly({(u1, u2, w2): c * d
                    for (u1, u2), d in hom(w1).terms.items()})
        for (w1, w2), c in dx)
    right = TensorPoly.sum(
        TensorPoly({(w1, u1, u2): c * d
                    for (u1, u2), d in hom(w2).terms.items()})
        for (w1, w2), c in dx)
    return left == right


def nc_hopf_coproduct(n: int) -> TensorPoly:
    """The non-commutative Faa di Bruno comultiplication
    ``sum_m x_m | sum x_{k_0} ... x_{k_m}`` over non-negative tuples
    ``k_0 + ... + k_m = n - m`` (zero indices read as the unit)."""
    return TensorPoly.sum(
        TensorPoly({plain(((m,) if m >= 1 else (),
                           tuple(k for k in ks if k > 0))): 1})
        for m in range(n + 1) for ks in weak_compositions(n - m, m + 1))


def compare_nc_hopf(n: int) -> bool:
    """``Delta^(x)`` of the fdb flavor equals the tuple-sum form."""
    return get_coloop("fdb").projected_coproduct(n) == nc_hopf_coproduct(n)
