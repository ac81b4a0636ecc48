"""The graded operation ``|>`` and the recursive operators on ``T(A)``.

``A`` is the positive part of the labeled free algebra of
:mod:`loopseries.freealg`; a tensor element is a ``freealg.TensorPoly``,
held fully expanded as an integer combination of tuples of words (the
scalar component is the empty tuple), and ``TensorPoly.tensor`` is the
product of ``T(A)``. On monomials the graded operation is

    a |> (b_1 (x) ... (x) b_l)            = binom(|a|+1, l) a b_1 ... b_l
    (a_1 (x)...(x) a_p) |> (b_1 (x)...(x) b_q)
                                          = binom(|a_1|+1, p+q-1) a_1...b_q

together with ``1 |> 1 = 1``, ``1 |> b = b``, ``1 |> (length >= 2) = 0``
and ``a |> 1 = a``; it is extended bilinearly.

On top of it sit the left operator ``L_l``, the right operator ``R_l``,
the single-structure operators ``R_m`` indexed by M-sequences, and the
labeled operators ``R_l^e``. ``R_m`` is one scan of its M-sequence, a
preorder reading (see ``right_op_m``); the others have a recursive and a
closed form, and the tests check the identities relating them. ``R_l``
and ``R_l^e`` share one recursion in both modes, the defining sum
grouped by its first block (see ``right_op_e``), so a memo entry costs
``l`` blocks rather than ``2^(l-1)`` compositions. Left-hand scalar
parts of ``a_1 |> R_l(...)`` reproduce the Lagrange coefficients of
:mod:`loopseries.combinatorics` (identity ``R1``); the closed mode reads
its first blocks from them, so no mode enumerates M-sequences. The sum
of ``R_m`` over M-sequences, the paper's definition, stays the oracle of
the tests.

Every public operator checks its letters once, at entry, through
``_check_factors``, which returns them with their degrees, and
``right_op_e`` its bits through ``combinatorics.check_lagrange_args``;
the recursions below trust the letters, the bits and everything they
build from them, so the closed first blocks read the unchecked DP fold.
Every tensor monomial is built by one constructor, ``_tensor_monomial``,
from checked letters.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import MODES, StructuralError, _choose
from .combinatorics import _d_fold, check_lagrange_args, is_m_sequence
from .freealg import (
    NCPolynomial,
    TensorKey,
    TensorPoly,
    _concat,
    word_degree,
)


def _tensor_monomial(letters: Sequence[NCPolynomial],
                     coeff: int = 1) -> TensorPoly:
    """The tensor monomial ``coeff * f_1 (x) ... (x) f_l``, expanded
    bilinearly, for checked letters and what is built from them; a zero
    factor gives zero."""
    out: dict[TensorKey, int] = {(): coeff}
    for f in letters:
        out = _concat(out, {(w,): c for w, c in f.terms.items()})
    return TensorPoly(out)


def triangle(lhs: TensorPoly, rhs: TensorPoly) -> TensorPoly:
    """The graded operation ``lhs |> rhs``, extended bilinearly."""
    out: dict[TensorKey, int] = {}
    for lk, lc in lhs.terms.items():
        if not lk:
            # 1 |> 1 = 1, 1 |> b = b, 1 |> (length >= 2) = 0
            for rk, rc in rhs.terms.items():
                if len(rk) <= 1:
                    out[rk] = out.get(rk, 0) + lc * rc
            continue
        top = word_degree(lk[0]) + 1
        head = tuple(itertools.chain.from_iterable(lk))
        for rk, rc in rhs.terms.items():
            coeff = math.comb(top, len(lk) + len(rk) - 1)
            if coeff:
                key = (head + tuple(itertools.chain.from_iterable(rk)),)
                out[key] = out.get(key, 0) + lc * rc * coeff
    return TensorPoly(out)


def _check_factors(factors: Sequence[NCPolynomial]
                   ) -> tuple[list[NCPolynomial], list[int]]:
    """The one check of the letter rule (nonzero, homogeneous, positive
    degree); returns the letters and their degrees."""
    letters = list(factors)
    degrees = []
    for f in letters:
        found = ({word_degree(w) for w in f.terms}
                 if isinstance(f, NCPolynomial) else set())
        if len(found) != 1 or 0 in found:
            raise StructuralError("letters must be homogeneous polynomials"
                                  f" of positive degree: {f}")
        degrees.extend(found)
    return letters, degrees


def left_op(factors: Sequence[NCPolynomial],
            mode: str = MODES[0]) -> TensorPoly:
    """Left recursive operator ``L_l``.

    ``recursive`` evaluates the defining alternating sum

        L_l(a_1..a_l) = sum_i (-1)^(l-1-i) (L_i(a_1..a_i) |> a_{i+1})
                         (x) a_{i+2} (x) ... (x) a_l ,

    ``closed`` evaluates the one-step form ``L_l = L_{l-1} |> a_l -
    L_{l-1} (x) a_l``, i.e. the signed sum of all 2^(l-1) left-nested
    ``|>``/tensor combinations. Both agree; ``L_1(a) = a``.
    """
    _choose("mode", mode, MODES)
    letters, _ = _check_factors(factors)
    ell = len(letters)
    if ell == 0:
        return TensorPoly.unit()
    single = [_tensor_monomial([f]) for f in letters]
    if mode == "closed":
        acc = single[0]
        for e in single[1:]:
            acc = triangle(acc, e) - acc.tensor(e)
        return acc
    memo: list[TensorPoly] = [TensorPoly.unit()]
    for i in range(1, ell + 1):
        memo.append(TensorPoly.sum(
            (-1) ** (i - 1 - j)
            * triangle(memo[j], single[j]).tensor(
                _tensor_monomial(letters[j + 1: i]))
            for j in range(i)))
    return memo[ell]


def right_op(factors: Sequence[NCPolynomial],
             mode: str = MODES[0]) -> TensorPoly:
    """Right recursive operator ``R_l``.

    The defining sum runs over every composition ``(p_1..p_j)`` of ``l``
    and tensors the blocks ``a_{P_{i-1}+1} |> R_{p_i - 1}(following
    letters)``. Grouping it by the first block gives the factorization

        R_l(a_1..a_l) = sum_p (a_1 |> R_{p-1}(a_2..a_p)) (x) R_{l-p}(a_{p+1}..a_l),

    which both modes evaluate, as ``right_op_e`` with all bits 1; they
    differ only in the first block (see ``right_op_e``). ``R_1(a) = a``
    and ``R_2(a, b) = a |> b + a (x) b``.
    """
    _choose("mode", mode, MODES)
    letters, degrees = _check_factors(factors)
    return _right_labeled((1,) * len(letters), tuple(letters),
                          tuple(degrees), mode == "closed", {})


def right_op_m(m: Sequence[int],
               factors: Sequence[NCPolynomial]) -> TensorPoly:
    """Single-structure operator ``R_m`` for an M-sequence ``m``.

    ``m`` is the preorder reading of a planar forest on the letters:
    ``m_1`` is the number of tensor factors and ``a_i`` opens
    ``a_i |> (item ... item)`` over the next ``m_{i+1}`` items (trailing
    entry read as 0). So one scan builds it: a letter starts a new factor
    when no nested item is pending and extends the current one otherwise.
    The result is one tensor monomial with coefficient
    ``prod_i binom(|a_i|+1, m_{i+1})``; a vanishing binomial makes it zero.
    """
    letters, degrees = _check_factors(factors)
    m = tuple(m)
    if not is_m_sequence(m) or len(m) != len(letters):
        raise StructuralError(f"{m} is not an M-sequence matching the input")
    blocks: list[NCPolynomial] = []
    pending = 0
    coeff = 1
    for a, n, nested in zip(letters, degrees, m[1:] + (0,)):
        if pending:
            blocks[-1] = blocks[-1] * a
            pending -= 1
        else:
            blocks.append(a)
        pending += nested
        coeff *= math.comb(n + 1, nested)
    return _tensor_monomial(blocks, coeff)


def right_op_e(e: Sequence[int], factors: Sequence[NCPolynomial],
               mode: str = MODES[0]) -> TensorPoly:
    """Labeled right recursive operator ``R_l^e``.

    Equals ``right_op`` when ``e = (1,..,1)`` and vanishes when ``e``
    starts with the bit 2. In the defining sum the first block lead passes
    through ``R_1^(e_1)`` and each inner operator sees the bit slice
    aligned with its letters; the bits under the leads of later blocks
    are ignored. Grouping it by the first block gives

        R^e(a_1..a_l) = sum_p (a_1 |> R^(e_2..e_p)(a_2..a_p))
                              (x) R^(1, e_(p+2)..e_l)(a_(p+1)..a_l)

    for ``e_1 = 1``, with ``R`` of no letters the unit; the suffix's first
    bit is 1 because it sits under a later block lead. Both modes evaluate
    this with a memo that lives for one call. ``recursive`` computes each
    first block from its definition; ``closed`` reads it from identity
    ``R1``, ``a_1 |> R^(e_2..e_p)(a_2..a_p) = d^(e_2..e_p)(n_1..n_(p-1))
    a_1...a_p``, so it builds no ``|>`` of a first block.
    """
    _choose("mode", mode, MODES)
    letters, degrees = _check_factors(factors)
    degrees, e = check_lagrange_args(degrees, e)
    return _right_labeled(e, tuple(letters), degrees, mode == "closed", {})


def _right_labeled(e: tuple[int, ...], letters: tuple[NCPolynomial, ...],
                   degrees: tuple[int, ...], closed: bool,
                   memo: dict) -> TensorPoly:
    """``R_l^e`` on checked ``letters`` of the given ``degrees`` by its
    first-block factorization, the first blocks by ``R1`` when ``closed``;
    ``memo`` maps ``(e, letters)`` to the result and lives for one
    top-level call."""
    ell = len(letters)
    if ell == 0:
        return TensorPoly.unit()
    if e[0] == 2:
        return TensorPoly.zero()
    if ell == 1:
        return _tensor_monomial(letters)
    got = memo.get((e, letters))
    if got is not None:
        return got
    lead = _tensor_monomial(letters[:1])
    product = NCPolynomial.unit()
    blocks = []
    for p in range(1, ell + 1):
        if closed:
            product = product * letters[p - 1]
            block = _tensor_monomial(
                [product], _d_fold(e[1:p], degrees[:p - 1]))
        else:
            block = triangle(lead, _right_labeled(
                e[1:p], letters[1:p], degrees[1:p], closed, memo))
        if p < ell and not block.is_zero():
            block = block.tensor(_right_labeled(
                (1,) + e[p + 1:], letters[p:], degrees[p:], closed, memo))
        blocks.append(block)
    got = memo[(e, letters)] = TensorPoly.sum(blocks)
    return got
