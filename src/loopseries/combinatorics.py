"""Index sets and Lagrange coefficients.

The integer combinatorics driving all coefficient formulas in this library:

* compositions ``C(n, l)``: ordered tuples of positive integers of length
  ``l`` summing to ``n``;
* M-sequences ``M(l)``: tuples ``(m_1, ..., m_l)`` of non-negative integers
  with total sum ``l`` and every proper prefix sum ``m_1 + ... + m_j >= j``;
  counted by the Catalan numbers and in bijection with planar binary trees;
* bit sequences ``E(l)``: tuples over ``{1, 2}``, used to label which copy
  of a free product a variable lives in;
* the Lagrange coefficient ``d_l`` and its labeled restriction ``d_l^e``,
  the integers appearing in the closed division formulas for formal
  diffeomorphisms with non-commutative coefficients.

``d_l`` and ``d_l^e`` are defined as sums over ``M(l)``, but they are
computed by a prefix-sum dynamic program over (position, running prefix
sum) in ``O(l^3)`` integer operations. Its step is written once
(``_step``) and read three ways: ``lagrange_d_labeled`` folds it along
``e``, ``lagrange_d`` is the memoized all-ones fold, and
``lagrange_d_labeled_row`` gives all ``2^l`` values ``d_l^e`` of one
composition level by level over the bit prefixes: each step is taken
once and shared by every ``e`` that extends its prefix, and a prefix
whose DP vector vanishes (as for every ``e`` that starts with the bit 2)
reads zero for all its extensions. ``check_lagrange_args`` holds the
one argument check of all three and of the labeled operators: positive
degrees, one bit 1 or 2 per degree. ``codivision_terms`` turns them into
the signed, labeled terms of the closed codivisions, the paper's
generalized Lagrange inversion, for the coloop tables and the closed
series divisions alike, one label per letter, the bit 0 marking the
difference ``x_k - y_k``, so both sides share one layout. The
enumeration of ``M(l)`` is kept as the definition, for the tree
bijection ``msequence_trees`` (one preorder scan of each sequence), and
for the tests as their oracle and in the operator identity check
``R1``; the operators' closed forms read ``d^e`` instead.

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Sequence

from . import StructuralError

def compositions(n: int, length: int) -> list[tuple[int, ...]]:
    """All compositions of ``n`` into ``length`` positive parts.

    Ordered descending-lexicographically, matching the display order
    ``C(3,2) = [(2,1), (1,2)]``. Out-of-range ``length`` yields ``[]``.
    A composition is read off its ``length - 1`` cut points in
    ``1..n-1``, whose lexicographic order is the compositions' own.
    """
    if n < 1 or length < 1:
        return []
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for cuts in reversed(list(combinations(range(1, n), length - 1)))]


def all_compositions(n: int) -> list[tuple[int, ...]]:
    """Compositions of ``n`` of every length, longest parts first."""
    return [c for length in range(1, n + 1) for c in compositions(n, length)]


def m_sequences(length: int) -> list[tuple[int, ...]]:
    """The set ``M(length)``, in descending lexicographic order.

    ``m_sequences(0)`` is the empty list: the length-0 index set is empty,
    while the matching coefficient convention is ``lagrange_d(()) == 1``.
    Each entry runs down from what the sum has left and stops at the
    first that breaks the prefix bound; the last entry is what is left.
    """
    if length <= 0:
        return []
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], total: int) -> None:
        pos = len(prefix) + 1
        if pos == length:
            out.append(prefix + (length - total,))
            return
        for m in range(length - total, -1, -1):
            if total + m < pos:
                break
            extend(prefix + (m,), total + m)

    extend((), 0)
    return out


def is_m_sequence(m: Sequence[int]) -> bool:
    total = 0
    length = len(m)
    for j, mj in enumerate(m, start=1):
        if mj < 0:
            return False
        total += mj
        if j < length and total < j:
            return False
    return total == length


def bit_sequences(length: int) -> list[tuple[int, ...]]:
    """The set ``E(length)`` of bit tuples over ``{1, 2}``, in
    lexicographic order; ``E(0) = [()]``."""
    return list(product((1, 2), repeat=length))


def bit_sign(e: Sequence[int]) -> int:
    """``(-1)^e = (-1)^(e_1 + ... + e_l - l)``."""
    return -1 if (sum(e) - len(e)) % 2 else 1


def check_lagrange_args(ns: Sequence[int], e: Sequence[int] | None = None
                        ) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """The one check of the degree rule (every degree in ``ns`` is a
    positive integer) and, given ``e``, the bit rule (one bit, 1 or 2, per
    degree). Returns ``(ns, e)`` as tuples."""
    ns = tuple(ns)
    if not all(isinstance(n, int) and n >= 1 for n in ns):
        raise StructuralError(f"degrees must be positive integers, got {ns}")
    if e is None:
        return ns, None
    e = tuple(e)
    if len(e) != len(ns):
        raise StructuralError(f"{len(e)} bits for length {len(ns)}")
    if any(b not in (1, 2) for b in e):
        raise StructuralError(f"bits must be 1 or 2, got {e}")
    return ns, e


_D_CACHE: dict[tuple[int, ...], int] = {}


def _weights(ns: Sequence[int]) -> list[list[int]]:
    """``w[j][m] = binom(n_{j+1} + 1, m)`` for ``m`` up to ``l - j``."""
    return [[math.comb(n + 1, m) for m in range(len(ns) - j + 1)]
            for j, n in enumerate(ns)]


def _step(ways: list[int], j: int, bit: int, weight: list[int]) -> list[int]:
    """The DP step from position ``j`` to ``j + 1``. ``ways[s]`` is the
    weighted count of admissible prefixes ``(m_1..m_j)`` with sum ``s``;
    each needs ``s >= j``, which at ``j = l`` means ``s == l``. The bit 1
    lets ``m_{j+1} = m`` add the weight ``weight[m]``; the bit 2 forces
    ``m_{j+1} = 0``, so it only drops the sums below ``j + 1``."""
    if bit == 2:
        return [0] * (j + 1) + ways[j + 1:]
    ell = len(ways) - 1
    nxt = [0] * (ell + 1)
    for s in range(j, ell + 1):
        w = ways[s]
        if w:
            for m in range(max(j + 1 - s, 0), ell - s + 1):
                nxt[s + m] += w * weight[m]
    return nxt


def _d_fold(e: Sequence[int], ns: Sequence[int]) -> int:
    """``d^e(ns)``, the step folded along ``e``, on checked arguments."""
    ways = [1] + [0] * len(ns)
    for j, (bit, weight) in enumerate(zip(e, _weights(ns))):
        ways = _step(ways, j, bit, weight)
    return ways[-1]


def lagrange_d(ns: Sequence[int]) -> int:
    """Lagrange coefficient ``d_l(n_1, ..., n_l)``.

    The sum over ``m in M(l)`` of ``prod_i binom(n_i + 1, m_i)``, with
    ``d_0 = 1`` on the empty argument. These are the coefficients of the
    right division of formal diffeomorphisms; ``d_l(1, ..., 1)`` is the
    Catalan number ``C(l+1)``. The all-ones fold of the DP, memoized.
    """
    key = tuple(ns)
    hit = _D_CACHE.get(key)
    if hit is not None:
        return hit
    check_lagrange_args(key)
    value = _D_CACHE[key] = _d_fold((1,) * len(key), key)
    return value


def lagrange_d_labeled(e: Sequence[int], ns: Sequence[int]) -> int:
    """Labeled Lagrange coefficient ``d_l^e(n_1, ..., n_l)``.

    The ``d``-sum restricted to ``M(l)^e``; equals ``lagrange_d`` when
    ``e = (1, ..., 1)`` and vanishes when ``e`` starts with the bit 2.
    The fold of the DP along ``e``.
    """
    ns, e = check_lagrange_args(ns, e)
    return _d_fold(e, ns)


def lagrange_d_labeled_row(ns: Sequence[int]) -> list[int]:
    """``d_l^e(ns)`` for every ``e`` in ``bit_sequences(l)``, in that order.

    The DP run level by level over the bit prefixes, in lexicographic
    order: each prefix steps to its two extensions, bit 1 then bit 2, so a
    step is taken once per prefix and shared by all ``2^(l-j)`` sequences
    extending it, with the weights of each position computed once. A
    prefix whose ``ways`` vanishes hands ``None`` to both extensions, and
    its whole subtree reads zero.
    """
    ns, _ = check_lagrange_args(ns)
    level: list[list[int] | None] = [[1] + [0] * len(ns)]
    for j, weight in enumerate(_weights(ns)):
        nxt: list[list[int] | None] = []
        for ways in level:
            if ways is None or not any(ways):
                nxt += (None, None)
            else:
                nxt += (_step(ways, j, 1, weight), _step(ways, j, 2, weight))
        level = nxt
    return [0 if ways is None else ways[-1] for ways in level]


def codivision_terms(side: str, lagrange: bool, n: int):
    """``(c, bits, comp)`` for every composition ``comp = (k_0..k_l)`` of
    ``n``, shortest first, zero terms skipped. Letter ``i`` of the term is
    ``x_k`` (bit 1), ``y_k`` (bit 2) or, once, ``u_k = x_k - y_k`` (bit 0):
    ``c u_{k_0} y_{k_1} ... y_{k_l}`` of ``Delta_r``, ``c = (-1)^l
    d_l(k_0..k_{l-1})``, or the term of ``Delta_l`` ending in ``v_{k_l} =
    -u_{k_l}``, ``bits = e + (0,)``, ``c = -(-1)^l (-1)^e d_l^e(...)``;
    without ``lagrange`` (``inv``) ``d = 1`` and ``e = (1..1)``. Label
    tuples are shared across compositions."""
    right = side == "right"
    for ell in range(n):
        sign = -1 if ell % 2 else 1
        if right:
            labels = [((0,) + (2,) * ell, sign)]
        else:
            labels = [(e + (0,), -sign * bit_sign(e)) for e in
                      (bit_sequences(ell) if lagrange else [(1,) * ell])]
        for comp in compositions(n, ell + 1):
            if not lagrange:
                ds = (1,)
            elif right:
                ds = (lagrange_d(comp[:ell]),)
            else:
                ds = lagrange_d_labeled_row(comp[:ell])
            for (bits, c), d in zip(labels, ds):
                if d:
                    yield c * d, bits, comp


def d_cache_rows() -> list[tuple[str, str]]:
    """Snapshot of the ``lagrange_d`` memo as ``(args, value)`` string
    pairs, deterministically ordered."""
    rows = []
    for key in sorted(_D_CACHE, key=lambda k: (len(k), k)):
        rows.append((",".join(map(str, key)), str(_D_CACHE[key])))
    return rows


def msequence_trees(length: int) -> list[tuple[tuple[int, ...], str]]:
    """Every ``m`` in ``M(length)`` with the parenthesis form of its tree:
    the bijection ``M(l) -> planar binary trees with l+1 leaves``.

    A leaf is ``.`` and a node ``(LR)``. Read in preorder, the tree of
    ``m`` opens ``m_i`` nodes right before its ``i``-th leaf and none
    before its last, so one scan of ``m`` writes the text. The open nodes
    are a stack of bits above a sentinel 1, the top lowest (bit 1: the
    left subtree is done); after a leaf, the trailing 1s are the nodes it
    completes, each closed by ``)``, and the node below them has its left
    subtree done.
    """
    heads = ["(" * k + "." for k in range(length + 1)]
    out = []
    for m in m_sequences(length):
        text = []
        bits = 1
        for k in m:
            bits <<= k
            done = (bits ^ (bits + 1)).bit_length() - 1
            text.append(heads[k] + ")" * done)
            bits = bits >> done | 1
        text.append("." + ")" * (bits.bit_length() - 1))
        out.append((m, "".join(text)))
    return out
