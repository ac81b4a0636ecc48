"""Truncated series loops.

``TruncatedSeries`` holds the coefficients ``a_1 .. a_N`` of a series with
``a_0 = 1`` implicit, either of flavor ``inv`` (invertible series,
``sum a_n t^n``, pointwise product) or ``diff`` (formal diffeomorphisms,
``sum a_n t^(n+1)``, composition). Coefficients live in any exact algebra
with ``+``, ``-``, ``*``, integer scaling and a ``unit()`` (see
``algebras.one_of``), the free algebra ``NCPolynomial`` included; the
unit is read off the first coefficient. The ``inv`` operations use
only binary coefficient products, so non-associative coefficient algebras
(sedenions, matrices over them) are supported there. The ``diff``
operations multiply chains of coefficients, whose value over a
non-associative algebra depends on the parenthesization, so a ``diff``
series refuses a carrier known to be non-associative (octonions and
higher Cayley-Dickson levels, matrices over them, doubled elements) with
a ``StructuralError``.

The two loop laws are one law, written once as its degree-``n``
coefficient. With ``B = 1 + sum_k b_k t^k``,

    (a * b)_n = a_n + b_n + sum_{m=1}^{n-1} a_m [t^(n-m)] B^p,

with ``p = 1`` for ``inv`` and ``p = m + 1`` for ``diff``. At ``p = 1``
it is the binary convolution ``(ab)_n = sum_m a_m b_{n-m}`` of the
pointwise product, binary products only. At ``p = m + 1`` it is the
degree-``n`` part of ``a(b(t)) = b(t) + sum_m a_m b(t)^(m+1)``. The
products use it, and so does the ``recursive`` division mode: it solves
the defining cancellation equation degree by degree, the same way for
both flavors and both sides. ``[t^j] B^p`` is read from a table of the
truncated powers ``B^p = B^(p-1) B``, built one column at a time on
demand (Brent and Kung's power-series composition): ``O(N^3)``
coefficient products for order ``N``, and the unit is never multiplied;
``B^1`` is ``B`` itself, so ``inv`` builds no power. Expanding
``b(t)^(m+1)`` into ``B^(m+1)`` and grouping the products of ``B^p`` in
any order needs associativity, which is why ``diff`` refuses
non-associative carriers. The ``closed`` mode is one formula for both
sides and flavors: it multiplies out the terms of
``combinatorics.codivision_terms``, the ones the coloop tables read,
outward from the difference ``(a-b)_k``; it alone loads
:mod:`loopseries.combinatorics`. ``convolution_eval`` evaluates the
generator tables of :mod:`loopseries.coloops` under the coefficient
assignment, each word nested as its table says (``delta_l`` and ``s_l``
to the right), so over every carrier a series admits. Each call computes
one route only; the tests check that all three agree, and keep the
weak-composition sum over coefficient chains as the oracle of the
``diff`` law. The ``diff``
inverse is the recursive left division of the unit series, so the module
needs the table layer (``coloops``, ``freealg``) only inside
``convolution_eval``, which imports it on call. The element loops and the
named counterexample witnesses live in :mod:`loopseries.witnesses`.
"""

from __future__ import annotations

from typing import Sequence

from . import (
    INVERSE_SIDES,
    MODES,
    SERIES_FLAVORS,
    SIDES,
    StructuralError,
    _choose,
)
from .algebras import is_zero, known_nonassociative, one_of, zero_of


class TruncatedSeries:
    """Order-``N`` series with unit constant term, coefficients in ``A``.

    The unit is that of the first coefficient's algebra (``one_of``), so
    a series has at least one coefficient; missing ones are zero.

    Operations are exact modulo degree ``N`` and never extend the order
    silently; combining series of different flavors or orders is a
    structural error. A ``diff`` series over a carrier known to be
    non-associative is a structural error too.
    """

    __slots__ = ("flavor", "order", "coeffs", "one")

    def __init__(self, flavor: str, order: int, coeffs: Sequence):
        self.flavor = _choose("flavor", flavor, SERIES_FLAVORS)
        if order < 1:
            raise StructuralError("order must be >= 1")
        coeffs = list(coeffs)
        if len(coeffs) > order:
            raise StructuralError(f"{len(coeffs)} coefficients exceed order {order}")
        if not coeffs:
            raise StructuralError("cannot infer the unit from no coefficients")
        one = one_of(coeffs[0])
        if flavor == "diff" and known_nonassociative(one):
            raise StructuralError(
                "diff series need an associative coefficient algebra")
        zero = zero_of(one)
        coeffs.extend(zero for _ in range(order - len(coeffs)))
        self.order = order
        self.coeffs = tuple(coeffs)
        self.one = one

    def coeff(self, n: int):
        """``a_n`` for ``0 <= n <= order`` (``a_0`` is the unit)."""
        if n == 0:
            return self.one
        if not 1 <= n <= self.order:
            raise StructuralError(f"coefficient index {n} outside order {self.order}")
        return self.coeffs[n - 1]

    def _check(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise StructuralError("expected a TruncatedSeries")
        if other.flavor != self.flavor or other.order != self.order:
            raise StructuralError(
                f"flavor/order mismatch: {self.flavor}/{self.order} vs "
                f"{other.flavor}/{other.order}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and other.flavor == self.flavor and other.order == self.order
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.flavor, self.order, self.coeffs))

    def is_unit(self) -> bool:
        return all(is_zero(c) for c in self.coeffs)

    def __str__(self) -> str:
        shift = 1 if self.flavor == "diff" else 0
        head = "t" if self.flavor == "diff" else "1"
        parts = [head]
        for n, c in enumerate(self.coeffs, start=1):
            if not is_zero(c):
                power = "t" if n + shift == 1 else f"t^{n + shift}"
                parts.append(f"({c})*{power}")
        return " + ".join(parts) + f" + O(t^{self.order + shift + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.flavor!r}, order={self.order}, {self})"


def unit_series(flavor: str, order: int, one) -> TruncatedSeries:
    return TruncatedSeries(flavor, order, [zero_of(one)])


class _Powers:
    """Coefficients ``[t^j] B^p`` of the powers of ``B = sum_k b_k t^k``.

    ``b`` is the indexed coefficient list of ``B`` (``b[0]`` is the unit);
    it may still grow while the table is in use. ``B^p = B^(p-1) B`` is
    built one column at a time, on demand, so column ``j`` of any power
    reads only ``b_0 .. b_j``. The unit factors of the convolution are
    added, not multiplied: column ``j >= 1`` of ``B^p`` costs ``j - 1``
    coefficient products.
    """

    __slots__ = ("b", "rows")

    def __init__(self, b: Sequence):
        self.b = b
        self.rows: list[list] = []  # rows[p - 2] holds the columns of B^p

    def coeff(self, p: int, j: int):
        """``[t^j] B^p``, for ``p >= 1``."""
        b, rows = self.b, self.rows
        if p == 1:
            return b[j]
        while len(rows) < p - 1:
            rows.append([b[0]])
        if len(rows[p - 2]) <= j:
            # extend B^2 .. B^p to column j, each from the one before
            for prev, row in zip([b] + rows[:p - 2], rows[:p - 1]):
                for k in range(len(row), j + 1):
                    acc = prev[k] + b[k]
                    for i in range(1, k):
                        acc = acc + prev[i] * b[k - i]
                    row.append(acc)
        return rows[p - 2][j]


def _law_coeff(flavor: str, a: Sequence, powers: _Powers, n: int):
    """Degree-``n`` coefficient of the loop law ``a * b``,
    ``a_n + b_n + sum_{m=1}^{n-1} a_m [t^(n-m)] B^p`` with ``p = 1``
    for ``inv`` and ``p = m + 1`` for ``diff``.

    ``a`` is a coefficient sequence indexed from 0, where index 0 is the
    unit, and ``powers`` is the power table of ``b``; unit factors are
    never multiplied. At ``p = 1`` the terms are the binary products
    ``a_m b_{n-m}``, so ``inv`` is valid over non-associative
    coefficients. At ``p = m + 1`` the law equals the chain sum ``sum_m
    sum_{k_0+...+k_m = n-m} a_m b_{k_0} ... b_{k_m}`` only because the
    products are associative: the power table groups each chain as ``a_m
    ((b_{k_0} ... b_{k_{m-1}}) b_{k_m})`` and sums the chains of a power
    before multiplying them on. The ``m >= 1`` terms read column ``n - m``
    of the powers, so only ``b_1 .. b_{n-1}``.
    """
    inv = flavor == "inv"
    acc = a[n] + powers.b[n]
    for m in range(1, n):
        acc = acc + a[m] * powers.coeff(1 if inv else m + 1, n - m)
    return acc


def _indexed(s: TruncatedSeries) -> tuple:
    return (s.one,) + s.coeffs


def _law(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    ia, powers = _indexed(a), _Powers(_indexed(b))
    out = [_law_coeff(a.flavor, ia, powers, n) for n in range(1, a.order + 1)]
    return TruncatedSeries(a.flavor, a.order, out)


def inv_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """``(ab)_n = sum_m a_m b_{n-m}``; only binary products, so valid over
    non-associative coefficient algebras."""
    a._check(b)
    if a.flavor != "inv":
        raise StructuralError("use diff_compose() for diff series")
    return _law(a, b)


def diff_compose(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Composition ``a(b(t))`` of formal diffeomorphisms.

    ``(a o b)_n = a_n + b_n + sum_{m=1}^{n-1} a_m [t^(n-m)] B^(m+1)`` with
    ``B = 1 + sum_k b_k t^k``, from the truncated powers of ``B``:
    ``O(N^3)`` coefficient products at order ``N``. The fdb coproduct
    evaluated on the coefficients (``convolution_eval("delta", ...)``) and
    the chain sum over weak compositions are the same law; the tests check
    that all three agree.
    """
    a._check(b)
    if a.flavor != "diff":
        raise StructuralError("compose is the diff-flavor law")
    return _law(a, b)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The loop law of the common flavor."""
    return inv_mul(a, b) if a.flavor == "inv" else diff_compose(a, b)


def divide(side: str, a: TruncatedSeries, b: TruncatedSeries,
           mode: str = MODES[0]) -> TruncatedSeries:
    """Division in the series loop: ``right`` solves ``q * b = a`` (``a/b``),
    ``left`` solves ``a * q = b`` (``a\\b``).

    ``recursive`` solves the cancellation equation degree by degree (the
    oracle, straight from the existence proofs); ``closed`` evaluates the
    explicit Lagrange-coefficient formulas. The invertible-series closed
    forms keep the stated parenthesization (left-nested for the right
    division, right-nested for the left one) so they remain valid over
    non-associative coefficients.
    """
    a._check(b)
    _choose("side", side, SIDES)
    _choose("mode", mode, MODES)
    if mode == "closed":
        out = [_closed(side, a, b, n) for n in range(1, a.order + 1)]
        return TruncatedSeries(a.flavor, a.order, out)
    if side == "right":
        return _solve(a.flavor, side, a, _indexed(b))
    return _solve(a.flavor, side, b, _indexed(a))


def _solve(flavor: str, side: str, target: TruncatedSeries,
           known: tuple) -> TruncatedSeries:
    """Solve ``x * known = target`` (``right``) or ``known * x = target``
    (``left``) degree by degree.

    In both laws the unknown ``x_n`` enters the degree-``n`` coefficient
    once, with the unit as its cofactor, and every other term involves
    only ``x_1 .. x_{n-1}``. So with ``x_n`` set to zero the law
    coefficient is exactly the part to subtract from ``target_n``. The
    right factor's power table is shared by all degrees: the right
    division reads the powers of the known ``b``; the left division reads
    the powers of the growing ``x``, whose columns ``1 .. n-1`` are final
    once ``x_{n-1}`` is solved.
    """
    x = [target.one]
    zero = zero_of(target.one)
    lhs, powers = (x, _Powers(known)) if side == "right" \
        else (known, _Powers(x))
    for n in range(1, target.order + 1):
        x.append(zero)
        x[n] = target.coeff(n) - _law_coeff(flavor, lhs, powers, n)
    return TruncatedSeries(flavor, target.order, x[1:])


def _closed(side: str, a: TruncatedSeries, b: TruncatedSeries, n: int):
    """Degree ``n`` of ``a/b`` (``right``) or ``a\\b`` (``left``): the sum
    over ``codivision_terms(side, ...)`` of ``(a-b)_k c`` at the bit 0,
    the letters ``a_k`` (bit 1) and ``b_k`` (bit 2) multiplied on outward:
    on the right for ``right`` (left-nested), else on the left."""
    from .combinatorics import codivision_terms
    right = side == "right"
    coeff = (None, a.coeff, b.coeff)
    acc = zero_of(a.one)
    for c, bits, comp in codivision_terms(side, a.flavor == "diff", n):
        letters = zip(bits, comp) if right \
            else zip(reversed(bits), reversed(comp))
        _, k = next(letters)
        term = (a.coeff(k) - b.coeff(k)) * c
        for bit, k in letters:
            term = term * coeff[bit](k) if right else coeff[bit](k) * term
        acc = acc + term
    return acc


def series_inverse(a: TruncatedSeries, side: str = "both") -> TruncatedSeries:
    """Inverse of a series in its loop, by the recursive division against
    the unit series.

    For ``diff`` (associative carriers only) the inverse is two-sided, so
    every ``side`` gives the solution ``x`` of ``a o x = t``. Evaluating the
    right antipode of the fdb coloop bialgebra on the coefficients gives
    the same series; that is the representability statement, and the
    tests use it as the oracle. For ``inv`` the two inverses differ over
    non-associative coefficients, so a ``side`` is required there.
    """
    _choose("side", side, INVERSE_SIDES)
    e = unit_series(a.flavor, a.order, a.one)
    if a.flavor == "inv" and side == "both":
        raise StructuralError("inv series need an explicit inverse side")
    if a.flavor == "inv" and side == "right":
        return divide("right", e, a)  # e / a
    return divide("left", a, e)       # a \ e


def convolution_eval(kind: str, a: TruncatedSeries, b: TruncatedSeries,
                     n: int):
    """Evaluate a co-operation table under ``x_i -> a_i, y_i -> b_i``.

    With ``kind`` one of ``delta``, ``delta_r``, ``delta_l``, ``s_r``,
    ``s_l`` this realizes the convolution formulas: the coproduct gives
    the loop law, the codivisions give the divisions and the antipodes the
    inverses of ``a``, degree by degree. The antipodes read copy 1 only,
    so for them ``b`` just matches ``a``'s flavor and order. This is the
    representability statement made executable, over every carrier a
    series admits: each word is evaluated with its table's nesting
    (``coloops.Coloop._RIGHT_NESTED``), so over a non-associative carrier
    the ``inv`` tables give what ``divide`` and ``series_inverse``
    compute.
    """
    from . import coloops
    from .freealg import evaluate

    a._check(b)
    if not 1 <= n <= a.order:
        raise StructuralError(f"degree {n} outside order {a.order}")
    _choose("kind", kind, ("delta", "delta_r", "delta_l", "s_r", "s_l"))
    flavor = "inv" if a.flavor == "inv" else "fdb"
    poly = coloops.get_coloop(flavor).image(kind, n)

    def assign(cp: int, idx: int):
        return a.coeff(idx) if cp == 1 else b.coeff(idx)

    return evaluate(poly, assign, a.one, kind in coloops.Coloop._RIGHT_NESTED)
