"""Exact coefficient algebras with involution.

Rationals (``fractions.Fraction``), the Cayley-Dickson doubling tower over
the rationals (complexes, quaternions, octonions, sedenions, ...), and
square matrices over the rationals or over one level of that tower, with
the helpers shared by every carrier. The carriers that only the element
loops and the witnesses use (the one-step doubling ``A + Aj`` and split
quaternions) live in :mod:`loopseries.witnesses`.

The doubling product is, at every level,

    (a + bj)(c + dj) = (ac - d*b) + (da + bc*) j,

with involution ``(a + bj)* = a* - bj`` and basis convention
``e_{2^k + i} = e_i j``; this convention is pinned by the sedenion
zero-divisor identity ``(e1 + e10)(e5 + e14) = 0``.

Storage: a ``CDElement`` and a ``MatrixElement`` hold their value in one
form, integer numerators ``nums`` over one denominator ``den``, in
canonical form: ``den > 0``, ``gcd(den, *nums) = 1``, and zero has ``den =
1``. A matrix holds the coordinates of its entries row-major, each entry's
``2^level`` coordinates together; its ``level`` is ``None`` for rational
entries. Sums, differences, negation, conjugation, scaling by
``int``/``Fraction`` and products run on plain integers, and each result
is reduced once, by one ``math.gcd``; equality and hashing compare the
canonical integers. ``coords`` and ``entries`` are read-only views for the
codecs and the text form. The public constructors read their literals
once, through ``_as_fraction``; results built inside this module skip
that check.

* a Cayley-Dickson product uses the basis rule ``e_i e_j = s(i, j)
  e_{i xor j}`` with a sign table ``s`` derived once per level from the
  doubling rule; the tests keep the recursive doubling as its oracle;
* a matrix product is one integer matrix product over the product of the
  two denominators, with each pair of Cayley-Dickson entries multiplied
  by the sign table; the tests keep the entry loop as its oracle.

The helpers (``conj_of``, ``one_of``, ``zero_of``, ``is_zero``,
``known_nonassociative``) read the carrier protocol: every carrier other
than the rationals has the methods ``unit`` and ``is_zero``, and may set
the attribute ``associative``, which defaults to true and is ``False`` on
an algebra known to be non-associative; ``conj`` is needed only where
the doubling reads it. The free algebra ``freealg.NCPolynomial`` is a
carrier too.

All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from . import StructuralError, _choose, _sum_text

# bare instances for the unchecked private constructors
_new = object.__new__


def _as_fraction(v) -> Fraction:
    """An exact rational from a ``Fraction``, an integer or a string.

    The one rule for rational literals: floats and booleans are refused,
    and a string is an optional sign, then ASCII digits, ``.`` and ``/``.
    ``Fraction`` alone would also read ``"1_0"`` as 10, ``"2e1"`` as 20,
    a full-width ``1`` as 1 and strip surrounding whitespace.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and re.fullmatch(r"[+-]?[0-9./]+", v):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuralError(f"not an exact rational: {v!r}")


# -- integer numerators over one denominator ----------------------------------

def _integer_form(values: list[Fraction]) -> tuple[tuple[int, ...], int]:
    """Canonical ``(nums, den)`` of checked literals: ``den`` is the least
    common denominator, which no prime divides together with every
    numerator, so no gcd is needed."""
    den = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


def _reduce(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """``nums / den`` (``den > 0``) in canonical form, by one gcd."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([v // g for v in nums]), den // g


def _combine(op, xs, dx: int, ys, dy: int) -> tuple[tuple[int, ...], int]:
    """``xs/dx op ys/dy`` coordinatewise, for ``op`` in ``add``, ``sub``."""
    if dx == dy:
        return _reduce(list(map(op, xs, ys)), dx)
    g = math.gcd(dx, dy)
    sx, sy = dy // g, dx // g
    return _reduce([op(a * sx, b * sy) for a, b in zip(xs, ys)], dx * sx)


class _IntegerForm:
    """The linear structure of a carrier held in integer form: ``nums``
    over ``den``, with the Cayley-Dickson ``level`` of the coordinates.

    Each subclass has its own ``_check`` (same shape, or a
    ``StructuralError``), ``_like`` (a value of the same shape from
    canonical integers, unchecked), ``_conj_nums`` and ``__mul__``, and a
    ``_carrier`` name, which keeps a Cayley-Dickson element apart from a
    1x1 matrix over its algebra."""

    __slots__ = ("level", "nums", "den")

    @property
    def associative(self) -> bool:
        # Cayley-Dickson level 3 (octonions) and up is not associative
        return self.level is None or self.level < 3

    def __add__(self, other):
        self._check(other)
        return self._like(*_combine(add, self.nums, self.den,
                                    other.nums, other.den))

    def __sub__(self, other):
        self._check(other)
        return self._like(*_combine(sub, self.nums, self.den,
                                    other.nums, other.den))

    def __neg__(self):
        return self._like(tuple([-a for a in self.nums]), self.den)

    def _scaled(self, k):
        """``self`` times the rational ``k`` (an ``int`` or a ``Fraction``)."""
        p, q = k.as_integer_ratio()
        return self._like(*_reduce([a * p for a in self.nums], self.den * q))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, _IntegerForm)
                and other._carrier == self._carrier
                and other.level == self.level and other.den == self.den
                and other.nums == self.nums)

    def __hash__(self) -> int:
        return hash((self.level, self.nums, self.den))

    def conj(self):
        return self._like(self._conj_nums(), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)


class CDElement(_IntegerForm):
    """Element of the level-``k`` Cayley-Dickson algebra over the rationals
    (dimension ``2^k``), held as integer numerators ``nums`` over the one
    denominator ``den``."""

    __slots__ = ()
    _carrier = "cd"

    def __init__(self, level: int, coords: Sequence):
        if level < 0:
            raise StructuralError(f"level must be >= 0, got {level}")
        values = [_as_fraction(c) for c in coords]
        if len(values) != 1 << level:
            raise StructuralError(
                f"level {level} needs {1 << level} coordinates, got {len(values)}")
        self.level = level
        self.nums, self.den = _integer_form(values)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as ``Fraction``, a read-only view."""
        den = self.den
        return tuple([Fraction(v, den) for v in self.nums])

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "CDElement":
        return _cd(level, (0,) * (1 << level), 1)

    @classmethod
    def one(cls, level: int) -> "CDElement":
        return cls.basis(level, 0)

    @classmethod
    def basis(cls, level: int, i: int, coeff=1) -> "CDElement":
        n = 1 << level
        if not 0 <= i < n:
            raise StructuralError(f"basis index {i} outside level {level}")
        c = _as_fraction(coeff)
        nums = [0] * n
        nums[i] = c.numerator
        return _cd(level, tuple(nums), c.denominator)

    def unit(self) -> "CDElement":
        return _cd(self.level, (1,) + (0,) * (len(self.nums) - 1), 1)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "CDElement") -> None:
        if not isinstance(other, CDElement) or other.level != self.level:
            raise StructuralError("Cayley-Dickson level mismatch")

    def _like(self, nums: tuple[int, ...], den: int) -> "CDElement":
        return _cd(self.level, nums, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check(other)
        return _cd(self.level, *_reduce(
            _cd_table_mul(self.level, self.nums, other.nums),
            self.den * other.den))

    def _conj_nums(self) -> tuple[int, ...]:
        # the doubling involution fixes e_0 and negates every other e_i
        nums = self.nums
        return (nums[0],) + tuple([-a for a in nums[1:]])

    def __str__(self) -> str:
        return _sum_text((c, f"e{i}" if i else "")
                         for i, c in enumerate(self.coords))

    def __repr__(self) -> str:
        return f"CDElement(level={self.level}, {self})"


def _cd(level: int, nums: tuple[int, ...], den: int) -> CDElement:
    """A ``CDElement`` from canonical integers, unchecked."""
    x = _new(CDElement)
    x.level = level
    x.nums = nums
    x.den = den
    return x


# _CD_SIGNS[k][i][j] = s with e_i e_j = s e_{i xor j} at level k; levels
# are added on first use by _cd_signs.
_CD_SIGNS: list[tuple[tuple[int, ...], ...]] = [((1,),)]


def _cd_signs(level: int) -> tuple[tuple[int, ...], ...]:
    """Sign table of the level-``level`` basis product.

    Level ``k`` follows from level ``k - 1`` (table ``s``, half size
    ``h``) by the doubling rule on basis vectors, with ``p, q < h``,
    ``e_{h+p} = e_p j`` and ``e_q* = -e_q`` for ``q > 0``:

        e_p e_q         = s(p, q) e_{p^q}
        e_p (e_q j)     = (e_q e_p) j
        (e_p j) e_q     = (e_p e_q*) j
        (e_p j)(e_q j)  = -e_q* e_p
    """
    while len(_CD_SIGNS) <= level:
        prev = _CD_SIGNS[-1]
        h = len(prev)
        rows = []
        for i in range(2 * h):
            p, high_i = i % h, i >= h
            row = []
            for j in range(2 * h):
                q, high_j = j % h, j >= h
                conj_q = 1 if q == 0 else -1
                if not high_i:
                    row.append(prev[q][p] if high_j else prev[p][q])
                elif not high_j:
                    row.append(conj_q * prev[p][q])
                else:
                    row.append(-conj_q * prev[q][p])
            rows.append(tuple(row))
        _CD_SIGNS.append(tuple(rows))
    return _CD_SIGNS[level]


def _cd_table_mul(level: int, xs: tuple, ys: tuple, acc=None) -> list[int]:
    """Cayley-Dickson product of two integer coordinate tuples through the
    basis sign table, added into ``acc`` when given; equal to the
    recursive doubling product."""
    ys = [(j, v) for j, v in enumerate(ys) if v]
    if acc is None:
        acc = [0] * len(xs)
    for i, (u, row) in enumerate(zip(xs, _cd_signs(level))):
        if not u:
            continue
        for j, v in ys:
            if row[j] > 0:
                acc[i ^ j] += u * v
            else:
                acc[i ^ j] -= u * v
    return acc


def cd_parse(text: str, level: int) -> CDElement:
    """Parse the text form: signed rational coefficients on ``e<i>``,
    e.g. ``e1 + e10`` or ``1/2 - 3*e7``; a bare number is the scalar. A
    term is at most one sign, then a product of unsigned rationals, read
    by ``_as_fraction``, and at most one basis letter, whose index is
    plain digits. A space may stand at either end or next to a sign or
    ``*``; any other space would join two tokens (``e1 0`` is not
    ``e10``)."""
    joined = re.search(r"[^-+]*?[^-+* ] +[^-+* ][^-+]*", text.strip(" "))
    if joined:
        raise StructuralError(f"space inside term {joined.group().strip()!r}")
    stripped = text.replace(" ", "")
    if not stripped:
        raise StructuralError("empty Cayley-Dickson literal")
    coords = list(CDElement.zero(level).coords)
    # a sign opens a term unless it follows a sign, ``*`` or ``/``
    for signed in re.split(r"(?<=[^-+*/])(?=[-+])", stripped):
        chunk = signed.lstrip("+-")
        if len(signed) - len(chunk) > 1:
            raise StructuralError(f"more than one sign in term {signed!r}")
        coeff = Fraction(-1 if signed[0] == "-" else 1)
        index = None
        for factor in chunk.split("*"):
            if not factor:
                raise StructuralError(f"bad term in {text!r}")
            if factor.startswith("e"):
                if index is not None:
                    raise StructuralError(
                        f"term {chunk!r} has more than one basis letter")
                digits = factor[1:]
                if not (digits.isascii() and digits.isdigit()):
                    raise StructuralError(
                        f"bad basis letter {factor!r} in term {chunk!r}")
                index = int(digits)
            else:
                try:
                    # the term's one sign comes first: no factor has one
                    if factor[0] in "+-":
                        raise StructuralError
                    coeff *= _as_fraction(factor)
                except StructuralError:
                    raise StructuralError(
                        f"bad factor {factor!r} in term {chunk!r}") from None
        index = 0 if index is None else index
        if not 0 <= index < len(coords):
            raise StructuralError(f"basis index {index} outside level {level}")
        coords[index] += coeff
    return CDElement(level, coords)


class MatrixElement(_IntegerForm):
    """Square matrix over the rationals or over one level of the
    Cayley-Dickson tower; involution is transpose composed with the
    entrywise one.

    It holds the integer numerators of its entries' coordinates,
    row-major, each entry's ``2^level`` coordinates together, over the one
    denominator ``den``; ``level`` is ``None`` for rational entries, one
    numerator each."""

    __slots__ = ("dim",)
    _carrier = "matrix"

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(r) for r in entries]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise StructuralError("matrix entries must form a square grid")
        flat = [a for r in rows for a in r]
        self.dim = n
        if all(isinstance(a, (int, Fraction)) for a in flat):
            self.level = None
            self.nums, self.den = _integer_form([_as_fraction(a) for a in flat])
        elif all(isinstance(a, CDElement) and a.level == flat[0].level
                 for a in flat):
            # canonical entries: the least common denominator is canonical
            self.level = flat[0].level
            self.den = den = math.lcm(*[a.den for a in flat])
            self.nums = tuple([v * (den // a.den) for a in flat for v in a.nums])
        else:
            raise StructuralError("matrix entries must be all rational or all "
                                  "Cayley-Dickson elements of one level")

    @property
    def entries(self) -> tuple[tuple, ...]:
        """The entries, row by row, as ``Fraction`` or ``CDElement``; a
        read-only view."""
        n, den, nums, level = self.dim, self.den, self.nums, self.level
        if level is None:
            cells = [Fraction(v, den) for v in nums]
        else:
            w = 1 << level
            cells = [_cd(level, *_reduce(nums[i:i + w], den))
                     for i in range(0, len(nums), w)]
        return tuple([tuple(cells[i:i + n]) for i in range(0, n * n, n)])

    def unit(self) -> "MatrixElement":
        n, size = self.dim, len(self.nums)
        w = size // (n * n)
        nums = [0] * size
        # the first coordinate of each diagonal entry
        for i in range(0, size, (n + 1) * w):
            nums[i] = 1
        return self._like(tuple(nums), 1)

    def _check(self, other: "MatrixElement") -> None:
        if not isinstance(other, MatrixElement) or other.dim != self.dim:
            raise StructuralError("matrix dimension mismatch")
        if other.level != self.level:
            raise StructuralError("matrix entry algebra mismatch")

    def _like(self, nums: tuple[int, ...], den: int) -> "MatrixElement":
        m = _new(type(self))
        m.dim = self.dim
        m.level = self.level
        m.nums = nums
        m.den = den
        return m

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check(other)
        if self.level is None:
            nums = _int_matmul(self.dim, self.nums, other.nums)
        else:
            nums = _cd_matmul(self.dim, self.level, self.nums, other.nums)
        return self._like(*_reduce(nums, self.den * other.den))

    def _conj_nums(self) -> tuple[int, ...]:
        # transpose, and conjugate each entry: keep its first coordinate
        # and negate the others (none for a rational entry)
        n, nums = self.dim, self.nums
        w = len(nums) // (n * n)
        out = []
        for i in range(n):
            for j in range(n):
                s = (j * n + i) * w
                out.append(nums[s])
                out += [-a for a in nums[s + 1:s + w]]
        return tuple(out)

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(a) for a in r) + "]" for r in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"MatrixElement({self})"


def _int_matmul(n: int, xs: tuple, ys: tuple) -> list[int]:
    """Product of two row-major ``n x n`` integer grids, row-major."""
    out = []
    for i in range(0, n * n, n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += xs[i + k] * ys[k * n + j]
            out.append(acc)
    return out


def _cd_matmul(n: int, level: int, xs: tuple, ys: tuple) -> list[int]:
    """Product of two row-major ``n x n`` grids of level-``level``
    Cayley-Dickson entries, each entry's integer coordinates together:
    the entry loop, with each entry product taken by ``_cd_table_mul``
    and summed into the result entry. The product is bilinear, so this
    equals the entry loop over the ``CDElement`` entries at every level,
    the non-associative ones included."""
    w = 1 << level
    xb = [xs[i:i + w] for i in range(0, len(xs), w)]
    yb = [ys[i:i + w] for i in range(0, len(ys), w)]
    out = []
    for i in range(0, n * n, n):
        for j in range(n):
            acc = [0] * w
            for k in range(n):
                _cd_table_mul(level, xb[i + k], yb[k * n + j], acc)
            out += acc
    return out


# -- generic helpers over all coefficient algebras ---------------------------

def conj_of(x):
    """Involution: identity on rationals, dispatched otherwise."""
    if isinstance(x, (int, Fraction)):
        return x
    return x.conj()


def one_of(x):
    """The unit of ``x``'s algebra: ``x.unit()`` for every carrier but the
    rationals."""
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    unit = getattr(x, "unit", None)
    if unit is None:
        raise StructuralError(f"no unit for {type(x).__name__}")
    return unit()


def zero_of(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return x - x


def is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def known_nonassociative(x) -> bool:
    """Whether ``x`` lives in an algebra known to be non-associative: its
    ``associative`` attribute is ``False``, as on Cayley-Dickson level 3
    (octonions) and up, matrices over such an algebra, and the one-step
    doubling ``witnesses.DoubledElement``."""
    return getattr(x, "associative", True) is False


def associator(a, b, c):
    """(ab)c - a(bc)."""
    return (a * b) * c - a * (b * c)


# Each named identity's exact check; it takes as many elements as its
# lambda has arguments.
_IDENTITIES = {
    "power-assoc-3": lambda a: (a * a) * a == a * (a * a),
    "left-alternative": lambda a, b: (a * a) * b == a * (a * b),
    "right-alternative": lambda a, b: (a * b) * b == a * (b * b),
    "flexible": lambda a, b: (a * b) * a == a * (b * a),
    # the four Moufang identities of the invertible-octonion loop
    "moufang-1": lambda a, b, c: a * (b * (a * c)) == ((a * b) * a) * c,
    "moufang-2": lambda a, b, c: (a * b) * (c * a) == (a * (b * c)) * a,
    "moufang-3": lambda a, b, c: a * (b * (c * b)) == ((a * b) * c) * b,
    "moufang-4": lambda a, b, c: (a * b) * (c * a) == a * ((b * c) * a),
}


def identity_check(name: str, *elements):
    """Exact check of a named identity on concrete algebra elements.

    One element: ``power-assoc-3``. Two: ``left-alternative``,
    ``right-alternative``, ``flexible``. Three: ``moufang-1`` ..
    ``moufang-4``. The defect ``(ab)c - a(bc)`` itself is
    :func:`associator`.
    """
    check = _IDENTITIES[_choose("identity", name, _IDENTITIES)]
    arity = check.__code__.co_argcount
    if len(elements) != arity:
        raise StructuralError(f"{name} takes {arity} elements")
    return check(*elements)
