"""Exact coefficient algebras with involution.

Rationals (``fractions.Fraction``), the Cayley-Dickson doubling tower over
the rationals (complexes, quaternions, octonions, sedenions, ...), and
square matrices over any of these, with the helpers shared by every
carrier. The carriers that only the element loops and the witnesses use
(the one-step doubling ``A + Aj``, split quaternions, the
hyperbolic-quaternion loop) live in :mod:`loopseries.witnesses`; the
helpers reach them through their methods (``conj``, ``unit``,
``is_zero``) and the class attribute ``associative``.

The doubling product is, at every level,

    (a + bj)(c + dj) = (ac - d*b) + (da + bc*) j,

with involution ``(a + bj)* = a* - bj`` and basis convention
``e_{2^k + i} = e_i j``; this convention is pinned by the sedenion
zero-divisor identity ``(e1 + e10)(e5 + e14) = 0``.

Storage: a ``CDElement``, and a ``MatrixElement`` whose entries are all
rational, hold their value as integer numerators ``nums`` over one
denominator ``den``, in canonical form: ``den > 0``, ``gcd(den, *nums) =
1``, and zero has ``den = 1``. Sums, differences, negation, conjugation,
scaling by ``int``/``Fraction`` and products run on plain integers, and
each result is reduced once, by one ``math.gcd``; equality and hashing
compare the canonical integers. ``coords`` and ``entries`` are read-only
``Fraction`` views for the codecs and the text form. The public
constructors read their literals once, through ``_as_fraction``;
results built inside this module skip that check.

* a Cayley-Dickson product uses the basis rule ``e_i e_j = s(i, j)
  e_{i xor j}`` with a sign table ``s`` derived once per level from the
  doubling rule; the tests keep the recursive doubling as its oracle;
* a product of two rational matrices is one integer matrix product over
  the product of the two denominators; a matrix with any other entry
  type (``M_2(H)``, ``M_2(S)``) holds its entries and multiplies them
  with the generic entry loop ``_generic_matmul``, also the oracle of the
  integer product.

All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .errors import StructuralError

# bare instances for the unchecked private constructors
_new = object.__new__


def _as_fraction(v) -> Fraction:
    """An exact rational from a ``Fraction``, an integer or a string.

    The one rule for rational literals: floats and booleans are refused,
    and so are strings with digit-group underscores, an exponent or a
    non-ASCII digit, which ``Fraction`` would read as ``"1_0" == 10``,
    ``"2e1" == 20`` and a full-width ``1`` as 1.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and v.isascii() and "_" not in v \
            and "e" not in v.lower():
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


def _scale(xs, dx: int, k) -> tuple[tuple[int, ...], int]:
    """``xs/dx`` times the rational ``k`` (an ``int`` or a ``Fraction``)."""
    p, q = k.as_integer_ratio()
    return _reduce([a * p for a in xs], dx * q)


class CDElement:
    """Element of the level-``k`` Cayley-Dickson algebra over the rationals
    (dimension ``2^k``), held as integer numerators ``nums`` over the one
    denominator ``den``."""

    __slots__ = ("level", "nums", "den")

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

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "CDElement") -> None:
        if not isinstance(other, CDElement) or other.level != self.level:
            raise StructuralError("Cayley-Dickson level mismatch")

    def __add__(self, other: "CDElement") -> "CDElement":
        self._check(other)
        return _cd(self.level,
                   *_combine(add, self.nums, self.den, other.nums, other.den))

    def __sub__(self, other: "CDElement") -> "CDElement":
        self._check(other)
        return _cd(self.level,
                   *_combine(sub, self.nums, self.den, other.nums, other.den))

    def __neg__(self) -> "CDElement":
        return _cd(self.level, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _cd(self.level, *_scale(self.nums, self.den, other))
        self._check(other)
        return _cd(self.level, *_reduce(
            _cd_table_mul(self.level, self.nums, other.nums),
            self.den * other.den))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, CDElement) and other.level == self.level
                and other.den == self.den and other.nums == self.nums)

    def __hash__(self) -> int:
        return hash((self.level, self.nums, self.den))

    def conj(self) -> "CDElement":
        # the doubling involution fixes e_0 and negates every other e_i
        nums = self.nums
        return _cd(self.level, (nums[0],) + tuple([-a for a in nums[1:]]),
                   self.den)

    def norm(self) -> Fraction:
        """Scalar part of ``q q*``; for any level this is the coordinate
        sum of squares (norm multiplicativity, not scalarity, is what
        breaks at level 4)."""
        n = self * self.conj()
        return Fraction(n.nums[0], n.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __str__(self) -> str:
        chunks = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            body = str(abs(c)) if i == 0 else (
                f"e{i}" if abs(c) == 1 else f"{abs(c)}*e{i}")
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks) if chunks else "0"

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


def _cd_table_mul(level: int, xs: tuple, ys: tuple) -> list[int]:
    """Cayley-Dickson product of two integer coordinate tuples through the
    basis sign table; equal to the recursive doubling product."""
    ys = [(j, v) for j, v in enumerate(ys) if v]
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
    term is a product of rationals, read by ``_as_fraction``, and at most
    one basis letter, whose index is plain digits."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise StructuralError("empty Cayley-Dickson literal")
    coords = list(CDElement.zero(level).coords)
    # a sign opens a term unless it follows a sign, ``*`` or ``/``
    for signed in re.split(r"(?<=[^-+*/])(?=[-+])", stripped):
        chunk = signed.lstrip("+-")
        coeff = Fraction((-1) ** signed[:len(signed) - len(chunk)].count("-"))
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
                    coeff *= _as_fraction(factor)
                except StructuralError:
                    raise StructuralError(
                        f"bad factor {factor!r} in term {chunk!r}") from None
        index = 0 if index is None else index
        if not 0 <= index < len(coords):
            raise StructuralError(f"basis index {index} outside level {level}")
        coords[index] += coeff
    return CDElement(level, coords)


class MatrixElement:
    """Square matrix over an arbitrary (possibly non-associative) exact
    algebra; involution is transpose composed with the entrywise one.

    A matrix whose entries are all rational holds their integer
    numerators ``nums``, row-major, over the one denominator ``den``. Any
    other matrix holds its entries as given, and ``nums`` and ``den`` are
    ``None``."""

    __slots__ = ("dim", "nums", "den", "_cells")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(r) for r in entries]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise StructuralError("matrix entries must form a square grid")
        self.dim = n
        flat = [a for r in rows for a in r]
        if all(isinstance(a, (int, Fraction)) for a in flat):
            self.nums, self.den = _integer_form([_as_fraction(a) for a in flat])
            self._cells = None
        else:
            self.nums = self.den = None
            self._cells = tuple(rows)

    @property
    def entries(self) -> tuple[tuple, ...]:
        """The entries, row by row; a read-only ``Fraction`` view for a
        rational matrix."""
        if self.nums is None:
            return self._cells
        n, den, nums = self.dim, self.den, self.nums
        return tuple([tuple([Fraction(v, den) for v in nums[i:i + n]])
                      for i in range(0, n * n, n)])

    @classmethod
    def identity(cls, dim: int, one, zero) -> "MatrixElement":
        return cls([[one if i == j else zero for j in range(dim)]
                    for i in range(dim)])

    def _check(self, other: "MatrixElement") -> None:
        if not isinstance(other, MatrixElement) or other.dim != self.dim:
            raise StructuralError("matrix dimension mismatch")

    def _entrywise(self, op, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        if self.nums is not None and other.nums is not None:
            return _rational_matrix(type(self), self.dim, *_combine(
                op, self.nums, self.den, other.nums, other.den))
        return _entry_matrix(type(self), [
            list(map(op, r1, r2))
            for r1, r2 in zip(self.entries, other.entries)])

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        return self._entrywise(add, other)

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        return self._entrywise(sub, other)

    def __neg__(self) -> "MatrixElement":
        if self.nums is not None:
            return _rational_matrix(type(self), self.dim,
                                    tuple([-a for a in self.nums]), self.den)
        return _entry_matrix(type(self), [[-a for a in r] for r in self._cells])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.nums is not None:
                return _rational_matrix(type(self), self.dim,
                                        *_scale(self.nums, self.den, other))
            return _entry_matrix(type(self),
                                 [[a * other for a in r] for r in self._cells])
        self._check(other)
        if self.nums is not None and other.nums is not None:
            return _rational_matrix(type(self), self.dim, *_reduce(
                _int_matmul(self.dim, self.nums, other.nums),
                self.den * other.den))
        return _entry_matrix(type(self),
                             _generic_matmul(self.entries, other.entries))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        # a rational matrix never equals one holding algebra entries
        return (isinstance(other, MatrixElement) and other.dim == self.dim
                and other.den == self.den and other.nums == self.nums
                and other._cells == self._cells)

    def __hash__(self) -> int:
        return hash((self.nums, self.den, self._cells))

    def conj(self) -> "MatrixElement":
        n = self.dim
        if self.nums is not None:
            nums = self.nums
            return _rational_matrix(type(self), n, tuple(
                [nums[j * n + i] for i in range(n) for j in range(n)]),
                self.den)
        cells = self._cells
        return _entry_matrix(type(self), [[conj_of(cells[j][i])
                                           for j in range(n)]
                                          for i in range(n)])

    def is_zero(self) -> bool:
        if self.nums is not None:
            return not any(self.nums)
        return all(is_zero(a) for r in self._cells for a in r)

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(a) for a in r) + "]" for r in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"MatrixElement({self})"


def _rational_matrix(cls, dim: int, nums: tuple[int, ...], den: int):
    """A rational ``cls`` matrix from canonical integers, unchecked."""
    m = _new(cls)
    m.dim = dim
    m.nums = nums
    m.den = den
    m._cells = None
    return m


def _entry_matrix(cls, rows: list[list]):
    """A ``cls`` matrix holding the square grid ``rows``, unchecked."""
    m = _new(cls)
    m.dim = len(rows)
    m.nums = m.den = None
    m._cells = tuple([tuple(r) for r in rows])
    return m


def _generic_matmul(x, y) -> list[list]:
    """Row-by-column product using only the entries' ``*`` and ``+``."""
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


# -- generic helpers over all coefficient algebras ---------------------------

def conj_of(x):
    """Involution: identity on rationals, dispatched otherwise."""
    if isinstance(x, (int, Fraction)):
        return x
    return x.conj()


def one_of(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    if isinstance(x, CDElement):
        return CDElement.one(x.level)
    if isinstance(x, MatrixElement):
        n = x.dim
        if x.nums is not None:
            return _rational_matrix(type(x), n, tuple(
                [int(i == j) for i in range(n) for j in range(n)]), 1)
        probe = x._cells[0][0]
        return type(x).identity(n, one_of(probe), zero_of(probe))
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
    """Whether ``x`` lives in an algebra known to be non-associative:
    Cayley-Dickson level 3 (octonions) and up, matrices over such an
    algebra, and any carrier whose class sets ``associative = False``,
    such as the one-step doubling ``witnesses.DoubledElement``."""
    if isinstance(x, CDElement):
        return x.level >= 3
    if isinstance(x, MatrixElement):
        return x.nums is None and known_nonassociative(x._cells[0][0])
    return getattr(x, "associative", True) is False


def associator(a, b, c):
    """(ab)c - a(bc)."""
    return (a * b) * c - a * (b * c)


_IDENTITY_CHECKS = {
    "left-alternative": lambda a, b: (a * a) * b == a * (a * b),
    "right-alternative": lambda a, b: (a * b) * b == a * (b * b),
    "flexible": lambda a, b: (a * b) * a == a * (b * a),
}

_MOUFANG_CHECKS = {
    # the four Moufang identities of the invertible-octonion loop
    "moufang-1": lambda a, b, c: a * (b * (a * c)) == ((a * b) * a) * c,
    "moufang-2": lambda a, b, c: (a * b) * (c * a) == (a * (b * c)) * a,
    "moufang-3": lambda a, b, c: a * (b * (c * b)) == ((a * b) * c) * b,
    "moufang-4": lambda a, b, c: (a * b) * (c * a) == a * ((b * c) * a),
}


def identity_check(name: str, *elements):
    """Exact check of a named identity on concrete algebra elements.

    Two-element identities: ``left-alternative``, ``right-alternative``,
    ``flexible``, ``power-assoc-3`` (with one element). Three-element:
    ``moufang-1`` .. ``moufang-4``. The defect ``(ab)c - a(bc)`` itself is
    :func:`associator`.
    """
    if name == "power-assoc-3":
        (a,) = elements
        return (a * a) * a == a * (a * a)
    if name in _IDENTITY_CHECKS:
        a, b = elements
        return _IDENTITY_CHECKS[name](a, b)
    if name in _MOUFANG_CHECKS:
        a, b, c = elements
        return _MOUFANG_CHECKS[name](a, b, c)
    raise StructuralError(f"unknown identity {name!r}")
