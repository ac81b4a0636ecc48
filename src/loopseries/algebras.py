"""Exact coefficient algebras with involution.

Rationals (``fractions.Fraction``), the Cayley-Dickson doubling tower over
the rationals (complexes, quaternions, octonions, sedenions, ...), square
matrices over any of these, the generic one-step doubling ``A + Aj``, and
the eight-element hyperbolic-quaternion loop.

The doubling product is, at every level,

    (a + bj)(c + dj) = (ac - d*b) + (da + bc*) j,

with involution ``(a + bj)* = a* - bj`` and basis convention
``e_{2^k + i} = e_i j``; this convention is pinned by the sedenion
zero-divisor identity ``(e1 + e10)(e5 + e14) = 0``.

Storage is ``Fraction`` throughout: ``CDElement.coords`` and
``MatrixElement.entries`` are tuples of ``Fraction`` (or of algebra
elements, for matrices over them). The two hot products run on plain
integers inside the kernel and build one ``Fraction`` per output
coordinate or entry:

* a Cayley-Dickson product uses the basis rule ``e_i e_j = s(i, j)
  e_{i xor j}`` with a sign table ``s`` derived once per level from the
  doubling rule, applied to integer numerators over each operand's common
  denominator; the recursive doubling ``_cd_mul`` stays as the oracle;
* a product of two matrices with only ``Fraction`` entries is one integer
  matrix product over the two shared denominators; any other entry type
  uses the generic entry loop.

All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import StructuralError


def _as_fraction(v) -> Fraction:
    """An exact rational from a ``Fraction``, an integer or a string.

    The one rule for rational literals: floats and booleans are refused,
    and so are strings with digit-group underscores or an exponent, which
    ``Fraction`` would read as ``"1_0" == 10`` and ``"2e1" == 20``.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and "_" not in v and "e" not in v.lower():
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuralError(f"not an exact rational: {v!r}")


class CDElement:
    """Element of the level-``k`` Cayley-Dickson algebra over the rationals
    (dimension ``2^k``), held as a flat coordinate vector."""

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords: Sequence):
        if level < 0:
            raise StructuralError(f"level must be >= 0, got {level}")
        coords = tuple(_as_fraction(c) for c in coords)
        if len(coords) != 1 << level:
            raise StructuralError(
                f"level {level} needs {1 << level} coordinates, got {len(coords)}")
        self.level = level
        self.coords = coords

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "CDElement":
        return cls(level, (0,) * (1 << level))

    @classmethod
    def one(cls, level: int) -> "CDElement":
        return cls.basis(level, 0)

    @classmethod
    def basis(cls, level: int, i: int, coeff=1) -> "CDElement":
        n = 1 << level
        if not 0 <= i < n:
            raise StructuralError(f"basis index {i} outside level {level}")
        coords = [Fraction(0)] * n
        coords[i] = _as_fraction(coeff)
        return cls(level, coords)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "CDElement") -> None:
        if not isinstance(other, CDElement) or other.level != self.level:
            raise StructuralError("Cayley-Dickson level mismatch")

    def __add__(self, other: "CDElement") -> "CDElement":
        self._check(other)
        return CDElement(self.level,
                         [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "CDElement") -> "CDElement":
        self._check(other)
        return CDElement(self.level,
                         [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "CDElement":
        return CDElement(self.level, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CDElement(self.level, [a * other for a in self.coords])
        self._check(other)
        return CDElement(self.level,
                         _cd_table_mul(self.level, self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, CDElement) and other.level == self.level
                and other.coords == self.coords)

    def __hash__(self) -> int:
        return hash((self.level, self.coords))

    def conj(self) -> "CDElement":
        return CDElement(self.level, _cd_conj(self.coords))

    def norm(self) -> Fraction:
        """Scalar part of ``q q*``; for any level this is the coordinate
        sum of squares (norm multiplicativity, not scalarity, is what
        breaks at level 4)."""
        return (self * self.conj()).coords[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

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


def _cd_conj(coords: tuple) -> list:
    if len(coords) == 1:
        return [coords[0]]
    half = len(coords) // 2
    a = _cd_conj(coords[:half])
    return a + [-c for c in coords[half:]]


def _cd_mul(x: tuple, y: tuple) -> list:
    """Doubling product ``(a, b)(c, d) = (ac - d*b, da + bc*)``; the oracle
    for ``_cd_table_mul``."""
    if len(x) == 1:
        return [x[0] * y[0]]
    half = len(x) // 2
    a, b = x[:half], x[half:]
    c, d = y[:half], y[half:]
    d_conj = _cd_conj(d)
    c_conj = _cd_conj(c)
    first = [p - q for p, q in zip(_cd_mul(a, c), _cd_mul(d_conj, b))]
    second = [p + q for p, q in zip(_cd_mul(d, a), _cd_mul(b, c_conj))]
    return first + second


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


def _common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of ``Fraction`` values over their least common
    denominator, and that denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _cd_table_mul(level: int, x: tuple, y: tuple) -> list[Fraction]:
    """Cayley-Dickson product of two coordinate tuples of ``Fraction``
    through the basis sign table; equal to ``_cd_mul``."""
    xs, dx = _common_denominator(x)
    ys, dy = _common_denominator(y)
    ys = [(j, v) for j, v in enumerate(ys) if v]
    acc = [0] * len(x)
    for i, (u, row) in enumerate(zip(xs, _cd_signs(level))):
        if not u:
            continue
        for j, v in ys:
            if row[j] > 0:
                acc[i ^ j] += u * v
            else:
                acc[i ^ j] -= u * v
    den = dx * dy
    return [Fraction(a, den) for a in acc]


def cd_mul(x: CDElement, y: CDElement) -> CDElement:
    return x * y


def cd_conj(x: CDElement) -> CDElement:
    return x.conj()


def cd_norm(x: CDElement) -> Fraction:
    return x.norm()


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
    algebra; involution is transpose composed with the entrywise one."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(r) for r in entries]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise StructuralError("matrix entries must form a square grid")
        self.dim = n
        self.entries = tuple(rows)

    @classmethod
    def identity(cls, dim: int, one, zero) -> "MatrixElement":
        return cls([[one if i == j else zero for j in range(dim)]
                    for i in range(dim)])

    def _check(self, other: "MatrixElement") -> None:
        if not isinstance(other, MatrixElement) or other.dim != self.dim:
            raise StructuralError("matrix dimension mismatch")

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        return type(self)([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        return type(self)([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "MatrixElement":
        return type(self)([[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)([[a * other for a in r] for r in self.entries])
        self._check(other)
        if _all_fractions(self.entries) and _all_fractions(other.entries):
            return type(self)(_fraction_matmul(self.entries, other.entries))
        return type(self)(_generic_matmul(self.entries, other.entries))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixElement) and other.dim == self.dim
                and other.entries == self.entries)

    def __hash__(self) -> int:
        return hash(self.entries)

    def conj(self) -> "MatrixElement":
        n = self.dim
        return type(self)([[conj_of(self.entries[j][i]) for j in range(n)]
                           for i in range(n)])

    def is_zero(self) -> bool:
        return all(is_zero(a) for r in self.entries for a in r)

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(a) for a in r) + "]" for r in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"MatrixElement({self})"


def _all_fractions(rows) -> bool:
    return all(isinstance(a, Fraction) for r in rows for a in r)


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


def _fraction_matmul(x, y) -> list[list[Fraction]]:
    """Product of two square ``Fraction`` grids as one integer matrix
    product over the two shared denominators."""
    n = len(x)
    xs, dx = _common_denominator([a for r in x for a in r])
    ys, dy = _common_denominator([a for r in y for a in r])
    rows = [xs[i * n:(i + 1) * n] for i in range(n)]
    cols = [ys[j::n] for j in range(n)]
    den = dx * dy
    return [[Fraction(sum(map(mul, r, c)), den) for c in cols] for r in rows]


class SplitQuaternionMatrix(MatrixElement):
    """2x2 rational matrix carrying the symplectic involution
    ``a* = tr(a) 1 - a`` (the adjugate), under which ``a a* = det(a) 1``
    is always scalar: the split quaternion algebra. Its Cayley-Dickson
    doubling is the split octonion (Zorn) algebra, whose unitary set is
    the quadric ``det(a) + det(b) = 1``."""

    def __init__(self, entries):
        super().__init__(entries)
        if self.dim != 2:
            raise StructuralError("the symplectic involution is for 2x2 here")

    def conj(self) -> "SplitQuaternionMatrix":
        (a, b), (c, d) = self.entries
        return SplitQuaternionMatrix([[d, -b], [-c, a]])

    def det(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c


class DoubledElement:
    """One doubling step ``A + Aj`` over an involutive algebra ``A``."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other: "DoubledElement") -> "DoubledElement":
        return DoubledElement(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DoubledElement") -> "DoubledElement":
        return DoubledElement(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DoubledElement":
        return DoubledElement(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DoubledElement(self.a * other, self.b * other)
        a, b = self.a, self.b
        c, d = other.a, other.b
        return DoubledElement(a * c - conj_of(d) * b,
                              d * a + b * conj_of(c))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, DoubledElement)
                and self.a == other.a and self.b == other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def conj(self) -> "DoubledElement":
        return DoubledElement(conj_of(self.a), -self.b)

    def is_zero(self) -> bool:
        return is_zero(self.a) and is_zero(self.b)

    def unitary_defect(self):
        """``a a* + b b* - 1``; zero exactly on the unitary set."""
        n = self.a * conj_of(self.a) + self.b * conj_of(self.b)
        return n - one_of(self.a)

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})j"

    def __repr__(self) -> str:
        return f"DoubledElement({self})"


def double(a, b) -> DoubledElement:
    return DoubledElement(a, b)


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
        probe = x.entries[0][0]
        return type(x).identity(x.dim, one_of(probe), zero_of(probe))
    if isinstance(x, DoubledElement):
        return DoubledElement(one_of(x.a), zero_of(x.b))
    raise StructuralError(f"no unit for {type(x).__name__}")


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
    algebra, and any one-step doubling ``A + Aj``."""
    if isinstance(x, CDElement):
        return x.level >= 3
    if isinstance(x, MatrixElement):
        return known_nonassociative(x.entries[0][0])
    return isinstance(x, DoubledElement)


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
    ``moufang-1`` .. ``moufang-4``. ``associator`` returns ``(ab)c - a(bc)``
    instead of a boolean.
    """
    if name == "associator":
        if len(elements) != 3:
            raise StructuralError("associator takes three elements")
        return associator(*elements)
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


# -- hyperbolic quaternions ---------------------------------------------------

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


def hq_mul(x: HQUnit, y: HQUnit) -> HQUnit:
    return x * y


def hq_divide(side: str, x: HQUnit, y: HQUnit) -> HQUnit:
    """Table-derived division: left gives the unique ``c`` with ``x c = y``,
    right the unique ``c`` with ``c x = y``."""
    sols = [c for c in hq_elements()
            if (x * c if side == "left" else c * x) == y]
    if len(sols) != 1:
        raise StructuralError(f"division not unique: {len(sols)} solutions")
    return sols[0]


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
