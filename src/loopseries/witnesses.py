"""The unitary element loop of a doubling, the witness-only carriers and
the named counterexample witnesses.

The unitary elements of a Cayley-Dickson doubling ``A + Aj`` are divided
through the doubled conjugate (``ucd_divide``); the ``ucd-not-loop``
witness shows where that division fails. Two carriers serve only it and
the witnesses: the one-step doubling ``DoubledElement`` and
``SplitQuaternionMatrix``, whose doubling is the split octonion (Zorn)
algebra. ``witness`` recomputes one of the named counterexamples from
scratch and checks every known value. Every witness is fixed:
``ucd-not-loop`` reads one sample, drawn from a constant seed.

Of the commands only ``witness`` imports this module, so ``divide`` and
``invert`` never compile it.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable

from . import SIDES, DomainError, StructuralError, _choose
from .algebras import (
    CDElement,
    MatrixElement,
    associator,
    conj_of,
    is_zero,
    one_of,
    zero_of,
)
from .seriesloops import (
    TruncatedSeries,
    diff_compose,
    inv_mul,
    series_inverse,
)


class DoubledElement:
    """One doubling step ``A + Aj`` over an involutive algebra ``A``.

    ``associative = False`` marks it as known to be non-associative
    (``algebras.known_nonassociative``), so a ``diff`` series refuses it
    whatever ``A`` is; ``algebras.one_of`` returns its ``unit()``."""

    __slots__ = ("a", "b")
    associative = False

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

    def unit(self) -> "DoubledElement":
        return DoubledElement(one_of(self.a), zero_of(self.b))

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


class SplitQuaternionMatrix(MatrixElement):
    """2x2 rational matrix carrying the symplectic involution
    ``a* = tr(a) 1 - a`` (the adjugate), under which ``a a* = det(a) 1``
    is always scalar: the split quaternion algebra. Its Cayley-Dickson
    doubling is the split octonion (Zorn) algebra, whose unitary set is
    the quadric ``det(a) + det(b) = 1``."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        if self.dim != 2:
            raise StructuralError("the symplectic involution is for 2x2 here")
        if self.level is not None:
            raise StructuralError("split quaternions have rational entries")

    def _conj_nums(self) -> tuple[int, ...]:
        a, b, c, d = self.nums
        return (d, -b, -c, a)


# -- the unitary element loop of a doubling ----------------------------------

def ucd_divide(side: str, x: DoubledElement, y: DoubledElement
               ) -> DoubledElement:
    """Division in the unitary elements of a doubling ``A + Aj``
    (``a a* + b b* = 1``) through the doubled conjugate, ``x^{-1} = x*``.
    This shortcut is a genuine loop division exactly on alternative
    carriers; on others the cancellation defect is what ``ucd-not-loop``
    exhibits."""
    _choose("side", side, SIDES)
    if not is_zero(x.unitary_defect()):
        raise DomainError("a unitary division needs a a* + b b* = 1")
    inv = x.conj()
    return inv * y if side == "left" else y * inv


# -- seeded exact samplers ----------------------------------------------------

def _quaternion_units() -> list[CDElement]:
    units = []
    for i in range(4):
        units.append(CDElement.basis(2, i))
        units.append(CDElement.basis(2, i) * -1)
    return units


def sample_zorn_unitaries(rng: Random, count: int) -> list[DoubledElement]:
    """Seeded unitary elements of the split octonion (Zorn) algebra
    ``M_2(Q) + M_2(Q) j`` built on the symplectic matrix involution, for
    which ``a a* + b b* = (det a + det b) 1``: sample exact points of the
    quadric ``det a + det b = 1``."""
    def shear() -> SplitQuaternionMatrix:
        t = Fraction(rng.randint(-3, 3))
        if rng.random() < 0.5:
            return SplitQuaternionMatrix([[1, t], [0, 1]])
        return SplitQuaternionMatrix([[1, 0], [t, 1]])

    def det_one() -> SplitQuaternionMatrix:
        m = shear()
        for _ in range(rng.randrange(3)):
            m = m * shear()
        return m

    def det_zero() -> SplitQuaternionMatrix:
        p, q, r, s = (Fraction(rng.randint(-2, 2)) for _ in range(4))
        return SplitQuaternionMatrix([[p * r, p * s], [q * r, q * s]])

    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            x = DoubledElement(det_one(), det_zero())
        else:
            x = DoubledElement(det_zero(), det_one())
        out.append(x)
    return out


def sample_ucd_unitaries(rng: Random, count: int) -> list[DoubledElement]:
    """Seeded unitary elements ``(a, b)`` with ``a a* + b b* = 1`` of
    ``M_2`` over the quaternions doubled with the transpose-plus-conjugation
    involution; that carrier is not a composition algebra, which is what
    the failing witness exploits. Two shapes keep ``b`` normal (so the
    doubled conjugate is a genuine two-sided inverse); the third has ``b``
    supported on a single row, unitary in the defining sense yet with
    ``x x* != 1``.
    """
    units = _quaternion_units()
    zero = CDElement.zero(2)
    # exact Pythagorean weights c^2 + s^2 = 1
    weights = [(Fraction(3, 5), Fraction(4, 5)),
               (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17))]

    def unitary_entry_matrix() -> MatrixElement:
        p, q = rng.choice(units), rng.choice(units)
        if rng.random() < 0.5:
            return MatrixElement([[p, zero], [zero, q]])
        return MatrixElement([[zero, p], [q, zero]])

    out = []
    zero_m = MatrixElement([[zero, zero], [zero, zero]])
    while len(out) < count:
        c, s = rng.choice(weights)
        shape = rng.randrange(3)
        if shape == 0:
            x = DoubledElement(unitary_entry_matrix(), zero_m)
        elif shape == 1:
            x = DoubledElement(unitary_entry_matrix() * c,
                               unitary_entry_matrix() * s)
        else:
            row = rng.randrange(2)
            other = 1 - row
            a_cells = [[zero, zero], [zero, zero]]
            a_cells[other][other] = rng.choice(units)
            b_cells = [[zero, zero], [zero, zero]]
            b_cells[row][0] = rng.choice(units) * c
            b_cells[row][1] = rng.choice(units) * s
            x = DoubledElement(MatrixElement(a_cells), MatrixElement(b_cells))
        out.append(x)
    return out


# -- named counterexample witnesses -------------------------------------------

def _sed(*indices) -> CDElement:
    out = CDElement.zero(4)
    for i in indices:
        out = out + CDElement.basis(4, i)
    return out


def _report(name: str, inputs: dict, computed: dict, checks: list) -> dict:
    return {
        "name": name,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "computed": {k: str(v) for k, v in computed.items()},
        "checks": [{"description": d, "pass": bool(ok)} for d, ok in checks],
        "pass": all(ok for _, ok in checks),
    }


def _witness_diff_power_assoc() -> dict:
    c1 = MatrixElement([[1, 1], [0, 1]])
    c2 = MatrixElement([[1, 0], [1, 0]])
    c = TruncatedSeries("diff", 6, [c1, c2])
    lhs = diff_compose(diff_compose(c, c), c)
    rhs = diff_compose(c, diff_compose(c, c))
    t1 = c1 * c2 * (c1 * c1)
    t2 = (c1 * c1) * c2 * c1
    checks = [
        ("c1 c2 c1^2 = [[2,4],[1,2]]", t1 == MatrixElement([[2, 4], [1, 2]])),
        ("c1^2 c2 c1 = [[3,3],[1,1]]", t2 == MatrixElement([[3, 3], [1, 1]])),
        ("(c o c) o c and c o (c o c) agree below t^6",
         all(lhs.coeff(n) == rhs.coeff(n) for n in range(1, 5))),
        ("defect at t^6 is c1 c2 c1^2 - c1^2 c2 c1",
         lhs.coeff(5) - rhs.coeff(5) == t1 - t2),
        ("composition is not power associative", lhs != rhs),
    ]
    return _report("diff-power-assoc",
                   {"c1": c1, "c2": c2},
                   {"c1*c2*c1^2": t1, "c1^2*c2*c1": t2,
                    "((c o c) o c - c o (c o c))_5": lhs.coeff(5) - rhs.coeff(5)},
                   checks)


def _witness_diff_right_alt() -> dict:
    one = MatrixElement([[1, 0], [0, 1]])
    b1 = MatrixElement([[1, 0], [0, 0]])   # E_11
    b2 = MatrixElement([[0, 0], [1, 0]])   # E_21
    a = TruncatedSeries("diff", 6, [one])
    b = TruncatedSeries("diff", 6, [b1, b2])
    lhs = diff_compose(diff_compose(a, b), b)
    rhs = diff_compose(a, diff_compose(b, b))
    checks = [
        ("b2 b1^2 = b2", b2 * b1 * b1 == b2),
        ("b1 b2 b1 = 0", (b1 * b2 * b1).is_zero()),
        ("defect at t^6 is a1 (b2 b1^2 - b1 b2 b1)",
         lhs.coeff(5) - rhs.coeff(5) == one * (b2 * b1 * b1 - b1 * b2 * b1)),
        ("composition is not right alternative", lhs != rhs),
    ]
    return _report("diff-right-alt", {"a1": one, "b1": b1, "b2": b2},
                   {"((a o b) o b - a o (b o b))_5": lhs.coeff(5) - rhs.coeff(5)},
                   checks)


def _sedenion_matrix_a1() -> MatrixElement:
    E = _sed(1, 10)
    F = _sed(5, 14)
    zero = CDElement.zero(4)
    one = CDElement.one(4)
    return MatrixElement([[E, F], [zero, one]])


def _sedenion_matrix_defect() -> MatrixElement:
    """``[[0, -2(e5+e14)], [0, 0]]``: the defect ``(a1 a1) a1 - a1 (a1 a1)``
    of ``_sedenion_matrix_a1`` that both of its witnesses expect."""
    zero = CDElement.zero(4)
    return MatrixElement([[zero, _sed(5, 14) * -2], [zero, zero]])


def _witness_inv_left_right_inverse() -> dict:
    a1 = _sedenion_matrix_a1()
    a = TruncatedSeries("inv", 4, [a1])
    right_inv = series_inverse(a, "right")    # e / a
    left_inv = series_inverse(a, "left")      # a \ e
    expected = _sedenion_matrix_defect()
    diff3 = left_inv.coeff(3) - right_inv.coeff(3)
    checks = [
        ("inverses agree below t^3",
         all(right_inv.coeff(n) == left_inv.coeff(n) for n in (1, 2))),
        ("(e/a)_3 = -(a1 a1) a1",
         right_inv.coeff(3) == -((a1 * a1) * a1)),
        ("(a\\e)_3 = -a1 (a1 a1)",
         left_inv.coeff(3) == -(a1 * (a1 * a1))),
        ("(a\\e - e/a)_3 = [[0, -2(e5+e14)], [0, 0]]", diff3 == expected),
        ("left and right inverses differ", right_inv != left_inv),
    ]
    return _report(
        "inv-left-right-inverse", {"a1": a1},
        {"(a\\e - e/a)_3": diff3,
         "note": "the expected matrix is the difference left-minus-right; "
                 "the right-minus-left difference flips its sign"},
        checks)


def _witness_inv_right_alt() -> dict:
    E = _sed(1, 10)
    F = _sed(5, 14)
    a = TruncatedSeries("inv", 3, [E])
    b = TruncatedSeries("inv", 3, [F])
    lhs = inv_mul(inv_mul(a, b), b)
    rhs = inv_mul(a, inv_mul(b, b))
    defect = lhs.coeff(3) - rhs.coeff(3)
    checks = [
        ("(e1+e10)(e5+e14) = 0", (E * F).is_zero()),
        ("(e5+e14)^2 = -2", F * F == CDElement.one(4) * -2),
        ("agree below t^3",
         all(lhs.coeff(n) == rhs.coeff(n) for n in (1, 2))),
        ("((ab)b - a(bb))_3 = 2(e1+e10)", defect == E * 2),
    ]
    return _report("inv-right-alt", {"a1": E, "b1": F},
                   {"((ab)b - a(bb))_3": defect}, checks)


def _witness_inv_power_assoc() -> dict:
    a1 = _sedenion_matrix_a1()
    a = TruncatedSeries("inv", 3, [a1])
    lhs = inv_mul(inv_mul(a, a), a)
    rhs = inv_mul(a, inv_mul(a, a))
    defect = lhs.coeff(3) - rhs.coeff(3)
    expected = _sedenion_matrix_defect()
    checks = [
        ("a1^2 a1 - a1 a1^2 is the expected defect",
         associator(a1, a1, a1) == expected),
        ("((aa)a - a(aa))_3 = [[0, -2(e5+e14)], [0, 0]]", defect == expected),
        ("agree below t^3",
         all(lhs.coeff(n) == rhs.coeff(n) for n in (1, 2))),
    ]
    return _report("inv-power-assoc", {"a1": a1},
                   {"((aa)a - a(aa))_3": defect}, checks)


# the one sample of ``ucd-not-loop``; its report names it, as its ``seed``
_UCD_SAMPLE_SEED = 0x123456789ABCDEF0


def _witness_ucd_not_loop() -> dict:
    rng = Random(_UCD_SAMPLE_SEED)
    rational = sample_zorn_unitaries(rng, 24)
    ok_zorn = True
    for x in rational[:12]:
        for y in rational[12:]:
            left = ucd_divide("left", x, y)
            if not is_zero(left.unitary_defect()) or x * left != y:
                ok_zorn = False
    quaternionic = sample_ucd_unitaries(rng, 40)
    found = None
    for x in quaternionic:
        for y in quaternionic:
            left = ucd_divide("left", x, y)
            stays = is_zero(left.unitary_defect())
            cancels = (x * left == y)
            if not (stays and cancels):
                found = (x, y, left, stays, cancels)
                break
        if found:
            break
    checks = [
        ("conjugate division is a loop division on M_2(Q) + M_2(Q) j (Zorn)",
         ok_zorn),
        ("witness pair found in U_CD(M_2(H))", found is not None),
    ]
    computed = {"seed": _UCD_SAMPLE_SEED}
    if found:
        x, y, left, stays, cancels = found
        defect = x * left - y
        computed.update({
            "x": x, "y": y, "x\\y": left,
            "division stays unitary": stays,
            "x (x\\y) = y": cancels,
            "cancellation defect": defect,
        })
        checks.append(("defect is nonzero",
                       not is_zero(defect) or not stays))
    return _report("ucd-not-loop", {}, computed, checks)


_WITNESSES: dict[str, Callable[[], dict]] = {
    "diff-power-assoc": _witness_diff_power_assoc,
    "diff-right-alt": _witness_diff_right_alt,
    "inv-left-right-inverse": _witness_inv_left_right_inverse,
    "inv-right-alt": _witness_inv_right_alt,
    "inv-power-assoc": _witness_inv_power_assoc,
    "ucd-not-loop": _witness_ucd_not_loop,
}

WITNESS_NAMES = tuple(sorted(_WITNESSES))


def witness(name: str) -> dict:
    """Recompute one of the named counterexamples from scratch and
    check every known value; the report carries all computed sides."""
    return _WITNESSES[_choose("witness", name, WITNESS_NAMES)]()
