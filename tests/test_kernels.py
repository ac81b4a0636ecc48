"""The integer kernels against their oracles.

* ``CDElement`` arithmetic on integer numerators over one denominator
  against ``Fraction`` coordinate tuples: the table-driven product
  against the recursive doubling ``doubling_mul``, sums, differences, scaling
  and the conjugate against their coordinatewise definitions;
* the integer matrix product and sum against the generic entry loop on
  ``Fraction`` grids and on grids of ``CDElement`` entries at levels 0-4,
  the matrix conjugate against transpose and entrywise conjugate, and the
  Zorn doubling over split quaternions against a ``Fraction``-entry
  reference;
* ``one_of`` and ``known_nonassociative`` over every carrier;
* the canonical form of every result, and no literal check inside the
  arithmetic;
* the prefix-sum DP for ``d_l`` and ``d_l^e`` against brute enumeration of
  M-sequences, exhaustively for degree sums up to 8.
"""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopseries import StructuralError, algebras
from loopseries.algebras import CDElement, MatrixElement
from loopseries.combinatorics import (
    all_compositions,
    bit_sequences,
    lagrange_d,
    lagrange_d_labeled,
    lagrange_d_labeled_row,
)
from loopseries.freealg import NCPolynomial
from loopseries.witnesses import DoubledElement, SplitQuaternionMatrix
from oracles import (
    HQUnit,
    _generic_matmul,
    cd_norm,
    doubling_conj,
    doubling_mul,
    m_sequences_labeled,
)
from test_combinatorics import brute_d, brute_m_sequences

KERNEL_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                           derandomize=True)

# zeros are frequent, denominators mixed
fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


def coords(level):
    n = 1 << level
    return st.lists(fractions, min_size=n, max_size=n).map(tuple)


def cd_pairs():
    return st.integers(0, 4).flatmap(
        lambda level: st.tuples(st.just(level), coords(level), coords(level)))


def grids():
    def of_dim(n):
        row = st.lists(fractions, min_size=n, max_size=n).map(tuple)
        grid = st.lists(row, min_size=n, max_size=n).map(tuple)
        return st.tuples(grid, grid)
    return st.sampled_from([2, 3]).flatmap(of_dim)


def cd_grids():
    """Pairs of square grids of level-``k`` ``CDElement`` entries, ``k``
    from 0 to 4 (non-associative from 3)."""
    def of_shape(level, n):
        entry = coords(level).map(lambda c: CDElement(level, c))
        row = st.lists(entry, min_size=n, max_size=n).map(tuple)
        grid = st.lists(row, min_size=n, max_size=n).map(tuple)
        return st.tuples(grid, grid)
    return st.tuples(st.integers(0, 4), st.sampled_from([1, 2, 3])).flatmap(
        lambda shape: of_shape(*shape))


def assert_canonical(x):
    """``den > 0``, coprime to every numerator, and 1 for zero."""
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


class TestCayleyDicksonKernel:
    @KERNEL_SETTINGS
    @given(cd_pairs())
    def test_table_product_equals_recursive_doubling(self, pair):
        level, x, y = pair
        got = CDElement(level, x) * CDElement(level, y)
        assert got.coords == tuple(doubling_mul(x, y))
        assert all(type(c) is Fraction for c in got.coords)
        assert_canonical(got)

    @KERNEL_SETTINGS
    @given(cd_pairs(), fractions, st.integers(-6, 6))
    def test_linear_operations_equal_fraction_tuples(self, pair, r, k):
        level, x, y = pair
        a, b = CDElement(level, x), CDElement(level, y)
        cases = [
            (a + b, [u + v for u, v in zip(x, y)]),
            (a - b, [u - v for u, v in zip(x, y)]),
            (-a, [-u for u in x]),
            (a * r, [u * r for u in x]),
            (k * a, [k * u for u in x]),
            (a.conj(), doubling_conj(x)),
        ]
        for got, want in cases:
            assert got.coords == tuple(want)
            assert_canonical(got)
            # the same value built from its literals: equal, same hash
            again = CDElement(level, want)
            assert got == again and hash(got) == hash(again)

    @pytest.mark.parametrize("level", range(5))
    def test_basis_products(self, level):
        n = 1 << level
        for i in range(n):
            for j in range(n):
                ei = CDElement.basis(level, i)
                ej = CDElement.basis(level, j)
                want = doubling_mul(ei.coords, ej.coords)
                assert (ei * ej).coords == tuple(want)
                assert [k for k, c in enumerate(want) if c] == [i ^ j]

    def test_canonical_form(self):
        half = CDElement(1, [Fraction(1, 2), Fraction(0)])
        assert (half.nums, half.den) == ((1, 0), 2)
        assert ((half + half).nums, (half + half).den) == ((1, 0), 1)
        zero = half - half
        assert (zero.nums, zero.den) == ((0, 0), 1)
        assert zero == CDElement.zero(1) and hash(zero) == hash(CDElement.zero(1))
        assert ((half * 0).nums, (half * 0).den) == ((0, 0), 1)
        mixed = CDElement(2, [Fraction(1, 6), Fraction(-1, 4), 0, 3])
        assert (mixed.nums, mixed.den) == ((2, -3, 0, 36), 12)
        assert mixed.coords == (Fraction(1, 6), Fraction(-1, 4), 0, 3)

    def test_sedenion_zero_divisor(self):
        e = [CDElement.basis(4, i) for i in range(16)]
        assert ((e[1] + e[10]) * (e[5] + e[14])).is_zero()

    def test_level_mismatch_still_raises(self):
        with pytest.raises(StructuralError):
            CDElement.one(2) * CDElement.one(3)

    def test_sign_table_not_built_at_import(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        code = ("import loopseries.cli, loopseries.algebras as a; "
                "assert len(a._CD_SIGNS) == 1, len(a._CD_SIGNS)")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


def assert_matrix(got, want_rows):
    assert got.entries == tuple(tuple(r) for r in want_rows)
    assert_canonical(got)
    again = MatrixElement(want_rows)
    assert got == again and hash(got) == hash(again)


class TestFractionMatrixKernel:
    @KERNEL_SETTINGS
    @given(grids())
    def test_integer_product_equals_entry_loop(self, pair):
        x, y = pair
        assert_matrix(MatrixElement(x) * MatrixElement(y),
                      _generic_matmul(x, y))

    @KERNEL_SETTINGS
    @given(grids())
    def test_integer_sum_equals_entrywise_sum(self, pair):
        x, y = pair
        assert_matrix(MatrixElement(x) + MatrixElement(y),
                      [[u + v for u, v in zip(r1, r2)]
                       for r1, r2 in zip(x, y)])

    def test_subclass_kept(self):
        a = SplitQuaternionMatrix([[Fraction(1), Fraction(2)],
                                   [Fraction(0), Fraction(1, 3)]])
        assert type(a * a) is SplitQuaternionMatrix

    def test_int_entries_held_as_integers(self):
        a = MatrixElement([[1, 2], [3, 4]])
        assert (a.nums, a.den) == ((1, 2, 3, 4), 1)
        assert (a * a).entries == ((7, 10), (15, 22))
        assert type((a * a).entries[0][0]) is Fraction
        assert (MatrixElement([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
                * 2) == MatrixElement([[1, 0], [0, 1]])

    @KERNEL_SETTINGS
    @given(cd_grids())
    def test_cayley_dickson_entries_equal_entry_loop(self, pair):
        x, y = pair
        a, b = MatrixElement(x), MatrixElement(y)
        assert_canonical(a)
        assert_matrix(a * b, _generic_matmul(x, y))
        assert_matrix(a + b, [[u + v for u, v in zip(r1, r2)]
                              for r1, r2 in zip(x, y)])
        n = len(x)
        assert_matrix(a.conj(), [[x[j][i].conj() for j in range(n)]
                                 for i in range(n)])

    @pytest.mark.parametrize("entries", [
        [[Fraction(1), CDElement.one(2)], [Fraction(0), Fraction(1)]],
        [[CDElement.one(2), CDElement.zero(3)],
         [CDElement.zero(2), CDElement.one(2)]],
        [[CDElement.one(1), "0"], [CDElement.zero(1), CDElement.one(1)]],
        [[DoubledElement(Fraction(1), Fraction(0))]],
    ])
    def test_mixed_entries_refused(self, entries):
        with pytest.raises(StructuralError):
            MatrixElement(entries)

    def test_dimension_mismatch_still_raises(self):
        with pytest.raises(StructuralError):
            MatrixElement([[Fraction(1)]]) * MatrixElement(
                [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        # same dimension, other entry algebra
        with pytest.raises(StructuralError):
            MatrixElement([[Fraction(1)]]) * MatrixElement([[CDElement.one(0)]])


def ref_zorn_mul(x, y):
    """``(a, b)(c, d) = (ac - d* b, da + b c*)`` on split quaternions as
    ``Fraction`` 4-tuples, row-major, with ``a* = adj(a)``."""
    def mm(p, q):
        return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
                p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])

    def star(p):
        return (p[3], -p[1], -p[2], p[0])

    def op(f, p, q):
        return tuple(f(u, v) for u, v in zip(p, q))

    (a, b), (c, d) = x, y
    return (op(Fraction.__sub__, mm(a, c), mm(star(d), b)),
            op(Fraction.__add__, mm(d, a), mm(b, star(c))))


def zorn(a, b):
    def sq(p):
        return SplitQuaternionMatrix([p[:2], p[2:]])
    return DoubledElement(sq(a), sq(b))


def flat(m):
    return tuple(v for r in m.entries for v in r)


split_quaternions = st.lists(fractions, min_size=4, max_size=4).map(tuple)


class TestZornKernel:
    @KERNEL_SETTINGS
    @given(split_quaternions, split_quaternions, split_quaternions,
           split_quaternions)
    def test_product_and_unitary_defect_equal_fraction_reference(
            self, a, b, c, d):
        got = zorn(a, b) * zorn(c, d)
        want = ref_zorn_mul((a, b), (c, d))
        assert (flat(got.a), flat(got.b)) == want
        # a a* + b b* - 1 is the scalar det(a) + det(b) - 1
        defect = flat(zorn(a, b).unitary_defect())
        scalar = a[0] * a[3] - a[1] * a[2] + b[0] * b[3] - b[1] * b[2] - 1
        assert defect == (scalar, 0, 0, scalar)
        assert_canonical(got.a)
        assert_canonical(got.b)


def carriers():
    """``(value, its unit, known non-associative)`` for every carrier."""
    q = Fraction
    out = [(q(3, 2), q(1), False), (5, q(1), False)]
    for level in range(5):
        x = CDElement.basis(level, (1 << level) - 1, q(2, 3))
        one, zero = CDElement.one(level), CDElement.zero(level)
        out.append((x, one, level >= 3))
        m = MatrixElement([[x, zero], [one, x]])
        out.append((m, MatrixElement([[one, zero], [zero, one]]),
                    level >= 3))
    out.append((MatrixElement([[q(1, 2), 3], [0, 1]]),
                MatrixElement([[1, 0], [0, 1]]), False))
    out.append((MatrixElement([[1, 2, 3]] * 3),
                MatrixElement([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), False))
    sq = SplitQuaternionMatrix([[q(1), q(2)], [q(0), q(1, 3)]])
    out.append((sq, SplitQuaternionMatrix([[1, 0], [0, 1]]), False))
    out.append((DoubledElement(q(2), q(1)),
                DoubledElement(q(1), q(0)), True))
    out.append((zorn((q(1), q(2), q(0), q(1, 3)), (q(1, 4), 0, 5, 1)),
                zorn((1, 0, 0, 1), (0, 0, 0, 0)), True))
    free = NCPolynomial.generator(1, 1) + NCPolynomial.generator(2, 2) * 2
    out.append((free, NCPolynomial.unit(), False))
    return out


@pytest.mark.parametrize("x, unit, nonassociative", carriers())
def test_carrier_protocol(x, unit, nonassociative):
    got = algebras.one_of(x)
    assert got == unit and type(got) is type(unit)
    assert x * got == x and got * x == x
    assert algebras.known_nonassociative(x) is nonassociative


def test_no_unit_refused():
    with pytest.raises(StructuralError):
        algebras.one_of(HQUnit(1, "i"))


def test_arithmetic_checks_no_literal(monkeypatch):
    """Only the public constructors read literals; every result of the
    arithmetic is built from canonical integers."""
    h = [CDElement.basis(2, i, Fraction(i + 1, 3)) for i in range(4)]
    zero = CDElement.zero(2)
    quaternionic = MatrixElement([[h[1], zero], [h[2], h[3]]])
    rational = MatrixElement([[Fraction(1, 2), 3], [0, Fraction(-2, 5)]])
    z = zorn((Fraction(1), Fraction(2), Fraction(0), Fraction(1, 3)),
             (Fraction(1, 4), Fraction(0), Fraction(5), Fraction(1)))
    calls = []
    real = algebras._as_fraction

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(algebras, "_as_fraction", counted)
    for x in (h[1], quaternionic, rational, z):
        x * x, x + x, x - x, -x, x.conj(), x * 3, Fraction(1, 2) * x
    cd_norm(h[3])
    z.unitary_defect()
    algebras.one_of(rational)
    assert calls == []


@functools.lru_cache(maxsize=None)
def brute_labeled(ns):
    """``{e: d_l^e(ns)}`` summed over ``brute_m_sequences`` filtered by
    ``m_i = 0`` wherever ``e_i = 2``."""
    terms = [(math.prod(math.comb(n + 1, m) for n, m in zip(ns, mseq)),
              [i for i, m in enumerate(mseq) if m])
             for mseq in brute_m_sequences(len(ns))]
    return {e: sum(w for w, support in terms
                   if all(e[i] == 1 for i in support))
            for e in bit_sequences(len(ns))}


class TestLagrangeDP:
    def test_exhaustive_up_to_degree_sum_8(self):
        checked = 0
        for total in range(1, 9):
            for ns in all_compositions(total):
                assert lagrange_d(ns) == brute_d(ns)
                for e, want in brute_labeled(ns).items():
                    assert lagrange_d_labeled(e, ns) == want, (e, ns)
                    checked += 1
        assert checked == sum(2 * 3 ** (n - 1) for n in range(1, 9))

    def test_empty_argument(self):
        assert lagrange_d(()) == 1
        assert lagrange_d_labeled((), ()) == 1

    @KERNEL_SETTINGS
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6).flatmap(
        lambda ns: st.tuples(
            st.lists(st.sampled_from([1, 2]), min_size=len(ns),
                     max_size=len(ns)).map(tuple),
            st.just(tuple(ns)))))
    def test_labeled_equals_definition(self, pair):
        e, ns = pair
        want = sum(math.prod(math.comb(n + 1, m) for n, m in zip(ns, mseq))
                   for mseq in m_sequences_labeled(len(ns), e))
        assert lagrange_d_labeled(e, ns) == want

    @pytest.mark.parametrize("call", [
        lambda: lagrange_d((0, 1)),
        lambda: lagrange_d((2, -1)),
        lambda: lagrange_d_labeled((1,), (1, 2)),
        lambda: lagrange_d_labeled((1, 2, 1), (1, 2)),
        lambda: lagrange_d_labeled((1, 3), (1, 1)),
        lambda: lagrange_d_labeled((2, 0), (1, 1)),
        # degrees <= 0 pass through no entry point
        lambda: lagrange_d_labeled((1,), (0,)),
        lambda: lagrange_d_labeled((1, 1), (-1, 2)),
        lambda: lagrange_d_labeled((1, 1), (-3, 2)),
        lambda: lagrange_d_labeled_row((0, 1)),
        lambda: lagrange_d_labeled_row((1, "2")),
        lambda: lagrange_d_labeled_row((1, -2)),
    ])
    def test_validation_errors_still_raise(self, call):
        with pytest.raises(StructuralError):
            call()

    def test_long_arguments_stay_cheap(self):
        # an M(20) enumeration would visit C(20) = 6564120420 sequences
        assert lagrange_d((1,) * 20) == math.comb(42, 21) // 22
        # e = (1, 2, ..., 2) leaves only m = (20, 0, ..., 0)
        assert lagrange_d_labeled((1,) + (2,) * 19, (25,) + (1,) * 19) == \
            math.comb(26, 20)
