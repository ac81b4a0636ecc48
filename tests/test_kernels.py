"""The integer kernels against their oracles.

* the table-driven Cayley-Dickson product against the recursive doubling
  ``_cd_mul``;
* the shared-denominator ``Fraction`` matrix product against the generic
  entry loop;
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

from loopseries.algebras import (
    CDElement,
    MatrixElement,
    SplitQuaternionMatrix,
    _cd_mul,
    _fraction_matmul,
    _generic_matmul,
)
from loopseries.combinatorics import (
    all_compositions,
    bit_sequences,
    lagrange_d,
    lagrange_d_labeled,
    lagrange_d_labeled_row,
    m_sequences_labeled,
)
from loopseries.errors import StructuralError
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


class TestCayleyDicksonKernel:
    @KERNEL_SETTINGS
    @given(cd_pairs())
    def test_table_product_equals_recursive_doubling(self, pair):
        level, x, y = pair
        got = CDElement(level, x) * CDElement(level, y)
        assert got.coords == tuple(_cd_mul(x, y))
        assert all(type(c) is Fraction for c in got.coords)

    @pytest.mark.parametrize("level", range(5))
    def test_basis_products(self, level):
        n = 1 << level
        for i in range(n):
            for j in range(n):
                ei = CDElement.basis(level, i)
                ej = CDElement.basis(level, j)
                want = _cd_mul(ei.coords, ej.coords)
                assert (ei * ej).coords == tuple(want)
                assert [k for k, c in enumerate(want) if c] == [i ^ j]

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


class TestFractionMatrixKernel:
    @KERNEL_SETTINGS
    @given(grids())
    def test_integer_product_equals_entry_loop(self, pair):
        x, y = pair
        want = _generic_matmul(x, y)
        assert _fraction_matmul(x, y) == want
        assert (MatrixElement(x) * MatrixElement(y)).entries == \
            tuple(tuple(r) for r in want)

    def test_subclass_kept(self):
        a = SplitQuaternionMatrix([[Fraction(1), Fraction(2)],
                                   [Fraction(0), Fraction(1, 3)]])
        assert type(a * a) is SplitQuaternionMatrix

    def test_int_entries_use_entry_loop(self):
        a = MatrixElement([[1, 2], [3, 4]])
        assert (a * a).entries == ((7, 10), (15, 22))
        assert type((a * a).entries[0][0]) is int

    def test_dimension_mismatch_still_raises(self):
        with pytest.raises(StructuralError):
            MatrixElement([[Fraction(1)]]) * MatrixElement(
                [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])


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
