import itertools
import math

import pytest

from loopseries import SERIES_FLAVORS, StructuralError, combinatorics
from loopseries.combinatorics import (
    all_compositions,
    bit_sequences,
    bit_sign,
    check_lagrange_args,
    codivision_terms,
    compositions,
    d_cache_rows,
    is_m_sequence,
    lagrange_d,
    lagrange_d_labeled,
    lagrange_d_labeled_row,
    m_sequences,
    msequence_trees,
)
from oracles import (
    LEAF,
    _phi,
    catalan,
    d_recurrence_check,
    m_sequences_labeled,
    operator_expansions,
    tree_leaves,
    tree_of_msequence,
    tree_to_parens,
    weak_compositions,
)


def brute_m_sequences(length):
    """Independent enumeration: filter all tuples of ``length`` non-negative
    entries summing to ``length`` (stars and bars) by the prefix rule."""
    if length == 0:
        return [()]
    out = []
    slots = 2 * length - 1
    for bars in itertools.combinations(range(slots), length - 1):
        cuts = (-1,) + bars + (slots,)
        t = tuple(cuts[i + 1] - cuts[i] - 1 for i in range(length))
        if all(sum(t[:j]) >= j for j in range(1, length)):
            out.append(t)
    return out


def brute_d(ns):
    return sum(
        math.prod(math.comb(n + 1, m) for n, m in zip(ns, mseq))
        for mseq in brute_m_sequences(len(ns))
    ) if ns else 1


class TestCompositions:
    def test_display_values(self):
        assert compositions(3, 2) == [(2, 1), (1, 2)]
        assert compositions(3, 3) == [(1, 1, 1)]
        assert compositions(1, 1) == [(1,)]
        assert compositions(2, 2) == [(1, 1)]

    def test_count_is_binomial(self):
        for n in range(1, 13):
            for ell in range(1, n + 1):
                got = compositions(n, ell)
                assert len(got) == math.comb(n - 1, ell - 1)
                assert len(set(got)) == len(got)
                assert all(sum(c) == n and min(c) >= 1 for c in got)
        assert len(compositions(10, 4)) == 84

    def test_out_of_range(self):
        assert compositions(3, 4) == []
        assert compositions(3, 0) == []
        assert compositions(0, 1) == []

    @pytest.mark.parametrize("n", range(0, 11))
    def test_order_is_descending(self, n):
        # brute force: each subset of the n - 1 gaps between n units
        # is the set of cuts of one composition; n = 0 has none
        brute: dict[int, list] = {}
        for mask in range(2 ** n // 2):
            parts, run = [], 1
            for gap in range(n - 1):
                if mask >> gap & 1:
                    parts.append(run)
                    run = 0
                run += 1
            comp = tuple(parts + [run])
            brute.setdefault(len(comp), []).append(comp)
        for ell in range(-1, n + 2):
            assert compositions(n, ell) == \
                sorted(brute.get(ell, []), reverse=True), (n, ell)

    def test_all_compositions(self):
        assert len(all_compositions(6)) == 2 ** 5

    def test_weak_compositions(self):
        assert list(weak_compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(weak_compositions(0, 0)) == [()]
        assert len(list(weak_compositions(5, 3))) == math.comb(7, 2)


class TestMSequences:
    def test_display_values(self):
        assert m_sequences(2) == [(2, 0), (1, 1)]
        assert m_sequences(3) == [(3, 0, 0), (2, 1, 0), (2, 0, 1),
                                  (1, 2, 0), (1, 1, 1)]

    def test_counts_are_catalan(self):
        assert len(m_sequences(4)) == 14
        assert set(m_sequences(4)) == set(brute_m_sequences(4))
        for ell in range(1, 9):
            assert len(m_sequences(ell)) == catalan(ell)

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_order_is_descending(self, ell):
        assert m_sequences(ell) == sorted(brute_m_sequences(ell),
                                          reverse=True)

    @pytest.mark.parametrize("ell", range(0, 7))
    def test_bit_sequences_are_lexicographic(self, ell):
        got = bit_sequences(ell)
        assert len(got) == len(set(got)) == 2 ** ell
        assert set(got) == set(itertools.product((1, 2), repeat=ell))
        assert got == sorted(got)

    def test_length_zero_is_empty_set(self):
        assert m_sequences(0) == []
        assert lagrange_d(()) == 1

    def test_labeled_subsets(self):
        assert m_sequences_labeled(2, (1, 2)) == [(2, 0)]
        assert m_sequences_labeled(3, (1, 2, 1)) == [(3, 0, 0), (2, 0, 1)]
        assert m_sequences_labeled(3, (2, 1, 1)) == []
        assert m_sequences_labeled(3, (1, 1, 1)) == m_sequences(3)
        assert m_sequences_labeled(3, (1, 1, 2)) == [(3, 0, 0), (2, 1, 0),
                                                     (1, 2, 0)]

    def test_labeled_validation(self):
        with pytest.raises(StructuralError):
            m_sequences_labeled(3, (1, 2))
        with pytest.raises(StructuralError):
            m_sequences_labeled(2, (1, 3))


class TestLagrangeCoefficients:
    def test_reference_values(self):
        assert lagrange_d((2,)) == 3
        assert lagrange_d((1, 2)) == 7
        assert lagrange_d((2, 1)) == 9
        assert lagrange_d((1, 1, 1, 1)) == 42

    def test_all_ones_gives_catalan(self):
        assert [lagrange_d((1,) * ell) for ell in range(1, 6)] == \
            [2, 5, 14, 42, 132]

    def test_against_brute_force(self):
        for ns in itertools.chain.from_iterable(
                itertools.product(range(1, 4), repeat=ell)
                for ell in range(0, 5)):
            assert lagrange_d(ns) == brute_d(ns)

    def test_labeled_values(self):
        assert lagrange_d_labeled((1, 2), (1, 1)) == 1
        # d_3^(1,2,2) = binom(n_1 + 1, 3)
        for ns in itertools.product(range(1, 5), repeat=3):
            assert lagrange_d_labeled((1, 2, 2), ns) == math.comb(ns[0] + 1, 3)
        assert lagrange_d_labeled((1, 2, 2), (2, 1, 1)) == 1
        assert lagrange_d_labeled((2, 1), (5, 7)) == 0

    def test_labeled_bounds(self):
        for ell in range(1, 5):
            for ns in itertools.product(range(1, 4), repeat=ell):
                full = lagrange_d(ns)
                for e in bit_sequences(ell):
                    de = lagrange_d_labeled(e, ns)
                    assert 0 <= de <= full
                    if e == (1,) * ell:
                        assert de == full
                    if e[0] == 2:
                        assert de == 0

    def test_bit_sign(self):
        assert bit_sign((1, 1)) == 1
        assert bit_sign((1, 2)) == -1
        assert bit_sign((2, 2)) == 1
        assert bit_sign(()) == 1

    def test_positive_degree_validation(self):
        with pytest.raises(StructuralError):
            lagrange_d((0, 1))


class TestArgumentCheck:
    @pytest.mark.parametrize("e, ns", [
        ((1, 3), (1, 1)), ((2, 0), (1, 1)), ((1,), (1, 2)),
        ((1, 2, 1), (1, 2))])
    def test_bits_refused_by_the_one_check(self, e, ns, monkeypatch):
        import oracles
        from loopseries import operators
        from loopseries.freealg import NCPolynomial

        calls = []

        def counted(ns, e=None):
            calls.append(e)
            return check_lagrange_args(ns, e)

        monkeypatch.setattr(combinatorics, "check_lagrange_args", counted)
        monkeypatch.setattr(operators, "check_lagrange_args", counted)
        monkeypatch.setattr(oracles, "check_lagrange_args", counted)
        letters = [NCPolynomial.generator(1, n) for n in ns]
        for call in (lambda: m_sequences_labeled(len(ns), e),
                     lambda: lagrange_d_labeled(e, ns),
                     lambda: operators.right_op_e(e, letters),
                     lambda: operators.right_op_e(e, letters, "closed")):
            calls.clear()
            with pytest.raises(StructuralError, match="bits"):
                call()
            assert calls == [e]

    def test_returns_tuples(self):
        assert check_lagrange_args([2, 1]) == ((2, 1), None)
        assert check_lagrange_args([2, 1], [1, 2]) == ((2, 1), (1, 2))
        assert check_lagrange_args((), ()) == ((), ())


class TestRecurrences:
    def test_alt_sign_example(self):
        # d_2(1,1) = -binom(2,2) + binom(3,1) d_1(1) = -1 + 6 = 5
        assert lagrange_d((1, 1)) == 5
        assert d_recurrence_check("alt-sign", (1, 1))

    def test_product_single_term(self):
        for n in range(1, 11):
            assert lagrange_d((n,)) == math.comb(n + 1, 1)
            assert d_recurrence_check("product", (n,))

    def test_shift_example(self):
        assert lagrange_d((1, 1, 1)) == 14
        assert d_recurrence_check("shift", (1, 1, 1))

    def test_all_variants_all_compositions(self):
        for n in range(1, 11):
            for comp in all_compositions(n):
                for variant in ("alt-sign", "product", "shift"):
                    assert d_recurrence_check(variant, comp), (variant, comp)

    def test_unknown_variant(self):
        with pytest.raises(StructuralError):
            d_recurrence_check("nope", (1,))


class TestLabeledRow:
    def test_row_equals_single_values(self):
        # every composition of sum <= 9, every e, in bit_sequences order
        for total in range(1, 10):
            for ns in all_compositions(total):
                es = bit_sequences(len(ns))
                assert lagrange_d_labeled_row(ns) == \
                    [lagrange_d_labeled(e, ns) for e in es], ns
        assert lagrange_d_labeled_row(()) == [1]

    def test_row_equals_brute_sum(self):
        labeled = {e: m_sequences_labeled(len(e), e)
                   for ell in range(1, 8) for e in bit_sequences(ell)}
        zeros = 0
        for total in range(1, 10):
            for ns in all_compositions(total):
                if len(ns) > 7:
                    continue
                row = lagrange_d_labeled_row(ns)
                for e, value in zip(bit_sequences(len(ns)), row):
                    brute = sum(math.prod(math.comb(n + 1, m)
                                          for n, m in zip(ns, mseq))
                                for mseq in labeled[e])
                    assert value == brute, (e, ns)
                    zeros += value == 0
                # every e starting with the bit 2 is a zero row entry
                assert row[len(row) // 2:] == [0] * (len(row) // 2)
        assert zeros > 0

    def test_zero_entries_past_the_first_bit(self):
        # M(3)^(1,2,2) = {(3, 0, 0)}, whose weight binom(2, 3) vanishes
        ns = (1, 1, 1)
        row = dict(zip(bit_sequences(3), lagrange_d_labeled_row(ns)))
        assert m_sequences_labeled(3, (1, 2, 2)) == [(3, 0, 0)]
        assert row[(1, 2, 2)] == 0
        assert row[(1, 1, 1)] == lagrange_d(ns)


class TestCodivisionTerms:
    @pytest.mark.parametrize("lagrange", [True, False])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_terms_equal_the_definition(self, side, lagrange):
        # each coefficient summed over M(l)^e directly, (-1)^e from the
        # bits; the right term is c u y..y, the left one c c_e..c_e v with
        # v = -u, so its sign moves into the coefficient
        for n in range(1, 8):
            want = []
            for comp in all_compositions(n):
                ell = len(comp) - 1
                labels = bit_sequences(ell) if side == "left" and lagrange \
                    else [(1,) * ell]
                for e in labels:
                    d = 1
                    if lagrange and ell:
                        d = sum(math.prod(math.comb(k + 1, m)
                                          for k, m in zip(comp, mseq))
                                for mseq in m_sequences_labeled(ell, e))
                    c = (-1) ** ell * (-1) ** (sum(e) - ell) * d
                    if c and side == "right":
                        want.append((c, (0,) + (2,) * ell, comp))
                    elif c:
                        want.append((-c, e + (0,), comp))
            got = list(codivision_terms(side, lagrange, n))
            assert got == want, (side, lagrange, n)
            assert all(c != 0 for c, _, _ in got)
            if not lagrange:
                assert len(got) == 2 ** (n - 1)
                flip = 1 if side == "right" else -1
                assert [c for c, _, _ in got] == \
                    [flip * (-1) ** (len(comp) - 1) for _, _, comp in got]

    @pytest.mark.parametrize("lagrange", [True, False])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_term_layout(self, side, lagrange):
        # one label per letter and one difference letter (bit 0): first
        # on the right, every other letter y; last on the left, after
        # letters of either copy
        for n in range(1, 9):
            for c, bits, comp in codivision_terms(side, lagrange, n):
                assert len(bits) == len(comp) and sum(comp) == n
                assert bits.count(0) == 1
                if side == "right":
                    assert bits == (0,) + (2,) * (len(comp) - 1)
                else:
                    assert bits[-1] == 0
                    assert set(bits[:-1]) <= {1, 2}
                    if not lagrange:
                        assert set(bits[:-1]) <= {1}

    def test_tables_and_closed_divisions_read_the_terms(self, monkeypatch):
        from fractions import Fraction

        from loopseries import coloops, seriesloops
        calls = []
        terms = combinatorics.codivision_terms

        def counting(side, lagrange, n):
            calls.append((side, lagrange, n))
            return terms(side, lagrange, n)

        monkeypatch.setattr(combinatorics, "codivision_terms", counting)
        monkeypatch.setattr(coloops, "codivision_terms", counting)

        fdb = coloops.Coloop("fdb")
        for kind, side in (("delta_r", "right"), ("delta_l", "left")):
            calls.clear()
            got = fdb.codivision(side, 5)
            assert calls == [(side, True, 5)]
            for expansion in operator_expansions(kind, 5).values():
                assert got == expansion

        for flavor in SERIES_FLAVORS:
            a = seriesloops.TruncatedSeries(
                flavor, 5, [Fraction(v) for v in (1, -2, 3, 0, 1)])
            b = seriesloops.TruncatedSeries(
                flavor, 5, [Fraction(v) for v in (2, 1, -1, 4, 0)])
            for side in ("right", "left"):
                calls.clear()
                got = seriesloops.divide(side, a, b, "closed")
                assert sorted(calls) == [
                    (side, flavor == "diff", n) for n in range(1, 6)]
                assert got == seriesloops.divide(side, a, b, "recursive")


def enumerate_trees(leaves):
    if leaves == 1:
        return [LEAF]
    out = []
    for k in range(1, leaves):
        for left in enumerate_trees(k):
            for right in enumerate_trees(leaves - k):
                out.append((left, right))
    return out


class TestTreeBijection:
    def test_base_cases(self):
        assert tree_of_msequence(()) == LEAF
        assert tree_of_msequence((1,)) == (LEAF, LEAF)
        t20 = tree_of_msequence((2, 0))
        t11 = tree_of_msequence((1, 1))
        assert {t20, t11} == {((LEAF, LEAF), LEAF), (LEAF, (LEAF, LEAF))}
        assert t20 != t11

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_bijection_onto_trees(self, ell):
        images = [tree_of_msequence(m) for m in m_sequences(ell)]
        assert len(set(images)) == len(images)
        assert all(tree_leaves(t) == ell + 1 for t in images)
        if ell <= 5:
            assert set(images) == set(enumerate_trees(ell + 1))
        else:
            assert len(images) == catalan(ell)

    def test_m3_gives_five_trees(self):
        assert len({tree_of_msequence(m) for m in m_sequences(3)}) == 5

    def test_m5_gives_42_trees(self):
        images = {tree_of_msequence(m) for m in m_sequences(5)}
        assert len(images) == 42
        assert images == set(enumerate_trees(6))

    def test_invalid_sequence(self):
        assert not is_m_sequence((0, 2))
        with pytest.raises(StructuralError):
            tree_of_msequence((0, 2))
        with pytest.raises(StructuralError):
            tree_of_msequence((1, 2))

    def test_parens(self):
        assert tree_to_parens(LEAF) == "."
        assert tree_to_parens((LEAF, LEAF)) == "(..)"

    @pytest.mark.parametrize("ell", range(0, 11))
    def test_memoized_table_equals_unmemoized_bijection(self, ell):
        assert msequence_trees(ell) == [(m, tree_to_parens(_phi(m)))
                                        for m in m_sequences(ell)]

    @pytest.mark.parametrize("ell", range(1, 10))
    def test_preorder_opens_m_i_nodes_before_leaf_i(self, ell):
        # the text before each leaf ends in exactly m_i open parentheses,
        # and the last leaf follows no open parenthesis
        for m, text in msequence_trees(ell):
            before = text.split(".")[:-1]
            assert len(before) == ell + 1, (m, text)
            opens = [len(p) - len(p.rstrip("(")) for p in before]
            assert opens == list(m) + [0], (m, text)

    def test_no_memo_survives_the_call(self):
        def state():
            return {name: len(value)
                    for name, value in vars(combinatorics).items()
                    if isinstance(value, (dict, list, set))}

        before = state()
        first = msequence_trees(7)
        assert state() == before
        assert msequence_trees.__defaults__ is None
        assert not vars(msequence_trees)
        assert msequence_trees(7) == first


class TestCache:
    def test_round_trip(self):
        # the snapshot lists every memoized value, shortest keys first
        lagrange_d((3, 2, 1))
        rows = d_cache_rows()
        assert ("3,2,1", str(lagrange_d((3, 2, 1)))) in rows
        lengths = [len(r[0].split(",")) if r[0] else 0 for r in rows]
        assert lengths == sorted(lengths)
