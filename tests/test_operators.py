import itertools
import math

import pytest

from loopseries import StructuralError, combinatorics, operators
from loopseries.combinatorics import bit_sequences, lagrange_d, m_sequences
from loopseries.freealg import NCPolynomial, TensorPoly, word_degree
from loopseries.operators import (
    left_op,
    right_op,
    right_op_e,
    right_op_m,
    triangle,
)
from oracles import (
    element,
    from_factors,
    m_sequences_labeled,
    operator_identity_check,
    right_op_m_nested,
    scalar_length_polynomial,
)

x = lambda n: NCPolynomial.generator(1, n)  # noqa: E731


def mono(*polys, coeff=1):
    return from_factors(list(polys), coeff)


class TestTriangle:
    def test_degree_one_left(self):
        a, b, c = x(1), x(2), x(3)
        # binom(|a|+1, 2) = binom(2, 2) = 1
        assert triangle(element(a), mono(b, c)) == mono(a * b * c)

    def test_unit_rules(self):
        one = TensorPoly.unit()
        b = element(x(2))
        assert triangle(one, one) == one
        assert triangle(one, b) == b
        assert triangle(one, mono(x(1), x(1))).is_zero()
        assert triangle(b, one) == b

    def test_multi_left_on_unit(self):
        a1, a2 = x(2), x(1)
        got = triangle(mono(a1, a2), TensorPoly.unit())
        assert got == mono(a1 * a2, coeff=math.comb(3, 1))

    def test_general_binomial(self):
        a1, a2, b1, b2 = x(3), x(1), x(2), x(1)
        got = triangle(mono(a1, a2), mono(b1, b2))
        want = mono(a1 * a2 * b1 * b2, coeff=math.comb(4, 3))
        assert got == want

    def test_not_associative_defect(self):
        for na, nb, nc in itertools.product(range(1, 5), repeat=3):
            a, b, c = element(x(na)), element(x(nb)), element(x(nc))
            lhs = triangle(triangle(a, b), c) - triangle(a, triangle(b, c))
            want = mono(x(na) * x(nb) * x(nc), coeff=(na + 1) * na)
            assert lhs == want

    def test_bilinear(self):
        a, b, c = element(x(1)), element(x(2)), element(x(1))
        assert triangle(a + b, c) == triangle(a, c) + triangle(b, c)
        assert triangle(a, b + c) == triangle(a, b) + triangle(a, c)


class TestLeftOperator:
    def test_l1_identity(self):
        assert left_op([x(2)]) == element(x(2))

    def test_l2_display(self):
        a, b = x(2), x(1)
        want = mono(a * b, coeff=3) - mono(a, b)
        assert left_op([a, b]) == want

    def test_l3_scalar_part(self):
        na, nb, nc = 2, 1, 3
        a, b, c = x(na), x(nb), x(nc)
        got = scalar_length_polynomial(left_op([a, b, c]))
        coeff = (math.comb(na + 1, 1) * math.comb(na + nb + 1, 1)
                 - math.comb(na + 1, 2))
        assert got == a * b * c * coeff

    def test_recursive_equals_closed(self):
        for ell in range(1, 5):
            for degs in itertools.product((1, 2), repeat=ell):
                fs = [x(n) for n in degs]
                assert left_op(fs) == left_op(fs, "closed")

    def test_rejects_inhomogeneous(self):
        with pytest.raises(StructuralError):
            left_op([x(1) + x(2)])
        with pytest.raises(StructuralError):
            left_op([NCPolynomial.unit()])


class TestRightOperator:
    def test_r1_r2(self):
        a, b = x(2), x(3)
        assert right_op([a]) == element(a)
        assert right_op([a, b]) == mono(a * b, coeff=3) + mono(a, b)

    def test_r3_display(self):
        na, nb, nc = 1, 2, 1
        a, b, c = x(na), x(nb), x(nc)
        got = right_op([a, b, c])
        want = (
            mono(a * b * c,
                 coeff=math.comb(na + 1, 1) * math.comb(nb + 1, 1)
                 + math.comb(na + 1, 2))
            + mono(a, b * c, coeff=math.comb(nb + 1, 1))
            + mono(a * b, c, coeff=math.comb(na + 1, 1))
            + mono(a, b, c)
        )
        assert got == want

    def test_recursive_equals_closed(self):
        for ell in range(1, 5):
            for degs in itertools.product((1, 2), repeat=ell):
                fs = [x(n) for n in degs]
                assert right_op(fs) == right_op(fs, "closed")


class TestStructureOperators:
    def test_length_5_structures(self):
        degs = (2, 1, 3, 1, 2)
        a = [x(n) for n in degs]
        got = right_op_m((2, 1, 0, 2, 0), a)
        coeff = math.comb(degs[0] + 1, 1) * math.comb(degs[2] + 1, 2)
        assert got == mono(a[0] * a[1], a[2] * a[3] * a[4], coeff=coeff)

        got = right_op_m((2, 1, 2, 0, 0), a)
        coeff = math.comb(degs[0] + 1, 1) * math.comb(degs[1] + 1, 2)
        assert got == mono(a[0] * a[1] * a[2] * a[3], a[4], coeff=coeff)

        got = right_op_m((3, 0, 2, 0, 0), a)
        assert got == mono(a[0], a[1] * a[2] * a[3], a[4],
                           coeff=math.comb(degs[1] + 1, 2))

        got = right_op_m((4, 0, 1, 0, 0), a)
        assert got == mono(a[0], a[1] * a[2], a[3], a[4],
                           coeff=math.comb(degs[1] + 1, 1))

    def test_length_3_catalogue(self):
        na, nb, nc = 1, 2, 2
        a, b, c = x(na), x(nb), x(nc)
        catalogue = {
            (1, 1, 1): mono(a * b * c, coeff=math.comb(na + 1, 1)
                            * math.comb(nb + 1, 1)),
            (1, 2, 0): mono(a * b * c, coeff=math.comb(na + 1, 2)),
            (2, 0, 1): mono(a, b * c, coeff=math.comb(nb + 1, 1)),
            (2, 1, 0): mono(a * b, c, coeff=math.comb(na + 1, 1)),
            (3, 0, 0): mono(a, b, c),
        }
        for m, want in catalogue.items():
            assert right_op_m(m, [a, b, c]) == want

    def test_sum_over_m_recovers_right_op(self):
        for ell in range(1, 6):
            degs = tuple(1 + (i % 2) for i in range(ell))
            fs = [x(n) for n in degs]
            total = TensorPoly.zero()
            for m in m_sequences(ell):
                total = total + right_op_m(m, fs)
            assert total == right_op(fs)

    def test_scan_equals_nested_parse(self):
        # letters of degree 1-3, single words and sums of words; degree 1
        # letters make binom(2, m) vanish for m >= 3
        pool = [x(1), x(2), x(3), x(1) * x(1) - x(2),
                2 * (x(1) * x(2)) + x(3) - x(2) * x(1)]
        vanished = 0
        for ell in range(1, 8):
            letter_lists = ([x(1)] * ell,
                            [pool[i % len(pool)] for i in range(ell)],
                            [pool[-1 - i % len(pool)] for i in range(ell)])
            for m in m_sequences(ell):
                for fs in letter_lists:
                    got = right_op_m(m, fs)
                    assert got == right_op_m_nested(m, fs), (m, fs)
                    vanished += got.is_zero()
        assert vanished > 0

    def test_invalid_sequence(self):
        with pytest.raises(StructuralError):
            right_op_m((1, 2), [x(1), x(1)])
        with pytest.raises(StructuralError):
            right_op_m((2, 0), [x(1)])


class TestInputChecks:
    def test_closed_modes_check_letters_once(self, monkeypatch):
        calls = []
        check = operators._check_factors

        def counted(factors):
            calls.append(len(factors))
            return check(factors)

        monkeypatch.setattr(operators, "_check_factors", counted)
        fs = [x(1), x(2), x(1), x(1), x(2)]
        closed = right_op(fs, "closed")
        assert calls == [5]
        calls.clear()
        labeled = right_op_e((1, 2, 1, 1, 2), fs, "closed")
        assert calls == [5]
        monkeypatch.undo()
        assert closed == right_op(fs)
        assert labeled == right_op_e((1, 2, 1, 1, 2), fs)

    @pytest.mark.parametrize("mode", ["recursive", "closed"])
    def test_labeled_checks_bits_once(self, mode, monkeypatch):
        # the closed first blocks read the unchecked DP fold, so nothing
        # below the entry point checks the bits again
        calls = []
        check = combinatorics.check_lagrange_args

        def counted(ns, e=None):
            calls.append(e)
            return check(ns, e)

        monkeypatch.setattr(combinatorics, "check_lagrange_args", counted)
        monkeypatch.setattr(operators, "check_lagrange_args", counted)
        fs = [x(1), x(2), x(1), x(1), x(2), x(1)]
        e = (1, 1, 2, 1, 2, 1)
        got = right_op_e(e, fs, mode)
        assert calls == [e]
        monkeypatch.undo()
        assert got == right_op_e(e, fs)

    def test_interior_does_not_recheck(self, monkeypatch):
        # the letters are checked once at entry; the library's one letter
        # check is _check_factors, and nothing below calls it again
        fs = [x(2), x(1), x(3), x(1), x(2), x(1)]
        e = (1, 2, 1, 1, 2, 2)
        ops = {
            "L": lambda mode: left_op(fs, mode),
            "R": lambda mode: right_op(fs, mode),
            "Re": lambda mode: right_op_e(e, fs, mode),
        }
        modes = ("recursive", "closed")
        want = {(op, mode): run(mode) for op, run in ops.items()
                for mode in modes}
        calls = []
        check = operators._check_factors

        def counted(factors):
            calls.append(len(factors))
            return check(factors)

        monkeypatch.setattr(operators, "_check_factors", counted)
        for (op, mode), value in want.items():
            calls.clear()
            assert ops[op](mode) == value, (op, mode)
            assert calls == [6], (op, mode)

    @pytest.mark.parametrize("ell", range(4))
    def test_unknown_mode_raises_for_any_length(self, ell):
        fs = [x(1)] * ell
        refusal = r"^mode must be one of \('recursive', 'closed'\), got 'bogus'$"
        with pytest.raises(StructuralError, match=refusal):
            left_op(fs, "bogus")
        with pytest.raises(StructuralError, match=refusal):
            right_op(fs, "bogus")
        with pytest.raises(StructuralError, match=refusal):
            right_op_e((1,) * ell, fs, "bogus")

    def test_from_factors_rule_ignores_zero_position(self):
        zero, bad = NCPolynomial.zero(), x(1) + x(2)
        for factors in ([bad, zero], [zero, bad], [x(1), zero, bad],
                        [zero, NCPolynomial.unit()], [zero, 3]):
            with pytest.raises(StructuralError, match="homogeneous"):
                from_factors(factors)
        for factors in ([x(1), zero], [zero, x(2)], [zero]):
            assert from_factors(factors).is_zero()
        assert element(zero).is_zero()

    @pytest.mark.parametrize("mode", ["closed", "recursive"])
    def test_right_ops_reject_bad_letters(self, mode):
        for bad in (x(1) + x(2), NCPolynomial.unit(), NCPolynomial.zero()):
            with pytest.raises(StructuralError):
                right_op([x(1), bad], mode)
            with pytest.raises(StructuralError):
                right_op_e((1, 1), [x(1), bad], mode)

    def test_right_op_m_keeps_its_checks(self):
        with pytest.raises(StructuralError, match="homogeneous"):
            right_op_m((2, 0), [x(1), x(1) + x(2)])
        with pytest.raises(StructuralError, match="homogeneous"):
            right_op_m((1,), [NCPolynomial.unit()])
        with pytest.raises(StructuralError, match="homogeneous"):
            right_op_m((1,), [NCPolynomial.zero()])
        with pytest.raises(StructuralError, match="M-sequence"):
            right_op_m((0, 2), [x(1), x(1)])
        with pytest.raises(StructuralError, match="M-sequence"):
            right_op_m((1, 1), [x(1)])


class TestLabeledOperators:
    def test_length_2_displays(self):
        a, b = x(1), x(3)
        assert right_op_e((1, 1), [a, b]) == right_op([a, b])
        assert right_op_e((1, 2), [a, b]) == mono(a, b)
        assert right_op_e((2, 1), [a, b]).is_zero()
        assert right_op_e((2, 2), [a, b]).is_zero()

    def test_length_3_display(self):
        a, b, c = x(1), x(2), x(1)
        got = right_op_e((1, 2, 1), [a, b, c])
        degree_b = max(map(word_degree, b.terms))
        want = mono(a, b * c, coeff=math.comb(degree_b + 1, 1)) + mono(a, b, c)
        assert got == want

    def test_closed_equals_labeled_sum(self):
        # the M-sequence sum is the definition; closed reads R1 blocks
        cases = [*(d for ell in range(1, 5)
                   for d in itertools.product((1, 2, 3), repeat=ell)),
                 *itertools.product((1, 2), repeat=5),
                 (2, 1, 3, 1, 2), (3, 1, 1, 2, 3),
                 (1, 3, 2, 1, 1, 2), (2, 2, 1, 3, 1, 1)]
        for degs in cases:
            ell = len(degs)
            fs = [x(n) for n in degs]
            structures = {m: right_op_m(m, fs) for m in m_sequences(ell)}
            for e in bit_sequences(ell):
                want = TensorPoly.sum(
                    structures[m] for m in m_sequences_labeled(ell, e))
                assert right_op_e(e, fs) == want, (degs, e)
                assert right_op_e(e, fs, "closed") == want, (degs, e)
            assert right_op(fs, "closed") == right_op(fs) == \
                TensorPoly.sum(structures.values()), degs

    def test_closed_modes_enumerate_no_m_sequences(self, monkeypatch):
        fs = [x(2), x(1), x(3), x(1), x(1), x(2), x(1)]
        e = (1, 2, 1, 1, 2, 1, 1)
        want = right_op(fs), right_op_e(e, fs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed modes enumerated M-sequences")

        for module in (combinatorics, operators):
            for name in ("m_sequences", "m_sequences_labeled"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        monkeypatch.setattr(operators, "right_op_m", forbidden)
        assert (right_op(fs, "closed"), right_op_e(e, fs, "closed")) == want

    def test_bit_validation(self):
        with pytest.raises(StructuralError):
            right_op_e((1, 3), [x(1), x(1)])
        with pytest.raises(StructuralError):
            right_op_e((1,), [x(1), x(1)])


class TestIdentityChecks:
    def test_lr_low_rank_by_hand(self):
        # l = 2, degrees (1,1,1): both sides carry the scalar part 5 abc
        a = [x(1), x(1), x(1)]
        lhs = triangle(element(a[0]), right_op(a[1:]))
        rhs = triangle(left_op(a[:2]), element(a[2]))
        assert lhs == rhs
        assert scalar_length_polynomial(lhs) == \
            x(1) * x(1) * x(1) * lagrange_d((1, 1))

    @pytest.mark.parametrize("identity", ["LR", "R2", "R3", "L3", "Re1", "R1"])
    def test_identities_small(self, identity):
        for ell in range(1, 4):
            assert operator_identity_check(identity, ell, degree_bound=2)

    def test_r1_specific_sequence(self):
        a = [x(2), x(1), x(3)]
        got = triangle(element(a[0]), right_op_m((1, 1), a[1:]))
        coeff = math.comb(3, 1) * math.comb(2, 1) * math.comb(4, 0)
        assert got == mono(a[0] * a[1] * a[2], coeff=coeff)

    def test_unknown_identity(self):
        with pytest.raises(StructuralError):
            operator_identity_check("XX", 2)
