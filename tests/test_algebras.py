import itertools
import re
from fractions import Fraction
from random import Random

import pytest

from loopseries import StructuralError
from loopseries.algebras import (
    CDElement,
    MatrixElement,
    _as_fraction,
    associator,
    cd_parse,
    conj_of,
    identity_check,
    one_of,
    zero_of,
)
from loopseries.witnesses import DoubledElement, SplitQuaternionMatrix
from oracles import (
    HQUnit,
    cd_conj,
    cd_mul,
    cd_norm,
    double,
    hq_divide,
    hq_elements,
    hq_loop_axioms,
    hq_mul,
    random_cd,
)

q = Fraction


def e(level, i):
    return CDElement.basis(level, i)


def sedenion_witness_pair():
    return e(4, 1) + e(4, 10), e(4, 5) + e(4, 14)


class TestCayleyDickson:
    def test_quaternion_table(self):
        i, j, k = e(2, 1), e(2, 2), e(2, 3)
        assert cd_mul(i, j) == k
        assert cd_mul(j, i) == -k
        assert cd_mul(i, i) == -CDElement.one(2)

    def test_sedenion_zero_divisor(self):
        a, b = sedenion_witness_pair()
        assert cd_mul(a, b).is_zero()
        assert cd_mul(b, b) == CDElement.one(4) * -2

    def test_conjugation(self):
        assert cd_conj(e(3, 1)) == -e(3, 1)
        assert cd_conj(CDElement.one(3)) == CDElement.one(3)
        rng = Random(31)
        for level in range(0, 5):
            for _ in range(10):
                a = random_cd(rng, level)
                assert cd_conj(cd_conj(a)) == a

    def test_conj_is_antiautomorphism_on_basis(self):
        for level in range(0, 5):
            dim = 1 << level
            for i in range(dim):
                for j in range(dim):
                    a, b = e(level, i), e(level, j)
                    assert cd_conj(a * b) == cd_conj(b) * cd_conj(a)

    def test_norm_values(self):
        assert cd_norm(CDElement.one(2) + e(2, 1)) == 2
        a, b = sedenion_witness_pair()
        assert cd_norm(a * b) == 0
        assert cd_norm(a) * cd_norm(b) == 4  # multiplicativity fails at level 4

    def test_norm_is_scalar_and_two_sided(self):
        rng = Random(32)
        for level in range(0, 5):
            for _ in range(8):
                x = random_cd(rng, level)
                n = x * x.conj()
                m = x.conj() * x
                scalar = CDElement.one(level) * cd_norm(x)
                assert n == m == scalar
                assert cd_norm(x) == sum(c * c for c in x.coords)

    def test_norm_multiplicative_up_to_level_3(self):
        rng = Random(33)
        for level in range(0, 4):
            for _ in range(10):
                a, b = random_cd(rng, level), random_cd(rng, level)
                assert cd_norm(a * b) == cd_norm(a) * cd_norm(b)

    def test_levels_up_to_2_associative(self):
        for level in (0, 1, 2):
            dim = 1 << level
            for i, j, k in itertools.product(range(dim), repeat=3):
                assert associator(e(level, i), e(level, j), e(level, k)).is_zero()

    def test_level_3_alternative(self):
        for i in range(8):
            for j in range(8):
                a, b = e(3, i), e(3, j)
                assert (a * b) * b == a * (b * b)
                assert (a * a) * b == a * (a * b)

    def test_level_4_breaks_both_alternative_laws(self):
        a, b = sedenion_witness_pair()
        assert not identity_check("right-alternative", a, b)
        assert not identity_check("left-alternative", b, a)

    def test_level_mismatch(self):
        with pytest.raises(StructuralError):
            cd_mul(e(2, 1), e(3, 1))

    def test_parse_and_str(self):
        a, b = sedenion_witness_pair()
        assert cd_parse("e1 + e10", 4) == a
        assert cd_parse(str(-2 * b), 4) == -2 * b
        assert cd_parse("1/2 - 3*e7", 3) == \
            CDElement.one(3) * q(1, 2) - e(3, 7) * 3

    def test_parse_equals_basis_sum(self):
        rng = Random(11)
        for _ in range(200):
            level = rng.randint(0, 4)
            terms, want = [], CDElement.zero(level)
            for _ in range(rng.randint(1, 8)):
                i = rng.randrange(1 << level)
                c = q(rng.randint(-5, 5), rng.randint(1, 4))
                body = f"e{i}" if abs(c) == 1 else f"{abs(c)}*e{i}"
                if i == 0 and rng.random() < 0.5:
                    body = str(abs(c))  # a bare number is the scalar
                terms.append(("-" if c < 0 else "+") + body)
                want = want + CDElement.basis(level, i, c)
            assert cd_parse(" ".join(terms), level) == want

    def test_parse_repeated_and_cancelling_indices(self):
        assert cd_parse("e1+e1", 2) == e(2, 1) * 2
        assert cd_parse("e3 - 2*e1 + e1 + e1", 2) == e(2, 3)
        assert cd_parse("e5 - e5", 3) == CDElement.zero(3)
        assert cd_parse("1 - 1", 0) == CDElement.zero(0)

    @pytest.mark.parametrize("text, level, message", [
        ("  ", 2, "empty Cayley-Dickson literal"),
        ("e1+*e2", 2, "bad term in 'e1+*e2'"),
        ("e1 + e16", 4, "basis index 16 outside level 4"),
        ("e1*e2", 2, "term 'e1*e2' has more than one basis letter"),
        ("1 - 2*e1*e1", 2, "term '2*e1*e1' has more than one basis letter"),
        # exponent notation is not a rational literal: "2e1" is not 20
        ("2e1", 2, "bad factor '2e1' in term '2e1'"),
        ("e1 + 3E3", 2, "bad factor '3E3' in term '3E3'"),
        ("1/2*2e1", 2, "bad factor '2e1' in term '1/2*2e1'"),
        ("e2*1e0", 2, "bad factor '1e0' in term 'e2*1e0'"),
        # nor are digit-group underscores: "1_0" is not 10
        ("1_0*e1", 4, "bad factor '1_0' in term '1_0*e1'"),
        ("e1_0", 4, "bad basis letter 'e1_0' in term 'e1_0'"),
        # a basis index is plain digits
        ("e+1", 2, "bad basis letter 'e' in term 'e'"),
        ("e\u00b2", 2, "bad basis letter 'e\u00b2'"),
        ("x*e1", 2, "bad factor 'x' in term 'x*e1'"),
        # one sign per term, as a rational literal has
        ("--1", 2, "more than one sign in term '--1'"),
        ("+-1", 2, "more than one sign in term '+-1'"),
        ("e1 - -e2", 2, "more than one sign in term '--e2'"),
        ("-+e3", 2, "more than one sign in term '-+e3'"),
        # ... and it opens the term: a factor after ``*`` takes none
        ("e1*-2", 2, "bad factor '-2' in term 'e1*-2'"),
        ("-e1*-2", 2, "bad factor '-2' in term 'e1*-2'"),
        ("e1*+2", 2, "bad factor '+2' in term 'e1*+2'"),
        ("1/2*-3", 0, "bad factor '-3' in term '1/2*-3'"),
        ("2*-e1", 2, "bad factor '-e1' in term '2*-e1'"),
    ])
    def test_parse_errors(self, text, level, message):
        with pytest.raises(StructuralError, match=re.escape(message)):
            cd_parse(text, level)


class TestRationalLiterals:
    @pytest.mark.parametrize("text, value", [
        ("1/2", q(1, 2)), ("-3", q(-3)), ("0.5", q(1, 2)), ("+7/14", q(1, 2)),
    ])
    def test_plain_literals(self, text, value):
        assert _as_fraction(text) == value

    @pytest.mark.parametrize("literal", [
        "2e1", "1E3", "1_0", "1/1_0", "x", "1/0", "", 0.5, True, None])
    def test_refused_with_the_literal_named(self, literal):
        with pytest.raises(StructuralError,
                           match=re.escape(f"not an exact rational: "
                                           f"{literal!r}")):
            _as_fraction(literal)

    def test_one_rule_for_every_algebra(self):
        # the rationals, the matrix entries and the Cayley-Dickson factors
        assert CDElement(1, ["1/2", "3"]) == \
            CDElement(1, [q(1, 2), q(3)])
        for bad in ("2e1", "1_0"):
            with pytest.raises(StructuralError):
                CDElement(1, [bad, "0"])
            with pytest.raises(StructuralError):
                cd_parse(f"{bad}*e1", 1)


class TestDoubling:
    def test_rational_doubling(self):
        one = double(q(1), q(0))
        j = double(q(0), q(1))
        assert one * j == j
        assert j * j == double(q(-1), q(0))
        assert j.conj() == -j

    def test_matrix_doubling_matches_hand_expansion(self):
        m = lambda rows: MatrixElement([[q(v) for v in r] for r in rows])
        a, b = m([[1, 2], [3, 4]]), m([[0, 1], [1, 0]])
        c, d = m([[2, 0], [1, 1]]), m([[1, 1], [0, 2]])
        got = double(a, b) * double(c, d)
        # (ac - d* b) + (da + b c*) j, expanded independently
        assert got.a == a * c - d.conj() * b
        assert got.b == d * a + b * c.conj()

    def test_doubled_level3_is_level4(self):
        # e_{8+i} = e_i j: compare all 16 x 16 basis products coordinatewise
        def to_doubled(v):
            return double(CDElement(3, v.coords[:8]), CDElement(3, v.coords[8:]))

        def to_flat(d):
            return CDElement(4, d.a.coords + d.b.coords)

        for i in range(16):
            for j in range(16):
                x, y = e(4, i), e(4, j)
                assert to_flat(to_doubled(x) * to_doubled(y)) == x * y

    def test_unitary_defect(self):
        rot = SplitQuaternionMatrix([[q(3, 5), q(-4, 5)], [q(4, 5), q(3, 5)]])
        zero = SplitQuaternionMatrix([[q(0)] * 2] * 2)
        assert double(rot, zero).unitary_defect().is_zero()


class TestIdentityChecks:
    def test_octonion_moufang(self):
        rng = Random(34)
        for _ in range(50):
            a, b, c = (random_cd(rng, 3) for _ in range(3))
            assert identity_check("moufang-1", a, b, c)

    def test_sedenion_right_alternative_fails(self):
        a, b = sedenion_witness_pair()
        assert not identity_check("right-alternative", a, b)

    def test_matrix_associator_vanishes(self):
        rng = Random(35)
        for _ in range(20):
            mats = [MatrixElement([[q(rng.randint(-4, 4)) for _ in range(3)]
                                   for _ in range(3)]) for _ in range(3)]
            assert associator(*mats).is_zero()

    def test_flexible_and_power_assoc(self):
        rng = Random(36)
        for _ in range(20):
            a, b = random_cd(rng, 4), random_cd(rng, 4)
            # every Cayley-Dickson algebra is flexible and power associative
            assert identity_check("flexible", a, b)
            assert identity_check("power-assoc-3", a)

    def test_unknown_identity(self):
        with pytest.raises(StructuralError):
            identity_check("bogus", e(2, 1), e(2, 2))

    @pytest.mark.parametrize("name, arity", [
        ("power-assoc-3", 1), ("left-alternative", 2),
        ("right-alternative", 2), ("flexible", 2), ("moufang-1", 3),
        ("moufang-2", 3), ("moufang-3", 3), ("moufang-4", 3)])
    def test_wrong_element_count_names_the_arity(self, name, arity):
        units = [e(4, i) for i in (1, 2, 4, 8)]
        for count in (arity - 1, arity + 1):
            with pytest.raises(StructuralError,
                               match=f"^{name} takes {arity} elements$"):
                identity_check(name, *units[:count])
        assert identity_check(name, *units[:arity]) in (True, False)

    def test_associator_is_not_an_identity_check(self):
        # identity_check returns verdicts; the defect (ab)c - a(bc) is
        # associator()
        with pytest.raises(StructuralError, match="^identity must be one of .*, got 'associator'$"):
            identity_check("associator", e(3, 1), e(3, 2), e(3, 4))


class TestHyperbolicQuaternions:
    def test_table_values(self):
        i, j, k = HQUnit(1, "i"), HQUnit(1, "j"), HQUnit(1, "k")
        assert hq_mul(i, j) == k
        assert hq_mul(j, i) == -k
        assert hq_mul(i, i) == HQUnit(1, "1")
        assert hq_mul(j, k) == i
        assert hq_mul(k, j) == -i
        assert hq_mul(k, i) == j
        assert hq_mul(i, k) == -j

    def test_loop_axioms_report(self):
        report = hq_loop_axioms()
        assert report["is_loop"]
        assert report["latin_square"]
        assert report["two_sided_unit"]
        assert report["cancellation"]
        x, y, z = report["nonassociative_witness"]
        assert (x * y) * z != x * (y * z)

    def test_rows_and_columns_are_permutations(self):
        elems = hq_elements()
        for a in elems:
            assert len({a * b for b in elems}) == 8
            assert len({b * a for b in elems}) == 8

    def test_divisions(self):
        elems = hq_elements()
        rng = Random(37)
        for _ in range(30):
            a, b = rng.choice(elems), rng.choice(elems)
            assert a * hq_divide("left", a, b) == b
            assert hq_divide("right", a, b) * a == b

    def test_nonassociative_triple_exists(self):
        elems = hq_elements()
        assert any((a * b) * c != a * (b * c)
                   for a in elems for b in elems for c in elems)


class TestMatrixAlgebra:
    def test_involution_is_conj_transpose(self):
        h = lambda i: CDElement.basis(2, i)
        m = MatrixElement([[h(1), h(2)], [CDElement.zero(2), h(0)]])
        c = m.conj()
        assert c.entries[0][0] == -h(1)
        assert c.entries[0][1] == CDElement.zero(2)
        assert c.entries[1][0] == -h(2)
        assert conj_of(m.conj()) == m

    def test_helpers(self):
        m = MatrixElement([[q(2), q(0)], [q(0), q(2)]])
        assert one_of(m) == MatrixElement([[q(1), q(0)], [q(0), q(1)]])
        assert zero_of(m).is_zero()

    def test_split_quaternion_involution(self):
        rng = Random(38)
        for _ in range(20):
            (p, r), (s, t) = rows = [[q(rng.randint(-4, 4)) for _ in range(2)]
                                     for _ in range(2)]
            a = SplitQuaternionMatrix(rows)
            n = a * a.conj()
            assert n == one_of(a) * (p * t - r * s)  # det(a) 1
            assert a.conj().conj() == a
            assert type(a + a) is SplitQuaternionMatrix

    def test_zorn_is_alternative(self):
        rng = Random(39)

        def rz():
            return DoubledElement(
                SplitQuaternionMatrix([[q(rng.randint(-2, 2)) for _ in range(2)]
                                       for _ in range(2)]),
                SplitQuaternionMatrix([[q(rng.randint(-2, 2)) for _ in range(2)]
                                       for _ in range(2)]))

        for _ in range(40):
            a, b = rz(), rz()
            assert identity_check("left-alternative", a, b)
            assert identity_check("right-alternative", a, b)

    def test_non_square_rejected(self):
        with pytest.raises(StructuralError):
            MatrixElement([[q(1), q(2)]])
