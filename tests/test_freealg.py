import functools
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopseries import StructuralError, coloops
from loopseries.algebras import MatrixElement
from loopseries.freealg import (
    MultiMorphism,
    NCPolynomial,
    TensorPoly,
    evaluate,
    fold,
    project_pi,
    word_degree,
)
from oracles import from_factors, include_iota, parse_polynomial, plain

x = lambda n: NCPolynomial.generator(1, n)  # noqa: E731
y = lambda n: NCPolynomial.generator(2, n)  # noqa: E731
z = lambda n: NCPolynomial.generator(3, n)  # noqa: E731


def morphism(images):
    """The morphism with the generator images of the dict ``images``."""
    return MultiMorphism(image_fn=lambda cp, idx: images[cp, idx])


def coefficient_assignment(*coefficient_lists):
    """The assignment ``x_n -> lists[0][n-1]``, ``y_n -> lists[1][n-1]``,
    ... of ``evaluate``."""
    return lambda cp, idx: coefficient_lists[cp - 1][idx - 1]


def random_poly(rng, copies=(1, 2), terms=3, max_index=3, max_len=3):
    out = NCPolynomial.zero()
    for _ in range(terms):
        w = tuple((rng.choice(copies), rng.randint(1, max_index))
                  for _ in range(rng.randint(0, max_len)))
        out = out + NCPolynomial({w: rng.randint(-3, 3)})
    return out


class TestRingStructure:
    def test_single_product(self):
        p = x(1) * y(2)
        assert p.terms == {((1, 1), (2, 2)): 1}

    def test_free_square(self):
        p = (x(1) + y(1)) * (x(1) + y(1))
        assert p == x(1) * x(1) + x(1) * y(1) + y(1) * x(1) + y(1) * y(1)

    def test_degree_additive(self):
        def degrees(p):
            return {word_degree(w) for w in p.terms}

        rng = Random(11)
        for _ in range(100):
            p, q = random_poly(rng), random_poly(rng)
            prod = p * q
            if p.is_zero() or q.is_zero():
                assert prod.is_zero()
            else:
                homog = len(degrees(p)) <= 1 and len(degrees(q)) <= 1
                if homog:
                    assert prod.is_zero() or \
                        max(degrees(prod)) == max(degrees(p)) + max(degrees(q))

    def test_associative_unital(self):
        rng = Random(12)
        one = NCPolynomial.unit()
        for _ in range(40):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p * q) * r == p * (q * r)
            assert p * one == one * p == p

    def test_zero_coefficients_dropped(self):
        assert (x(1) - x(1)).terms == {}
        assert not (x(1) - x(1))

    def test_canonical_term_order(self):
        p = x(2) + x(1) * x(1) + x(1) + NCPolynomial.unit() * 7
        words = [w for w, _ in p.sorted_terms()]
        assert words == [(), ((1, 1),), ((1, 2),), ((1, 1), (1, 1))]


class TestMorphisms:
    def test_coproduct_is_homomorphism(self):
        table = coloops.get_coloop("fdb")
        delta = MultiMorphism(image_fn=lambda cp, n: table.coproduct(n))
        image = delta(x(1) * x(1))
        assert image == (x(1) + y(1)) * (x(1) + y(1))

    def test_counit_kills_generators(self):
        eps = MultiMorphism(image_fn=lambda cp, n: NCPolynomial.zero())
        assert eps(x(3)).is_zero()
        assert eps(NCPolynomial.unit() * 5) == NCPolynomial.unit() * 5

    def test_relabel_composition(self):
        rng = Random(13)
        first = {1: 2, 2: 3, 3: 1}
        second = {1: 1, 2: 1, 3: 2}
        for _ in range(20):
            p = random_poly(rng, copies=(1, 2, 3))
            composed = {cp: second[first[cp]] for cp in first}
            assert fold(second, fold(first, p)) == fold(composed, p)


def apply_by_sums(images, p):
    """The morphism evaluated term by term with ``*`` and ``+``: the
    oracle for the one-dict accumulation of ``MultiMorphism``."""
    out = NCPolynomial.zero()
    for w, c in p.terms.items():
        prod = NCPolynomial.unit() * c
        for gen in w:
            prod = prod * images[gen]
            if prod.is_zero():
                break
        out = out + prod
    return out


ACCUMULATION_SETTINGS = settings(max_examples=150, deadline=None,
                                 database=None, derandomize=True)
INDICES = (1, 2, 3)


def polys(copies, max_terms=4, max_len=3):
    # few letters and small coefficients, so that terms collide and cancel
    words = st.lists(st.tuples(st.sampled_from(copies),
                               st.sampled_from(INDICES)),
                     max_size=max_len).map(tuple)
    return st.dictionaries(words, st.integers(-2, 2),
                           max_size=max_terms).map(NCPolynomial)


@st.composite
def morphism_cases(draw):
    source = tuple(range(1, draw(st.integers(1, 3)) + 1))
    image = st.one_of(st.just(NCPolynomial.zero()),
                      polys((1, 2, 3), max_terms=3, max_len=2))
    images = {(cp, idx): draw(image) for cp in source for idx in INDICES}
    return images, draw(polys(source))


# y1 for both x1 and x2 cancels the commutator; the zero image of x1
# kills every word through it
CANCELLING = ({(1, 1): y(1), (1, 2): y(1)},
              x(1) * x(2) - x(2) * x(1) + 3 * x(1))
KILLING = ({(1, 1): NCPolynomial.zero(), (2, 1): y(1) + y(2)},
           2 * x(1) * y(1) + y(1) * y(1) - NCPolynomial.unit() * 4)


class TestLinearAccumulation:
    @ACCUMULATION_SETTINGS
    @given(morphism_cases())
    @example(CANCELLING)
    @example(KILLING)
    def test_morphism_equals_term_by_term_sums(self, case):
        images, p = case
        assert morphism(images)(p) == apply_by_sums(images, p)

    # (images, argument, expected image), one case per corner of the
    # one-pass expansion
    EDGE_CASES = {
        "scalar-argument-term": (
            {(1, 1): y(1) + y(2), (1, 2): y(1)},
            NCPolynomial.unit() * 3 + x(1) * x(2),
            NCPolynomial.unit() * 3 + y(1) * y(1) + y(2) * y(1)),
        "scalar-image-term": (
            {(1, 1): NCPolynomial.unit() * 2 + y(1)},
            x(1) * x(1) - x(1),
            NCPolynomial.unit() * 2 + 3 * y(1) + y(1) * y(1)),
        "zero-image-kills-word": (
            {(1, 1): NCPolynomial.zero(), (1, 2): y(2)},
            x(2) * x(1) * x(2) + 5 * x(2),
            5 * y(2)),
        "repeated-letter": (
            {(1, 1): y(1) - 2 * z(1)},
            x(1) * x(1) * x(1),
            (y(1) - 2 * z(1)) * (y(1) - 2 * z(1)) * (y(1) - 2 * z(1))),
        "cancels-across-words": (
            {(1, 1): y(1) - y(2), (1, 2): y(2) + y(3)},
            x(1) + x(2),
            y(1) + y(3)),
    }

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_morphism_edge_cases(self, name):
        images, p, want = self.EDGE_CASES[name]
        got = morphism(images)(p)
        assert got == apply_by_sums(images, p)
        assert got == want

    def test_morphism_cancelling_and_killing_examples(self):
        assert morphism(CANCELLING[0])(CANCELLING[1]) == 3 * y(1)
        assert morphism(KILLING[0])(KILLING[1]) == \
            (y(1) + y(2)) * (y(1) + y(2)) - NCPolynomial.unit() * 4

    @ACCUMULATION_SETTINGS
    @given(st.lists(polys((1, 2, 3)), max_size=6))
    def test_sum_equals_chain_of_additions(self, ps):
        chained = functools.reduce(operator.add, ps, NCPolynomial.zero())
        assert NCPolynomial.sum(ps) == chained
        assert NCPolynomial.sum(iter(ps)) == chained

    def test_sum_of_nothing_and_full_cancellation(self):
        p = x(1) * y(2) - 3 * y(1)
        assert NCPolynomial.sum([]) == NCPolynomial.zero()
        cancelled = NCPolynomial.sum([p, x(2), -p, -x(2)])
        assert cancelled.is_zero() and cancelled.terms == {}

    def test_morphism_builds_one_polynomial(self, monkeypatch):
        inv = coloops.get_coloop("inv")
        table = inv.codivision("right", 10)
        images = {(cp, k): inv.coproduct(k) if cp == 1 else z(k)
                  for cp in (1, 2) for k in range(1, 11)}
        phi = morphism(images)
        want = apply_by_sums(images, table)
        built = []
        init = NCPolynomial.__init__

        def counting_init(self, terms=None):
            built.append(1)
            init(self, terms)

        monkeypatch.setattr(NCPolynomial, "__init__", counting_init)
        got = phi(table)
        monkeypatch.undo()
        assert len(built) == 1
        assert got == want


class TestFold:
    def test_codiagonal(self):
        p = x(1) * y(2)
        assert fold({1: 1, 2: 1}, p) == x(1) * x(2)

    def test_partial_fold(self):
        p = x(1) * y(2) * z(1)
        assert fold({1: 1, 2: 2, 3: 2}, p) == x(1) * y(2) * y(1)

    def test_identity(self):
        rng = Random(14)
        for _ in range(20):
            p = random_poly(rng, copies=(1, 2, 3))
            assert fold({1: 1, 2: 2, 3: 3}, p) == p

    def test_homomorphism(self):
        rng = Random(15)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            lm = {1: 1, 2: 1}
            assert fold(lm, p * q) == fold(lm, p) * fold(lm, q)

    def test_relabeled_letters_are_shared(self):
        # one object per relabeled letter keeps large folds small
        p = x(1) * y(2) + y(2) * x(1) * y(2)
        words = fold({1: 2, 2: 3}, p).terms
        assert len({id(a) for w in words for a in w}) == 2

    def test_undefined_copy_rejected(self):
        with pytest.raises(StructuralError, match="undefined on copy 3"):
            fold({1: 1, 2: 1}, x(1) * z(2))


class TestProjection:
    def test_displayed_example(self):
        # a^(1) b^(2) c^(1) d^(2) -> (ac) | (bd), in copy-1 letters
        word = x(1) * y(2) * x(3) * y(1)
        assert project_pi(word, 2) == \
            TensorPoly({(((1, 1), (1, 3)), ((1, 2), (1, 1))): 1})
        assert str(project_pi(word, 2)) == "x1*x3 | x2*x1"

    def test_copy_pure(self):
        assert project_pi(x(1) * x(2), 2) == TensorPoly({plain(((1, 2), ())): 1})

    def test_iota_examples(self):
        t = TensorPoly({plain(((1,), (2,))): 1})
        assert include_iota(t) == x(1) * y(2)
        t = TensorPoly({plain(((), (1,))): 1})
        assert include_iota(t) == y(1)

    def test_pi_iota_identity(self):
        rng = Random(16)
        for _ in range(30):
            key = tuple(tuple(rng.randint(1, 3)
                              for _ in range(rng.randint(0, 3)))
                        for _ in range(2))
            t = TensorPoly({plain(key): rng.randint(1, 5)})
            assert project_pi(include_iota(t), 2) == t

    def test_pi_is_componentwise_homomorphism(self):
        rng = Random(17)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            assert project_pi(p * q, 2) == project_pi(p, 2) * project_pi(q, 2)

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError):
            project_pi(z(1), 2)

    def test_tensor_and_product_of_one_key_length(self):
        # tensor concatenates tuples (the product of T(A)); * multiplies
        # tuples of one length word by word (that of H x H), and refuses
        # tuples of two lengths
        a = TensorPoly({(((1, 1),), ((2, 2),)): 2})
        b = TensorPoly({(((1, 3),), ()): -1, (((2, 1),), ((1, 1),)): 1})
        assert a.tensor(b) == TensorPoly({
            (((1, 1),), ((2, 2),), ((1, 3),), ()): -2,
            (((1, 1),), ((2, 2),), ((2, 1),), ((1, 1),)): 2})
        assert a * b == TensorPoly({
            (((1, 1), (1, 3)), ((2, 2),)): -2,
            (((1, 1), (2, 1)), ((2, 2), (1, 1))): 2})
        with pytest.raises(StructuralError, match="tensor arity mismatch"):
            a * a.tensor(TensorPoly({(((1, 1),),): 1}))


class TestEvaluate:
    def test_codivision_evaluation(self):
        q = Fraction
        a1 = MatrixElement([[q(1), q(2)], [q(0), q(1)]])
        a2 = MatrixElement([[q(3), q(0)], [q(1), q(1)]])
        b1 = MatrixElement([[q(0), q(1)], [q(1), q(0)]])
        b2 = MatrixElement([[q(2), q(1)], [q(0), q(2)]])
        one = MatrixElement([[q(1), q(0)], [q(0), q(1)]])
        p = coloops.get_coloop("fdb").codivision("right", 2)  # u2 - 2 u1 y1
        got = evaluate(p, coefficient_assignment([a1, a2], [b1, b2]), one)
        assert got == a2 - b2 - (a1 - b1) * b1 * 2

    def test_commuting_scalars(self):
        p = x(1) * y(1) - y(1) * x(1)
        assign = coefficient_assignment([Fraction(3)], [Fraction(5)])
        got = evaluate(p, assign, Fraction(1))
        assert got == 0

    def test_relabel_compatibility(self):
        rng = Random(18)
        for _ in range(10):
            p = random_poly(rng)
            target = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            direct = evaluate(fold({1: 1, 2: 1}, p),
                              coefficient_assignment(target), Fraction(1))
            pulled = evaluate(p, lambda cp, i: target[i - 1], Fraction(1))
            assert direct == pulled


class TestTextAndJson:
    def test_text_form(self):
        p = x(2) - y(2) - 2 * (x(1) * y(1)) + 2 * (y(1) * y(1))
        assert str(p) == "x2 - y2 - 2*x1*y1 + 2*y1*y1"
        assert str(NCPolynomial.zero()) == "0"
        assert str(NCPolynomial.unit() * -3) == "-3"

    def test_tensor_text_and_equality(self):
        cases = [
            (TensorPoly.zero(), "0", "TensorPoly(0)"),
            (TensorPoly.unit(), "1", "TensorPoly(1)"),
            (TensorPoly({(): -4}), "-4", "TensorPoly(-4)"),
            (TensorPoly({((), ()): 3}), "3*1 | 1", "TensorPoly(3*1 | 1)"),
            (TensorPoly({((), ()): -1}), "-1 | 1", "TensorPoly(-1 | 1)"),
            (TensorPoly({plain(((1,), (2,))): -1, plain(((1, 2), ())): 3,
                         plain(((), (1,))): 1}),
             "1 | x1 - x1 | x2 + 3*x1*x2 | 1",
             "TensorPoly(1 | x1 - x1 | x2 + 3*x1*x2 | 1)"),
            (TensorPoly({plain(((1,), (), (2, 1))): -2, ((), (), ()): 1}),
             "1 | 1 | 1 - 2*x1 | 1 | x2*x1",
             "TensorPoly(1 | 1 | 1 - 2*x1 | 1 | x2*x1)"),
            (TensorPoly({(((1, 1),), ((2, 2),)): -1, (((1, 1), (1, 2)),): 3,
                         (): 2}),
             "2 + 3*x1*x2 - x1 | y2", "TensorPoly(2 + 3*x1*x2 - x1 | y2)"),
            (from_factors([x(1) - y(1), x(2)], -2), "-2*x1 | x2 + 2*y1 | x2",
             "TensorPoly(-2*x1 | x2 + 2*y1 | x2)"),
        ]
        for value, text, rep in cases:
            assert (str(value), repr(value)) == (text, rep)
        assert NCPolynomial.zero() != TensorPoly.zero()

    def test_table_entry_renders_exactly(self):
        # the documented rendering of an expanded u-difference table entry
        assert str(coloops.get_coloop("fdb").codivision("right", 2)) == \
            "x2 - y2 - 2*x1*y1 + 2*y1*y1"

    def test_evaluate_respects_multiplication(self):
        rng = Random(21)
        q = Fraction
        mats = [MatrixElement([[q(rng.randint(-3, 3)) for _ in range(2)]
                               for _ in range(2)]) for _ in range(6)]
        assign = coefficient_assignment(mats[:3], mats[3:])
        one = MatrixElement([[q(1), q(0)], [q(0), q(1)]])
        for _ in range(10):
            p, r = random_poly(rng), random_poly(rng)
            assert evaluate(p * r, assign, one) == \
                evaluate(p, assign, one) * evaluate(r, assign, one)

    def test_parse_round_trip(self):
        rng = Random(19)
        for _ in range(25):
            p = random_poly(rng, copies=(1, 2, 3))
            assert parse_polynomial(str(p)) == p

    @pytest.mark.parametrize("text", [
        "1_0*x1", "x1_0", "2x1", "x\u00b2", "3*q1", "x1**y1"])
    def test_parse_refuses_bad_factors(self, text):
        with pytest.raises(StructuralError):
            parse_polynomial(text)

    def test_json_form(self):
        p = -2 * (x(1) * y(1)) + x(2)
        assert {"coeff": "-2", "word": [[1, 1], [2, 1]]} in p.to_json()["terms"]

    def test_cross_module_compose_oracle(self):
        from loopseries.seriesloops import TruncatedSeries, diff_compose
        rng = Random(20)
        q = Fraction
        mats = [MatrixElement([[q(rng.randint(-3, 3)) for _ in range(2)]
                               for _ in range(2)]) for _ in range(6)]
        a = TruncatedSeries("diff", 3, mats[:3])
        b = TruncatedSeries("diff", 3, mats[3:])
        composed = diff_compose(a, b)
        got = evaluate(coloops.get_coloop("fdb").coproduct(3),
                       coefficient_assignment(mats[:3], mats[3:]), a.one)
        assert got == composed.coeff(3)
