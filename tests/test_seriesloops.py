from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopseries.algebras import (
    CDElement,
    MatrixElement,
    identity_check,
    is_zero,
    zero_of,
)
from loopseries import DomainError, StructuralError
from loopseries.freealg import NCPolynomial
from loopseries.seriesloops import (
    TruncatedSeries,
    convolution_eval,
    diff_compose,
    divide,
    inv_mul,
    mul,
    series_inverse,
    unit_series,
)
from loopseries.witnesses import (
    _UCD_SAMPLE_SEED,
    DoubledElement,
    sample_ucd_unitaries,
    sample_zorn_unitaries,
    ucd_divide,
    witness,
)
from oracles import (
    cd_norm,
    generic_series,
    inv_convolution,
    octonion_loop_div,
    random_cd,
    random_matrix,
    random_unit_octonion,
    weak_compositions,
)

q = Fraction
x = lambda n: NCPolynomial.generator(1, n)  # noqa: E731
y = lambda n: NCPolynomial.generator(2, n)  # noqa: E731


def random_series(rng, flavor, order, dim=2):
    return TruncatedSeries(flavor, order,
                           [random_matrix(rng, dim) for _ in range(order)])


def antipode_inverse(a):
    """The diff inverse by the representability route: the right antipode
    of the fdb tables evaluated on the coefficients of ``a``."""
    return TruncatedSeries("diff", a.order, [
        convolution_eval("s_r", a, a, n) for n in range(1, a.order + 1)])


def chain_law_coeff(a, b, n):
    """Degree-``n`` coefficient of ``a o b`` by the chain sum
    ``sum_m sum_{k_0+...+k_m = n-m} a_m b_{k_0} ... b_{k_m}`` over
    non-negative indices, each chain multiplied left to right and unit
    factors skipped. ``a`` and ``b`` are indexed from 0 (the unit); the
    oracle of the power-table law, exponential in ``n``."""
    acc = a[n] + b[n]
    for m in range(1, n):
        for ks in weak_compositions(n - m, m + 1):
            term = a[m]
            for k in ks:
                if k:
                    term = term * b[k]
            acc = acc + term
    return acc


def chain_compose(a, b):
    ia, ib = (a.one,) + a.coeffs, (b.one,) + b.coeffs
    return TruncatedSeries("diff", a.order, [
        chain_law_coeff(ia, ib, n) for n in range(1, a.order + 1)])


class TestLoopLaws:
    def test_diff_compose_display(self):
        a = generic_series("diff", 3, 1)
        b = generic_series("diff", 3, 2)
        c = diff_compose(a, b)
        assert c.coeff(1) == x(1) + y(1)
        assert c.coeff(2) == x(2) + 2 * (x(1) * y(1)) + y(2)
        assert c.coeff(3) == x(3) + 3 * (x(2) * y(1)) \
            + x(1) * (2 * y(2) + y(1) * y(1)) + y(3)

    def test_inv_mul_display(self):
        a = generic_series("inv", 2, 1)
        b = generic_series("inv", 2, 2)
        c = inv_mul(a, b)
        assert c.coeff(2) == x(2) + x(1) * y(1) + y(2)

    def test_unit_laws_random_matrices(self):
        rng = Random(50)
        for flavor in ("inv", "diff"):
            a = random_series(rng, flavor, 8)
            e = unit_series(flavor, 8, a.one)
            assert mul(a, e) == a
            assert mul(e, a) == a

    def test_flavor_guards(self):
        a = generic_series("diff", 2, 1)
        b = generic_series("inv", 2, 2)
        with pytest.raises(StructuralError):
            mul(a, b)
        with pytest.raises(StructuralError):
            inv_mul(a, a)

    def test_order_never_extends(self):
        a = generic_series("diff", 3, 1)
        with pytest.raises(StructuralError):
            a.coeff(4)
        with pytest.raises(StructuralError):
            TruncatedSeries("diff", 2, [x(1), x(2), x(3)])


class TestDivisions:
    def test_diff_right_closed_display(self):
        a = generic_series("diff", 3, 1)
        b = generic_series("diff", 3, 2)
        got = divide("right", a, b, "closed")
        want3 = x(3) - (2 * (x(1) * y(2)) + 3 * (x(2) * y(1))) \
            + 5 * (x(1) * y(1) * y(1)) \
            - (y(3) - (2 * (y(1) * y(2)) + 3 * (y(2) * y(1)))
               + 5 * (y(1) * y(1) * y(1)))
        assert got.coeff(3) == want3

    def test_diff_left_closed_display(self):
        a = generic_series("diff", 3, 1)
        b = generic_series("diff", 3, 2)
        got = divide("left", a, b, "closed")
        want3 = y(3) - (2 * (x(1) * y(2)) + 3 * (x(2) * y(1))) \
            + (5 * (x(1) * x(1) * y(1)) + x(1) * y(1) * x(1)
               - x(1) * y(1) * y(1)) \
            - (x(3) - (2 * (x(1) * x(2)) + 3 * (x(2) * x(1)))
               + 5 * (x(1) * x(1) * x(1)))
        assert got.coeff(3) == want3

    def test_inv_left_closed_display(self):
        a = generic_series("inv", 2, 1)
        b = generic_series("inv", 2, 2)
        got = divide("left", a, b, "closed")
        assert got.coeff(2) == y(2) - x(1) * y(1) - x(2) + x(1) * x(1)

    def test_inv_right_closed_display(self):
        a = generic_series("inv", 3, 1)
        b = generic_series("inv", 3, 2)
        got = divide("right", a, b, "closed")
        want3 = x(3) - (x(1) * y(2) + x(2) * y(1)) + x(1) * y(1) * y(1) \
            - y(3) + (y(1) * y(2) + y(2) * y(1)) - y(1) * y(1) * y(1)
        assert got.coeff(3) == want3

    @pytest.mark.parametrize("flavor", ["inv", "diff"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_recursive_equals_closed_symbolic(self, flavor, side):
        order = 7
        a = generic_series(flavor, order, 1)
        b = generic_series(flavor, order, 2)
        assert divide(side, a, b) == divide(side, a, b, "closed")

    @pytest.mark.parametrize("flavor", ["inv", "diff"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_recursive_equals_closed_matrices(self, flavor, side):
        rng = Random(51)
        a = random_series(rng, flavor, 8)
        b = random_series(rng, flavor, 8)
        assert divide(side, a, b) == divide(side, a, b, "closed")

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_closed_inv_division_over_nonassociative_coefficients(self, side):
        # the closed formulas fix left/right-nested parenthesizations, so
        # they must match the recursive solutions over sedenions too
        rng = Random(68)

        def sed():
            return CDElement(4, [rng.randint(-2, 2) for _ in range(16)])

        a = TruncatedSeries("inv", 5, [sed() for _ in range(5)])
        b = TruncatedSeries("inv", 5, [sed() for _ in range(5)])
        assert divide(side, a, b) == divide(side, a, b, "closed")
        if side == "right":
            assert mul(divide("right", a, b), b) == a
        else:
            assert mul(a, divide("left", a, b)) == b

    @pytest.mark.parametrize("flavor", ["inv", "diff"])
    def test_cancellation_laws_matrices(self, flavor):
        rng = Random(52)
        for order, dim in ((6, 2), (10, 2), (6, 3)):
            a = random_series(rng, flavor, order, dim)
            b = random_series(rng, flavor, order, dim)
            assert mul(divide("right", a, b), b) == a
            assert divide("right", mul(a, b), b) == a
            assert mul(a, divide("left", a, b)) == b
            assert divide("left", a, mul(a, b)) == b

    @pytest.mark.parametrize("flavor", ["inv", "diff"])
    def test_cancellation_laws_symbolic(self, flavor):
        order = 6
        a = generic_series(flavor, order, 1)
        b = generic_series(flavor, order, 2)
        e = unit_series(flavor, order, a.one)
        assert mul(divide("right", a, b), b) == a
        assert divide("right", mul(a, b), b) == a
        assert mul(a, divide("left", a, b)) == b
        assert divide("left", a, mul(a, b)) == b
        assert divide("right", a, a) == e
        assert divide("left", a, a) == e

    def test_diff_refuses_nonassociative_carriers(self):
        octonion = CDElement.basis(3, 1)
        for coeff in (octonion,
                      MatrixElement([[octonion, octonion],
                                     [octonion, octonion]]),
                      DoubledElement(q(1), q(2))):
            with pytest.raises(StructuralError):
                TruncatedSeries("diff", 3, [coeff])
            TruncatedSeries("inv", 3, [coeff])
        TruncatedSeries("diff", 3, [CDElement.basis(2, 1)])

    def test_division_by_unit(self):
        rng = Random(53)
        a = random_series(rng, "diff", 6)
        e = unit_series("diff", 6, a.one)
        assert divide("right", a, e) == a


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None,
                             derandomize=True)

_small = st.integers(-3, 3)
_fractions = st.builds(Fraction, _small, st.integers(1, 3))


def coefficients(algebra):
    if algebra == "q":
        return _fractions
    if algebra in ("m2q", "m2sed"):
        entries = _fractions if algebra == "m2q" else coefficients("sed")
        return st.lists(entries, min_size=4, max_size=4).map(
            lambda e: MatrixElement([e[:2], e[2:]]))
    level = {"c": 1, "h": 2, "o": 3, "sed": 4}[algebra]
    return st.lists(_small, min_size=1 << level, max_size=1 << level).map(
        lambda c: CDElement(level, c))


def series_pairs(flavor, algebra, max_order=5):
    def pair(order):
        coeffs = st.lists(coefficients(algebra), min_size=order,
                          max_size=order)
        return st.tuples(coeffs, coeffs).map(lambda ab: (
            TruncatedSeries(flavor, order, ab[0]),
            TruncatedSeries(flavor, order, ab[1])))
    return st.integers(1, max_order).flatmap(pair)


CARRIERS = [("diff", "q"), ("diff", "m2q"), ("diff", "h"),
            ("inv", "q"), ("inv", "m2q"), ("inv", "sed"), ("inv", "o"),
            ("inv", "m2sed")]


class TestDivisionProperties:
    """The solver, the closed formulas and the law agree on random series
    over every carrier family a flavor admits."""

    @pytest.mark.parametrize("flavor, algebra", CARRIERS)
    def test_divisions_cancel_and_match_closed(self, flavor, algebra):
        @PROPERTY_SETTINGS
        @given(series_pairs(flavor, algebra))
        def check(ab):
            a, b = ab
            right = divide("right", a, b)
            left = divide("left", a, b)
            assert mul(right, b) == a
            assert mul(a, left) == b
            assert right == divide("right", a, b, "closed")
            assert left == divide("left", a, b, "closed")
        check()

    @pytest.mark.parametrize("algebra", ["sed", "o", "m2sed"])
    def test_inv_law_is_the_binary_convolution(self, algebra):
        # non-associative carriers: the one law at exponent p = 1 must be
        # the binary convolution, and both recursive divisions cancel
        # under it
        @PROPERTY_SETTINGS
        @given(series_pairs("inv", algebra, max_order=6))
        def check(ab):
            a, b = ab
            assert inv_mul(a, b) == inv_convolution(a, b)
            assert inv_convolution(divide("right", a, b), b) == a
            assert inv_convolution(a, divide("left", a, b)) == b
        check()

    @pytest.mark.parametrize("algebra", ["q", "m2q", "h"])
    def test_diff_inverse_two_sided(self, algebra):
        @PROPERTY_SETTINGS
        @given(series_pairs("diff", algebra, max_order=6))
        def check(ab):
            a = ab[0]
            inv = series_inverse(a)
            e = unit_series("diff", a.order, a.one)
            assert diff_compose(a, inv) == e
            assert diff_compose(inv, a) == e
            assert inv == antipode_inverse(a)
        check()


def lagrange_inverse(a):
    """The compositional inverse of ``f = t + sum_k a_k t^(k+1)`` over a
    commutative carrier by classical Lagrange inversion,
    ``[t^(n+1)] f^(-1) = (1/(n+1)) [t^n] (t/f)^(n+1)``, where ``t/f`` is
    the reciprocal ``h`` of ``1 + sum_k a_k t^k``; an oracle that shares
    nothing with the loop law."""
    order, ia = a.order, (a.one,) + a.coeffs
    zero = zero_of(a.one)

    def times(p, r):  # the product truncated at t^order
        return [sum((p[i] * r[j - i] for i in range(1, j + 1)), p[0] * r[j])
                for j in range(order + 1)]

    h = [a.one]
    for j in range(1, order + 1):
        h.append(-sum((ia[i] * h[j - i] for i in range(1, j + 1)), zero))
    out, power = [], h
    for n in range(1, order + 1):
        power = times(power, h)  # h^(n+1)
        out.append(power[n] * Fraction(1, n + 1))
    return TruncatedSeries("diff", order, out)


class TestClassicalLagrangeInversion:
    """Over commutative carriers the diff inverse, by the solver and by the
    closed left codivision, is classical Lagrange inversion, and the left
    quotient is ``a\\b = a^(-1) o b``. The closed mode stops at order 8:
    the closed left diff division is still exponential."""

    @pytest.mark.parametrize("algebra", ["q", "c"])
    @pytest.mark.parametrize("mode, max_order",
                             [("recursive", 12), ("closed", 8)])
    def test_inverse_is_lagrange_inversion(self, algebra, mode, max_order):
        @PROPERTY_SETTINGS
        @given(series_pairs("diff", algebra, max_order=max_order))
        def check(ab):
            a, b = ab
            inverse = lagrange_inverse(a)
            e = unit_series("diff", a.order, a.one)
            assert divide("left", a, e, mode) == inverse
            assert divide("left", a, b, mode) == diff_compose(inverse, b)
        check()

    def test_order_30_over_rationals(self):
        rng = Random(61)
        a, b = (TruncatedSeries("diff", 30, [q(rng.randint(-4, 4),
                                                rng.randint(1, 3))
                                              for _ in range(30)])
                for _ in range(2))
        inverse = lagrange_inverse(a)
        assert series_inverse(a) == inverse
        assert divide("left", a, b) == diff_compose(inverse, b)


class TestChainOracle:
    """The power-table law against the weak-composition chain sum."""

    @pytest.mark.parametrize("algebra", ["q", "m2q", "h"])
    def test_compose_and_quotients_match_chain_sum(self, algebra):
        @PROPERTY_SETTINGS
        @given(series_pairs("diff", algebra, max_order=7))
        def check(ab):
            a, b = ab
            assert diff_compose(a, b) == chain_compose(a, b)
            assert chain_compose(divide("right", a, b), b) == a
            assert chain_compose(a, divide("left", a, b)) == b
        check()

    @pytest.mark.parametrize("order", range(1, 6))
    def test_compose_matches_chain_sum_symbolic(self, order):
        a = generic_series("diff", order, 1)
        b = generic_series("diff", order, 2)
        assert diff_compose(a, b) == chain_compose(a, b)
        assert chain_compose(divide("right", a, b), b) == a
        assert chain_compose(a, divide("left", a, b)) == b


@pytest.mark.parametrize("order", [8, 10, 12])
def test_diff_law_products_are_cubic(monkeypatch, order):
    # counts every matrix product: the power table needs C(N+1, 3) of them
    # for the law, either division and the inverse; the chain sum needs
    # exponentially many (1016 at N = 8, 24564 at N = 12)
    rng = Random(59)
    a = random_series(rng, "diff", order)
    b = random_series(rng, "diff", order)
    products = 0
    plain = MatrixElement.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return plain(self, other)

    monkeypatch.setattr(MatrixElement, "__mul__", counting)
    for op in (lambda: diff_compose(a, b), lambda: divide("left", a, b),
               lambda: divide("right", a, b), lambda: series_inverse(a)):
        products = 0
        op()
        assert products <= order ** 3 / 2


class TestInverse:
    def test_diff_inverse_symbolic_single_generator(self):
        # a = t + a1 t^2 with a1 = x1: inverse coefficients follow the
        # signed Lagrange/Catalan pattern -x1, 2 x1^2, -5 x1^3, 14 x1^4
        a = TruncatedSeries("diff", 4, [x(1)])
        inv = series_inverse(a)
        x1 = x(1)
        assert inv.coeff(1) == -1 * x1
        assert inv.coeff(2) == 2 * (x1 * x1)
        assert inv.coeff(3) == -5 * (x1 * x1 * x1)
        assert inv.coeff(4) == 14 * (x1 * x1 * x1 * x1)
        assert inv == antipode_inverse(a)

    def test_diff_inverse_two_sided_matrices(self):
        rng = Random(54)
        a = random_series(rng, "diff", 8)
        inv = series_inverse(a)
        e = unit_series("diff", 8, a.one)
        assert diff_compose(a, inv) == e
        assert diff_compose(inv, a) == e
        # the recursive solve agrees with the antipode evaluation and with
        # the other side's division
        assert inv == antipode_inverse(a)
        assert inv == divide("right", e, a)
        assert inv == divide("left", a, e)

    def test_inv_inverse_sides_sedenion(self):
        E = CDElement.basis(4, 1) + CDElement.basis(4, 10)
        a = TruncatedSeries("inv", 3, [E])
        right = series_inverse(a, "right")   # e / a
        left = series_inverse(a, "left")     # a \ e
        assert right.coeff(3) == -((E * E) * E)
        assert left.coeff(3) == -(E * (E * E))

    def test_inv_requires_side(self):
        a = generic_series("inv", 2, 1)
        with pytest.raises(StructuralError):
            series_inverse(a)

    def test_right_division_via_inverse_holds_diff(self):
        rng = Random(55)
        a = random_series(rng, "diff", 6)
        b = random_series(rng, "diff", 6)
        e = unit_series("diff", 6, a.one)
        assert divide("right", a, b) == diff_compose(a, divide("right", e, b))

    def test_left_division_via_inverse_fails_diff(self):
        rng = Random(56)
        b = random_series(rng, "diff", 6)
        a = random_series(rng, "diff", 6)
        e = unit_series("diff", 6, a.one)
        via_inverse = diff_compose(divide("left", b, e), a)
        assert via_inverse != divide("left", b, a)

    def test_diff_is_group_over_commutative_coefficients(self):
        rng = Random(57)

        def diagonal_series():
            coeffs = [MatrixElement([[q(rng.randint(-3, 3)), q(0)],
                                     [q(0), q(rng.randint(-3, 3))]])
                      for _ in range(8)]
            return TruncatedSeries("diff", 8, coeffs)

        # diagonal matrices commute pairwise here only if we use one
        # diagonal slot; use scalar multiples of the identity instead
        def scalar_series():
            coeffs = [MatrixElement([[q(1), q(0)], [q(0), q(1)]])
                      * q(rng.randint(-3, 3)) for _ in range(8)]
            return TruncatedSeries("diff", 8, coeffs)

        a, b, c = scalar_series(), scalar_series(), scalar_series()
        assert diff_compose(diff_compose(a, b), c) == \
            diff_compose(a, diff_compose(b, c))
        d1, d2, d3 = diagonal_series(), diagonal_series(), diagonal_series()
        assert diff_compose(diff_compose(d1, d2), d3) == \
            diff_compose(d1, diff_compose(d2, d3))


class TestConvolution:
    def test_delta_r_matches_recursive(self):
        rng = Random(58)
        a = random_series(rng, "diff", 4)
        b = random_series(rng, "diff", 4)
        rec = divide("right", a, b)
        assert convolution_eval("delta_r", a, b, 4) == rec.coeff(4)

    def test_delta_matches_compose(self):
        rng = Random(59)
        a = random_series(rng, "diff", 3)
        b = random_series(rng, "diff", 3)
        assert convolution_eval("delta", a, b, 3) == diff_compose(a, b).coeff(3)

    def test_inv_delta_l_matches_recursive(self):
        rng = Random(60)
        a = random_series(rng, "inv", 3)
        b = random_series(rng, "inv", 3)
        rec = divide("left", a, b)
        assert convolution_eval("delta_l", a, b, 3) == rec.coeff(3)

    def test_all_kinds_all_degrees(self):
        rng = Random(61)
        for flavor, law in (("inv", inv_mul), ("diff", diff_compose)):
            a = random_series(rng, flavor, 6)
            b = random_series(rng, flavor, 6)
            right = divide("right", a, b)
            left = divide("left", a, b)
            prod = law(a, b)
            s_r = series_inverse(a, "right")
            s_l = series_inverse(a, "left")
            for n in range(1, 7):
                assert convolution_eval("delta", a, b, n) == prod.coeff(n)
                assert convolution_eval("delta_r", a, b, n) == right.coeff(n)
                assert convolution_eval("delta_l", a, b, n) == left.coeff(n)
                assert convolution_eval("s_r", a, b, n) == s_r.coeff(n)
                assert convolution_eval("s_l", a, b, n) == s_l.coeff(n)

    def test_nonassociative_carrier_keeps_nesting(self):
        # the left codivision's words nest to the right: nested to the
        # left, its table would give 2*e1 - 2*e5 + 2*e10 - 2*e14 here
        def sed(*units):
            return CDElement(4, [int(i in units) for i in range(16)])

        a = TruncatedSeries("inv", 3, [sed(1, 10)])
        b = TruncatedSeries("inv", 3, [sed(5, 14), sed(5, 14)])
        left = divide("left", a, b)
        assert left == divide("left", a, b, "closed")
        assert str(left.coeff(3)) == "2*e1 + 2*e10"
        assert convolution_eval("delta_l", a, b, 3) == left.coeff(3)
        assert convolution_eval("delta", a, b, 3) == inv_mul(a, b).coeff(3)
        assert convolution_eval("delta_r", a, b, 3) == \
            divide("right", a, b).coeff(3)

    @pytest.mark.parametrize("algebra", ["sed", "o", "m2sed"])
    def test_inv_tables_represent_inv_over_nonassociative_carriers(
            self, algebra):
        # Inv(A) is a loop over every unital A: each inv table, its words
        # nested as the coloop states, gives the division or the inverse
        rng = Random(63)
        order = 8

        def coeff():
            if algebra == "m2sed":
                return MatrixElement([[random_cd(rng, 4) for _ in range(2)]
                                      for _ in range(2)])
            return random_cd(rng, 4 if algebra == "sed" else 3)

        a, b = (TruncatedSeries("inv", order, [coeff() for _ in range(order)])
                for _ in range(2))
        want = {"delta_r": divide("right", a, b),
                "delta_l": divide("left", a, b),
                "s_r": series_inverse(a, "right"),
                "s_l": series_inverse(a, "left")}
        for kind, series in want.items():
            for n in range(1, order + 1):
                assert convolution_eval(kind, a, b, n) == series.coeff(n), \
                    (kind, n)

    def test_degree_guard(self):
        rng = Random(62)
        a = random_series(rng, "diff", 3)
        with pytest.raises(StructuralError):
            convolution_eval("delta", a, a, 4)


class TestElementLoops:
    def test_invertible_octonion_division(self):
        rng = Random(63)
        one = CDElement.one(3)
        x4 = one + CDElement.basis(3, 1) + CDElement.basis(3, 2) \
            + CDElement.basis(3, 3)
        assert cd_norm(x4) == 4
        for _ in range(50):
            target = CDElement(3, [rng.randint(-3, 3) for _ in range(8)])
            assert x4 * octonion_loop_div("I", "left", x4, target) == target
            assert octonion_loop_div("I", "right", x4, target) * x4 == target

    def test_unitary_octonion_moufang(self):
        rng = Random(64)
        for _ in range(20):
            a, b, c = (random_unit_octonion(rng) for _ in range(3))
            assert cd_norm(a) == 1
            for name in ("moufang-1", "moufang-2", "moufang-3", "moufang-4"):
                assert identity_check(name, a, b, c)

    def test_unitary_division_stays_unitary(self):
        rng = Random(65)
        for _ in range(20):
            a, b = random_unit_octonion(rng), random_unit_octonion(rng)
            d = octonion_loop_div("U", "left", a, b)
            assert cd_norm(d) == 1
            assert a * d == b

    def test_zorn_cancellation(self):
        rng = Random(66)
        xs = sample_zorn_unitaries(rng, 20)
        for a in xs[:10]:
            for b in xs[10:]:
                left = ucd_divide("left", a, b)
                assert a * left == b
                assert is_zero(left.unitary_defect())
                right = ucd_divide("right", a, b)
                assert right * a == b

    def test_zero_norm_rejected(self):
        zero = CDElement.zero(3)
        with pytest.raises(DomainError):
            octonion_loop_div("I", "left", zero, CDElement.one(3))

    def test_non_unitary_rejected(self):
        two = CDElement.one(3) * 2
        with pytest.raises(DomainError):
            octonion_loop_div("U", "left", two, two)
        sample = DoubledElement(MatrixElement([[q(2), q(0)], [q(0), q(2)]]),
                                MatrixElement([[q(0)] * 2] * 2))
        with pytest.raises(DomainError):
            ucd_divide("left", sample, sample)


class TestWitnesses:
    @pytest.mark.parametrize("name", [
        "diff-power-assoc", "diff-right-alt", "inv-left-right-inverse",
        "inv-right-alt", "inv-power-assoc", "ucd-not-loop"])
    def test_witness_passes(self, name):
        report = witness(name)
        assert report["pass"], [c for c in report["checks"] if not c["pass"]]

    def test_witness_values_diff_power_assoc(self):
        report = witness("diff-power-assoc")
        assert report["computed"]["c1*c2*c1^2"] == "[[2, 4], [1, 2]]"
        assert report["computed"]["c1^2*c2*c1"] == "[[3, 3], [1, 1]]"

    def test_witness_unknown(self):
        with pytest.raises(StructuralError):
            witness("nope")

    def test_ucd_witness_is_one_fixed_sample(self):
        a = witness("ucd-not-loop")
        b = witness("ucd-not-loop")
        assert a == b
        assert a["computed"]["seed"] == str(_UCD_SAMPLE_SEED)

    def test_ucd_sample_cancels_but_leaves_the_unitary_set(self):
        # what the fixed sample shows: x\y is no unitary element, while
        # x (x\y) = y holds, so the cancellation defect is zero and the
        # report's "defect is nonzero" check passes on the first alone
        # (ROADMAP item 15)
        computed = witness("ucd-not-loop")["computed"]
        assert computed["division stays unitary"] == "False"
        assert computed["x (x\\y) = y"] == "True"


def test_quaternionic_samples_exist():
    rng = Random(67)
    xs = sample_ucd_unitaries(rng, 6)
    assert all(is_zero(s.unitary_defect()) for s in xs)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, _UCD_SAMPLE_SEED])
def test_samplers_draw_unitary_elements(seed):
    # the samplers do not check their own output; this checks it, at the
    # witness's constant seed among others
    for sampler in (sample_zorn_unitaries, sample_ucd_unitaries):
        xs = sampler(Random(seed), 40)
        assert len(xs) == 40
        assert all(is_zero(x.unitary_defect()) for x in xs), sampler.__name__
