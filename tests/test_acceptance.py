"""Acceptance battery: one test per criterion, each printing a pass/fail
line with its runtime and asserting the stated budget. All checks are
exact; nothing here is tolerance-based."""

import itertools
import time
from fractions import Fraction
from random import Random

from loopseries import coloops
from loopseries.algebras import CDElement, MatrixElement, identity_check
from loopseries.combinatorics import (
    all_compositions,
    lagrange_d,
    m_sequences,
)
from loopseries.freealg import NCPolynomial, project_pi
from loopseries.operators import left_op, right_op
from loopseries.seriesloops import (
    TruncatedSeries,
    convolution_eval,
    diff_compose,
    divide,
    series_inverse,
    unit_series,
)
from loopseries.witnesses import sample_zorn_unitaries, ucd_divide, witness
from oracles import (
    catalan,
    compare_nc_hopf,
    d_recurrence_check,
    generic_series,
    hq_loop_axioms,
    include_iota,
    operator_identity_check,
    plain,
    random_matrix,
    random_unit_octonion,
    tensor_coassociative,
    tree_leaves,
    tree_of_msequence,
)

x = lambda n: NCPolynomial.generator(1, n)  # noqa: E731
y = lambda n: NCPolynomial.generator(2, n)  # noqa: E731
u = lambda n: x(n) - y(n)  # noqa: E731
v = lambda n: y(n) - x(n)  # noqa: E731


def criterion(number, description, budget_seconds):
    """One acceptance criterion: run the body, print a pass/fail line on
    the real stdout (outside pytest capture), enforce the time budget."""
    def wrap(fn):
        def run(capfd):
            start = time.time()
            try:
                fn()
            except BaseException:
                with capfd.disabled():
                    print(f"ACCEPTANCE {number:2d}: FAIL ({description})")
                raise
            elapsed = time.time() - start
            with capfd.disabled():
                print(f"ACCEPTANCE {number:2d}: PASS in {elapsed:6.2f}s "
                      f"(budget {budget_seconds}s) - {description}")
            assert elapsed < budget_seconds
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return wrap


# -- criterion 1: expansion goldens -----------------------------------

def golden_coproducts():
    return {
        1: x(1) + y(1),
        2: x(2) + y(2) + 2 * (x(1) * y(1)),
        3: x(3) + y(3) + (2 * (x(1) * y(2)) + 3 * (x(2) * y(1)))
           + x(1) * y(1) * y(1),
        4: x(4) + y(4)
           + (2 * (x(1) * y(3)) + 3 * (x(2) * y(2)) + 4 * (x(3) * y(1)))
           + (x(1) * (y(1) * y(2) + y(2) * y(1)) + 3 * (x(2) * y(1) * y(1))),
        5: x(5) + y(5)
           + (2 * (x(1) * y(4)) + 3 * (x(2) * y(3)) + 4 * (x(3) * y(2))
              + 5 * (x(4) * y(1)))
           + (x(1) * (y(1) * y(3) + y(2) * y(2) + y(3) * y(1))
              + 3 * (x(2) * (y(1) * y(2) + y(2) * y(1)))
              + 6 * (x(3) * y(1) * y(1)))
           + x(2) * y(1) * y(1) * y(1),
    }


def golden_right_codivisions():
    return {
        1: u(1),
        2: u(2) - 2 * (u(1) * y(1)),
        3: u(3) - (2 * (u(1) * y(2)) + 3 * (u(2) * y(1)))
           + 5 * (u(1) * y(1) * y(1)),
        4: u(4)
           - (2 * (u(1) * y(3)) + 3 * (u(2) * y(2)) + 4 * (u(3) * y(1)))
           + (5 * (u(1) * y(1) * y(2)) + 7 * (u(1) * y(2) * y(1))
              + 9 * (u(2) * y(1) * y(1)))
           - 14 * (u(1) * y(1) * y(1) * y(1)),
        5: u(5)
           - (2 * (u(1) * y(4)) + 3 * (u(2) * y(3)) + 4 * (u(3) * y(2))
              + 5 * (u(4) * y(1)))
           + (5 * (u(1) * y(1) * y(3)) + 7 * (u(1) * y(2) * y(2))
              + 9 * (u(1) * y(3) * y(1)) + 9 * (u(2) * y(1) * y(2))
              + 12 * (u(2) * y(2) * y(1)) + 14 * (u(3) * y(1) * y(1)))
           - (14 * (u(1) * y(1) * y(1) * y(2))
              + 19 * (u(1) * y(1) * y(2) * y(1))
              + 23 * (u(1) * y(2) * y(1) * y(1))
              + 28 * (u(2) * y(1) * y(1) * y(1)))
           + 42 * (u(1) * y(1) * y(1) * y(1) * y(1)),
    }


def golden_left_codivisions():
    x1, x2, x3, x4 = x(1), x(2), x(3), x(4)
    y1, y2, y3 = y(1), y(2), y(3)
    return {
        1: v(1),
        2: v(2) - 2 * (x1 * v(1)),
        3: v(3) - (2 * (x1 * v(2)) + 3 * (x2 * v(1)))
           + 5 * (x1 * x1 * v(1)) - x1 * y1 * v(1),
        4: v(4)
           - (2 * (x1 * v(3)) + 3 * (x2 * v(2)) + 4 * (x3 * v(1)))
           + (5 * (x1 * x1 * v(2)) + 7 * (x1 * x2 * v(1))
              + 9 * (x2 * x1 * v(1)))
           - 14 * (x1 * x1 * x1 * v(1))
           - (x1 * y1 * v(2) + x1 * y2 * v(1) + 3 * (x2 * y1 * v(1)))
           + (4 * (x1 * x1 * y1 * v(1)) + 2 * (x1 * y1 * x1 * v(1))),
        5: v(5)
           - (2 * (x1 * v(4)) + 3 * (x2 * v(3)) + 4 * (x3 * v(2))
              + 5 * (x4 * v(1)))
           + (5 * (x1 * x1 * v(3)) + 7 * (x1 * x2 * v(2))
              + 9 * (x1 * x3 * v(1)) + 9 * (x2 * x1 * v(2))
              + 12 * (x2 * x2 * v(1)) + 14 * (x3 * x1 * v(1)))
           - (14 * (x1 * x1 * x1 * v(2)) + 19 * (x1 * x1 * x2 * v(1))
              + 23 * (x1 * x2 * x1 * v(1)) + 28 * (x2 * x1 * x1 * v(1)))
           + 42 * (x1 * x1 * x1 * x1 * v(1))
           - (x1 * y1 * v(3) + x1 * y2 * v(2) + x1 * y3 * v(1)
              + 3 * (x2 * y1 * v(2)) + 3 * (x2 * y2 * v(1))
              + 6 * (x3 * y1 * v(1)))
           + (4 * (x1 * x1 * y1 * v(2)) + 4 * (x1 * x1 * y2 * v(1))
              + 9 * (x1 * x2 * y1 * v(1)) + 10 * (x2 * x1 * y1 * v(1))
              + 2 * (x1 * y1 * x1 * v(2)) + 3 * (x1 * y1 * x2 * v(1))
              + 2 * (x1 * y2 * x1 * v(1)) + 7 * (x2 * y1 * x1 * v(1))
              - x2 * y1 * y1 * v(1))
           - (14 * (x1 * x1 * x1 * y1 * v(1))
              + 9 * (x1 * x1 * y1 * x1 * v(1))
              + 5 * (x1 * y1 * x1 * x1 * v(1))
              - x1 * x1 * y1 * y1 * v(1)
              - x1 * y1 * x1 * y1 * v(1)),
    }


@criterion(1, "expansion goldens for n <= 5", 1.0)
def test_criterion_01_goldens():
    fdb = coloops.get_coloop("fdb")
    tables = [
        (golden_coproducts(), fdb.coproduct),
        (golden_right_codivisions(), lambda n: fdb.codivision("right", n)),
        (golden_left_codivisions(), lambda n: fdb.codivision("left", n)),
    ]
    for goldens, table in tables:
        for n, golden in goldens.items():
            got = table(n)
            assert got == golden, n
            assert str(got) == str(golden), n


CRITERION2_AXIOMS = (
    "counit", "right-cocancel-1", "right-cocancel-2",
    "left-cocancel-1", "left-cocancel-2", "partial-counit",
    "five-terms-left", "five-terms-right", "mu-delta",
)


@criterion(2, "coloop axiom sweep for both flavors, n <= 7", 60.0)
def test_criterion_02_axiom_sweep():
    for flavor in ("inv", "fdb"):
        for axiom in CRITERION2_AXIOMS:
            for n in range(1, 8):
                ok, disc = coloops.get_coloop(flavor).axiom_check(axiom, n)
                assert ok, (flavor, axiom, n, str(disc))


@criterion(3, "two-sided antipode, coinverse split, series inverse", 30.0)
def test_criterion_03_antipode():
    fdb = coloops.get_coloop("fdb")
    for n in range(1, 8):
        assert fdb.antipode("right", n) == fdb.antipode("left", n)
        ok, _ = fdb.axiom_check("coinverse-right", n)
        assert ok, n
    for n in (1, 2):
        ok, _ = fdb.axiom_check("coinverse-left", n)
        assert ok
    ok, disc = fdb.axiom_check("coinverse-left", 3)
    assert not ok
    assert disc == x(1) * v(1) * y(1) - x(1) * y(1) * v(1)
    for n in range(4, 8):
        ok, _ = fdb.axiom_check("coinverse-left", n)
        assert not ok
    rng = Random(301)
    a = TruncatedSeries("diff", 8, [random_matrix(rng, 2) for _ in range(8)])
    inv = series_inverse(a)
    e = unit_series("diff", 8, a.one)
    assert diff_compose(a, inv) == e
    assert diff_compose(inv, a) == e


@criterion(4, "closed/recursive/convolution oracle equivalence", 60.0)
def test_criterion_04_oracle_equivalence():
    # symbolic, order 7: generic coefficients are the generators themselves
    for flavor in ("inv", "diff"):
        a, b = generic_series(flavor, 7, 1), generic_series(flavor, 7, 2)
        for side, kind in (("right", "delta_r"), ("left", "delta_l")):
            rec = divide(side, a, b)
            assert rec == divide(side, a, b, "closed"), (flavor, side)
            for n in range(1, 8):
                assert convolution_eval(kind, a, b, n) == rec.coeff(n), \
                    (flavor, side, n)
    # seeded 2x2 rational matrices, order 8
    rng = Random(401)
    for flavor in ("inv", "diff"):
        a = TruncatedSeries(flavor, 8, [random_matrix(rng, 2)
                                        for _ in range(8)])
        b = TruncatedSeries(flavor, 8, [random_matrix(rng, 2)
                                        for _ in range(8)])
        for side, kind in (("right", "delta_r"), ("left", "delta_l")):
            rec = divide(side, a, b)
            assert rec == divide(side, a, b, "closed"), (flavor, side)
            for n in range(1, 9):
                assert convolution_eval(kind, a, b, n) == rec.coeff(n), \
                    (flavor, side, n)


@criterion(5, "coefficient combinatorics and the tree bijection", 30.0)
def test_criterion_05_combinatorics():
    for ell in range(1, 9):
        assert len(m_sequences(ell)) == catalan(ell)
    assert [lagrange_d((1,) * ell) for ell in range(1, 6)] == \
        [2, 5, 14, 42, 132]
    for n in range(1, 11):
        for comp in all_compositions(n):
            for variant in ("alt-sign", "product", "shift"):
                assert d_recurrence_check(variant, comp), (variant, comp)
    for ell in range(1, 8):
        images = {tree_of_msequence(m) for m in m_sequences(ell)}
        assert len(images) == catalan(ell)
        assert all(tree_leaves(t) == ell + 1 for t in images)


@criterion(6, "operator identities and Lagrange scalar parts", 120.0)
def test_criterion_06_operators():
    for ell in range(1, 7):
        for degs in itertools.product((1, 2, 3), repeat=ell):
            fs = [x(n) for n in degs]
            assert right_op(fs) == right_op(fs, "closed"), degs
            assert left_op(fs) == left_op(fs, "closed"), degs
    for ell in range(1, 7):
        assert operator_identity_check("LR", ell, degree_bound=3), ell
    for ell in range(1, 5):
        assert operator_identity_check("Re1", ell, degree_bound=2), ell
        # R1 checks the scalar parts against d and labeled d for all e
        assert operator_identity_check("R1", ell, degree_bound=2), ell


@criterion(7, "the six named counterexample witnesses", 5.0)
def test_criterion_07_witnesses():
    for name in ("diff-power-assoc", "diff-right-alt",
                 "inv-left-right-inverse", "inv-right-alt",
                 "inv-power-assoc", "ucd-not-loop"):
        report = witness(name)
        assert report["pass"], (name, [c["description"]
                                       for c in report["checks"]
                                       if not c["pass"]])
    report = witness("diff-power-assoc")
    assert report["computed"]["c1*c2*c1^2"] == "[[2, 4], [1, 2]]"
    assert report["computed"]["c1^2*c2*c1"] == "[[3, 3], [1, 1]]"


@criterion(8, "Faa di Bruno coassociator folds", 10.0)
def test_criterion_08_coassociator():
    table = coloops.get_coloop("fdb")
    for n in range(1, 5):
        assert table.coassociator_fold1(n).is_zero(), n
    assert table.coassociator_fold1(5) == \
        x(1) * y(2) * y(1) * y(1) - x(1) * y(1) * y(2) * y(1)
    assert table.coassociator_fold2(5) == \
        x(1) * x(2) * x(1) * x(1) - x(1) * x(1) * x(2) * x(1)


@criterion(9, "projection onto the tensor Hopf algebra", 10.0)
def test_criterion_09_projection():
    rng = Random(901)
    from loopseries.freealg import TensorPoly
    for _ in range(20):
        key = tuple(tuple(rng.randint(1, 3)
                          for _ in range(rng.randint(0, 3)))
                    for _ in range(2))
        t = TensorPoly({plain(key): rng.randint(1, 4)})
        assert project_pi(include_iota(t), 2) == t
    for n in range(1, 7):
        assert tensor_coassociative("fdb", n), n
        assert compare_nc_hopf(n), n


@criterion(10, "concrete element loops and their failures", 10.0)
def test_criterion_10_element_loops():
    rng = Random(1001)
    for _ in range(15):
        a, b, c = (random_unit_octonion(rng) for _ in range(3))
        for name in ("moufang-1", "moufang-2", "moufang-3", "moufang-4"):
            assert identity_check(name, a, b, c)
    # stored sedenion witness: the zero-divisor pair with the unit
    E = CDElement.basis(4, 1) + CDElement.basis(4, 10)
    F = CDElement.basis(4, 5) + CDElement.basis(4, 14)
    one = CDElement.one(4)
    assert not identity_check("moufang-3", E, F, one)
    zorn = sample_zorn_unitaries(rng, 16)
    for a in zorn[:8]:
        for b in zorn[8:]:
            got = ucd_divide("left", a, b)
            assert a * got == b
            assert got.unitary_defect().is_zero()
    report = witness("ucd-not-loop")
    assert report["pass"]
    hq = hq_loop_axioms()
    assert hq["is_loop"]
    assert hq["nonassociative_witness"] is not None


def test_summary_line():
    # all aggregate constants the criteria rely on, re-stated in one place
    assert catalan(5) == 42
    assert lagrange_d((1, 1, 1, 1)) == 42
    q = Fraction
    assert MatrixElement([[q(1), q(1)], [q(0), q(1)]]).dim == 2
