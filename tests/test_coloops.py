import math

import pytest

from loopseries import StructuralError, coloops, freealg
from loopseries.combinatorics import (
    bit_sequences,
    bit_sign,
    compositions,
    lagrange_d,
    lagrange_d_labeled,
)
from loopseries.coloops import (
    AXIOMS,
    EXPECTED_FAILURES,
    Coloop,
    get_coloop,
)
from loopseries.freealg import (
    MultiMorphism,
    NCPolynomial,
    TensorPoly,
    fold,
    project_pi,
    word_degree,
)
from oracles import (
    compare_nc_hopf,
    include_iota,
    nc_hopf_coproduct,
    operator_expansions,
    plain,
    tensor_coassociative,
)
from test_freealg import apply_by_sums

x = lambda n: NCPolynomial.generator(1, n)  # noqa: E731
y = lambda n: NCPolynomial.generator(2, n)  # noqa: E731
z = lambda n: NCPolynomial.generator(3, n)  # noqa: E731
u = lambda n: x(n) - y(n)  # noqa: E731
v = lambda n: y(n) - x(n)  # noqa: E731

MAX_DEGREE = 7


def product_chain_table(flavor, kind, n):
    """The table entry built from the direct formula as a sum of products
    of generator polynomials: the oracle for the signed-word builds."""
    if kind in ("s_r", "s_l"):
        # S_r = (eps u id) delta_r and S_l = (id u eps) delta_l
        keep = 2 if kind == "s_r" else 1
        images = {(cp, k): x(k) if cp == keep else NCPolynomial.zero()
                  for cp in (1, 2) for k in range(1, n + 1)}
        return apply_by_sums(
            images, product_chain_table(flavor, "delta" + kind[1:], n))
    terms = []
    if kind == "delta":
        terms.append(x(n) + y(n))
        if flavor == "inv":
            terms += [x(m) * y(n - m) for m in range(1, n)]
        else:
            for ell in range(1, n):
                for comp in compositions(n, ell + 1):
                    word = NCPolynomial.unit() * math.comb(comp[0] + 1, ell) \
                        * x(comp[0])
                    for k in comp[1:]:
                        word = word * y(k)
                    terms.append(word)
    elif kind == "delta_r":
        for ell in range(n):
            sign = -1 if ell % 2 else 1
            for comp in compositions(n, ell + 1):
                coeff = 1 if flavor == "inv" else lagrange_d(comp[:ell])
                word = NCPolynomial.unit() * (sign * coeff) * u(comp[0])
                for k in comp[1:]:
                    word = word * y(k)
                terms.append(word)
    elif kind == "delta_l":
        for ell in range(n):
            sign = -1 if ell % 2 else 1
            for comp in compositions(n, ell + 1):
                # inv: the letters before v are all x (bit 1)
                labels = [(1,) * ell] if flavor == "inv" else bit_sequences(ell)
                for e in labels:
                    coeff = 1 if flavor == "inv" \
                        else bit_sign(e) * lagrange_d_labeled(e, comp[:ell])
                    word = NCPolynomial.unit() * (sign * coeff)
                    for bit, k in zip(e, comp[:ell]):
                        word = word * (x(k) if bit == 1 else y(k))
                    terms.append(word * v(comp[ell]))
    return NCPolynomial.sum(terms)


class TestTables:
    def test_fdb_coproduct_displays(self):
        fdb = get_coloop("fdb")
        assert fdb.coproduct(1) == x(1) + y(1)
        assert fdb.coproduct(2) == x(2) + y(2) + 2 * (x(1) * y(1))
        assert fdb.coproduct(3) == \
            x(3) + y(3) + 2 * (x(1) * y(2)) + 3 * (x(2) * y(1)) \
            + x(1) * y(1) * y(1)

    def test_fdb_coproduct_x5_coefficients(self):
        d5 = get_coloop("fdb").coproduct(5)
        assert d5.terms.get(((1, 2), (2, 1), (2, 1), (2, 1)), 0) == 1
        assert d5.terms.get(((1, 1), (2, 1), (2, 1), (2, 1), (2, 1)), 0) == 0
        assert d5.terms.get(((1, 3), (2, 1), (2, 1)), 0) == 6

    def test_inv_coproduct(self):
        assert get_coloop("inv").coproduct(2) == x(2) + x(1) * y(1) + y(2)
        for n in range(1, 13):
            want = x(n) + y(n) + NCPolynomial.sum(
                x(m) * y(n - m) for m in range(1, n))
            assert Coloop("inv").coproduct(n) == want, n

    def test_fdb_right_codivision_displays(self):
        fdb = get_coloop("fdb")
        assert fdb.codivision("right", 1) == u(1)
        assert fdb.codivision("right", 2) == u(2) - 2 * (u(1) * y(1))
        assert fdb.codivision("right", 3) == \
            u(3) - (2 * (u(1) * y(2)) + 3 * (u(2) * y(1))) \
            + 5 * (u(1) * y(1) * y(1))
        assert fdb.codivision("right", 4) == \
            u(4) - (2 * (u(1) * y(3)) + 3 * (u(2) * y(2)) + 4 * (u(3) * y(1))) \
            + (5 * (u(1) * y(1) * y(2)) + 7 * (u(1) * y(2) * y(1))
               + 9 * (u(2) * y(1) * y(1))) \
            - 14 * (u(1) * y(1) * y(1) * y(1))

    def test_fdb_left_codivision_displays(self):
        fdb = get_coloop("fdb")
        assert fdb.codivision("left", 1) == v(1)
        assert fdb.codivision("left", 2) == v(2) - 2 * (x(1) * v(1))
        assert fdb.codivision("left", 3) == \
            v(3) - (2 * (x(1) * v(2)) + 3 * (x(2) * v(1))) \
            + 5 * (x(1) * x(1) * v(1)) - x(1) * y(1) * v(1)

    def test_inv_codivisions(self):
        inv = get_coloop("inv")
        assert inv.codivision("right", 2) == \
            x(2) - y(2) - x(1) * y(1) + y(1) * y(1)
        assert inv.codivision("left", 2) == \
            y(2) - x(1) * y(1) - x(2) + x(1) * x(1)

    def test_homogeneity(self):
        for flavor in ("inv", "fdb"):
            table = get_coloop(flavor)
            for n in range(1, 6):
                for poly in (table.coproduct(n),
                             table.codivision("right", n),
                             table.codivision("left", n),
                             table.antipode("right", n)):
                    # homogeneous, of degree n
                    assert {word_degree(w) for w in poly.terms} == {n}

    def test_coefficients_reproduce_lagrange_d(self):
        for n in range(1, MAX_DEGREE + 1):
            dr = get_coloop("fdb").codivision("right", n)
            for ell in range(n):
                for comp in compositions(n, ell + 1):
                    word = ((1, comp[0]),) + tuple((2, k) for k in comp[1:])
                    sign = -1 if ell % 2 else 1
                    assert dr.terms.get(word, 0) == sign * lagrange_d(comp[:ell])

    def test_coefficients_reproduce_labeled_d(self):
        # words ending in a copy-2 letter isolate one (composition, e) pair
        for n in range(1, MAX_DEGREE + 1):
            dl = get_coloop("fdb").codivision("left", n)
            for ell in range(n):
                for comp in compositions(n, ell + 1):
                    for e in bit_sequences(ell):
                        word = tuple((bit, k) for bit, k in zip(e, comp[:ell]))
                        word += ((2, comp[ell]),)
                        sign = -1 if ell % 2 else 1
                        want = sign * bit_sign(e) * lagrange_d_labeled(e, comp[:ell])
                        assert dl.terms.get(word, 0) == want, (n, comp, e)

    @pytest.mark.parametrize("flavor", ["inv", "fdb"])
    @pytest.mark.parametrize("kind", ["delta", "delta_r", "delta_l",
                                      "s_r", "s_l"])
    def test_equal_product_chain_oracle(self, flavor, kind):
        for n in range(1, 9):
            got = Coloop(flavor)._entry(kind, n)
            assert got == product_chain_table(flavor, kind, n), (kind, n)

    def test_builds_take_no_products(self, monkeypatch):
        # every table entry is a signed sum of words: building one never
        # multiplies two polynomials
        def forbidden(self, other):
            raise AssertionError("a table build multiplied polynomials")

        monkeypatch.setattr(NCPolynomial, "__mul__", forbidden)
        for flavor in ("inv", "fdb"):
            table = Coloop(flavor)
            for n in range(1, 7):
                for kind in ("delta", "delta_r", "delta_l", "s_r", "s_l"):
                    table._entry(kind, n)

    @pytest.mark.parametrize("flavor", ["inv", "fdb"])
    @pytest.mark.parametrize("kind", ["delta", "delta_r", "delta_l"])
    def test_words_share_one_object_per_letter(self, flavor, kind):
        # at most one (copy, index) object per letter of copies 1 and 2
        poly = Coloop(flavor)._entry(kind, 7)
        letters = {id(a) for w in poly.terms for a in w}
        assert len(letters) <= 2 * 7

    def test_caching_is_idempotent(self):
        table = Coloop("fdb")
        assert table.coproduct(4) == table.coproduct(4)
        assert ("delta", 4) in table._cache

    def test_bad_arguments(self):
        with pytest.raises(StructuralError):
            get_coloop("fdb").coproduct(0)
        with pytest.raises(StructuralError):
            get_coloop("fdb").codivision("up", 2)
        with pytest.raises(StructuralError):
            get_coloop("fdb").image("eps", 2)
        for name in ("counit", "x", ("delta_r", "x", "x")):
            with pytest.raises(StructuralError):
                get_coloop("fdb").image(name, 0)
        with pytest.raises(StructuralError):
            Coloop("nope")


class TestOperatorExpansions:
    # the tables use the direct formula only; the operator forms are the
    # paper's second route to the same entries
    @pytest.mark.parametrize("kind, forms, entry", [
        ("delta", {"triangle"}, lambda n: get_coloop("fdb").coproduct(n)),
        ("delta_r", {"right_op", "left_op"},
         lambda n: get_coloop("fdb").codivision("right", n)),
        ("delta_l", {"right_op_e"},
         lambda n: get_coloop("fdb").codivision("left", n)),
    ], ids=["delta", "delta_r", "delta_l"])
    def test_equal_fdb_tables(self, kind, forms, entry):
        for n in range(1, MAX_DEGREE + 1):
            expansions = operator_expansions(kind, n)
            assert set(expansions) == forms
            for form, poly in expansions.items():
                assert poly == entry(n), (kind, form, n)

    def test_bad_arguments(self):
        with pytest.raises(StructuralError):
            operator_expansions("s_r", 2)
        with pytest.raises(StructuralError):
            operator_expansions("delta", 0)


class TestAntipodes:
    def test_fdb_values(self):
        fdb = get_coloop("fdb")
        assert fdb.antipode("right", 1) == -1 * x(1)
        assert fdb.antipode("right", 2) == -1 * x(2) + 2 * (x(1) * x(1))
        assert fdb.antipode("right", 3) == \
            -1 * x(3) + 2 * (x(1) * x(2)) + 3 * (x(2) * x(1)) \
            - 5 * (x(1) * x(1) * x(1))

    def test_fdb_antipode_two_sided(self):
        fdb = get_coloop("fdb")
        for n in range(1, MAX_DEGREE + 1):
            assert fdb.antipode("right", n) == fdb.antipode("left", n)

    def test_fdb_antipode_matches_compositional_inverse(self):
        # independent oracle: solve a o s = e degree by degree for the
        # generic series a_k = x_k over the free algebra itself
        from oracles import weak_compositions
        s: dict[int, NCPolynomial] = {}
        for n in range(1, 6):
            acc = NCPolynomial.zero()
            for m in range(1, n + 1):
                for ks in weak_compositions(n - m, m + 1):
                    term = x(m)
                    for k in ks:
                        if k:
                            term = term * s[k]
                    acc = acc + term
            s[n] = -1 * acc
            assert s[n] == get_coloop("fdb").antipode("right", n), n

    def test_inv_antipodes_collapse_in_associative_ring(self):
        # over associative coefficients Inv is a group; the symbolic
        # antipodes coincide and the genuine left/right split is exercised
        # by the sedenion series witnesses instead
        inv = get_coloop("inv")
        for n in range(1, MAX_DEGREE + 1):
            assert inv.antipode("right", n) == inv.antipode("left", n)

    def test_inv_antipode_value(self):
        inv = get_coloop("inv")
        assert inv.antipode("right", 2) == -1 * x(2) + x(1) * x(1)
        assert inv.antipode("right", 3) == \
            -1 * x(3) + x(1) * x(2) + x(2) * x(1) - x(1) * x(1) * x(1)


class TestAxiomBattery:
    @pytest.mark.parametrize("flavor", ["inv", "fdb"])
    @pytest.mark.parametrize("axiom", AXIOMS)
    def test_axiom(self, flavor, axiom):
        first_expected = EXPECTED_FAILURES.get((flavor, axiom))
        for n in range(1, MAX_DEGREE + 1):
            ok, disc = get_coloop(flavor).axiom_check(axiom, n)
            if first_expected is not None and n >= first_expected:
                assert not ok, (flavor, axiom, n)
                assert disc is not None and not disc.is_zero()
            else:
                assert ok, (flavor, axiom, n, str(disc))
                assert disc is None

    def test_coinverse_left_discrepancy(self):
        ok, disc = get_coloop("fdb").axiom_check("coinverse-left", 3)
        assert not ok
        assert disc == x(1) * v(1) * y(1) - x(1) * y(1) * v(1)

    def test_homomorphic_extension_on_products(self):
        # generator verification is sufficient; this samples products as a
        # sanity layer for the extension engine
        from loopseries.freealg import MultiMorphism, fold
        table = get_coloop("fdb")
        delta = MultiMorphism(image_fn=lambda cp, n: table.coproduct(n))
        p = x(1) * x(2) + 3 * x(3)
        q = x(1) * x(1)
        assert delta(p * q) == delta(p) * delta(q)
        mu = fold({1: 1, 2: 1}, delta(p * q))
        muq = fold({1: 1, 2: 1}, delta(p)) * fold({1: 1, 2: 1}, delta(q))
        assert mu == muq

    def test_unknown_axiom(self):
        with pytest.raises(StructuralError):
            get_coloop("fdb").axiom_check("nope", 2)

    @pytest.mark.parametrize("flavor", ["inv", "fdb"])
    def test_sides_equal_fold_composed_oracle(self, flavor):
        table = Coloop(flavor)
        for axiom in AXIOMS:
            for n in range(1, MAX_DEGREE + 1):
                assert table._axiom_sides(axiom, n) == \
                    fold_composed_sides(table, axiom, n), (axiom, n)
        # the fdb discrepancy, and None where the axiom holds
        lhs, rhs = fold_composed_sides(table, "coinverse-left", 3)[0]
        want = lhs - rhs
        assert (want.is_zero()) == (flavor == "inv")
        assert table.axiom_check("coinverse-left", 3)[1] == (want or None)

    def test_battery_folds_no_morphism_output(self, monkeypatch):
        def forbidden(labelmap, p):
            raise AssertionError(f"fold {labelmap} called")

        assert not hasattr(coloops, "fold")
        for flavor in ("inv", "fdb"):
            table = Coloop(flavor)
            monkeypatch.setattr(freealg, "fold", forbidden)
            for axiom in AXIOMS:
                first_expected = EXPECTED_FAILURES.get((flavor, axiom), 7)
                for n in range(1, 7):
                    ok, _ = table.axiom_check(axiom, n)
                    assert ok == (n < first_expected), (flavor, axiom, n)
            monkeypatch.undo()


def fold_composed_sides(table, axiom, n):
    """The axiom sides as composites of table morphisms and copy
    relabelings: each side applies one morphism, then folds its output."""
    delta = table.coproduct
    delta_r = lambda k: table.codivision("right", k)  # noqa: E731
    delta_l = lambda k: table.codivision("left", k)  # noqa: E731
    s_r = lambda k: table.antipode("right", k)  # noqa: E731
    s_l = lambda k: table.antipode("left", k)  # noqa: E731
    eps = lambda k: NCPolynomial.zero()  # noqa: E731

    def hom(*images):
        return MultiMorphism(image_fn=lambda cp, k: images[cp - 1](k))

    def moved(labelmap, image):
        return lambda k: fold(labelmap, image(k))

    mu = lambda p: fold({1: 1, 2: 1}, p)  # noqa: E731
    id_fold_mu = lambda p: fold({1: 1, 2: 2, 3: 2}, p)  # noqa: E731
    mu_fold_id = lambda p: fold({1: 1, 2: 1, 3: 2}, p)  # noqa: E731
    at23 = {1: 2, 2: 3}
    sides = {
        "counit": lambda: [(hom(eps, y)(delta(n)), y(n)),
                           (hom(x, eps)(delta(n)), x(n))],
        "right-cocancel-1": lambda: [
            (id_fold_mu(hom(delta_r, z)(delta(n))), x(n))],
        "right-cocancel-2": lambda: [
            (id_fold_mu(hom(delta, z)(delta_r(n))), x(n))],
        "left-cocancel-1": lambda: [
            (mu_fold_id(hom(x, moved(at23, delta_l))(delta(n))), y(n))],
        "left-cocancel-2": lambda: [
            (mu_fold_id(hom(x, moved(at23, delta))(delta_l(n))), y(n))],
        "partial-counit": lambda: [(hom(x, eps)(delta_r(n)), x(n)),
                                   (hom(eps, y)(delta_l(n)), y(n))],
        "five-terms-left": lambda: [
            (mu(hom(s_r, y)(delta(n))), NCPolynomial.zero())],
        "five-terms-right": lambda: [
            (mu(hom(x, moved({1: 2}, s_l))(delta(n))), NCPolynomial.zero())],
        "mu-delta": lambda: [(mu(delta_r(n)), NCPolynomial.zero()),
                             (mu(delta_l(n)), NCPolynomial.zero())],
        "coinverse-right": lambda: [
            (delta_r(n), hom(x, moved({1: 2}, s_r))(delta(n)))],
        "coinverse-left": lambda: [(delta_l(n), hom(s_l, y)(delta(n)))],
        "antipode-two-sided": lambda: [(s_r(n), s_l(n))],
    }
    return sides[axiom]()


class TestImageSpecs:
    # each spec against its copy relabeling through fold, the oracle
    @pytest.mark.parametrize("flavor", ["inv", "fdb"])
    @pytest.mark.parametrize("spec, labelmap, name", [
        (("delta_r", "x", "x"), {1: 1, 2: 1}, "delta_r"),
        (("delta_l", "x", "x"), {1: 1, 2: 1}, "delta_l"),
        (("s_r", "y"), {1: 2}, "s_r"),
        (("delta", "y", "z"), {1: 2, 2: 3}, "delta"),
    ], ids=["mu-delta_r", "mu-delta_l", "s_r-at-y", "delta-at-yz"])
    def test_spec_equals_fold(self, flavor, spec, labelmap, name):
        table = Coloop(flavor)
        for n in range(1, 9):
            want = fold(labelmap, table.image(name, n))
            assert table.image(spec, n) == want, (spec, n)

    @pytest.mark.parametrize("spec", [
        ("delta", "x"), ("s_r",), ("delta", "x", ("delta", "y"))])
    def test_missing_copy_is_refused(self, spec):
        with pytest.raises(StructuralError, match="has no image for copy"):
            Coloop("fdb").image(spec, 2)

    @pytest.mark.parametrize("spec", [
        ["delta", "x", "y"], 3, None, (), ("delta", "x", 3), ("delta@23",)])
    def test_spec_that_is_not_an_image_is_refused(self, spec):
        with pytest.raises(StructuralError, match="unknown image"):
            Coloop("fdb").image(spec, 2)


class TestCoassociator:
    def test_inv_is_coassociative_symbolically(self):
        for n in range(1, 6):
            assert get_coloop("inv").coassociator(n).is_zero()

    def test_fdb_fold1(self):
        table = get_coloop("fdb")
        for n in range(1, 5):
            assert table.coassociator_fold1(n).is_zero()
        got = table.coassociator_fold1(5)
        want = x(1) * y(2) * y(1) * y(1) - x(1) * y(1) * y(2) * y(1)
        assert got == want

    def test_fdb_fold2(self):
        table = get_coloop("fdb")
        got = table.coassociator_fold2(5)
        want = x(1) * x(2) * x(1) * x(1) - x(1) * x(1) * x(2) * x(1)
        assert got == want

    def test_fdb_k5_sample_terms(self):
        k5 = get_coloop("fdb").coassociator(5)
        # K(x5) = 6 x3 (y1 z1 - z1 y1) + ...
        assert k5.terms.get(((1, 3), (2, 1), (3, 1)), 0) == 6
        assert k5.terms.get(((1, 3), (3, 1), (2, 1)), 0) == -6


class TestProjection:
    def test_fdb_projected_x2(self):
        got = get_coloop("fdb").projected_coproduct(2)
        want = TensorPoly({plain(((2,), ())): 1, plain(((), (2,))): 1,
                           plain(((1,), (1,))): 2})
        assert got == want

    def test_pi_iota_on_tables(self):
        for flavor in ("inv", "fdb"):
            for n in range(1, 6):
                t = get_coloop(flavor).projected_coproduct(n)
                assert project_pi(include_iota(t), 2) == t

    def test_tensor_coassociativity(self):
        for flavor in ("inv", "fdb"):
            for n in range(1, 11):
                assert tensor_coassociative(flavor, n)

    def test_nc_hopf_equality(self):
        for n in range(1, 11):
            assert compare_nc_hopf(n)

    def test_nc_hopf_x2(self):
        got = nc_hopf_coproduct(2)
        assert got.terms[plain(((), (2,)))] == 1
        assert got.terms[plain(((1,), (1,)))] == 2
        assert got.terms[plain(((2,), ()))] == 1


def test_inv_codivisions_are_mirror_images():
    # the left codivision is the right one with copies swapped AND every
    # word reversed (the copy swap alone lands in the opposite algebra)
    from loopseries.freealg import fold
    for n in range(1, 7):
        swapped = fold({1: 2, 2: 1}, get_coloop("inv").codivision("right", n))
        mirrored = NCPolynomial(
            {tuple(reversed(w)): c for w, c in swapped.terms.items()})
        assert mirrored == get_coloop("inv").codivision("left", n)
        assert swapped != get_coloop("inv").codivision("left", n) or n == 1


def test_delta_counit_convolution_is_identity():
    # (id * eps) Delta = id under convolution: fold after killing copy 2
    from loopseries.freealg import MultiMorphism
    table = get_coloop("fdb")
    kill = MultiMorphism(image_fn=lambda cp, n: (
        x(n) if cp == 1 else NCPolynomial.zero()))
    for n in range(1, 6):
        assert kill(table.coproduct(n)) == x(n)


def test_expected_failure_registry_contents():
    assert EXPECTED_FAILURES == {("fdb", "coinverse-left"): 3}


def test_seeded_product_sanity_layer():
    # axiom composites on a seeded sample of low-degree products
    from random import Random
    from loopseries.freealg import MultiMorphism, fold
    rng = Random(41)
    table = get_coloop("fdb")
    delta_r = MultiMorphism(image_fn=lambda cp, n: (
        table.codivision("right", n) if cp == 1
        else NCPolynomial.generator(3, n)))
    delta = MultiMorphism(image_fn=lambda cp, n: table.coproduct(n))
    for _ in range(5):
        word = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        p = NCPolynomial.unit()
        for n in word:
            p = p * x(n)
        step = delta_r(delta(p))
        got = fold({1: 1, 2: 2, 3: 2}, step)
        assert got == p
