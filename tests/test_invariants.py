"""Invariant computations for every degree, plus the determinant
discriminants and derived quantities."""

import random
import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus1 import (DISC_MATRIX_SIGN, Deg1Model, Deg1Transform, Deg2Model,
                    Deg2Transform, Deg3Model, Deg3Transform, Deg4Model,
                    Deg4Transform, Deg5Model, Deg5Transform, DegenerateModelError,
                    InputError, InternalCheckError, Poly, SingularModelError, apply,
                    contract_quintics, deg4_auxiliary_quadrics, deg4_omega_quadric,
                    deg5_covariants, deg5_omega_quadric, det_character, determinant,
                    discriminant_deg3_matrix, discriminant_deg4_matrix,
                    discriminant_deg5_matrix, generators, hessian,
                    invariants, invariants_deg1,
                    invariants_deg2, invariants_deg3, invariants_deg4,
                    invariants_deg5, j_invariant, jacobian, matrix_discriminant,
                    tate_quantities, weierstrass_model)
from genus1.invariants import V_RING, _hessian_forms
from genus1.linalg import perm_sign
from genus1.models import DEG3_RING, DEG4_RING, DEG5_RING
from genus1.poly import gradient, monomials

from helpers import (BIG, MATRIX_ENTRIES, WUTHRICH_C4, WUTHRICH_C6,
                     deg5_models, deg5_reference, invertible_matrices, random_matrix,
                     random_model, random_smooth_model, random_transformation,
                     substitute, wuthrich_model)

XYZ = generators(DEG3_RING)

# Cubics for the Hessian-syzygy properties: small, 20-digit, and moved by
# a Deg3Transform with mu = 1/2, which leaves Fraction coefficients; the
# examples are the triple line, the triangle and the cuspidal cubic.
SMALL_CUBIC_COEFFS = st.lists(st.integers(-3, 3), min_size=10, max_size=10)
CUBICS = st.one_of(
    SMALL_CUBIC_COEFFS.map(Deg3Model.from_coefficients),
    st.lists(BIG, min_size=10, max_size=10).map(Deg3Model.from_coefficients),
    st.builds(lambda coeffs, b: apply(Deg3Transform(Fraction(1, 2), b),
                                      Deg3Model.from_coefficients(coeffs)),
              SMALL_CUBIC_COEFFS, invertible_matrices(3)))


def degenerate_cubic_examples(test):
    x, y, z = XYZ
    for cubic in (x ** 3, x * y * z, y * y * z - x ** 3):
        test = example(Deg3Model(cubic))(test)
    return test


def short_weierstrass(a, b):
    return Deg1Model(0, 0, 0, a, b)


class TestDegree1:
    def test_tate_relation(self):
        rng = random.Random(1)
        for _ in range(20):
            m = random_model(rng, 1)
            b2, b4, b6, b8 = tate_quantities(m)
            assert 4 * b8 == b2 * b6 - b4 * b4

    def test_short_form(self):
        for a, b in [(-1, 0), (0, 1), (5, -7)]:
            triple = invariants_deg1(short_weierstrass(a, b))
            assert triple == (-48 * a, -864 * b, -64 * a ** 3 - 432 * b ** 2)

    def test_a1_only(self):
        triple = invariants_deg1(Deg1Model(1, 0, 0, 0, 0))
        assert tate_quantities(Deg1Model(1, 0, 0, 0, 0)).b2 == 1
        assert triple == (1, -1, 0)

    def test_smooth_example(self):
        assert invariants_deg1(short_weierstrass(-1, 0)) == (48, 0, 64)


class TestDegree2:
    def test_fermat_style_quartic(self):
        m = Deg2Model.from_coefficients([0, 0, 0], [1, 0, 0, 0, 1])
        assert invariants_deg2(m) == (192, 0, 4096)

    def test_restriction(self):
        for a, b in [(-1, 0), (0, 1), (2, 3)]:
            m = weierstrass_model(short_weierstrass(a, b), 2)
            assert invariants_deg2(m) == invariants_deg1(short_weierstrass(a, b))

    def test_zero_model(self):
        m = Deg2Model.from_coefficients([0, 0, 0], [0, 0, 0, 0, 0])
        assert invariants_deg2(m) == (0, 0, 0)

    def test_cross_terms_stay_integral(self):
        m = Deg2Model.from_coefficients([1, 1, 1], [1, 2, 3, 4, 5])
        c4, c6, delta = invariants_deg2(m)
        assert all(isinstance(v, int) for v in (c4, c6, delta))


class TestHessian:
    def test_fermat_cubic(self):
        x, y, z = XYZ
        assert hessian(x ** 3 + y ** 3 + z ** 3) == -108 * x * y * z

    def test_zero(self):
        assert hessian(Poly.zero(DEG3_RING)) == 0

    def test_xyz_by_hand(self):
        # second partials of xyz give rows (0,z,y), (z,0,x), (y,x,0);
        # expanding that determinant by hand gives 2xyz
        x, y, z = XYZ
        assert hessian(x * y * z) == -x * y * z

    @settings(deadline=None, max_examples=40)
    @given(CUBICS)
    @degenerate_cubic_examples
    def test_matches_derivative_determinant(self, m):
        # against the determinant of the second derivatives by the Leibniz
        # formula in Poly arithmetic; the Hessian forms invariants_deg3 reads
        # off the coefficient vector through its table are the same entries
        d2 = [[m.cubic.derivative(a).derivative(b) for b in DEG3_RING] for a in DEG3_RING]
        det = sum((perm_sign(p) * d2[0][p[0]] * d2[1][p[1]] * d2[2][p[2]]
                   for p in permutations(range(3))), Poly.zero(DEG3_RING))
        assert hessian(m.cubic) == det * Fraction(-1, 2)
        units = monomials(DEG3_RING, 1)
        assert [[Poly(DEG3_RING, dict(zip(units, vec))) for vec in row]
                for row in _hessian_forms(m.vectors[0])] == d2


class TestDegree3:
    def test_restriction(self):
        for a, b in [(-1, 0), (0, 1), (2, 3)]:
            m = weierstrass_model(short_weierstrass(a, b), 3)
            assert invariants_deg3(m) == invariants_deg1(short_weierstrass(a, b))

    def test_fermat_cubic_has_j_zero(self):
        x, y, z = XYZ
        triple = invariants_deg3(Deg3Model(x ** 3 + y ** 3 + z ** 3))
        assert triple.c4 == 0
        assert triple.delta != 0
        assert triple.c6 ** 2 == -1728 * triple.delta

    def test_zero_cubic(self):
        assert invariants_deg3(Deg3Model(Poly.zero(DEG3_RING))) == (0, 0, 0)

    @settings(deadline=None, max_examples=30)
    @given(CUBICS)
    @degenerate_cubic_examples
    def test_syzygy_identity(self, m):
        # H(lam U + mu H) = 3(c4 lam^2 mu + 2 c6 lam mu^2 + c4^2 mu^3) U
        #                   + (lam^3 - 3 c4 lam mu^2 - 2 c6 mu^3) H,
        # through the public hessian, against the nu form invariants_deg3 uses
        ring = DEG3_RING + ("lam", "mu")
        lam = Poly.variable(ring, "lam")
        mu = Poly.variable(ring, "mu")
        c4, c6, _ = invariants_deg3(m)
        cubic = m.cubic.lift(ring)
        hess = hessian(m.cubic).lift(ring)
        lhs = hessian(lam * cubic + mu * hess, DEG3_RING)
        rhs = (3 * (c4 * lam ** 2 * mu + 2 * c6 * lam * mu ** 2 + c4 ** 2 * mu ** 3) * cubic
               + (lam ** 3 - 3 * c4 * lam * mu ** 2 - 2 * c6 * mu ** 3) * hess)
        assert lhs == rhs

    def test_both_syzygy_identities_are_checked(self, monkeypatch):
        # U = y^2 z - x^3 + x z^2 has no xyz term; an xyz term added to the
        # nu, then the nu^2, part of G(U + nu G) must break each identity
        module = sys.modules["genus1.invariants"]
        expand = module._pencil_terms
        m = weierstrass_model(short_weierstrass(-1, 0), 3)
        for power, message in ((1, r"^nu coefficient"), (2, r"^nu\^2 coefficient")):
            def perturbed(m0, m1, power=power):
                terms = expand(m0, m1)
                # the pencil's entries are vectors over x, y, z
                assert {len(vec) for m in (m0, m1) for row in m for vec in row} == {len(DEG3_RING)}
                assert (power, 1, 1, 1) not in terms
                return {**terms, (power, 1, 1, 1): 1}

            monkeypatch.setattr(module, "_pencil_terms", perturbed)
            with pytest.raises(InternalCheckError, match=message):
                invariants_deg3(m)
        monkeypatch.undo()
        assert invariants_deg3(m) == invariants_deg1(short_weierstrass(-1, 0))


# Cubics with a zero or sparse Hessian, and their (c4, c6, Delta): the
# triple line x^3 (G = 0), xyz and the Fermat cubic (sparse Hessians) and
# the three lines x^3 + y^3 + z^3 - 3xyz
EDGE_CUBICS = [(XYZ[0] ** 3, (0, 0, 0)),
               (XYZ[0] * XYZ[1] * XYZ[2], (1, -1, 0)),
               (XYZ[0] ** 3 + XYZ[1] ** 3 + XYZ[2] ** 3, (0, 5832, -19683)),
               (XYZ[0] ** 3 + XYZ[1] ** 3 + XYZ[2] ** 3 - 3 * XYZ[0] * XYZ[1] * XYZ[2],
                (729, 19683, 0))]


@pytest.mark.parametrize("cubic, triple", EDGE_CUBICS,
                         ids=["triple_line", "xyz", "fermat", "three_lines"])
def test_edge_cubics(cubic, triple):
    # lam U has invariants (lam^4 c4, lam^6 c6, lam^12 Delta); a Fraction
    # lam takes the integral L U route
    c4, c6, delta = triple
    for lam in (1, Fraction(1, 2), Fraction(3, 7), -2):
        m = Deg3Model(cubic * lam)
        assert invariants(m) == (lam ** 4 * c4, lam ** 6 * c6, lam ** 12 * delta)
        assert matrix_discriminant(m) == lam ** 12 * delta


class TestDegree3Matrix:
    def test_weierstrass_anchor(self):
        m = weierstrass_model(short_weierstrass(-1, 0), 3)
        assert discriminant_deg3_matrix(m) == DISC_MATRIX_SIGN[3] * 1728 * 64 == 110592

    def test_zero(self):
        assert discriminant_deg3_matrix(Deg3Model(Poly.zero(DEG3_RING))) == 0

    def test_triple_line(self):
        x, _, _ = XYZ
        m = Deg3Model(x ** 3)
        assert invariants_deg3(m).delta == 0
        assert discriminant_deg3_matrix(m) == 0

    def test_random_models(self):
        rng = random.Random(3)
        for _ in range(8):
            m = random_model(rng, 3)
            delta = invariants_deg3(m).delta
            assert discriminant_deg3_matrix(m) == DISC_MATRIX_SIGN[3] * 1728 * delta


class TestDegree4:
    def test_restriction(self):
        for a, b in [(-1, 0), (0, 1), (2, 3)]:
            m = weierstrass_model(short_weierstrass(a, b), 4)
            assert invariants_deg4(m) == invariants_deg1(short_weierstrass(a, b))

    def test_repeated_quadric(self):
        # both quadrics the unit sphere: det(sA+tB) = 16 (s+t)^4, all
        # invariants vanish (hand check: 12*16*16 - 3*64*64 + 96^2 = 0)
        coeffs = [1, 0, 0, 0, 1, 0, 0, 1, 0, 1]
        m = Deg4Model.from_coefficients(coeffs, coeffs)
        assert invariants_deg4(m) == (0, 0, 0)

    def test_zero_model(self):
        m = Deg4Model.from_coefficients([0] * 10, [0] * 10)
        assert invariants_deg4(m) == (0, 0, 0)

    def test_auxiliary_quadrics_identity(self):
        # adj(s adj A + t adj B) = a^2 A s^3 + a T1 s^2 t + e T2 s t^2 + e^2 B t^3
        # whenever a = det A and e = det B; check on random nondegenerate
        # pairs.  Both sides are binary cubics in (s, t), so agreeing at five
        # pairwise independent points (s, t) makes them equal.
        rng = random.Random(4)
        from genus1.linalg import adjugate, scalar_det
        checked = 0
        while checked < 3:
            m = random_model(rng, 4)
            mat_a, mat_b = (gradient(vec, 4, 2) for vec in m.coefficients())
            a = scalar_det(mat_a)
            e = scalar_det(mat_b)
            if a == 0 or e == 0:
                continue
            # the auxiliary quadrics as a model, to read their coefficients
            auxiliary = Deg4Model(*deg4_auxiliary_quadrics(m))
            t1, t2 = (gradient(vec, 4, 2) for vec in auxiliary.coefficients())
            adj_a = adjugate(mat_a)
            adj_b = adjugate(mat_b)
            for s, t in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3)]:
                pencil = [[s * adj_a[i][j] + t * adj_b[i][j] for j in range(4)]
                          for i in range(4)]
                mixed = adjugate(pencil)
                for i in range(4):
                    for j in range(4):
                        expected = (a * a * mat_a[i][j] * s ** 3
                                    + a * t1[i][j] * s ** 2 * t
                                    + e * t2[i][j] * s * t ** 2
                                    + e * e * mat_b[i][j] * t ** 3)
                        assert mixed[i][j] == expected
            checked += 1


class TestDegree4Matrix:
    def test_weierstrass_anchor(self):
        m = weierstrass_model(short_weierstrass(-1, 0), 4)
        assert discriminant_deg4_matrix(m) == DISC_MATRIX_SIGN[4] * 16 * 64 == -1024

    def test_zero(self):
        m = Deg4Model.from_coefficients([0] * 10, [0] * 10)
        assert discriminant_deg4_matrix(m) == 0

    def test_singular_weierstrass_family_member(self):
        m = weierstrass_model(Deg1Model(0, 0, 0, 0, 0), 4)
        assert invariants_deg4(m).delta == 0
        assert discriminant_deg4_matrix(m) == 0

    def test_random_models(self):
        # random pairs, then degenerate pencils: coefficients in {-1, 0, 1},
        # which must include pairs with det A = 0 and pairs with det B = 0
        from genus1.linalg import scalar_det
        rng = random.Random(5)
        models = [random_model(rng, 4) for _ in range(8)]
        models += [random_model(rng, 4, -1, 1) for _ in range(24)]
        singular_a = singular_b = 0
        for m in models:
            delta = invariants_deg4(m).delta
            assert discriminant_deg4_matrix(m) == DISC_MATRIX_SIGN[4] * 16 * delta
            mat_a, mat_b = (gradient(vec, 4, 2) for vec in m.coefficients())
            singular_a += scalar_det(mat_a) == 0
            singular_b += scalar_det(mat_b) == 0
        assert singular_a and singular_b


def constant(p):
    """The value of a polynomial asserted to be constant."""
    assert p.degree() <= 0, p
    return p.coefficient((0,) * 5)


def pinned_quintics():
    """Wuthrich, two seeded quintics with entries in [-2, 2], one moved by
    a transformation with entries in [-30, 30], and Wuthrich moved by a
    Deg5Transform whose A has entries 1/2 and -2/3."""
    rng = random.Random(29)
    big = Deg5Transform(random_matrix(rng, 5, -30, 30), random_matrix(rng, 5, -30, 30))
    half = Fraction(1, 2)
    fractional = Deg5Transform(((half, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                                (0, 0, 0, Fraction(-2, 3), 0), (1, 0, 0, 0, 3)),
                               random_matrix(rng, 5, -2, 2))
    return [wuthrich_model(), random_model(rng, 5), random_model(rng, 5),
            apply(big, random_model(rng, 5)), apply(fractional, wuthrich_model())]


class TestDegree5:
    def test_zero_matrix_is_degenerate(self):
        m = Deg5Model((Poly.zero(DEG5_RING),) * 10)
        assert invariants_deg5(m) == (0, 0, 0)

    def test_dependent_products_are_degenerate(self):
        # Entries in x1, x2 only: the Pfaffians are binary quadrics, so the
        # 15 products p_i p_j span at most the 5 binary quartics.
        entries = [(1, 2, 0, 0, 0), (0, 1, 0, 0, 0), (3, 0, 0, 0, 0), (1, 1, 0, 0, 0),
                   (0, 2, 0, 0, 0), (1, -1, 0, 0, 0), (2, 0, 0, 0, 0), (0, 0, 0, 0, 0),
                   (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
        m = Deg5Model.from_coefficients(entries)
        assert any(m.pfaffians())
        with pytest.raises(DegenerateModelError):
            deg5_covariants(m)
        assert invariants_deg5(m) == (0, 0, 0)

    def test_inconsistent_gradient_column_raises(self, monkeypatch):
        # the last of the five columns solved at once comes back inconsistent
        module = sys.modules["genus1.invariants"]
        solve = module.solve_linear

        def last_inconsistent(rows, columns):
            rank, solutions = solve(rows, columns)
            return rank, solutions[:4] + [None]

        monkeypatch.setattr(module, "solve_linear", last_inconsistent)
        with pytest.raises(InternalCheckError, match="dS/dx5"):
            deg5_covariants(wuthrich_model())

    def test_restriction(self):
        for a, b in [(-1, 0), (0, 1), (2, 3)]:
            m = weierstrass_model(short_weierstrass(a, b), 5)
            assert invariants_deg5(m) == invariants_deg1(short_weierstrass(a, b))

    def test_general_restriction(self):
        w = Deg1Model(1, -2, 3, 0, -1)
        assert invariants_deg5(weierstrass_model(w, 5)) == invariants_deg1(w)

    def test_aux_quadrics_satisfy_defining_identity(self):
        # dS/dx_i = q_i(p1..p5) as polynomials in x1..x5
        cov = deg5_covariants(weierstrass_model(short_weierstrass(2, 3), 5))
        assert cov.secant_quintic
        images = dict(zip(("v1", "v2", "v3", "v4", "v5"), cov.pfaffians))
        for xi, q in zip(DEG5_RING, cov.aux_quadrics):
            assert substitute(q, images) == cov.secant_quintic.derivative(xi)

    def test_dual_quintic_from_second_derivatives(self):
        # the definition: det(sum_k d^2 p_k/dx_i dx_j v_k)
        v = generators(("v1", "v2", "v3", "v4", "v5"))
        rng = random.Random(23)
        for m in (wuthrich_model(), random_model(rng, 5), random_model(rng, 5)):
            pf = m.pfaffians()
            rows = [[sum((constant(pf[k].derivative(xi).derivative(xj)) * v[k]
                          for k in range(5)), 0 * v[0])
                     for xj in DEG5_RING] for xi in DEG5_RING]
            dual = deg5_covariants(m).dual_quintic
            assert dual and determinant(rows) == dual

    def test_pencil_quintic_from_its_definition(self):
        # det(lam dq_i/dv_j + sum_k dphi_jk/dx_i v_k), by plain determinant
        ring = ("lam", "v1", "v2", "v3", "v4", "v5")
        lam, *v = generators(ring)
        for m in pinned_quintics():
            cov = deg5_covariants(m)
            phi = m.matrix()
            rows = [[lam * cov.aux_quadrics[i].derivative(vj).lift(ring)
                     + sum((constant(phi[j][k].derivative(xi)) * v[k]
                            for k in range(5)), 0 * lam)
                     for j, vj in enumerate(ring[1:])] for i, xi in enumerate(DEG5_RING)]
            assert cov.pencil_quintic and determinant(rows) == cov.pencil_quintic
        assert any(isinstance(c, Fraction) for c in cov.pencil_quintic.terms.values())

    def test_linear_system_from_pfaffian_products(self, monkeypatch):
        # the 70x15 system holds the coefficients of p_i p_j, one column per
        # v_i v_j, and its right-hand sides those of dS/dx_1..dS/dx_5
        module = sys.modules["genus1.invariants"]
        solve = module.solve_linear
        systems = []

        def recorded(rows, columns):
            systems.append((rows, columns))
            return solve(rows, columns)

        monkeypatch.setattr(module, "solve_linear", recorded)
        quartics = monomials(DEG5_RING, 4)
        for m in pinned_quintics():
            cov = deg5_covariants(m)
            rows, columns = systems.pop()
            pf = m.pfaffians()
            products = [pf[i] * pf[j] for i in range(5) for j in range(i, 5)]
            assert [list(row) for row in rows] == [[q.coefficient(e) for q in products]
                                                   for e in quartics]
            assert [list(b) for b in columns] == [
                [cov.secant_quintic.derivative(xi).coefficient(e) for e in quartics]
                for xi in DEG5_RING]

    def test_covariants_from_their_definitions(self):
        # the secant and dual quintics against Poly determinants of the
        # Pfaffians' derivatives, dS/dx_i = q_i(p_1..p_5) against that
        # secant, and no integral Fraction in any field
        for m in pinned_quintics():
            cov = deg5_covariants(m)
            secant, dual = deg5_reference(m)
            assert cov.pfaffians == tuple(m.pfaffians())
            assert secant and cov.secant_quintic == secant
            assert dual and cov.dual_quintic == dual
            images = dict(zip(V_RING, cov.pfaffians))
            for xi, q in zip(DEG5_RING, cov.aux_quadrics):
                assert substitute(q, images) == secant.derivative(xi)
            fields = (*cov.pfaffians, cov.secant_quintic, *cov.aux_quadrics,
                      cov.dual_quintic, cov.pencil_quintic)
            assert not [c for f in fields for c in f.terms.values()
                        if isinstance(c, Fraction) and c.denominator == 1]

    def test_covariants_keep_integral_coefficients_int(self):
        # Fraction models give determinants whose Fraction products sum to
        # integers; those coefficients are stored as ints
        m = pinned_quintics()[-1]
        assert any(isinstance(c, Fraction) for entry in m.upper for c in entry.terms.values())
        cov = deg5_covariants(m)
        for quintic in (cov.secant_quintic, cov.dual_quintic, cov.pencil_quintic):
            assert not [c for c in quintic.terms.values()
                        if isinstance(c, Fraction) and c.denominator == 1]

    @pytest.mark.parametrize("power, message", [(2, "even powers of lam"),
                                                (5, "not 128 c4\\^2")])
    def test_contraction_checks_fire(self, monkeypatch, power, message):
        # a stray lam^2 term, or a wrong lam^5 term, is an internal error
        module = sys.modules["genus1.invariants"]
        contract = module.contract_quintics

        def perturbed(dual, pencil):
            pairing = contract(dual, pencil)
            pairing[power] = pairing.get(power, 0) + 1
            return pairing

        monkeypatch.setattr(module, "contract_quintics", perturbed)
        with pytest.raises(InternalCheckError, match=message):
            invariants_deg5(wuthrich_model())

    def test_contraction_shape(self):
        # only odd powers of lam, lam^5 coefficient 128 c4^2, lam^1 40 c4
        cov = deg5_covariants(wuthrich_model())
        pairing = contract_quintics(cov.dual_quintic, cov.pencil_quintic)
        assert set(pairing) <= {1, 3, 5}
        assert pairing[1] == 40 * WUTHRICH_C4
        assert pairing[3] == -320 * WUTHRICH_C6
        assert pairing[5] == 128 * WUTHRICH_C4 ** 2

    def test_contraction_takes_its_quintics_only(self):
        # the secant quintic (over x1..x5) as the dual gave {1: -2720, 3:
        # -172032, 5: 1089536}, and the arguments swapped gave {}
        cov = deg5_covariants(weierstrass_model(Deg1Model(0, 0, 0, -1, 1), 5))
        dual, pencil = cov.dual_quintic, cov.pencil_quintic
        v1 = Poly.variable(V_RING, "v1")
        lam, w1 = generators(("lam",) + V_RING)[:2]
        for args in ((cov.secant_quintic, pencil), (pencil, cov.secant_quintic),
                     (pencil, dual), (dual, dual), (pencil, pencil),
                     (dual * v1, pencil), (dual, pencil + lam ** 6 * w1 ** 5),
                     (dual, pencil + lam * w1 ** 4), (dual + v1 ** 4, pencil),
                     (dual.terms, pencil), (dual, None)):
            with pytest.raises(InputError, match="contract_quintics"):
                contract_quintics(*args)
        assert contract_quintics(dual, pencil) == {1: 40 * 48, 3: -320 * -864, 5: 128 * 48 ** 2}

    def test_golden_invariants(self):
        triple = invariants_deg5(wuthrich_model())
        assert triple.c4 == WUTHRICH_C4
        assert triple.c6 == WUTHRICH_C6
        assert 1728 * triple.delta == triple.c4 ** 3 - triple.c6 ** 2


class TestDegree5Matrix:
    def test_weierstrass_anchor(self):
        m = weierstrass_model(short_weierstrass(-1, 0), 5)
        assert discriminant_deg5_matrix(m) == DISC_MATRIX_SIGN[5] * 32 * 64 == 2048

    def test_zero(self):
        m = Deg5Model((Poly.zero(DEG5_RING),) * 10)
        assert discriminant_deg5_matrix(m) == 0

    def test_golden_consistency(self):
        delta = (WUTHRICH_C4 ** 3 - WUTHRICH_C6 ** 2) // 1728
        assert discriminant_deg5_matrix(wuthrich_model()) == DISC_MATRIX_SIGN[5] * 32 * delta

    def test_random_models(self):
        rng = random.Random(6)
        for _ in range(5):
            m = random_model(rng, 5)
            delta = invariants_deg5(m).delta
            assert discriminant_deg5_matrix(m) == DISC_MATRIX_SIGN[5] * 32 * delta


def _disc_identity_holds(m):
    return matrix_discriminant(m) == invariants(m).delta


def test_matrix_discriminant_is_the_formula_delta():
    # the determinant divided by DISC_MATRIX_SIGN[n] * DISC_MATRIX_FACTOR[n]
    rng = random.Random(19)
    models = [wuthrich_model()] + [random_smooth_model(rng, n, invariants)
                                   for n in (3, 4, 5) for _ in range(3)]
    for m in models:
        assert matrix_discriminant(m) == invariants(m).delta != 0


class TestMatrixDiscriminantByProperty:
    """The formula discriminant against the independent determinant path,
    on degenerate and large-coefficient models as well as random ones."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
        min_size=10, max_size=10)))
    def test_small_quintics(self, entries):
        # entries in fewer than 5 variables are often degenerate (rank of the
        # products p_i p_j below 15), where both sides must vanish
        m = Deg5Model.from_coefficients([row + [0] * (5 - len(row)) for row in entries])
        assert _disc_identity_holds(m)

    @settings(deadline=None, max_examples=25)
    @given(CUBICS)
    @degenerate_cubic_examples
    def test_large_cubics(self, m):
        assert _disc_identity_holds(m)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(BIG, min_size=10, max_size=10), st.lists(BIG, min_size=10, max_size=10))
    def test_large_quadric_pairs(self, q1, q2):
        assert _disc_identity_holds(Deg4Model.from_coefficients(q1, q2))

    @settings(deadline=None, max_examples=3)
    @given(st.lists(st.lists(BIG, min_size=5, max_size=5), min_size=10, max_size=10))
    def test_large_quintics(self, entries):
        assert _disc_identity_holds(Deg5Model.from_coefficients(entries))


class TestWeightLaw:
    def test_all_degrees(self):
        rng = random.Random(7)
        for degree in (1, 2, 3, 4, 5):
            for _ in range(3):
                m = random_model(rng, degree)
                g = random_transformation(rng, degree)
                d = Fraction(det_character(g))
                base = invariants(m)
                moved = invariants(apply(g, m))
                assert Fraction(moved.c4) == d ** 4 * base.c4
                assert Fraction(moved.c6) == d ** 6 * base.c6
                assert Fraction(moved.delta) == d ** 12 * base.delta


class TestJacobianAndJ:
    def test_weierstrass_anchor(self):
        m = weierstrass_model(short_weierstrass(-1, 0), 5)
        assert jacobian(m) == Deg1Model(0, 0, 0, -1296, 0)

    def test_golden_jacobian(self):
        curve = jacobian(wuthrich_model())
        assert curve == Deg1Model(0, 0, 0, -27 * WUTHRICH_C4, -54 * WUTHRICH_C6)

    def test_fermat_cubic(self):
        x, y, z = XYZ
        curve = jacobian(Deg3Model(x ** 3 + y ** 3 + z ** 3))
        assert curve.a4 == 0  # c4 = 0
        assert curve.a6 != 0

    def test_singular_has_no_jacobian(self):
        with pytest.raises(SingularModelError):
            jacobian(short_weierstrass(0, 0))

    def test_j_examples(self):
        assert j_invariant(short_weierstrass(-1, 0)) == 1728
        assert j_invariant(short_weierstrass(0, 1)) == 0
        x, y, z = XYZ
        assert j_invariant(Deg3Model(x ** 3 + y ** 3 + z ** 3)) == 0

    def test_j_singular_raises(self):
        with pytest.raises(SingularModelError):
            j_invariant(short_weierstrass(0, 0))

    def test_j_matches_across_degrees(self):
        w = Deg1Model(1, 0, 1, -2, 3)
        expected = j_invariant(w)
        for n in (2, 3, 4, 5):
            assert j_invariant(weierstrass_model(w, n)) == expected


class TestSmoothnessCriterion:
    def test_nodal_cubic_vanishes_everywhere(self):
        nodal = short_weierstrass(-3, 2)
        assert invariants_deg1(nodal).delta == 0
        for n in (2, 3, 4, 5):
            assert invariants(weierstrass_model(nodal, n)).delta == 0

    def test_smooth_curve_is_nonzero_everywhere(self):
        smooth = short_weierstrass(-1, 0)
        for n in (2, 3, 4, 5):
            assert invariants(weierstrass_model(smooth, n)).delta == 64


class TestIntegrality:
    def test_integer_models_give_integer_invariants(self):
        rng = random.Random(8)
        for degree in (1, 2, 3, 4, 5):
            for _ in range(3):
                triple = invariants(random_model(rng, degree))
                assert all(isinstance(v, int) for v in triple)


class TestOmegaQuadrics:
    def test_antisymmetry(self):
        from genus1 import deg4_omega_quadric, deg5_omega_quadric
        rng = random.Random(9)
        m4 = random_model(rng, 4)
        for r in range(1, 5):
            for s in range(1, 5):
                if r != s:
                    assert deg4_omega_quadric(m4, r, s) == -deg4_omega_quadric(m4, s, r)
        m5 = random_model(rng, 5)
        for r in range(1, 6):
            for s in range(1, 6):
                if r != s:
                    assert deg5_omega_quadric(m5, r, s) == -deg5_omega_quadric(m5, s, r)

    def test_deg5_omegas_from_their_definition(self):
        # sign * sum_{i,j} dp_i/dx_t3 * dphi_ij/dx_t4 * dp_j/dx_t5, by Poly products
        from genus1 import deg5_omega_quadric
        for m in pinned_quintics():
            pf, phi = m.pfaffians(), m.matrix()
            for r, s in permutations(range(1, 6), 2):
                rest = [k for k in range(5) if k not in (r - 1, s - 1)]
                t3, t4, t5 = (DEG5_RING[k] for k in rest)
                omega = sum((pf[i].derivative(t3) * phi[i][j].derivative(t4) * pf[j].derivative(t5)
                             for i in range(5) for j in range(5)), Poly.zero(DEG5_RING))
                assert deg5_omega_quadric(m, r, s) == perm_sign((r - 1, s - 1, *rest)) * omega

    def test_equal_indices_rejected(self):
        from genus1 import InputError, deg4_omega_quadric
        rng = random.Random(10)
        with pytest.raises(InputError):
            deg4_omega_quadric(random_model(rng, 4), 2, 2)

    @pytest.mark.parametrize("r, s", [(True, 2), (1.0, 2), (2, False), (Fraction(1), 2),
                                      ("1", 2), (1, 2.0)])
    def test_indices_are_plain_ints(self, r, s):
        # True and 1.0 passed as the index 1: deg4_omega_quadric(m4, True, 2)
        # equalled deg4_omega_quadric(m4, 1, 2), and deg5_omega_quadric(m5,
        # 1.0, 2) gave 2*x1*x3 on the degree-5 image of y^2 = x^3 - x + 1
        w = Deg1Model(0, 0, 0, -1, 1)
        for quadric, degree in ((deg4_omega_quadric, 4), (deg5_omega_quadric, 5)):
            with pytest.raises(InputError, match="distinct int indices"):
                quadric(weierstrass_model(w, degree), r, s)

    def test_determinant_ignores_omega_representative(self):
        # Omega_{r,s} is defined only modulo the span of the Pfaffians;
        # shifting one omega row by a Pfaffian cannot change the 15x15
        # determinant because the p-rows span that space
        from genus1 import deg5_omega_quadric, scalar_det
        from genus1.poly import monomials
        from genus1.models import DEG5_RING
        rng = random.Random(11)
        m = random_model(rng, 5)
        pf = m.pfaffians()
        omegas = [deg5_omega_quadric(m, r, s)
                  for r in range(1, 6) for s in range(r + 1, 6)]
        cols = monomials(DEG5_RING, 2)
        rows = [[q.coefficient(e) for e in cols] for q in pf + omegas]
        base = scalar_det(rows)
        shifted = pf + [omegas[0] + 3 * pf[2] - pf[4]] + omegas[1:]
        rows2 = [[q.coefficient(e) for e in cols] for q in shifted]
        assert scalar_det(rows2) == base
        assert discriminant_deg5_matrix(m) == base


# Model coefficients for the laws below: small ones give many Delta = 0
# models (all zeros, repeated roots), BIG gives 20-digit ones.
COEFFS = st.one_of(st.integers(-2, 2), BIG)
UNITS = st.sampled_from([1, -1, 2, 3, Fraction(1, 2)])
SMALL = st.integers(-2, 2)


def coefficient_lists(n):
    return st.lists(COEFFS, min_size=n, max_size=n)


MODELS = {
    1: coefficient_lists(5).map(lambda c: Deg1Model(*c)),
    2: st.builds(Deg2Model.from_coefficients, coefficient_lists(3), coefficient_lists(5)),
    3: coefficient_lists(10).map(Deg3Model.from_coefficients),
    4: st.builds(Deg4Model.from_coefficients, coefficient_lists(10), coefficient_lists(10)),
    5: deg5_models(COEFFS),
}

TRANSFORMATIONS = {
    1: st.builds(Deg1Transform, UNITS, SMALL, SMALL, SMALL),
    2: st.builds(Deg2Transform, UNITS, st.tuples(SMALL, SMALL, SMALL),
                 invertible_matrices(2, MATRIX_ENTRIES)),
    3: st.builds(Deg3Transform, UNITS, invertible_matrices(3, MATRIX_ENTRIES)),
    4: st.builds(Deg4Transform, invertible_matrices(2, MATRIX_ENTRIES),
                 invertible_matrices(4, MATRIX_ENTRIES)),
    5: st.builds(Deg5Transform, invertible_matrices(5, MATRIX_ENTRIES),
                 invertible_matrices(5, MATRIX_ENTRIES)),
}


def _weight_law_holds(g, m):
    d = Fraction(det_character(g))
    base, moved = invariants(m), invariants(apply(g, m))
    return (Fraction(moved.c4), Fraction(moved.c6), Fraction(moved.delta)) == (
        d ** 4 * base.c4, d ** 6 * base.c6, d ** 12 * base.delta)


class TestInvariantLawsByProperty:
    """The Weierstrass restriction and the weight law under apply, on
    singular (Delta = 0) and large-coefficient models as well as random
    ones.  Degree 5 runs fewer examples: each costs two quintic
    evaluations of up to a quarter second."""

    @settings(deadline=None, max_examples=40)
    @given(coefficient_lists(5), st.integers(2, 4))
    @example([0, 0, 0, 0, 0], 4)       # cusp: Delta = 0, c4 = 0
    @example([0, 0, 0, -3, 2], 3)      # node: Delta = 0, c4 != 0
    def test_weierstrass_restriction(self, a, degree):
        w = Deg1Model(*a)
        assert invariants(weierstrass_model(w, degree)) == invariants(w)

    @settings(deadline=None, max_examples=8)
    @given(coefficient_lists(5))
    @example([0, 0, 0, -3, 2])
    def test_weierstrass_restriction_degree5(self, a):
        w = Deg1Model(*a)
        assert invariants(weierstrass_model(w, 5)) == invariants(w)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(TRANSFORMATIONS[d], MODELS[d])))
    def test_weight_law(self, pair):
        assert _weight_law_holds(*pair)

    @settings(deadline=None, max_examples=6)
    @given(TRANSFORMATIONS[5], st.one_of(MODELS[5], st.builds(
        weierstrass_model, MODELS[1], st.just(5))))
    def test_weight_law_degree5(self, g, m):
        assert _weight_law_holds(g, m)


# q1 = -x1^2 - x2^2 - x4^2 and q2 = 2 x1 x2 + 2 x3^2: the rows of its sA + tB
# have 2, 2, 1 and 1 terms, so its determinant has at most 4 of the 5 terms
# of a binary quartic.
SPARSE_DEG4 = Deg4Model.from_coefficients([-1, 0, 0, 0, -1, 0, 0, 0, 0, -1],
                                          [0, 2, 0, 0, 0, 0, 0, 2, 0, 0])


def sparse_smooth_deg4(rng):
    """A smooth degree-4 model with 1 to 3 nonzero coefficients per quadric,
    each from {-1, 1, 2}; about one such pair in 80 is smooth."""
    while True:
        q1, q2 = [0] * 10, [0] * 10
        for q in (q1, q2):
            for i in rng.sample(range(10), rng.randint(1, 3)):
                q[i] = rng.choice([-1, 1, 2])
        m = Deg4Model.from_coefficients(q1, q2)
        if invariants_deg4(m).delta:
            return m


class TestSparseDegree4:
    """Sparse quadric pairs, whose det(sA + tB) has few terms, against the
    10x10 discriminant and dense transformed images."""

    def test_pinned_model_values(self):
        assert invariants(SPARSE_DEG4) == (3072, 0, 16777216)
        assert discriminant_deg4_matrix(SPARSE_DEG4) == -268435456 == -16 * 16777216

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 32).map(lambda seed: sparse_smooth_deg4(random.Random(seed))),
           st.builds(Deg4Transform, invertible_matrices(2, MATRIX_ENTRIES),
                     invertible_matrices(4, st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]))))
    @example(SPARSE_DEG4, Deg4Transform(((1, 1), (0, 1)),
                                        ((1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2))))
    def test_sparse_models(self, m, g):
        # B has no zero entry, so the image's quadrics are dense as a rule
        assert discriminant_deg4_matrix(m) == -16 * invariants(m).delta
        assert _disc_identity_holds(apply(g, m))
        assert _weight_law_holds(g, m)


# Each per-degree entry: the degree it takes and its value on the image in
# that degree of y^2 = x^3 - x + 1, whose (c4, c6, Delta) is (48, -864, -368).
# The degree-5 covariants are read through their contraction, whose lam,
# lam^3 and lam^5 coefficients are 40 c4, -320 c6 and 128 c4^2.
X1, X2, X3, X4 = generators(DEG4_RING)
X5 = generators(DEG5_RING)
TRIPLE = (48, -864, -368)


def _contraction(cov):
    return contract_quintics(cov.dual_quintic, cov.pencil_quintic)


PER_DEGREE = {
    "tate_quantities": (1, tate_quantities, (0, -2, 4, -1)),
    "invariants_deg1": (1, invariants_deg1, TRIPLE),
    "invariants_deg2": (2, invariants_deg2, TRIPLE),
    "invariants_deg3": (3, invariants_deg3, TRIPLE),
    "invariants_deg4": (4, invariants_deg4, TRIPLE),
    "invariants_deg5": (5, invariants_deg5, TRIPLE),
    "discriminant_deg3_matrix": (3, discriminant_deg3_matrix, 1728 * -368),
    "discriminant_deg4_matrix": (4, discriminant_deg4_matrix, -16 * -368),
    "discriminant_deg5_matrix": (5, discriminant_deg5_matrix, 32 * -368),
    "deg4_auxiliary_quadrics": (4, deg4_auxiliary_quadrics,
                                (X1 ** 2 - 8 * X1 * X2 - 2 * X1 * X4 + 4 * X2 ** 2 + X4 ** 2,
                                 -4 * X1 ** 2 + 4 * X1 * X2 - 4 * X2 * X4)),
    "deg4_omega_quadric": (4, lambda m: deg4_omega_quadric(m, 1, 2), -2 * X1 * X3),
    "deg5_covariants": (5, lambda m: _contraction(deg5_covariants(m)),
                        {1: 40 * 48, 3: -320 * -864, 5: 128 * 48 ** 2}),
    "deg5_omega_quadric": (5, lambda m: deg5_omega_quadric(m, 1, 2), 2 * X5[0] * X5[2]),
}


@pytest.mark.parametrize("given", range(1, 6))
@pytest.mark.parametrize("name", PER_DEGREE)
def test_per_degree_entries_take_their_degree_only(name, given):
    # invariants_deg3 of the degree-4 image gave (1, -1, 0), and several
    # entries gave zeros or raised AttributeError on another degree
    degree, call, expected = PER_DEGREE[name]
    w = Deg1Model(0, 0, 0, -1, 1)
    m = w if given == 1 else weierstrass_model(w, given)
    if given == degree:
        assert call(m) == expected
    else:
        with pytest.raises(InputError, match=rf"^{name} takes models of degree {degree}, "
                                             rf"not a degree-{given} model$"):
            call(m)
