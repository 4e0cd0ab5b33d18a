"""Projection of degree-5 models away from a rational point."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genus1 import (Deg1Model, Deg4Model, Deg5Model, Deg5Transform,
                    DegenerateModelError, InputError, apply, invariants,
                    j_invariant, project_from_point, solve_linear, weierstrass_model)

from helpers import random_matrix


def pi5(a, b):
    return weierstrass_model(Deg1Model(0, 0, 0, a, b), 5)


# A degree-5 transformation with the substitution x = x' B: the point
# (1:1:0:1:0) of pi5(-1, 0) moves to x' = (1, 1, 0, 1, 0) B^-1 ~ (3:-1:-2:1:-1).
MOVE = Deg5Transform(((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                      (0, 0, 0, 1, 0), (0, 2, 0, 0, 1)),
                     ((1, 1, 0, 0, 0), (0, 1, 0, -1, 0), (0, 0, 1, 0, 0),
                      (0, 0, 2, 1, 1), (1, 0, 0, 0, 1)))


class TestProjection:
    def test_recovers_pi4_from_the_marked_point(self):
        # from (0:0:0:0:1) the projected model is literally the degree-4
        # Weierstrass model, so the invariants match on the nose
        for a, b in [(-1, 0), (0, 1), (3, -2)]:
            projected = project_from_point(pi5(a, b), (0, 0, 0, 0, 1))
            assert projected == weierstrass_model(Deg1Model(0, 0, 0, a, b), 4)

    def test_j_invariant_1728(self):
        projected = project_from_point(pi5(-1, 0), (0, 0, 0, 0, 1))
        assert j_invariant(projected) == 1728

    def test_j_invariant_0(self):
        projected = project_from_point(pi5(0, 1), (0, 0, 0, 0, 1))
        assert j_invariant(projected) == 0

    def test_from_a_general_point(self):
        # (1, 0) lies on y^2 = x^3 - x; its image is (1:1:0:1:0)
        model = pi5(-1, 0)
        projected = project_from_point(model, (1, 1, 0, 1, 0))
        assert invariants(projected).delta != 0
        assert j_invariant(projected) == j_invariant(model)

    def test_two_torsion_image_is_on_the_curve(self):
        # (1:0:0:0:0) is the image of (x, y) = (0, 0), hence a valid
        # smooth point to project from
        model = pi5(-1, 0)
        assert [p.evaluate((1, 0, 0, 0, 0)) for p in model.pfaffians()] == [0] * 5
        projected = project_from_point(model, (1, 0, 0, 0, 0))
        assert j_invariant(projected) == 1728

    def test_rational_point_coordinates(self):
        # (x, y) = (-1, 0) maps to (1:-1:0:1:0)
        model = pi5(-1, 0)
        projected = project_from_point(model, (1, -1, 0, 1, 0))
        assert j_invariant(projected) == 1728


    # The exact models pin the basis choice (second kernel vector and the
    # completing standard vectors); coefficients in graded-lex order.
    @pytest.mark.parametrize("model, point, q1, q2", [
        (pi5(-1, 0), (1, 1, 0, 1, 0),
         [0, 0, 0, -1, 0, 1, 2, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 1, 1, 0]),
        (pi5(-1, 0), (1, 0, 0, 0, 0),
         [0, 0, 1, 0, 0, 0, -1, 0, 0, 0], [-1, 0, 0, 0, 1, 0, 0, 0, -1, 0]),
        (apply(MOVE, pi5(-1, 0)), (3, -1, -2, 1, -1),
         [-2, -6, 1, 1, -4, 2, 3, -2, -2, 0], [1, 3, 0, 0, 2, 0, 0, 1, 1, 0]),
    ])
    def test_exact_projected_models(self, model, point, q1, q2):
        projected = project_from_point(model, point)
        assert projected == Deg4Model.from_coefficients(q1, q2)
        assert j_invariant(projected) == 1728


def pointed_curve(rng, fractions):
    """A seeded curve w through (x, y), integer or Fraction, with Delta != 0,
    and the image (1:x:y:x^2:xy) of (x, y) on pi_5(w)."""
    if fractions:
        c = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    else:
        c = lambda: rng.randint(-4, 4)
    while True:
        a1, a2, a3, a4, x, y = (c() for _ in range(6))
        w = Deg1Model(a1, a2, a3, a4, y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x)
        if invariants(w).delta:
            return w, (1, x, y, x * x, x * y)


@pytest.mark.parametrize("seed", range(8))
def test_projecting_moved_images_keeps_j(seed):
    # g substitutes x = x' B, so the point P of pi_5(w) moves to the x'
    # with x' B = P, B^T x' = P: a Fraction point on a model with large
    # coefficients, whose projection still has the j-invariant of w
    rng = random.Random(seed)
    w, point = pointed_curve(rng, fractions=seed % 2 == 1)
    g = Deg5Transform(random_matrix(rng, 5, -9, 9), random_matrix(rng, 5, -9, 9))
    _, (moved_point,) = solve_linear([list(col) for col in zip(*g.B)], [list(point)])
    assert any(type(c) is Fraction for c in moved_point)
    projected = project_from_point(apply(g, weierstrass_model(w, 5)), moved_point)
    assert j_invariant(projected) == j_invariant(w)


@st.composite
def quintics_through_e5(draw):
    """Degree-5 models with entries in [-3, 3] whose only x5 coefficient
    is in phi_12: every Pfaffian vanishes at e5 = (0:0:0:0:1), and phi(e5)
    has rank 2.  Such a quintic need not be in the orbit of a Weierstrass
    image."""
    entries = [[draw(st.integers(-3, 3)) for _ in range(4)] + [0] for _ in range(10)]
    entries[0][4] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return Deg5Model.from_coefficients(entries)


@settings(deadline=None, max_examples=30)
@given(quintics_through_e5())
def test_projection_is_an_oracle_for_degree5(m):
    # the projection is the same curve, so by the classical degree-4
    # formulas it has c4' = d^4 c4, c6' = d^6 c6 and Delta' = d^12 Delta
    # for one rational d
    c4, c6, delta = invariants(m)
    assume(delta)
    try:
        projected = project_from_point(m, (0, 0, 0, 0, 1))
    except DegenerateModelError:
        assume(False)
    c4p, c6p, deltap = invariants(projected)
    assert c4 ** 3 * c6p ** 2 == c4p ** 3 * c6 ** 2
    assert c4 ** 3 * deltap == c4p ** 3 * delta


class TestProjectionErrors:
    def test_point_off_the_curve(self):
        with pytest.raises(InputError):
            project_from_point(pi5(-1, 0), (0, 1, 0, 0, 0))

    def test_zero_point(self):
        with pytest.raises(InputError):
            project_from_point(pi5(-1, 0), (0, 0, 0, 0, 0))

    def test_wrong_length(self):
        with pytest.raises(InputError):
            project_from_point(pi5(-1, 0), (0, 0, 0, 1))

    def test_singular_point_rejected(self):
        # y^2 = x^3 - 3x + 2 has a node at (1, 0), whose image is (1:1:0:1:0)
        nodal = pi5(-3, 2)
        assert [p.evaluate((1, 1, 0, 1, 0)) for p in nodal.pfaffians()] == [0] * 5
        with pytest.raises(DegenerateModelError):
            project_from_point(nodal, (1, 1, 0, 1, 0))

    def test_wrong_degree(self):
        with pytest.raises(InputError):
            project_from_point(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 4),
                               (0, 0, 0, 1))
