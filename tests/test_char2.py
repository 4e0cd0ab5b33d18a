"""The weight-1 invariant of integer models, reduced mod 2."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus1 import (Deg1Model, Deg2Model, Deg2Transform, Deg3Model,
                    Deg3Transform, Deg4Model, Deg4Transform, Deg5Model,
                    Deg5Transform, InputError, Poly, a1_char2, apply, generators,
                    invariants, weierstrass_model)
from genus1.invariants import D5_COSET_REPS
from genus1.models import DEG3_RING, DEG5_RING

from helpers import invertible_matrices, random_model


def test_coset_representatives():
    # the coset sigma D5 holds the readings of sigma as a 5-cycle from each
    # start in each direction; the least reading represents it
    def canonical(sigma):
        rotations = [sigma[k:] + sigma[:k] for k in range(5)]
        return min(rotations + [r[::-1] for r in rotations])

    classes = sorted({canonical(sigma) for sigma in permutations((1, 2, 3, 4, 5))})
    assert D5_COSET_REPS == tuple(classes)
    assert len(D5_COSET_REPS) == 12


def test_degree4_single_term():
    # q1 = x1 x2, q2 = x3 x4: only the a12 b34 product survives
    m = Deg4Model.from_coefficients([0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0])
    assert a1_char2(m) == 1


def test_a1_one_restricts_to_one():
    w = Deg1Model(1, 0, 0, 0, 0)
    for n in (2, 3, 4, 5):
        assert a1_char2(weierstrass_model(w, n)) == 1


def test_short_weierstrass_restricts_to_zero():
    for a, b in [(-1, 0), (2, 3), (5, -4)]:
        w = Deg1Model(0, 0, 0, a, b)
        for n in (2, 3, 4, 5):
            assert a1_char2(weierstrass_model(w, n)) == 0


def test_matches_a1_mod_2_on_random_tuples():
    rng = random.Random(13)
    for _ in range(12):
        w = random_model(rng, 1, lo=-5, hi=5)
        for n in (2, 3, 4, 5):
            assert a1_char2(weierstrass_model(w, n)) == w.a1 % 2


def test_invariance_under_integer_transformations():
    # weight 1: multiplying by an odd det character does not change the
    # residue; use unimodular-style transformations with integer entries
    from genus1 import Deg3Transform, apply, det_character
    m = weierstrass_model(Deg1Model(1, 0, 1, 1, 0), 3)
    g = Deg3Transform(1, ((1, 2, 0), (0, 1, 1), (1, 0, 1)))
    assert det_character(g) % 2 == 1
    assert a1_char2(apply(g, m)) == a1_char2(m)


def _scaled_identity(n, c):
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def _halved_models():
    """(moved, expected coefficients): a Fraction transformation of an
    integer model whose result has integer coefficients, per degree."""
    half = Fraction(1, 2)
    x, y, z = generators(DEG3_RING)
    yield pytest.param(apply(Deg2Transform(half, (0, 0, 0), ((2, 0), (0, 1))),
                             Deg2Model.from_coefficients([0, 1, 0], [1, 0, 0, 0, 4])),
                       ((0, 1, 0), (4, 0, 0, 0, 1)), id="degree2")
    yield pytest.param(apply(Deg3Transform(half, _scaled_identity(3, 1)),
                             Deg3Model(2 * x ** 3 + 2 * x * y * z + 2 * y ** 3 + 2 * z ** 3)),
                       (1, 1, 1, 0, 0, 0, 0, 0, 0, 1), id="degree3")
    # A = I/2 multiplies q1, q2 by 1/2 and the degree-5 matrix by 1/4
    m4, m5 = (weierstrass_model(Deg1Model(1, 0, 0, 0, 0), n) for n in (4, 5))
    yield pytest.param(apply(Deg4Transform(_scaled_identity(2, half), _scaled_identity(4, 1)),
                             Deg4Model(2 * m4.q1, 2 * m4.q2)),
                       m4.coefficients(), id="degree4")
    yield pytest.param(apply(Deg5Transform(_scaled_identity(5, half), _scaled_identity(5, 1)),
                             Deg5Model(tuple(4 * entry for entry in m5.upper))),
                       m5.coefficients(), id="degree5")


@pytest.mark.parametrize("moved, expected", _halved_models())
def test_integral_fraction_coefficients_become_ints(moved, expected):
    # Poly arithmetic keeps Fraction(1, 1); a model must not, or a1_char2
    # rejects a model whose coefficients are all integers
    coeffs = moved.coefficients()
    assert coeffs == expected
    assert all(type(c) is int for c in (coeffs if moved.degree == 3 else sum(coeffs, ())))
    assert a1_char2(moved) == 1


def test_non_integer_coefficients_rejected():
    m = Deg2Model.from_coefficients([Fraction(1, 2), 0, 0], [1, 0, 0, 0, 1])
    with pytest.raises(InputError):
        a1_char2(m)


def test_degree5_is_the_coefficient_of_the_coset_products():
    # the definition in Poly arithmetic: the x1..x5 coefficient of the sum
    # over the coset representatives of prod_i phi_{sigma(i) sigma(i+1)}
    rng = random.Random(22)
    for _ in range(10):
        m = random_model(rng, 5)
        phi, total = m.matrix(), 0
        for sigma in D5_COSET_REPS:
            product = Poly.constant(DEG5_RING, 1)
            for i in range(5):
                product = product * phi[sigma[i] - 1][sigma[(i + 1) % 5] - 1]
            total += product.coefficient((1, 1, 1, 1, 1))
        assert a1_char2(m) == total % 2


def test_degree1_not_supported():
    with pytest.raises(InputError):
        a1_char2(Deg1Model(1, 0, 0, 0, 0))


def _integer_models(degree, coeffs):
    """Models of one degree with coefficients drawn from ``coeffs``."""
    lists = lambda n: st.lists(coeffs, min_size=n, max_size=n)
    if degree == 2:
        return st.tuples(lists(3), lists(5)).map(lambda pq: Deg2Model.from_coefficients(*pq))
    if degree == 3:
        return lists(10).map(Deg3Model.from_coefficients)
    if degree == 4:
        return st.tuples(lists(10), lists(10)).map(lambda q: Deg4Model.from_coefficients(*q))
    return st.lists(lists(5), min_size=10, max_size=10).map(Deg5Model.from_coefficients)


def _integer_transforms(degree):
    matrices = lambda n: invertible_matrices(n, st.integers(-3, 3))
    mu = st.sampled_from([1, -1, 2, 3, -5])
    if degree == 2:
        return st.builds(Deg2Transform, mu, st.tuples(*[st.integers(-2, 2)] * 3), matrices(2))
    if degree == 3:
        return st.builds(Deg3Transform, mu, matrices(3))
    if degree == 4:
        return st.builds(Deg4Transform, matrices(2), matrices(4))
    return st.builds(Deg5Transform, matrices(5), matrices(5))


@st.composite
def _char2_models(draw):
    """Integer models of degree 2 to 5: random, degenerate (mostly zero
    coefficients) or a random one moved by an integer transformation."""
    degree = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["random", "degenerate", "moved"]))
    coeffs = st.sampled_from([0, 0, 0, 1, -1]) if kind == "degenerate" else st.integers(-3, 3)
    m = draw(_integer_models(degree, coeffs))
    return apply(draw(_integer_transforms(degree)), m) if kind == "moved" else m


@settings(deadline=None, max_examples=100)
@given(m=_char2_models())
def test_invariants_reduce_to_a1(m):
    # c4 = b2^2 - 24 b4 and c6 = -b2^3 + 36 b2 b4 - 216 b6 with
    # b2 = a1^2 + 4 a2: c4 = a1^4 (mod 8) and c6 = a1^6 (mod 2)
    a1 = a1_char2(m)
    c4, c6, _ = invariants(m)
    assert type(c4) is int and type(c6) is int
    assert c4 % 2 == c6 % 2 == a1
    assert c4 % 8 == a1 ** 4 % 8
