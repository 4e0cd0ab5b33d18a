"""Group structure, characters, the action on models, and gamma."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus1 import (Deg1Model, Deg1Transform, Deg2Model, Deg2Transform,
                    Deg3Model, Deg3Transform, Deg4Model, Deg4Transform,
                    Deg5Model, Deg5Transform, InputError, Poly, apply, compose,
                    det_character, gamma, identity_transform,
                    transformation_from_dict, transformation_to_dict,
                    weierstrass_model)
from genus1.linalg import identity_matrix
from genus1.models import DEG5_RING

from helpers import (MATRIX_ENTRIES, SCALARS, deg5_models, invertible_matrices,
                     linear_substitution, random_model, random_transformation,
                     substitute, substitute_apply, substitute_compose2,
                     wuthrich_model)


def full_matrix_apply(g, m):
    """A phi(B x) A^T over all 25 entries, the definition of the action."""
    sub = linear_substitution(DEG5_RING, g.B)
    phi = [[substitute(entry, sub) for entry in row] for row in m.matrix()]
    a = g.A
    rows = [[sum((a[i][k] * phi[k][l] * a[j][l] for k in range(5) for l in range(5)),
                 Poly.zero(DEG5_RING)) for j in range(5)] for i in range(5)]
    return Deg5Model.from_matrix(rows)


def flat_coefficients(m):
    pending, out = [m.coefficients()], []
    while pending:
        c = pending.pop()
        if isinstance(c, tuple):
            pending.extend(c)
        else:
            out.append(c)
    return out


def transformations(degree, entries):
    """Transformations of one degree with entries (and units) from ``entries``."""
    unit = entries.filter(bool)
    if degree == 1:
        return st.builds(Deg1Transform, unit, entries, entries, entries)
    if degree == 2:
        return st.builds(Deg2Transform, unit, st.tuples(entries, entries, entries),
                         invertible_matrices(2, entries))
    if degree == 3:
        return st.builds(Deg3Transform, unit, invertible_matrices(3, entries))
    return st.builds(Deg4Transform, invertible_matrices(2, entries),
                     invertible_matrices(4, entries))


def models(degree):
    coeffs = lambda n: st.lists(SCALARS, min_size=n, max_size=n)
    if degree == 1:
        return coeffs(5).map(lambda c: Deg1Model(*c))
    if degree == 2:
        return st.builds(Deg2Model.from_coefficients, coeffs(3), coeffs(5))
    if degree == 3:
        return coeffs(10).map(Deg3Model.from_coefficients)
    return st.builds(Deg4Model.from_coefficients, coeffs(10), coeffs(10))


def models_and_transformations(degree):
    entries = st.sampled_from([st.integers(-30, 30), MATRIX_ENTRIES])
    return st.tuples(models(degree),
                     entries.flatmap(lambda e: transformations(degree, e)),
                     entries.flatmap(lambda e: transformations(degree, e)))


class TestDetCharacter:
    def test_degree5_identity(self):
        g = Deg5Transform(identity_matrix(5), identity_matrix(5))
        assert det_character(g) == 1

    def test_degree1_inverse_u(self):
        assert det_character(Deg1Transform(2, 0, 0, 0)) == Fraction(1, 2)

    def test_degree4_product(self):
        g = Deg4Transform(((2, 0), (0, 1)), identity_matrix(4))
        assert det_character(g) == 2

    def test_multiplicative(self):
        rng = random.Random(3)
        for degree in (1, 2, 3, 4, 5):
            for _ in range(3):
                g1 = random_transformation(rng, degree)
                g2 = random_transformation(rng, degree)
                assert (det_character(compose(g1, g2))
                        == det_character(g1) * det_character(g2))


class TestAction:
    def test_identity_fixes_models(self):
        rng = random.Random(4)
        for degree in (1, 2, 3, 4, 5):
            m = random_model(rng, degree)
            assert apply(identity_transform(degree), m) == m

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            apply(identity_transform(2), Deg1Model(0, 0, 0, 0, 0))

    def test_degree5_diagonal_scaling(self):
        m = weierstrass_model(Deg1Model(0, 0, 0, 0, 0), 5)
        a = ((2, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
             (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
        moved = apply(Deg5Transform(a, identity_matrix(5)), m)
        original = m.matrix()
        got = moved.matrix()
        for i in range(5):
            for j in range(5):
                factor = (2 if i == 0 else 1) * (2 if j == 0 else 1)
                assert got[i][j] == factor * original[i][j]

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(st.just(wuthrich_model()), deg5_models()),
           st.sampled_from([st.integers(-3, 3), st.integers(-30, 30), MATRIX_ENTRIES]).flatmap(
               lambda entries: st.tuples(invertible_matrices(5, entries),
                                         invertible_matrices(5, entries))))
    def test_degree5_matches_full_matrix_product(self, m, ab):
        # apply's coefficient-matrix product against substitution into all
        # 25 entries, with integer and Fraction transformations
        g = Deg5Transform(*ab)
        moved = apply(g, m)
        assert moved == full_matrix_apply(g, m)
        assert all(type(c) is int or c.denominator > 1
                   for row in moved.coefficients() for c in row)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([1, 2, 3, 4]).flatmap(models_and_transformations))
    def test_degrees_1_to_4_match_substitution(self, case):
        # apply's Sym^d(B) products against substitution, with [-30, 30]
        # integer and Fraction transformations
        m, g, g2 = case
        moved = apply(g, m)
        assert moved == substitute_apply(g, m)
        assert all(type(c) is int or c.denominator > 1 for c in flat_coefficients(moved))
        if g.degree == 2:
            assert compose(g, g2) == substitute_compose2(g, g2)

    def test_group_law(self):
        rng = random.Random(6)
        for degree in (1, 2, 3, 4, 5):
            for _ in range(3):
                m = random_model(rng, degree)
                g1 = random_transformation(rng, degree)
                g2 = random_transformation(rng, degree)
                assert apply(g1, apply(g2, m)) == apply(compose(g1, g2), m)


class TestGamma:
    def test_identity_maps_to_identity(self):
        # built from identity matrices, not from gamma as identity_transform is
        identities = {2: Deg2Transform(1, (0, 0, 0), identity_matrix(2)),
                      3: Deg3Transform(1, identity_matrix(3)),
                      4: Deg4Transform(identity_matrix(2), identity_matrix(4)),
                      5: Deg5Transform(identity_matrix(5), identity_matrix(5))}
        for degree, identity in identities.items():
            assert gamma(Deg1Transform(1, 0, 0, 0), degree) == identity
            assert identity_transform(degree) == identity

    def test_gamma2_scaling(self):
        g = gamma(Deg1Transform(2, 0, 0, 0), 2)
        assert g.mu == Fraction(1, 8)
        assert g.r == (0, 0, 0)
        assert g.B == ((4, 0), (0, 1))

    def test_gamma3_character(self):
        assert det_character(gamma(Deg1Transform(2, 0, 0, 0), 3)) == Fraction(1, 2)

    def test_homomorphism(self):
        rng = random.Random(8)
        for _ in range(4):
            g1 = random_transformation(rng, 1)
            g2 = random_transformation(rng, 1)
            for degree in (2, 3, 4, 5):
                assert (gamma(compose(g1, g2), degree)
                        == compose(gamma(g1, degree), gamma(g2, degree)))

    def test_equivariance(self):
        rng = random.Random(9)
        for _ in range(5):
            w = random_model(rng, 1)
            g = random_transformation(rng, 1)
            for degree in (2, 3, 4, 5):
                lhs = apply(gamma(g, degree), weierstrass_model(w, degree))
                rhs = weierstrass_model(apply(g, w), degree)
                assert lhs == rhs

    def test_character_preserved(self):
        rng = random.Random(10)
        for _ in range(5):
            g = random_transformation(rng, 1)
            for degree in (2, 3, 4, 5):
                assert det_character(gamma(g, degree)) == det_character(g)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(12)
        for degree in (1, 2, 3, 4, 5):
            g = random_transformation(rng, degree)
            assert transformation_from_dict(transformation_to_dict(g)) == g

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            Deg1Transform(0, 1, 1, 1)
        with pytest.raises(InputError):
            Deg4Transform(((1, 1), (1, 1)), identity_matrix(4))
        with pytest.raises(InputError):
            transformation_from_dict({"degree": 3, "mu": "0", "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        for degree in (True, 1.0, "1"):
            with pytest.raises(InputError):
                transformation_from_dict({"degree": degree, "u": "1", "r": "0", "s": "0", "t": "0"})
        with pytest.raises(InputError):
            transformation_from_dict({"degree": 1, "u": "1/0", "r": "0", "s": "0", "t": "0"})
        # a string where a list belongs is not a list of one-digit scalars
        with pytest.raises(InputError):
            transformation_from_dict({"degree": 3, "mu": "1", "B": ["100", "010", "001"]})
        with pytest.raises(InputError):
            transformation_from_dict({"degree": 2, "mu": "1", "r": "000", "B": [[1, 0], [0, 1]]})
        # nor is a JSON object a list of its keys: for r, a row of B or a matrix
        bad = [{"degree": 2, "mu": "1", "r": {"0": 1, "1": 2, "2": 3}, "B": [[1, 0], [0, 1]]},
               {"degree": 2, "mu": "1", "r": [0, 0, 0], "B": [{"1": 0, "0": 0}, {"0": 0, "1": 0}]},
               {"degree": 3, "mu": "1", "B": [{"1": 0, "0": 0, "2": 0}, {"0": 0, "1": 0, "2": 0},
                                              {"0": 0, "2": 0, "1": 0}]},
               {"degree": 4, "A": {"0": [1, 0], "1": [0, 1]}, "B": identity_matrix(4)}]
        for data in bad:
            with pytest.raises(InputError):
                transformation_from_dict(data)
