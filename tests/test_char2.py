"""The weight-1 invariant of integer models, reduced mod 2."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from genus1 import (Deg1Model, Deg2Model, Deg4Model, InputError, a1_char2,
                    weierstrass_model)
from genus1.invariants import D5_COSET_REPS

from helpers import random_model


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


def test_non_integer_coefficients_rejected():
    m = Deg2Model.from_coefficients([Fraction(1, 2), 0, 0], [1, 0, 0, 0, 1])
    with pytest.raises(InputError):
        a1_char2(m)


def test_degree1_not_supported():
    with pytest.raises(InputError):
        a1_char2(Deg1Model(1, 0, 0, 0, 0))
