"""Polynomial determinants and exact elimination."""

import gc
import sys
from unittest import mock
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genus1.linalg as linalg
from genus1 import (Deg1Model, Deg5Transform, Poly, apply, deg5_covariants,
                    determinant, generators, invariants_deg3, kernel_basis,
                    pivot_columns, scalar_det, scalar_rank, solve_linear,
                    weierstrass_model)
from genus1.linalg import _PRIME, adjugate, mat_mul, perm_sign
from genus1.poly import monomials

from helpers import wuthrich_model

RING = ("x", "y", "z", "w")
X, Y, Z, W = generators(RING)
ZERO = Poly.zero(RING)


def small_poly():
    coeffs = st.integers(-5, 5)
    term = st.tuples(st.tuples(*[st.integers(0, 1)] * 4), coeffs)
    return st.lists(term, max_size=3).map(lambda items: Poly(RING, dict(items)))


def leibniz(rows):
    """Reference determinant: the sum over permutations, in Poly arithmetic."""
    n = len(rows)
    total = Poly.zero(rows[0][0].variables)
    for perm in permutations(range(n)):
        term = Poly.constant(total.variables, perm_sign(perm))
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def gauss_jordan(rows):
    """Reference reduced row echelon form in Fractions: (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    piv = []
    for c in range(len(m[0])):
        r = len(piv)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        piv.append(c)
    return m, piv


def reference_solve(rows, b):
    """The solution of A x = b with free variables zero, or None."""
    n_cols = len(rows[0])
    rref, piv = gauss_jordan([list(row) + [v] for row, v in zip(rows, b)])
    if piv and piv[-1] == n_cols:
        return None  # a pivot in the right-hand side
    x = [0] * n_cols
    for k, c in enumerate(piv):
        x[c] = rref[k][-1]
    return x


RING6 = ("a", "b", "c", "d", "e", "f")
COEFFS = st.sampled_from([1, -1, 2, -3, 7, 10 ** 20, Fraction(1, 2), Fraction(-5, 3)])


@st.composite
def mixed_matrix(draw):
    """n x n, n = 1..5, over a 4- or 6-variable ring: entries of mixed and
    non-homogeneous degree, zero entries, sometimes a zero row.  Pure
    powers of the first variable let its exponent reach the sum of the
    rows' largest entry degrees."""
    ring = draw(st.sampled_from([RING, RING6]))
    n = draw(st.integers(1, 5))
    pure = st.integers(0, 6).map(lambda k: (k,) + (0,) * (len(ring) - 1))
    mixed = st.tuples(*[st.integers(0, 3)] * len(ring))
    term = st.tuples(st.one_of(pure, mixed), COEFFS)
    entry = st.one_of(st.just(Poly.zero(ring)),
                      st.lists(term, max_size=3).map(lambda items: Poly(ring, dict(items))))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()) and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Poly.zero(ring)] * n
    return rows


@st.composite
def linear_matrix(draw):
    """n x n, n = 1..5, of linear forms in 1 to 6 variables, which are no
    pencil: ``determinant`` takes them to the generic minors.  Zero
    entries, sometimes a zero row, and sometimes variables that occur
    nowhere."""
    ring = RING6[:draw(st.integers(1, 6))]
    n = draw(st.integers(1, 5))
    units = [tuple(int(i == v) for i in range(len(ring))) for v in range(len(ring))]
    term = st.tuples(st.sampled_from(units), COEFFS)
    form = st.lists(term, min_size=1, max_size=6).map(lambda items: Poly(ring, dict(items)))
    entry = st.one_of(st.just(Poly.zero(ring)), form)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()) and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Poly.zero(ring)] * n
    return rows


def matrix_strategy(n):
    return st.lists(st.lists(small_poly(), min_size=n, max_size=n),
                    min_size=n, max_size=n)


class TestDeterminant:
    def test_1x1(self):
        p = X + 2 * Y
        assert determinant([[p]]) == p

    def test_diagonal(self):
        assert determinant([[X, ZERO], [ZERO, Y]]) == X * Y

    def test_2x2(self):
        assert determinant([[X, Y], [Z, W]]) == X * W - Y * Z

    def test_non_square(self):
        with pytest.raises(ValueError):
            determinant([[X, Y]])

    def test_mixed_rings_rejected(self):
        # matrices of linear forms and one with a quadric entry alike
        other = Poly.variable(("x", "y", "z", "u"), "u")
        for rows in ([[X, Y], [Z, other]], [[other, Y], [Z, W]],
                     [[X * X, Y], [Z, other]], [[ZERO, ZERO], [ZERO, other * 0]]):
            with pytest.raises(ValueError, match="rings differ"):
                determinant(rows)

    def test_high_powers_match_leibniz(self):
        # row degrees 7 and 8: x reaches x^15, the sum of the row degrees
        rows = [[X ** 7, Y ** 7], [Z ** 8, X ** 8]]
        assert determinant(rows) == X ** 15 - Y ** 7 * Z ** 8 == leibniz(rows)

    def test_leaves_no_garbage_cycle(self):
        # the minors are freed on return, not left for a full collection,
        # by _maximal_minors on entries with a constant and on linear forms
        for rows in ([[X, Y, Z], [Y, Z, W], [Z, W, X + 1]],
                     [[X, Y, Z], [Y, Z, W], [Z, W, X]]):
            gc.collect()
            gc.disable()
            try:
                determinant(rows)
                assert gc.collect() == 0
            finally:
                gc.enable()

    @settings(deadline=None, max_examples=60)
    @given(rows=mixed_matrix())
    def test_matches_leibniz(self, rows):
        det = determinant(rows)
        assert det == leibniz(rows)
        assert all(type(c) is int or c.denominator > 1 for c in det.terms.values())

    @settings(deadline=None, max_examples=60)
    @given(rows=linear_matrix())
    def test_linear_forms_match_leibniz(self, rows):
        det = determinant(rows)
        assert det == leibniz(rows)
        assert all(type(c) is int or c.denominator > 1 for c in det.terms.values())

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_dense_kernel_matches_leibniz(self, data):
        # the tensor entry: entries as coefficient vectors over 1 to 6
        # variables, zero vectors and zero coefficients among them;
        # Fraction coefficients too
        nvars = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 4))
        coeff = st.one_of(st.just(0), st.integers(-9, 9), COEFFS)
        entry = st.one_of(st.just([0] * nvars), st.lists(coeff, min_size=nvars, max_size=nvars))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        ring = RING6[:nvars]
        units = monomials(ring, 1)
        det = leibniz([[Poly(ring, dict(zip(units, vec))) for vec in row] for row in rows])
        dense = linalg._dense_determinant(rows)
        assert dense == [det.coefficient(e) for e in monomials(ring, n)]
        assert all(type(c) is int or c.denominator > 1 for c in dense)

    def test_routing_edge_cases(self):
        # no pencil in x: entries x + 1, a constant or x y, the zero
        # matrix, 1x1 matrices and z, w-only ones, whose exponents stay at
        # z's and w's places in the ring, all take _maximal_minors
        one = Poly.constant(RING, 1)
        point, empty = Poly.constant((), 3), Poly.zero(())
        for rows in ([[X, Y, Z], [Y, Z, W], [Z, W, X + 1]],
                     [[X, Y, Z], [Y, one * 7, W], [Z, W, X]],
                     [[X * Y, Y], [Z, W]],
                     [[ZERO] * 3] * 3, [[ZERO]], [[X - 3 * W]], [[one * 5]],
                     [[Z, 2 * W], [W, -Z]],
                     [[point]], [[empty]], [[point, empty], [empty, point]]):
            assert determinant(rows) == leibniz(rows)

    def test_sparse_linear_forms_take_the_generic_minors(self):
        # linear forms are no pencil, sparse (25 distinct variables, 120
        # terms) or dense (the quadrics in x, y): the generic minors take them
        gens = generators(tuple(f"a{i}{j}" for i in range(5) for j in range(5)))
        for rows, size in (([list(gens[5 * i:5 * i + 5]) for i in range(5)], 120),
                           ([[X + Y, X - Y], [Y, 2 * X]], 3)):
            det = minors_path(rows)
            assert len(det.terms) == size and det == leibniz(rows)

    def test_maximal_minors_of_a_wide_matrix(self):
        # every 2-column minor of a 2x4 matrix, keyed by its column mask,
        # with the zero ones left out, for Poly and scalar entries alike
        for rows, zero in (([[X, Y, X + 1, ZERO], [Z, W, Z, X * Y]], ZERO),
                           ([[1, 2, 0, 3], [2, 4, 5, 6]], 0)):
            expected = {}
            for i in range(4):
                for j in range(i + 1, 4):
                    minor = rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
                    if minor != zero:
                        expected[1 << i | 1 << j] = minor
            assert linalg._maximal_minors(rows) == expected
        assert 1 << 0 | 1 << 1 not in linalg._maximal_minors([[1, 2, 0, 3], [2, 4, 5, 6]])

    def test_integral_fraction_products_become_ints(self):
        # (x/2)(2x) = x^2: the Fraction product 1 is stored as the int 1
        det = determinant([[X * Fraction(1, 2), ZERO], [ZERO, 2 * X]])
        assert det.terms == {(2, 0, 0, 0): 1}
        assert type(det.terms[(2, 0, 0, 0)]) is int

    @settings(deadline=None, max_examples=30)
    @given(rows=matrix_strategy(3))
    def test_transpose_invariance(self, rows):
        transpose = [[rows[j][i] for j in range(3)] for i in range(3)]
        assert determinant(rows) == determinant(transpose)

    @settings(deadline=None, max_examples=30)
    @given(rows=matrix_strategy(3))
    def test_row_swap_negates(self, rows):
        swapped = [rows[1], rows[0], rows[2]]
        assert determinant(swapped) == -determinant(rows)


def pencil_route(rows):
    """determinant(rows) and {name: [result, ...]} of the calls it made to
    ``_pencil_terms`` and ``_maximal_minors``, asserting that
    ``_pencil_terms`` got integer M_0 and M_1 with M_1 != 0: a Fraction row
    is scaled once, before the route is chosen."""
    calls = {}

    def spy(name):
        original = getattr(linalg, name)

        def recorded(*args):
            if name == "_pencil_terms":
                m0, m1 = args
                assert all(type(c) is int for m in (m0, m1) for row in m for entry in row
                           for c in entry)
                assert any(c for row in m1 for entry in row for c in entry)
            calls.setdefault(name, []).append(original(*args))
            return calls[name][-1]

        return mock.patch.object(linalg, name, recorded)

    with spy("_pencil_terms"), spy("_maximal_minors"):
        det = determinant(rows)
    return det, calls


def kronecker_path(rows):
    """determinant(rows), asserting that it took the terms of one
    ``_pencil_terms`` call and the generic minors did not."""
    det, calls = pencil_route(rows)
    assert len(calls["_pencil_terms"]) == 1 and "_maximal_minors" not in calls
    return det


def minors_path(rows):
    """determinant(rows), asserting that ``_maximal_minors`` took it and
    ``_pencil_terms`` did not."""
    det, calls = pencil_route(rows)
    assert "_pencil_terms" not in calls and "_maximal_minors" in calls
    return det


def pencil_matrices(compute, model):
    """{first variable: rows} of the pencils ``compute(model)`` takes by
    Kronecker substitution: lam for the degree-5 pencil, which goes through
    ``determinant``, and nu for G(U + nu G), whose Hessian pair goes
    straight to ``_pencil_terms``, as ``Poly`` rows."""
    module = sys.modules["genus1.invariants"]
    expand, pair_entry = module.determinant, module._pencil_terms
    pencils = {}

    def recorded(rows):
        if rows[0][0].variables[0] == "lam":
            pencils["lam"] = rows
        return expand(rows)

    def recorded_pair(m0, m1):
        pencils["nu"] = pencil_rows(("nu",) + module.DEG3_RING, m0, m1)
        return pair_entry(m0, m1)

    with mock.patch.object(module, "determinant", recorded), \
            mock.patch.object(module, "_pencil_terms", recorded_pair):
        compute(model)
    return pencils


def pencil_rows(ring, m0, m1):
    """The ``Poly`` rows of t M_1 + M_0 over ``ring``, whose first variable
    is t, from entries that are coefficient vectors over the variables
    after t."""
    units = monomials(ring, 1)
    return [[Poly(ring, {**dict(zip(units[1:], a)),
                         **{tuple(map(sum, zip(units[0], u))): c for u, c in zip(units[1:], b)}})
             for a, b in zip(row0, row1)] for row0, row1 in zip(m0, m1)]


class TestKroneckerDeterminant:
    """determinant of a pencil x M_1 + M_0, M_0 and M_1 linear forms in
    y, z, w, by the substitution x = 2^w in the first variable x."""

    @staticmethod
    def check(rows):
        det = kronecker_path(rows)
        assert det == leibniz(rows)
        assert all(type(c) is int or c.denominator > 1 for c in det.terms.values())

    def test_common_content_of_the_first_variable(self):
        # the x coefficients share g, so x -> g x shrinks the digit width
        # and each x^k digit is multiplied back by g^k
        for g in (2 ** 40, 3 ** 9, 7, Fraction(6, 7)):
            rows = [[g * X * Y + Z, -g * X * Z + 2 * W, 3 * g * X * W - Y],
                    [-5 * g * X * Y - Y, Z - W, g * X * Z + 4 * Y],
                    [2 * g * X * W + Z, -g * X * Y + Y, -W]]
            self.check(rows)

    def test_square_terms_of_the_first_variable(self):
        # x^2 y and x^2 are not a pencil's terms: the generic minors take them
        for square in (-25 * X ** 2 * Y, 5 * X ** 2):
            rows = [[5 * X * Y + Z, square + W], [10 * X * W - Y, 3 * Y]]
            assert minors_path(rows) == leibniz(rows)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_content_property(self, data):
        # g x A + B: A integer multiples of y, z or w, B linear forms in y, z, w
        n = data.draw(st.integers(1, 4))
        g = data.draw(st.sampled_from([2, -3, 2 ** 64, 5 ** 11, Fraction(6, 7)]))
        a = data.draw(st.lists(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([Y, Z, W])),
                                        min_size=n, max_size=n), min_size=n, max_size=n))
        if not any(a_ij for row in a for a_ij, _ in row):
            a[0][0] = (1, Y)
        form = st.lists(st.tuples(st.sampled_from([Y, Z, W]), COEFFS), max_size=3).map(
            lambda items: sum((c * v for v, c in items), ZERO))
        rows = [[g * a_ij * X * v + data.draw(form) for a_ij, v in row] for row in a]
        det, calls = pencil_route(rows)
        assert det == leibniz(rows)
        assert all(type(c) is int or c.denominator > 1 for c in det.terms.values())
        # a pencil too sparse for the kernel goes to the generic minors,
        # decided in determinant: _pencil_terms never declines
        assert ("_pencil_terms" in calls) != ("_maximal_minors" in calls)
        assert all(type(terms) is dict for terms in calls.get("_pencil_terms", []))

    def test_coefficient_at_the_bound(self):
        # B = 4 * 3 = 12 is the x^2 y^2 coefficient of the determinant itself,
        # read off the top base-2^w digit of the dense terms
        for sign in (1, -1):
            rows = [[sign * 4 * X * Y, ZERO], [ZERO, 3 * X * Y]]
            assert kronecker_path(rows) == sign * 12 * X ** 2 * Y ** 2

    def test_bound_with_two_terms_per_row(self):
        # (2xy + 2y)(3xy - 3y): B = 4 * 6 = 24, coefficients 6, 0 and -6
        rows = [[2 * X * Y + 2 * Y, ZERO], [ZERO, 3 * X * Y - 3 * Y]]
        assert kronecker_path(rows) == (6 * X ** 2 - 6) * Y ** 2

    def test_declined_pencil_takes_the_minors(self):
        # two diagonal entries in y and z: one term per row, below the
        # C(3, 2) = 3 places of a quadric in y, z, so determinant sends it
        # to the minors and never to _pencil_terms
        rows = [[4 * X * Y, ZERO], [ZERO, 3 * X * Z]]
        assert minors_path(rows) == 12 * X ** 2 * Y * Z

    def test_borrow_chains(self):
        # negative digits borrow from the next one up
        for rows in ([[-X * Y + Y, ZERO], [ZERO, -X * Y - Y]],
                     [[-X * Y - Y, ZERO, ZERO], [ZERO, -X * Y - Y, ZERO],
                      [ZERO, ZERO, X * Y - Y]],
                     [[-X * Y + Z, X * W - Y], [X * Z - Y - W, -X * Y - Z]],
                     [[X * Y - Y - Z, -X * Z + Y], [-X * W + W, X * Y - Y - W]]):
            self.check(rows)

    def test_fraction_rows(self):
        # in the second matrix the lcms 15 and 3 make the x coefficients
        # 20, -24, 2 and 12: a content of 2 shows only after scaling
        for rows in ([[X * Y / 2 + Y, Fraction(-5, 3) * X * Z], [Z / 6, X * Y - Z / 4]],
                     [[Fraction(4, 3) * X * Y + Y / 5, Fraction(-8, 5) * X * Z + Z],
                      [Fraction(2, 3) * X * Z - Y, 4 * X * Y + Fraction(1, 3) * Z]]):
            self.check(rows)

    def test_integral_fraction_coefficients(self):
        # a Poly sum keeps Fraction(1, 1): such a row needs no scaling but
        # its coefficients must still become ints
        one = X * Y / 2 + X * Y / 2
        assert type(one.terms[(1, 1, 0, 0)]) is Fraction
        rows = [[one, Z], [Z, one + Y]]
        det = kronecker_path(rows)
        assert det == X ** 2 * Y ** 2 + X * Y ** 2 - Z ** 2
        assert all(type(c) is int for c in det.terms.values())

    def test_zero_row(self):
        # B = 0: the determinant vanishes without an expansion.  A zero row
        # makes P = 0, below the C(m + 1, 2) places of a quadric in the m
        # variables that occur, but the pencil is not declined
        for rows in ([[X * Y + 5 * Z, -7 * X * W], [ZERO, ZERO]],
                     [[X * Y, ZERO], [ZERO, ZERO]]):
            assert kronecker_path(rows) == ZERO

    def test_no_first_variable(self):
        # no x term, M_1 = 0: the generic minors take the matrix
        for rows in ([[Y, Z], [W, Y + 10 ** 20 * Z]], [[Y + 2 * W, 3 * Z], [W, 5 * Y]],
                     [[7 * Y]], [[ZERO]]):
            assert minors_path(rows) == leibniz(rows)

    def test_routing(self):
        # only a pencil takes the path: not an x^2 or x^2 z term, an x-only
        # term such as 4x or x, a constant entry, a y z term, a pencil too
        # sparse for the kernel, a matrix without x, or the empty ring.
        # The one routing pass stops at the first such term, which comes
        # first, last or after pencil terms of its own entry; Fraction rows
        # are scaled for the minors as for the kernel
        seven = Poly.constant(RING, 7)
        for odd in (X ** 2, X ** 2 * Z, 4 * X, X, seven, Y * Z):
            for rows in ([[X * Y, odd], [Z, W]], [[odd, X * Y], [Z, W]],
                         [[X * Y, Z], [W, X * Z + odd]], [[X * Y / 2, Z], [W, odd / 3]]):
                assert minors_path(rows) == leibniz(rows)
        for rows in ([[4 * X * Y, ZERO], [ZERO, 3 * X * Z]], [[Y, Z], [W, Y]]):
            assert minors_path(rows) == leibniz(rows)
        point = Poly.constant((), 3)
        assert minors_path([[point]]) == point
        # the degree-5 pencil det(lam Q + L), through determinant, and the
        # degree-3 G(U + nu G), straight from its Hessian pair
        pencils = pencil_matrices(deg5_covariants, wuthrich_model())
        pencils.update(pencil_matrices(invariants_deg3,
                                       weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 3)))
        assert sorted(pencils) == ["lam", "nu"]
        for rows in pencils.values():
            assert kronecker_path(rows) == linalg._maximal_minors(rows)[(1 << len(rows)) - 1]

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_pair_entry_property(self, data):
        # t M_1 + M_0 in integers, M_1 != 0 of content g, over y, z, w: the
        # pair entry equals the generic minors of the same matrix as Poly
        # rows, sparse or not; a zero row gives 0
        n = data.draw(st.integers(1, 4))
        g = data.draw(st.sampled_from([2, 3 ** 9, 2 ** 40]))
        form = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=3, max_size=3)
        m0 = [[data.draw(form) for _ in range(n)] for _ in range(n)]
        m1 = [[[g * c for c in data.draw(form)] for _ in range(n)] for _ in range(n)]
        zero = data.draw(st.integers(0, n - 1)) if n > 1 and data.draw(st.booleans()) else None
        if zero is not None:
            m0[zero], m1[zero] = [[0] * 3] * n, [[0] * 3] * n
        if not any(c for row in m1 for entry in row for c in entry):
            m1[zero == 0][0] = [g, 0, 0]
        terms = linalg._pencil_terms(m0, m1)
        rows = pencil_rows(RING, m0, m1)
        assert Poly(RING, terms) == linalg._maximal_minors(rows).get((1 << n) - 1, ZERO)

    def test_pencil_parts_reach_the_kernel(self):
        # the one routing pass hands _pencil_terms the t^0 and t^1 vectors
        # that reading each scaled entry's terms by monomial gives: the
        # degree-5 pencil, Fraction rows and integral Fraction coefficients
        def parts(rows):
            ring = rows[0][0].variables
            mults = [lcm(*(c.denominator for entry in row for c in entry.terms.values()
                           if isinstance(c, Fraction))) for row in rows]
            return tuple([[[int(entry.terms.get((k,) + e, 0) * mult)
                            for e in monomials(ring[1:], 1)] for entry in row]
                          for row, mult in zip(rows, mults)] for k in (0, 1))

        one = X * Y / 2 + X * Y / 2
        for rows in (pencil_matrices(deg5_covariants, wuthrich_model())["lam"],
                     [[X * Y / 2 + Y, Fraction(-5, 3) * X * Z], [Z / 6, X * Y - Z / 4]],
                     [[one, Z], [Z, one + Y]],
                     [[X * Y + 5 * Z, -7 * X * W], [ZERO, ZERO]]):
            _, calls = pencil_route(rows)
            seen = []
            with mock.patch.object(linalg, "_pencil_terms", lambda *args: seen.append(args) or {}):
                determinant(rows)
            assert len(calls["_pencil_terms"]) == 1 and seen == [parts(rows)]

    def test_pair_entry_with_an_absent_variable(self):
        # z never occurs and the t coefficients have content 6: the kernel
        # runs on y and w only, and each exponent goes back to its place
        m0 = [[[1, 0, -2], [0, 0, 3]], [[-4, 0, 0], [5, 0, 1]]]
        m1 = [[[6, 0, 0], [0, 0, -12]], [[18, 0, 6], [0, 0, 0]]]
        terms = linalg._pencil_terms(m0, m1)
        rows = pencil_rows(RING, m0, m1)
        assert all(e[2] == 0 for e in terms) and Poly(RING, terms) == leibniz(rows)

    def test_non_square(self):
        for rows in ([[X * Y, Z]], [], [[X * Y], [Z]]):
            with pytest.raises(ValueError, match="not square"):
                determinant(rows)

    def test_mixed_rings_rejected(self):
        x, u = generators(("x", "y", "z", "u"))[::3]
        for rows in ([[X * Y, Z], [W, x * u]], [[x * u, Y], [Z, X * W]]):
            with pytest.raises(ValueError, match="rings differ"):
                determinant(rows)

    def test_leaves_no_garbage_cycle(self):
        rows = [[X * Y + Z, Y, Z], [Y, X * Z + W, W], [Z, W, X * W + Y]]
        gc.collect()
        gc.disable()
        try:
            kronecker_path(rows)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestScalarElimination:
    def test_rank_examples(self):
        assert scalar_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert scalar_rank([[0] * 5, [0] * 5]) == 0
        assert scalar_rank([[1, 2], [2, 4]]) == 1

    def test_pivot_column_examples(self):
        assert pivot_columns([[0, 1, 2], [0, 2, 4]]) == [1]
        assert pivot_columns([[1, 1, 0], [1, 1, 1]]) == [0, 2]
        assert pivot_columns([]) == pivot_columns([[], []]) == []

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [3, 4]], [[], [1]]])
    def test_ragged_matrix_is_refused(self, rows):
        # the short row raised IndexError, or its missing entries were read
        # as zeros: rank 1 and an empty kernel for [[1], [3, 4]]
        for call in (pivot_columns, scalar_rank, kernel_basis,
                     lambda m: solve_linear(m, [[0] * len(m)])):
            with pytest.raises(ValueError, match="^ragged matrix$"):
                call(rows)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_pivot_columns_are_the_greedy_basis(self, data):
        # column c is a pivot exactly when it raises the rank of the columns before it
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 6))
        entry = st.sampled_from([-2, -1, 0, 0, 0, 1, 3, Fraction(1, 2), Fraction(-4, 3)])
        mat = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        if data.draw(st.booleans()):
            mat.append([2 * x for x in mat[0]])  # a dependent row
        for c in data.draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in mat:
                row[c] = 0  # a zero column
        prefix_rank = [scalar_rank([row[:c] for row in mat]) for c in range(cols + 1)]
        greedy = [c for c in range(cols) if prefix_rank[c + 1] > prefix_rank[c]]
        assert pivot_columns(mat) == greedy
        assert scalar_rank(mat) == len(greedy)

    def test_solve_identity(self):
        assert solve_linear([[1, 0], [0, 1]], [[3, 5]]) == (2, [[3, 5]])

    def test_solve_inconsistent(self):
        assert solve_linear([[1], [1]], [[1, 2]]) == (1, [None])

    def test_solve_rational(self):
        assert solve_linear([[2]], [[1]]) == (1, [[Fraction(1, 2)]])

    def test_solve_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear([[1, 2]], [[1, 2]])
        with pytest.raises(ValueError):
            solve_linear([[1, 2]], [[1], [1, 2]])

    def test_solve_several_columns(self):
        # one column per result, an inconsistent one giving None
        assert solve_linear([[1], [1]], [[1, 1], [1, 2], (2, 2)]) == (1, [[1], None, [2]])
        # overdetermined and rank deficient: free variables set to zero
        mat = [[1, 2], [2, 4], [3, 6]]
        assert solve_linear(mat, [[1, 2, 3]]) == (1, [[1, 0]])
        assert solve_linear(mat, [[1, 2, 3], [1, 2, 4], [0, 0, 0]]) == (1, [[1, 0], None, [0, 0]])
        assert solve_linear([], [[], []]) == (0, [[], []])
        # no right-hand side at all: the rank alone
        assert solve_linear(mat, []) == (1, [])

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_several_columns_match_single_solves(self, data):
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 4))
        entry = st.sampled_from([-3, -1, 0, 0, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3)])
        mat = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
        if data.draw(st.booleans()):
            mat = mat + [list(mat[0])]  # a dependent row
        k = data.draw(st.integers(1, 4))
        columns = [[data.draw(entry) for _ in mat] for _ in range(k)]
        rank, solutions = solve_linear(mat, columns)
        assert rank == scalar_rank(mat)
        assert solutions == [solve_linear(mat, [b])[1][0] for b in columns]

    def test_det_fractions(self):
        m = [[Fraction(1, 2), 1], [1, 4]]
        assert scalar_det(m) == 1
        assert scalar_det([[1, 2], [2, 4]]) == 0

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_adjugate_times_matrix_is_det(self, data):
        # M adj(M) = adj(M) M = det(M) I, singular matrices included: the
        # last rows may be combinations of the ones before them.  For n >= 2,
        # adj(M) has rank n, 1 or 0 as M has rank n, n - 1 or less.
        n = data.draw(st.integers(1, 4))
        entry = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
        mat = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        for k in range(n - data.draw(st.integers(0, n - 1)), n):
            mults = [data.draw(entry) for _ in range(k)]
            mat[k] = [sum(c * row[j] for c, row in zip(mults, mat)) for j in range(n)]
        det_i = [[scalar_det(mat) * (i == j) for j in range(n)] for i in range(n)]
        adj = adjugate(mat)
        assert [list(row) for row in mat_mul(mat, adj)] == det_i
        assert [list(row) for row in mat_mul(adj, mat)] == det_i
        rank = scalar_rank(mat)
        if n >= 2:
            assert scalar_rank(adj) == (n if rank == n else 1 if rank == n - 1 else 0)

    def test_adjugate_of_singular_matrices(self):
        # rank n - 1: adj(M) has rank 1; rank n - 2 or less: adj(M) = 0
        assert adjugate([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == [[4, -2, 0], [4, -2, 0],
                                                              [-4, 2, 0]]
        assert adjugate([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == [[0] * 3] * 3
        assert adjugate([[1, 0, 2, 0], [0, 1, 0, 3], [1, 1, 2, 3], [2, 1, 4, 3]]) == [[0] * 4] * 4
        assert adjugate([[0] * 2] * 2) == [[0] * 2] * 2
        assert adjugate([[Fraction(1, 2), 1], [1, 2]]) == [[2, -1], [-1, Fraction(1, 2)]]

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_solve_matches_gauss_jordan(self, data):
        # overdetermined and rank-deficient systems with zero rows, and
        # consistent (b = A x) and random right-hand sides side by side
        n_cols = data.draw(st.integers(1, 5))
        n_rows = data.draw(st.integers(1, 8))
        # the prime makes some first rows singular mod p; 10^40 entries need
        # lifts of more than one base-p digit
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 10 ** 15, 10 ** 40, _PRIME,
                                 Fraction(1, 2), Fraction(-7, 3)])
        mat = [[data.draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
        for i in data.draw(st.sets(st.integers(0, n_rows - 1), max_size=3)):
            p, q = (data.draw(st.integers(0, n_rows - 1)) for _ in range(2))
            a, b = data.draw(entry), data.draw(entry)
            mat[i] = [a * x + b * y for x, y in zip(mat[p], mat[q])]  # zero when a = b = 0
        columns = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                x = [data.draw(entry) for _ in range(n_cols)]
                columns.append([sum(a * v for a, v in zip(row, x)) for row in mat])
            else:
                columns.append([data.draw(entry) for _ in range(n_rows)])
        rref, piv = gauss_jordan(mat)
        rank, solutions = solve_linear(mat, columns)
        assert rank == len(piv)
        assert solutions == [reference_solve(mat, b) for b in columns]
        for sol in solutions:
            assert sol is None or all(type(v) is int or v.denominator > 1 for v in sol)
        assert kernel_basis(mat) == [
            [int(c == f) if c not in piv else -rref[piv.index(c)][f] for c in range(n_cols)]
            for f in range(n_cols) if f not in piv]

    def test_inconsistency_outside_the_row_basis(self):
        # the basis rows are solved exactly; only the check of every
        # equation sees that the last one fails
        assert solve_linear([[1, 0], [0, 1], [1, 1]], [[1, 2, 4], [1, 2, 3]]) == (
            2, [None, [1, 2]])
        # dependent first rows: the pivot columns of A^T pick rows 0 and 2
        mat = [[1, 1], [2, 2], [0, 1], [1, 2]]
        assert solve_linear(mat, [[1, 2, 1, 5], [1, 2, 1, 2]]) == (2, [None, [0, 1]])

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_solve_consistency(self, data):
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 4))
        mat = [[data.draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        rhs = [data.draw(st.integers(-4, 4)) for _ in range(rows)]
        rank, (sol,) = solve_linear(mat, [rhs])
        assert rank == scalar_rank(mat)
        if sol is None:
            # inconsistent: the augmented matrix has strictly larger rank
            aug = [row + [rhs[i]] for i, row in enumerate(mat)]
            assert scalar_rank(aug) == scalar_rank(mat) + 1
        else:
            for row, b in zip(mat, rhs):
                assert sum(c * x for c, x in zip(row, sol)) == b

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_kernel_vectors_annihilate(self, data):
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 5))
        mat = [[data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(mat)
        assert len(basis) == cols - scalar_rank(mat)
        for v in basis:
            assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in mat)


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The row counts of the matrices linalg hands to Bareiss elimination."""
    calls = []
    echelon = linalg._bareiss_echelon

    def spy(m, *args):
        calls.append(len(m))
        return echelon(m, *args)

    monkeypatch.setattr(linalg, "_bareiss_echelon", spy)
    return calls


def auxiliary_system(model):
    """The 70x15 system that ``deg5_covariants`` solves for the model."""
    module = sys.modules["genus1.invariants"]
    solve = module.solve_linear
    systems = []

    def recorded(rows, columns):
        systems.append((rows, columns))
        return solve(rows, columns)

    module.solve_linear = recorded
    try:
        deg5_covariants(model)
    finally:
        module.solve_linear = solve
    return systems.pop()


# Wuthrich's quintic is moved by these in CI's console-script check.
CI_A = [[0, -13, 12, 3, 12], [-8, -21, -6, -30, -7], [0, -13, 11, 21, -1],
        [14, 25, 8, -16, 5], [-30, 12, 9, -21, -2]]
CI_B = [[-7, -20, -9, 27, -17], [-27, 6, 22, -18, -26], [2, 13, 22, -9, 13],
        [-5, 21, 23, -25, -29], [28, -27, 22, 28, 12]]


class TestSolveRoutes:
    """``solve_linear`` lifts p-adically when A's first rows are invertible
    mod the prime and every solution is integral, and otherwise takes
    Bareiss elimination; both give the Gauss-Jordan solutions."""

    def test_singular_mod_p_falls_back(self, bareiss_calls):
        # det = p: singular mod p, not over Q
        mat = [[_PRIME, 1], [0, 1]]
        columns = [[_PRIME + 1, 1], [0, 3]]
        assert solve_linear(mat, columns) == (
            2, [[1, 1], [Fraction(-3, _PRIME), 3]]) == (
            2, [reference_solve(mat, b) for b in columns])
        assert bareiss_calls

    def test_fraction_solution_falls_back(self, bareiss_calls):
        assert solve_linear([[2]], [[1]]) == (1, [[Fraction(1, 2)]]) == (
            1, [reference_solve([[2]], [1])])
        assert bareiss_calls

    def test_scaled_rows_take_bareiss(self, bareiss_calls):
        # a non-integral entry sends the system to Bareiss, even when the
        # solution is integral
        mat = [[Fraction(1, 2), 0], [0, 1]]
        assert solve_linear(mat, [[1, 3]]) == (2, [[2, 3]]) == (
            2, [reference_solve(mat, [1, 3])])
        assert bareiss_calls

    def test_inconsistent_row_on_the_lifting_route(self, bareiss_calls):
        # x = (1, 2) solves the first two rows; the third needs 17
        mat = [[1, 2], [3, 4], [5, 6]]
        columns = [[5, 11, 17], [5, 11, 18]]
        assert solve_linear(mat, columns) == (2, [[1, 2], None]) == (
            2, [reference_solve(mat, b) for b in columns])
        assert not bareiss_calls

    def test_large_solution_lifts_several_digits(self, bareiss_calls):
        x = [10 ** 80 + 7, -(10 ** 80) + 3, 12345]
        assert abs(x[0]) > _PRIME ** 2 // 2  # a third balanced base-p digit
        mat = [[2, 1, 0], [1, 3, 1], [0, 1, 4], [1, 1, 1]]
        b = [sum(a * v for a, v in zip(row, x)) for row in mat]
        assert solve_linear(mat, [b]) == (3, [x]) == (3, [reference_solve(mat, b)])
        assert not bareiss_calls

    def test_moved_wuthrich_system_lifts(self, monkeypatch, bareiss_calls):
        rows, columns = auxiliary_system(apply(Deg5Transform(CI_A, CI_B), wuthrich_model()))
        bareiss_calls.clear()
        lifted = solve_linear(rows, columns)
        assert not bareiss_calls
        assert lifted[0] == 15 and None not in lifted[1]
        # the Bareiss route gives the same solutions
        monkeypatch.setattr(linalg, "_dixon_solve", lambda m, n_cols: None)
        assert solve_linear(rows, columns) == lifted
        assert bareiss_calls

    def test_weierstrass_system_takes_bareiss(self, bareiss_calls):
        rows, columns = auxiliary_system(weierstrass_model(Deg1Model(0, 0, 0, -1, 0), 5))
        bareiss_calls.clear()
        rank, solutions = solve_linear(rows, columns)
        assert bareiss_calls and rank == 15 and None not in solutions
        assert scalar_rank(rows[:15]) < 15


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1


def test_mat_mul():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
