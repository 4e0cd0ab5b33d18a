"""Polynomial arithmetic, derivatives, exact division and linear substitution."""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus1 import Poly, as_scalar, exact_divide, generators, monomials
from genus1.poly import form_product, gradient, product_places, symmetric_power

from helpers import BIG, SCALARS, linear_substitution, substitute

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly_strategy(variables=XY, max_exp=3, max_terms=4):
    coeffs = st.one_of(st.integers(-9, 9),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * len(variables)), coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda items: Poly(variables, {e: c for e, c in items}))


class TestBasics:
    def test_zero_and_constant(self):
        zero = Poly.zero(XY)
        assert not zero
        assert zero.degree() == -1
        assert Poly.constant(XY, 7).terms == {(0, 0): 7}
        two = Poly.constant(XY, Fraction(4, 2)).coefficient((0, 0))
        assert two == 2 and type(two) is int

    def test_construction_drops_zero_terms(self):
        p = Poly(XY, {(1, 0): 0, (0, 1): 3})
        assert (1, 0) not in p.terms
        assert p.coefficient((0, 1)) == 3

    def test_ring_mismatch_raises(self):
        x, y = generators(XY)
        u = Poly.variable(XYZ, "x")
        with pytest.raises(ValueError):
            x + u

    def test_scalar_mixing(self):
        x, y = generators(XY)
        assert 2 * x - x == x
        assert (x + 1) * (x - 1) == x * x - 1
        assert x / 2 == Fraction(1, 2) * x

    def test_scalar_multiple_keeps_integers_int(self):
        # a Fraction scalar with an integral product gives int coefficients
        x, y = generators(XY)
        assert ((2 * x) / 2).terms == {(1, 0): 1}
        assert type(((2 * x) / 2).coefficient((1, 0))) is int
        p = (4 * x + 3 * y) * Fraction(-3, 2)
        assert p.terms == {(1, 0): -6, (0, 1): Fraction(-9, 2)}
        assert type(p.coefficient((1, 0))) is int
        assert type((Fraction(1, 4) * (8 * y)).coefficient((0, 1))) is int

    def test_hessian_of_fermat_cubic_is_int(self):
        from genus1 import hessian
        x, y, z = generators(("x", "y", "z"))
        h = hessian(x ** 3 + y ** 3 + z ** 3)
        assert h.terms == {(1, 1, 1): -108}
        assert type(h.terms[(1, 1, 1)]) is int

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly.constant(XY, 0.5)
        with pytest.raises(TypeError):
            as_scalar(1.25)

    def test_scalar_strings(self):
        # only "n" and "n/d", with an optional sign and surrounding whitespace
        assert as_scalar(" -3/4 ") == Fraction(-3, 4)
        assert as_scalar("+6/3\n") == 2
        assert type(as_scalar("6/3")) is int
        # an exponent would turn a few characters into thousands of digits
        for text in ("1e5000", "1E5", "1.5", ".5", "1_000", "-3/-4", "3/ 4", "", "-", "0x10"):
            with pytest.raises(ValueError):
                as_scalar(text)

    def test_pow(self):
        x, y = generators(XY)
        assert (x + y) ** 0 == 1
        assert (x + y) ** 3 == x**3 + 3*x*x*y + 3*x*y*y + y**3

    def test_str_is_graded_lex(self):
        x, y = generators(XY)
        p = 3 * x * x + y - 1 - x * y
        assert str(p) == "3*x^2 - x*y + y - 1"
        assert str(Poly.zero(XY)) == "0"

    def test_evaluate(self):
        x, y = generators(XY)
        p = x * x * y - 2 * y + 5
        assert p.evaluate((3, Fraction(1, 2))) == Fraction(9, 2) - 1 + 5

    def test_substitute_and_lift(self):
        x, y = generators(XY)
        p = x * x + y
        u, v, w = generators(XYZ)
        q = substitute(p, {"x": u + v, "y": w})
        assert q == (u + v) ** 2 + w
        assert p.lift(XYZ) == u * u + v


class TestDerivative:
    def test_power_rule(self):
        x, y = generators(XY)
        assert (x * x * y).derivative("x") == 2 * x * y

    def test_constant(self):
        assert Poly.constant(XY, 42).derivative("x") == 0

    def test_quartic(self):
        x, y, z = generators(XYZ)
        assert (x ** 4 + z ** 4).derivative("z") == 4 * z ** 3

    def test_unknown_variable(self):
        x, y = generators(XY)
        with pytest.raises(ValueError):
            x.derivative("q")

    @settings(deadline=None, max_examples=60)
    @given(p=poly_strategy(), q=poly_strategy())
    def test_leibniz(self, p, q):
        lhs = (p * q).derivative("x")
        rhs = p * q.derivative("x") + q * p.derivative("x")
        assert lhs == rhs


class TestArithmeticProperties:
    @settings(deadline=None, max_examples=60)
    @given(p=poly_strategy(), q=poly_strategy(), r=poly_strategy())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(deadline=None, max_examples=40)
    @given(p=poly_strategy(max_exp=2), q=poly_strategy(max_exp=2))
    def test_evaluation_is_a_homomorphism(self, p, q):
        point = (2, Fraction(-1, 2))
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


class TestExactDivide:
    def test_difference_of_squares(self):
        x, y = generators(XY)
        assert exact_divide(x * x - y * y, x - y) == x + y

    def test_not_divisible(self):
        x, y = generators(XY)
        assert exact_divide(x, y) is None

    def test_zero_numerator(self):
        x, y = generators(XY)
        assert exact_divide(Poly.zero(XY), x + y) == 0

    def test_zero_denominator(self):
        x, y = generators(XY)
        with pytest.raises(ZeroDivisionError):
            exact_divide(x, Poly.zero(XY))

    @settings(deadline=None, max_examples=60)
    @given(p=poly_strategy(), q=poly_strategy())
    def test_round_trip(self, p, q):
        if not q:
            return
        assert exact_divide(p * q, q) == p


def test_monomials_order():
    assert monomials(XY, 2) == [(2, 0), (1, 1), (0, 2)]
    quads = monomials(("x1", "x2", "x3", "x4"), 2)
    assert len(quads) == 10
    assert quads[0] == (2, 0, 0, 0)
    assert quads[-1] == (0, 0, 0, 2)
    # strictly descending in (degree, exponents)
    assert all(a > b for a, b in zip(quads, quads[1:]))


@st.composite
def forms_and_substitutions(draw):
    """A form of degree 0-4 in 1-5 variables and a matrix B with int,
    20-digit or Fraction entries, singular half of the time."""
    n, degree = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    ring = tuple(f"x{i}" for i in range(n))
    entries = draw(st.sampled_from([st.integers(-3, 3), BIG,
                                    st.fractions(-3, 3, max_denominator=5)]))
    B = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        # the last variable's image repeats the first's, or is 0 if n = 1
        B = [row[:-1] + [row[0] if n > 1 else 0] for row in B]
    basis = monomials(ring, degree)
    coeffs = draw(st.lists(SCALARS, min_size=len(basis), max_size=len(basis)))
    return Poly(ring, dict(zip(basis, coeffs))), B, degree


@settings(deadline=None, max_examples=80)
@given(forms_and_substitutions())
def test_symmetric_power_is_substitution(case):
    # Sym^d(B) times the coefficient vector is f(x_j = sum_i B_ij x_i')
    form, B, degree = case
    basis = monomials(form.variables, degree)
    sym = symmetric_power(B, degree)
    assert len(sym) == len(basis) and all(len(row) == len(basis) for row in sym)
    vec = [form.coefficient(e) for e in basis]
    moved = Poly(form.variables, {e: sum(map(mul, row, vec)) for e, row in zip(basis, sym)})
    assert moved == substitute(form, linear_substitution(form.variables, B))


# ----------------------------------------------------------------------
# form arithmetic on coefficient vectors, against Poly arithmetic
# ----------------------------------------------------------------------

def test_product_places_is_exponent_addition():
    for n in range(1, 6):
        ring = tuple(f"x{i}" for i in range(n))
        for d1 in range(4):
            for d2 in range(4):
                wider = monomials(ring, d1 + d2)
                tab = product_places(n, d1, d2)
                assert [[wider[i] for i in row] for row in tab] == [
                    [tuple(map(sum, zip(a, b))) for b in monomials(ring, d2)]
                    for a in monomials(ring, d1)]


@st.composite
def form_vectors(draw, ring, degree):
    """A coefficient vector over ``monomials(ring, degree)``: ints, 20-digit
    ints and Fractions, or all zero."""
    size = len(monomials(ring, degree))
    return draw(st.one_of(st.just([0] * size), st.lists(SCALARS, min_size=size, max_size=size)))


def as_poly(ring, degree, vec) -> Poly:
    return Poly(ring, dict(zip(monomials(ring, degree), vec)))


@settings(deadline=None, max_examples=80)
@given(st.data(), st.integers(1, 5), st.integers(0, 3), st.integers(0, 3))
def test_form_product_is_poly_product(data, n, d1, d2):
    ring = tuple(f"x{i}" for i in range(n))
    f, g = data.draw(form_vectors(ring, d1)), data.draw(form_vectors(ring, d2))
    product = form_product(f, g, n, d1, d2)
    assert len(product) == len(monomials(ring, d1 + d2))
    assert as_poly(ring, d1 + d2, product) == as_poly(ring, d1, f) * as_poly(ring, d2, g)


@settings(deadline=None, max_examples=80)
@given(st.data(), st.integers(1, 5), st.integers(0, 3))
def test_gradient_rows_are_derivatives(data, n, lower):
    # a form of degree lower + 1, so its partials have degree 0..3
    ring = tuple(f"x{i}" for i in range(n))
    f = data.draw(form_vectors(ring, lower + 1))
    rows = gradient(f, n, lower + 1)
    assert len(rows) == n and all(len(row) == len(monomials(ring, lower)) for row in rows)
    form = as_poly(ring, lower + 1, f)
    assert [as_poly(ring, lower, row) for row in rows] == [form.derivative(v) for v in ring]
