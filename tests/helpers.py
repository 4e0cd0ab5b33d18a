"""Shared test fixtures: random models and transformations, golden data."""

from fractions import Fraction

from hypothesis import strategies as st

from genus1 import (Deg1Model, Deg1Transform, Deg2Model, Deg2Transform,
                    Deg3Model, Deg3Transform, Deg4Model, Deg4Transform,
                    Deg5Model, Deg5Transform, Poly, determinant, generators,
                    scalar_det)
from genus1.invariants import V_RING
from genus1.models import DEG1_RING, DEG2_RING, DEG5_RING

# Upper triangle of the 5x5 matrix of the order-5 Tate-Shafarevich element
# (the quintic with c4 = 2^44 * 151009 and c6 = -2^66 * 34871057); each row
# lists the coefficients of x1..x5 of one entry, in the order
# (1,2), (1,3), (1,4), (1,5), (2,3), (2,4), (2,5), (3,4), (3,5), (4,5).
WUTHRICH_ENTRIES = [
    [310, 3, 0, 0, 162],
    [-34, -5, 0, 0, -14],
    [10, 0, 0, 28, 16],
    [80, 0, 0, -32, 0],
    [6, 3, 0, 0, 2],
    [-6, 0, 7, -4, 0],
    [0, -14, -8, 0, 0],
    [0, 0, -1, 0, 0],
    [0, 2, 0, 0, 0],
    [-4, 0, 0, 0, 0],
]

WUTHRICH_C4 = 2 ** 44 * 151009
WUTHRICH_C6 = -(2 ** 66) * 34871057

# The five quadrics published for the same curve; the Pfaffians of the
# matrix above span the same space (each is -8 times the published one).
WUTHRICH_QUADRIC_COEFFS = {
    "p1": {(2, 0, 0, 0, 0): 3, (1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): -1,
           (0, 0, 2, 0, 0): -1},
    "p2": {(2, 0, 0, 0, 0): 17, (1, 0, 1, 0, 0): -10, (1, 0, 0, 0, 1): 7,
           (0, 1, 0, 1, 0): -7, (0, 1, 0, 0, 1): -4, (0, 0, 1, 1, 0): 4},
}

# Model-file coefficients with a JSON string where a list belongs, one per
# degree; each string has the right length, so only the type rejects it.
STRING_COEFFICIENTS = [
    (1, "00010"),
    (2, {"p": "000", "q": ["0", "1", "0", "0", "0"]}),
    (3, "1000000000"),
    (4, {"q1": "0000000000", "q2": ["0"] * 10}),
    (5, {"matrix": ["00000"] + [["0"] * 5] * 9}),
]


# Coefficients for property tests: small integers (zero among them),
# Fractions, and integers around 10^20.
BIG = st.integers(-10 ** 20, 10 ** 20)
SCALARS = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=5), BIG)


def deg5_models(scalars=SCALARS):
    """Degree-5 models whose entries are zero as often as not."""
    entry = st.one_of(st.just([0] * 5), st.lists(scalars, min_size=5, max_size=5))
    return st.lists(entry, min_size=10, max_size=10).map(Deg5Model.from_coefficients)


# Entries of transformation matrices: small integers and Fractions.
MATRIX_ENTRIES = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


def invertible_matrices(n, scalars=st.integers(-2, 2)):
    rows = st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    return rows.filter(lambda m: scalar_det(m) != 0)


def wuthrich_model() -> Deg5Model:
    return Deg5Model.from_coefficients(WUTHRICH_ENTRIES)


def random_matrix(rng, n, lo=-3, hi=3):
    """A random integer matrix with nonzero determinant."""
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
        if scalar_det(m) != 0:
            return m


def random_model(rng, degree, lo=-3, hi=3):
    coeff = lambda: rng.randint(lo, hi)
    if degree == 1:
        return Deg1Model(coeff(), coeff(), coeff(), coeff(), coeff())
    if degree == 2:
        return Deg2Model.from_coefficients([coeff() for _ in range(3)],
                                           [coeff() for _ in range(5)])
    if degree == 3:
        return Deg3Model.from_coefficients([coeff() for _ in range(10)])
    if degree == 4:
        return Deg4Model.from_coefficients([coeff() for _ in range(10)],
                                           [coeff() for _ in range(10)])
    if degree == 5:
        return Deg5Model.from_coefficients(
            [[rng.randint(-2, 2) for _ in range(5)] for _ in range(10)])
    raise ValueError(degree)


def random_transformation(rng, degree):
    unit = lambda: rng.choice([1, -1, 2, 3, Fraction(1, 2)])
    small = lambda: rng.randint(-2, 2)
    if degree == 1:
        return Deg1Transform(unit(), small(), small(), small())
    if degree == 2:
        return Deg2Transform(unit(), (small(), small(), small()),
                             random_matrix(rng, 2))
    if degree == 3:
        return Deg3Transform(unit(), random_matrix(rng, 3))
    if degree == 4:
        return Deg4Transform(random_matrix(rng, 2), random_matrix(rng, 4))
    if degree == 5:
        return Deg5Transform(random_matrix(rng, 5, -2, 2),
                             random_matrix(rng, 5, -2, 2))
    raise ValueError(degree)


def random_smooth_model(rng, degree, invariants_fn, lo=-3, hi=3):
    """A random model with nonzero discriminant."""
    while True:
        m = random_model(rng, degree, lo, hi)
        if invariants_fn(m).delta != 0:
            return m


# ----------------------------------------------------------------------
# the group actions of degrees 1-4 by substitution, as references
# ----------------------------------------------------------------------

def substitute(poly, images) -> Poly:
    """``poly`` with ``images[v]`` put for each of its variables v, term by
    term in Poly arithmetic, each power of an image taken once; the
    images share one ring, the result's."""
    target, = {images[v].variables for v in poly.variables}
    powers = {}
    result = Poly.zero(target)
    for exps, coeff in poly.terms.items():
        term = Poly.constant(target, coeff)
        for v, e in zip(poly.variables, exps):
            if e:
                if (v, e) not in powers:
                    powers[v, e] = images[v] ** e
                term = term * powers[v, e]
        result = result + term
    return result


def linear_substitution(ring, B) -> dict:
    """Images of the substitution x_j = sum_i B_ij x_i', for ``substitute``."""
    gens = generators(ring)
    n = len(ring)
    return {ring[j]: sum((B[i][j] * gens[i] for i in range(n)), Poly.zero(ring))
            for j in range(n)}


def _rho(r):
    return Poly(DEG2_RING, {(2, 0): r[0], (1, 1): r[1], (0, 2): r[2]})


def substitute_apply(g, m):
    """g . m for degrees 1-4, substituting into the model's polynomials."""
    if g.degree == 1:
        x, y, z = generators(DEG1_RING)
        u, r, s, t = g.u, g.r, g.s, g.t
        images = {"x": u * u * x + r * z, "y": u ** 3 * y + u * u * s * x + t * z, "z": z}
        scaled = substitute(m.equation(), images) * (1 / Fraction(u) ** 6)
        new = Deg1Model(scaled.coefficient((1, 1, 1)), -scaled.coefficient((2, 0, 1)),
                        scaled.coefficient((0, 1, 2)), -scaled.coefficient((1, 0, 2)),
                        -scaled.coefficient((0, 0, 3)))
        assert new.equation() == scaled
        return new
    equations = [m.p, m.q] if g.degree == 2 else m.equations()
    sub = linear_substitution(equations[0].variables, g.B)
    moved = [substitute(f, sub) for f in equations]
    if g.degree == 2:
        (p_b, q_b), rho = moved, _rho(g.r)
        return Deg2Model(g.mu * (p_b + 2 * rho),
                         g.mu * g.mu * (q_b - p_b * rho - rho * rho))
    if g.degree == 3:
        return Deg3Model(g.mu * moved[0])
    (a, b), (c, d) = g.A
    return Deg4Model(a * moved[0] + b * moved[1], c * moved[0] + d * moved[1])


def substitute_compose2(g1, g2):
    """compose for degree 2, moving g2's rho by substitution."""
    rho = (1 / Fraction(g2.mu)) * _rho(g1.r) + substitute(
        _rho(g2.r), linear_substitution(DEG2_RING, g1.B))
    r = tuple(rho.coefficient(e) for e in ((2, 0), (1, 1), (0, 2)))
    B = tuple(tuple(sum(g1.B[i][t] * g2.B[t][j] for t in range(2)) for j in range(2))
              for i in range(2))
    return Deg2Transform(g1.mu * g2.mu, r, B)


# ----------------------------------------------------------------------
# the degree-5 covariants from their definitions, as references
# ----------------------------------------------------------------------

def deg5_reference(m):
    """(secant, dual) of a degree-5 model in Poly arithmetic: the secant
    quintic det(dp_k/dx_t) and the dual quintic det(sum_k v_k Hess p_k),
    Hess p_k the matrix of second derivatives, a constant."""
    pf = m.pfaffians()
    secant = determinant([[p.derivative(xt) for xt in DEG5_RING] for p in pf])
    v = generators(V_RING)
    dual = determinant([[sum((p.derivative(xi).derivative(xj).coefficient((0,) * 5) * vk
                              for p, vk in zip(pf, v)), Poly.zero(V_RING))
                         for xj in DEG5_RING] for xi in DEG5_RING])
    return secant, dual
