"""Invariants c4, c6 and the discriminant of genus one models.

For every degree the invariants are scaled so that restriction to the
Weierstrass family gives the classical Tate values: a degree-1 model
(a1,..,a6) has

    b2 = a1^2 + 4 a2            c4 = b2^2 - 24 b4
    b4 = 2 a4 + a1 a3           c6 = -b2^3 + 36 b2 b4 - 216 b6
    b6 = a3^2 + 4 a6            Delta = (c4^3 - c6^2) / 1728
    b8 = a1^2 a6 + 4 a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2

and pushing the model through the family map to degree n = 2..5 must
reproduce exactly the same triple.  Under a transformation g the triple
rescales by the 4th, 6th and 12th powers of its det character.  A model
defines a smooth curve of genus one precisely when Delta != 0, and then
its Jacobian is the elliptic curve y^2 = x^3 - 27 c4 x - 54 c6.

Degrees 2, 3, 4 use the classical closed formulas (binary quartic
invariants, the Hessian syzygy of a ternary cubic, det(sA + tB)).  For
degree 5 no explicit polynomial formula is feasible (c4 alone has degree
20 in 50 variables); instead the invariants are evaluated through the
covariants of the model: the Pfaffian quadrics, the secant quintic, the
auxiliary quadrics expressing its gradient in the Pfaffians, and a pair
of quintic forms in dual spaces whose contraction lays out 40 c4 lambda
- 320 c6 lambda^3 + 128 c4^2 lambda^5.

Each of the degrees 3, 4, 5 also has an independent determinant formula
for the discriminant alone (6x6, 10x10 and 15x15 coefficient matrices,
equal to +-1728, +-16 and +-32 times Delta); these provide a fast path
and a strong cross-check on the main formulas.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, lcm, prod
from operator import mul
from typing import NamedTuple

from .errors import (DegenerateModelError, InputError, InternalCheckError,
                     SingularModelError)
from .linalg import (_dense_determinant, _pencil_terms, adjugate, determinant, mat_mul,
                     perm_sign, scalar_det, solve_linear)
from .models import (_QUADRICS5, DEG3_RING, DEG4_RING, DEG5_PAIRS, DEG5_RING, DEG5_UNITS,
                     QUADRIC_MONOMIALS_DEG4, Deg1Model, Deg2Model, Deg3Model, Deg4Model,
                     Deg5Model, GenusOneModel, Record, _frame, _symmetric, require_degree)
from .poly import Poly, Scalar, as_scalar, binary_product, monomials, times_variable

V_RING = ("v1", "v2", "v3", "v4", "v5")
PENCIL_RING = ("lam",) + V_RING

# Fixed sign of each determinant-based discriminant (depends only on the
# row/column orderings chosen below; fixed once against the formula path
# and asserted by the test suite on random models).
DISC_MATRIX_FACTOR = {3: 1728, 4: 16, 5: 32}
DISC_MATRIX_SIGN = {3: 1, 4: -1, 5: 1}


class TateQuantities(NamedTuple):
    b2: Scalar
    b4: Scalar
    b6: Scalar
    b8: Scalar


class InvariantTriple(NamedTuple):
    c4: Scalar
    c6: Scalar
    delta: Scalar


def _triple(c4: Scalar, c6: Scalar) -> InvariantTriple:
    delta = (Fraction(c4) ** 3 - Fraction(c6) ** 2) / 1728
    return InvariantTriple(as_scalar(c4), as_scalar(c6), as_scalar(delta))


def _symmetrised(mat) -> list:
    """The coefficients of x^T M x over ``monomials(ring, 2)``, which lists
    the x_t x_u, t <= u, as ``combinations_with_replacement`` does."""
    return [mat[t][u] + mat[u][t] if t != u else mat[t][t]
            for t, u in combinations_with_replacement(range(len(mat)), 2)]


def _quartic_invariants(quartic):
    """The invariants I and J of a binary quartic a, b, c, d, e (the
    coefficients of its monomials from the first variable's 4th power)."""
    a, b, c, d, e = quartic
    return (12 * a * e - 3 * b * d + c * c,
            72 * a * c * e - 27 * a * d * d - 27 * b * b * e + 9 * b * c * d - 2 * c ** 3)


def _omega_indices(r: int, s: int, n: int):
    """Complete the 1-based pair (r, s) to a permutation of 0..n-1 with an
    ascending tail; return the tail and the sign of the permutation."""
    if r == s or not {r, s} <= set(range(1, n + 1)):
        raise InputError(f"omega quadrics need two distinct indices in 1..{n}")
    rest = [k for k in range(n) if k not in (r - 1, s - 1)]
    return rest, perm_sign((r - 1, s - 1, *rest))


def _omega(left, middle, right, sign) -> list:
    """The coefficients of sign * sum_ij P_ij l_i r_j = x^T (sign L^T P R) x,
    l_i and r_j the linear forms in the rows of L and R, P = ``middle``."""
    outer = [[sum(map(mul, col, p_col)) for p_col in zip(*middle)] for col in zip(*left)]
    return _symmetrised([[sign * sum(map(mul, row, col)) for col in zip(*right)] for row in outer])


# ----------------------------------------------------------------------
# degree 1
# ----------------------------------------------------------------------

def tate_quantities(m: Deg1Model) -> TateQuantities:
    require_degree(m, (1,), "tate_quantities")
    a1, a2, a3, a4, a6 = m.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return TateQuantities(b2, b4, b6, b8)


def invariants_deg1(m: Deg1Model) -> InvariantTriple:
    require_degree(m, (1,), "invariants_deg1")
    b2, b4, b6, b8 = tate_quantities(m)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    triple = InvariantTriple(as_scalar(c4), as_scalar(c6), as_scalar(delta))
    if _triple(c4, c6).delta != triple.delta:
        raise InternalCheckError("c4^3 - c6^2 != 1728 Delta for a degree-1 model")
    return triple


# ----------------------------------------------------------------------
# degree 2
# ----------------------------------------------------------------------

def invariants_deg2(m: Deg2Model) -> InvariantTriple:
    require_degree(m, (2,), "invariants_deg2")
    # y^2 + py = q becomes y^2 = q + p^2/4; as I, J have weights 16 and 64,
    # c4 = 16 I, c6 = 32 J of that quartic are I and J/2 of 4q + p^2.
    p, q = m.vectors
    i, j = _quartic_invariants([4 * a + b for a, b in zip(q, binary_product(p, p))])
    return _triple(i, Fraction(j) / 2)


# ----------------------------------------------------------------------
# degree 3
# ----------------------------------------------------------------------

def hessian(cubic: Poly, variables=("x", "y", "z")) -> Poly:
    """Hessian covariant -(1/2) det(d^2 U / dx_i dx_j) of a ternary cubic."""
    return determinant([[cubic.derivative(a).derivative(b) for b in variables]
                        for a in variables]) * Fraction(-1, 2)


# The cubic monomials in x, y, z, alpha! = prod_i alpha_i! for each, and
# the place among them of x_i x_j x_k at [i][j][k], through the tables.
_CUBICS3 = monomials(DEG3_RING, 3)
_CUBIC_WEIGHTS = [prod(map(factorial, e)) for e in _CUBICS3]
_HESSIAN_PLACES = [[[times_variable(3, 2)[k][times_variable(3, 1)[j][i]] for k in range(3)]
                    for j in range(3)] for i in range(3)]


def _hessian_forms(vec) -> list[list[list]]:
    """The Hessian forms of a cubic U over ``_CUBICS3``, as coefficient
    vectors over x, y, z: entry (i, j) is sum_k d^3 U/dx_i dx_j dx_k x_k, and
    d^3 U/dx_i dx_j dx_k is alpha! U[q], q the place of x_i x_j x_k = x^alpha."""
    return [[[_CUBIC_WEIGHTS[q] * vec[q] for q in places] for places in row]
            for row in _HESSIAN_PLACES]


def _deg3_frame(m: Deg3Model, what: str):
    """For ``what``, on degree 3 only: L, the lcm of U's denominators, and over
    ``_CUBICS3`` the integral L U, its Hessian forms and G, their determinant."""
    require_degree(m, (3,), what)
    vec = m.vectors[0]
    scale = lcm(*(c.denominator for c in vec if type(c) is not int))
    u = [int(c * scale) for c in vec]
    hess_u = _hessian_forms(u)
    return scale, u, hess_u, _dense_determinant(hess_u)


def invariants_deg3(m: Deg3Model) -> InvariantTriple:
    """Invariants of a ternary cubic U via the Hessian syzygy, on the
    integral G = det(d^2 U / dx_i dx_j) = -2 H(U).  With nu = -mu/2,
    H(U + mu H) = -G(U + nu G)/2, and the syzygy reads

        G(U + nu G) = (1 - 12 c4 nu^2 + 16 c6 nu^3) G + (12 c4 nu - 48 c6 nu^2 + 48 c4^2 nu^3) U

    It runs on the integral L U (``_deg3_frame``), whose c4 and c6 are
    L^4 and L^6 times those of U.  The Hessian matrix of U + nu G is that
    of U plus nu times that of G, so G(U + nu G) is the determinant of a
    pencil of linear forms in x, y, z: ``linalg._pencil_terms`` takes the
    two Hessians straight to the dense kernel by Kronecker substitution in
    nu.  G = 0 is a pencil with no nu part.  c4 and c6 are read off one
    coefficient where U is nonzero, and both identities are checked on
    every coefficient: the nu part is 12 c4 U, and the nu^2 part plus
    12 c4 G is -48 c6 U.
    """
    scale, u, hess_u, g = _deg3_frame(m, "invariants_deg3")
    if not any(u):
        return InvariantTriple(0, 0, 0)
    expanded = _pencil_terms(hess_u, _hessian_forms(g)) if any(g) else {}
    nu1, nu2 = ([expanded.get((k,) + e, 0) for e in _CUBICS3] for k in (1, 2))
    k = next(i for i, c in enumerate(u) if c)
    # c4 = nu1[k] / 12 u[k]; each identity, times u[k], says that an
    # integer vector is proportional to U, checked by cross-multiplying
    if any(a * u[k] != nu1[k] * c for a, c in zip(nu1, u)):
        raise InternalCheckError("nu coefficient of G(U + nu G) is not 12 c4 U")
    w = [a * u[k] + nu1[k] * b for a, b in zip(nu2, g)]  # -48 c6 u[k] U
    if any(a * u[k] != w[k] * c for a, c in zip(w, u)):
        raise InternalCheckError("nu^2 coefficient of G(U + nu G) is not -12 c4 G - 48 c6 U")
    return _triple(Fraction(nu1[k], 12 * u[k] * scale ** 4),
                   Fraction(w[k], -48 * u[k] ** 2 * scale ** 6))


def discriminant_deg3_matrix(m: Deg3Model) -> Scalar:
    """Determinant of the 6x6 coefficient matrix of the partials of U and H,
    equal to DISC_MATRIX_SIGN[3] * 1728 * Delta for every ternary cubic.

    It runs on the integral L U and G (``_deg3_frame``): the x_i partial
    of a cubic f has coefficient (b_i + 1) f[x_i b] at the quadric b, read
    through ``times_variable``.  Three rows use G = -2H for H, and the
    determinant has weight 12 in U, so the result is divided by -8 L^12."""
    scale, u, _, g = _deg3_frame(m, "discriminant_deg3_matrix")
    rows = [[(b[i] + 1) * f[q] for b, q in zip(monomials(DEG3_RING, 2), tab)]
            for f in (u, g) for i, tab in enumerate(times_variable(3, 2))]
    return as_scalar(Fraction(scalar_det(rows), -8 * scale ** 12))


# ----------------------------------------------------------------------
# degree 4
# ----------------------------------------------------------------------

def _deg4_matrices(m: Deg4Model, what: str) -> list:
    """For ``what``, on degree 4 only: A and B, the Hessians of q1 and q2."""
    require_degree(m, (4,), what)
    return [_symmetric(vec, 4) for vec in m.vectors]


def invariants_deg4(m: Deg4Model) -> InvariantTriple:
    """Invariants of a quadric pair via the binary quartic det(sA + tB), its
    entries a_ij s + b_ij t, as the vectors (a_ij, b_ij), straight into
    ``linalg._dense_determinant``, whose coefficients are the quartic's a..e."""
    mat_a, mat_b = _deg4_matrices(m, "invariants_deg4")
    c4, j = _quartic_invariants(_dense_determinant([list(zip(a, b)) for a, b in zip(mat_a, mat_b)]))
    return _triple(c4, Fraction(j) / 2)


def deg4_auxiliary_quadrics(m: Deg4Model):
    """The quadrics of the symmetric matrices T1, T2 defined by

        adj(s adj A + t adj B) = a^2 A s^3 + a T1 s^2 t + e T2 s t^2 + e^2 B t^3

    where a = det A, e = det B.  For 4x4 matrices adj(adj X) = det(X)^2 X
    gives the s^3 and t^3 terms.  The s^2 t term is the derivative of adj
    at P = adj A in the direction Q = adj B, which for invertible P is
    det(P) (tr(P^-1 Q) P^-1 - P^-1 Q P^-1); with P^-1 = A / a and
    det P = a^3 it is a (tr(A adj B) A - A adj(B) A).  Swapping A and B
    gives the s t^2 term, so

        T1 = tr(A adj B) A - A adj(B) A,   T2 = tr(B adj A) B - B adj(A) B.

    Both sides of the identity are polynomials in A and B that agree where
    a e != 0, so they agree everywhere, degenerate pencils included.
    """
    mat_a, mat_b = _deg4_matrices(m, "deg4_auxiliary_quadrics")

    def mixed(x, y):
        x_adj_y = mat_mul(x, adjugate(y))
        sandwich = mat_mul(x_adj_y, x)
        trace = sum(x_adj_y[i][i] for i in range(4))
        t = [[trace * x[i][j] - sandwich[i][j] for j in range(4)] for i in range(4)]
        # the quadric (1/2) x^T T x of the symmetric T
        return Poly(DEG4_RING, {e: Fraction(c) / 2
                                for e, c in zip(monomials(DEG4_RING, 2), _symmetrised(t))})

    return mixed(mat_a, mat_b), mixed(mat_b, mat_a)


def _deg4_omega(mat_a, mat_b, r: int, s: int) -> list:
    """The coefficients of Omega_{r,s}: row u of mat_a is dq1/dx_u."""
    (u, v), sign = _omega_indices(r, s, 4)
    return _omega([mat_a[u], mat_a[v]], ((0, 1), (-1, 0)), [mat_b[u], mat_b[v]], sign)


def deg4_omega_quadric(m: Deg4Model, r: int, s: int) -> Poly:
    """The quadric Omega_{r,s} (indices 1-based, r != s): complete (r, s)
    to a permutation with ascending tail and form the signed 2x2 minor of
    the gradients of q1, q2 on the remaining variables.  Antisymmetric
    under swapping r and s."""
    omega = _deg4_omega(*_deg4_matrices(m, "deg4_omega_quadric"), r, s)
    return Poly(DEG4_RING, dict(zip(monomials(DEG4_RING, 2), omega)))


def discriminant_deg4_matrix(m: Deg4Model) -> Scalar:
    """Determinant of the 10x10 coefficient matrix of q1, q2, q1', q2' and
    the six quadrics Omega_{r,s}; equal to DISC_MATRIX_SIGN[4] * 16 * Delta."""
    mat_a, mat_b = _deg4_matrices(m, "discriminant_deg4_matrix")
    # deg4_auxiliary_quadrics is called by its module name, which the
    # benchmark's tracer rebinds
    auxiliary = [[q.terms.get(e, 0) for e in QUADRIC_MONOMIALS_DEG4]
                 for q in deg4_auxiliary_quadrics(m)]
    return scalar_det([*m.vectors, *auxiliary]
                      + [_deg4_omega(mat_a, mat_b, r, s) for r, s in combinations(range(1, 5), 2)])


# ----------------------------------------------------------------------
# degree 5
# ----------------------------------------------------------------------

class Deg5Covariants(Record):
    """Intermediate covariants of the degree-5 evaluation algorithm."""

    FIELDS = ("pfaffians", "secant_quintic", "aux_quadrics", "dual_quintic", "pencil_quintic")

    def __init__(self, pfaffians: tuple,  # p1..p5, quadrics in x1..x5
                 secant_quintic: Poly,    # det of the Pfaffian Jacobian; zero on the secant variety
                 aux_quadrics: tuple,     # q1..q5 in v1..v5, with dS/dx_i = q_i(p1..p5)
                 dual_quintic: Poly,      # det(sum_k d^2 p_k/dx_i dx_j v_k), in dual coordinates
                 pencil_quintic: Poly):   # det(lam dq_i/dv_j + sum_k dphi_jk/dx_i v_k)
        self._set((pfaffians, secant_quintic, aux_quadrics, dual_quintic, pencil_quintic))


# The monomials of degree 4 and 5 in x1..x5 (or v1..v5), and the index
# of the product of two quadric monomials, x_t (x_u m) through the tables.
_QUARTICS5 = monomials(DEG5_RING, 4)
_QUINTICS5 = monomials(DEG5_RING, 5)
_PRODUCT_INDEX = [[times_variable(5, 3)[t][b] for b in times_variable(5, 2)[u]]
                  for t, u in combinations_with_replacement(range(5), 2)]
# The exponents of lam v1..lam v5, then of v1..v5, in (lam, v1..v5); and
# alpha! = prod_i alpha_i! for each quintic exponent alpha.
_PENCIL_UNITS = [(1,) + e for e in DEG5_UNITS] + [(0,) + e for e in DEG5_UNITS]
_QUINTIC_WEIGHTS = {e: prod(map(factorial, e)) for e in _QUINTICS5}


def deg5_covariants(model: Deg5Model) -> Deg5Covariants:
    """Build the covariants of the degree-5 evaluation algorithm; raises
    DegenerateModelError when the products p_i p_j are linearly dependent
    (in which case all the invariants vanish).  The quintics are dense
    vectors over ``_QUINTICS5`` until the ``Poly`` fields are built."""
    pf, hess, dphi = _frame(model, "deg5_covariants")

    # row k of the Jacobian holds dp_k/dx_t = sum_u hess[k][t][u] x_u
    secant = _dense_determinant(hess)

    # dS/dx_i is a quadric in the Pfaffians: 70 equations, one per quartic
    # monomial, and 15 unknowns, the k-th the coefficient of the k-th
    # monomial v_i v_j, whose column holds the coefficients of p_i p_j.
    # One elimination solves for every gradient and its rank is the check
    # that the 15 products are independent.
    products = []
    for i, j in combinations_with_replacement(range(5), 2):
        column = [0] * len(_QUARTICS5)
        for index, ca in zip(_PRODUCT_INDEX, pf[i]):
            if ca:
                for b, cb in zip(index, pf[j]):
                    if cb:
                        column[b] += ca * cb
        products.append(column)
    # the x_i gradient at quartic b is (e_i(b) + 1) times the secant's
    # coefficient at x_i b, the quintic times_variable places
    gradients = [[(b[i] + 1) * secant[q] for b, q in zip(_QUARTICS5, tab)]
                 for i, tab in enumerate(times_variable(5, 4))]
    rank, solutions = solve_linear(list(zip(*products)), gradients)
    if rank != 15:
        raise DegenerateModelError("the quartics p_i p_j are linearly dependent")
    for xi, sol in zip(DEG5_RING, solutions):
        if sol is None:
            raise InternalCheckError(f"no quadric expresses dS/d{xi} in the Pfaffians")

    # entry (i, j) is sum_k d^2 p_k/dx_i dx_j v_k
    dual = _dense_determinant([list(zip(*(h[i] for h in hess))) for i in range(5)])

    # entry (i, j) is lam dq_i/dv_j + sum_k dphi_jk/dx_i v_k
    aux_hess = [_symmetric(sol, 5) for sol in solutions]
    pencil_quintic = determinant(
        [[Poly.from_vector(PENCIL_RING, _PENCIL_UNITS, aux_hess[i][j] + dphi[i][j])
          for j in range(5)] for i in range(5)])

    return Deg5Covariants(tuple(Poly.from_vector(DEG5_RING, _QUADRICS5, vec) for vec in pf),
                          Poly.from_vector(DEG5_RING, _QUINTICS5, secant),
                          tuple(Poly.from_vector(V_RING, _QUADRICS5, sol) for sol in solutions),
                          Poly.from_vector(V_RING, _QUINTICS5, dual), pencil_quintic)


def contract_quintics(dual_quintic: Poly, pencil_quintic: Poly) -> dict:
    """Pair a quintic in dual coordinates against one in the v_i, per power
    of lam: <v*^alpha, v^beta> = alpha! delta_{alpha beta}.  Returns
    {lam power: scalar}, zero entries omitted."""
    dual = dual_quintic.terms
    out: dict[int, Scalar] = {}
    for exps, coeff in pencil_quintic.terms.items():
        alpha = exps[1:]
        dual_coeff = dual.get(alpha)
        if dual_coeff:
            k = exps[0]
            out[k] = out.get(k, 0) + coeff * dual_coeff * _QUINTIC_WEIGHTS[alpha]
    return {k: as_scalar(v) for k, v in out.items() if v}


def invariants_deg5(m: Deg5Model) -> InvariantTriple:
    """Evaluate c4, c6, Delta of a 5x5 alternating matrix of linear forms.

    Degenerate models failing the linear-independence check have all
    invariants zero.  Internal consistency of the contraction (only odd
    powers of lam, and the lam^5 coefficient giving exactly c4^2) is
    asserted; a failure indicates a bug, not bad input.
    """
    require_degree(m, (5,), "invariants_deg5")
    try:
        cov = deg5_covariants(m)
    except DegenerateModelError:
        return InvariantTriple(0, 0, 0)
    pairing = contract_quintics(cov.dual_quintic, cov.pencil_quintic)
    if any(k % 2 == 0 for k in pairing):
        raise InternalCheckError("even powers of lam survive the quintic contraction")
    c4 = as_scalar(Fraction(pairing.get(1, 0)) / 40)
    c6 = as_scalar(Fraction(pairing.get(3, 0)) / -320)
    c8 = as_scalar(Fraction(pairing.get(5, 0)) / 128)
    if c8 != c4 * c4:
        raise InternalCheckError("the lam^5 coefficient of the contraction is not 128 c4^2")
    return _triple(c4, c6)


def _deg5_omega(frame, r: int, s: int) -> list:
    """The coefficients of Omega_{r,s} from ``models._frame``: hess[i][t] is dp_i/dx_t."""
    (t3, t4, t5), sign = _omega_indices(r, s, 5)
    _, hess, dphi = frame
    return _omega([h[t3] for h in hess], dphi[t4], [h[t5] for h in hess], sign)


def deg5_omega_quadric(m: Deg5Model, r: int, s: int) -> Poly:
    """The quadric Omega_{r,s} (indices 1-based, r != s): complete (r, s)
    to a permutation with ascending tail (t3, t4, t5) and form

        sign(perm) * sum_{i,j} dp_i/dx_t3 * dphi_ij/dx_t4 * dp_j/dx_t5.

    Antisymmetric under swapping r and s, and only well defined modulo
    the span of the Pfaffians."""
    omega = _deg5_omega(_frame(m, "deg5_omega_quadric"), r, s)
    return Poly(DEG5_RING, dict(zip(_QUADRICS5, omega)))


def discriminant_deg5_matrix(m: Deg5Model) -> Scalar:
    """Determinant of the 15x15 coefficient matrix of p1..p5 and the ten
    quadrics Omega_{r,s}; equal to DISC_MATRIX_SIGN[5] * 32 * Delta.

    Omega_{r,s} is only defined modulo the span of the Pfaffians, but the
    determinant is insensitive to that since the p-rows span that space.
    """
    frame = _frame(m, "discriminant_deg5_matrix")
    return scalar_det(frame[0] + [_deg5_omega(frame, r, s)
                                  for r, s in combinations(range(1, 6), 2)])


# ----------------------------------------------------------------------
# dispatch and derived quantities
# ----------------------------------------------------------------------

def invariants(m: GenusOneModel) -> InvariantTriple:
    """c4, c6, Delta of a model of any degree."""
    n = require_degree(m, (1, 2, 3, 4, 5), "invariants")
    # built per call from this module's names, which the benchmark's tracer rebinds
    return (invariants_deg1, invariants_deg2, invariants_deg3, invariants_deg4,
            invariants_deg5)[n - 1](m)


def matrix_discriminant(m: GenusOneModel) -> Scalar:
    """Delta of a model of degree 3, 4 or 5 by its determinant, chosen as in ``invariants``."""
    n = require_degree(m, (3, 4, 5), "matrix_discriminant")
    det = (discriminant_deg3_matrix, discriminant_deg4_matrix, discriminant_deg5_matrix)[n - 3](m)
    return as_scalar(Fraction(det) / (DISC_MATRIX_SIGN[n] * DISC_MATRIX_FACTOR[n]))


def jacobian(m: GenusOneModel) -> Deg1Model:
    """The Jacobian elliptic curve y^2 = x^3 - 27 c4 x - 54 c6."""
    c4, c6, delta = invariants(m)
    if delta == 0:
        raise SingularModelError("a singular model has no Jacobian")
    return Deg1Model(0, 0, 0, -27 * c4, -54 * c6)


def j_invariant(m: GenusOneModel) -> Scalar:
    """j = c4^3 / Delta (requires Delta != 0)."""
    c4, _, delta = invariants(m)
    if delta == 0:
        raise SingularModelError("the j-invariant needs Delta != 0")
    return as_scalar(Fraction(c4) ** 3 / Fraction(delta))


# ----------------------------------------------------------------------
# the weight-1 invariant in characteristic 2
# ----------------------------------------------------------------------

# Left coset representatives of the dihedral group D5 = <(12345), (25)(34)>
# in S5, one per undirected 5-cycle through 1: the cycle read from 1 in the
# direction whose second vertex is below its last.  Each is the
# lexicographically least permutation of its coset.
D5_COSET_REPS = tuple((1,) + p for p in permutations((2, 3, 4, 5)) if p[0] < p[-1])


def a1_char2(m: GenusOneModel) -> int:
    """The weight-1 invariant of an integer model reduced mod 2.

    This is the reduction of the Weierstrass coefficient a1: the xz
    coefficient of p (degree 2), the xyz coefficient of the cubic
    (degree 3), the six-term pairing of off-diagonal coefficients
    (degree 4), or the x1..x5 coefficient of a sum of entry products over
    coset representatives of the dihedral group (degree 5).

    The x1..x5 coefficient of a product of five linear forms is the
    permanent of their coefficient vectors, which equals their determinant
    mod 2, as do the signs of phi_ji = -phi_ij: so degree 5 sums the
    ``scalar_det`` of the upper-triangle vectors of each product.
    """
    require_degree(m, (2, 3, 4, 5), "a1_char2")
    if not all(isinstance(c, int) for vec in m.vectors for c in vec):
        raise InputError(f"degree-{m.degree} model must have integer coefficients")
    if m.degree == 2:
        return m.vectors[0][1] % 2
    if m.degree == 3:
        return m.coefficients()[9] % 2
    if m.degree == 4:
        # off-diagonal entries of the symmetric matrices are the xi xj coefficients
        a, b = _deg4_matrices(m, "a1_char2")
        total = 0
        for i, j in combinations(range(4), 2):
            k, l = (x for x in range(4) if x not in (i, j))
            total += a[i][j] * b[k][l]
        return total % 2
    upper = dict(zip(DEG5_PAIRS, m.vectors))
    return sum(scalar_det([upper[min(i, j) - 1, max(i, j) - 1] for i, j in zip(s, s[1:] + s[:1])])
               for s in D5_COSET_REPS) % 2
