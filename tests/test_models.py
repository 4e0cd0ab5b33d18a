"""Model types, defining equations, Weierstrass family and file format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from genus1 import (Deg1Model, Deg1Transform, Deg2Model, Deg3Model, Deg3Transform,
                    Deg4Model, Deg5Model, InputError, Poly, a1_char2, apply, compose,
                    deg5_covariants, det_character, determinant, dumps_model,
                    equations, gamma, generators, identity_transform, invariants,
                    loads_model, matrix_discriminant, model_from_dict,
                    model_to_dict, project_from_point, transformation_to_dict,
                    weierstrass_model)
from genus1.models import DEG3_RING, DEG4_RING, DEG5_RING, MODEL_CLASSES

from helpers import (STRING_COEFFICIENTS, WUTHRICH_QUADRIC_COEFFS,
                     deg5_models, fraction_moved_wuthrich, random_model,
                     random_transformation, wuthrich_model)

X1, X2 = generators(DEG5_RING)[:2]
ZERO5 = Poly.zero(DEG5_RING)


class TestEquations:
    def test_degree1_weierstrass_polynomial(self):
        m = Deg1Model(1, 2, 3, 4, 6)
        x, y, z = generators(("x", "y", "z"))
        expected = (y * y * z + x * y * z + 3 * y * z * z
                    - x ** 3 - 2 * x * x * z - 4 * x * z * z - 6 * z ** 3)
        assert equations(m) == [expected]

    def test_degree2_curve_equation(self):
        m = Deg2Model.from_coefficients([0, 1, 0], [1, 0, 0, 0, 1])
        eq, = equations(m)
        # y^2 + xz y - x^4 - z^4 in the ring (x, z, y)
        assert eq.coefficient((0, 0, 2)) == 1
        assert eq.coefficient((1, 1, 1)) == 1
        assert eq.coefficient((4, 0, 0)) == -1

    def test_degree5_zero_matrix(self):
        zero = Poly.zero(DEG5_RING)
        m = Deg5Model((zero,) * 10)
        assert equations(m) == [zero] * 5

    def test_degree5_weierstrass_pfaffians(self):
        # hand expansion of the family matrix at a1=..=a6=0: deleting the
        # first row/column leaves the Pfaffian x1 x4 - x2^2
        m = weierstrass_model(Deg1Model(0, 0, 0, 0, 0), 5)
        x1, x2, x3, x4, x5 = generators(DEG5_RING)
        pf = equations(m)
        assert pf[0] == x1 * x4 - x2 * x2
        assert pf[1] == x2 * x3 - x1 * x5
        assert pf[2] == x3 * x3 - x2 * x4
        assert pf[3] == x2 * x5 - x3 * x4
        assert pf[4] == x4 * x4 - x3 * x5

    def test_degree4_identity_extraction(self):
        x1, x2, x3, x4 = generators(DEG4_RING)
        m = Deg4Model(x1 * x4 - x2 * x2, x3 * x3 - x2 * x4)
        assert equations(m) == [m.q1, m.q2]


class TestPfaffians:
    """The Pfaffians read off the upper triangle, against the full matrix."""

    def test_single_product(self):
        # phi_12 = x1 and phi_34 = x2: only p_5 = phi_12 phi_34 survives
        upper = [ZERO5] * 10
        upper[0], upper[7] = X1, X2
        assert Deg5Model(tuple(upper)).pfaffians() == [ZERO5] * 4 + [X1 * X2]

    def test_zero_matrix(self):
        assert Deg5Model((ZERO5,) * 10).pfaffians() == [ZERO5] * 5

    def test_alternating_sum(self):
        # every 4x4 Pfaffian is x1^2 - x1^2 + x1^2, signed (-1)^(i+1)
        p = Deg5Model((X1,) * 10).pfaffians()
        assert p == [X1 * X1, -X1 * X1, X1 * X1, -X1 * X1, X1 * X1]

    def test_rejects_non_alternating(self):
        # every entry x1; a nonzero diagonal entry, a pair with phi_ji !=
        # -phi_ij, and 4x5 and 5x4 shapes of an alternating matrix
        rows = wuthrich_model().matrix()
        diagonal = [list(row) for row in rows]
        diagonal[2][2] = X2
        asymmetric = [list(row) for row in rows]
        asymmetric[3][1] = rows[1][3] + X1
        for bad in ([[X1] * 5 for _ in range(5)], diagonal, asymmetric, rows[:4],
                    [row[:4] for row in rows]):
            with pytest.raises(InputError, match="^degree-5 model matrix must be 5x5 and alternating$"):
                Deg5Model.from_matrix(bad)

    @settings(deadline=None, max_examples=30)
    @given(deg5_models())
    def test_matrix_kills_pfaffians(self, m):
        rows, p = m.matrix(), m.pfaffians()
        assert Deg5Model.from_matrix(rows) == m
        for row in rows:
            assert sum((a * b for a, b in zip(row, p)), ZERO5) == 0

    @settings(deadline=None, max_examples=30)
    @given(deg5_models())
    def test_square_is_principal_minor(self, m):
        rows, p = m.matrix(), m.pfaffians()
        for i in range(5):
            keep = [k for k in range(5) if k != i]
            assert p[i] ** 2 == determinant([[rows[r][c] for c in keep] for r in keep])

    def test_no_integral_fraction(self):
        # Poly products of Fraction entries left 16 coefficients such as
        # Fraction(8, 1) in the Pfaffians of this model
        m = fraction_moved_wuthrich()
        for pfaffians in (m.pfaffians(), deg5_covariants(m).pfaffians):
            coeffs = [c for p in pfaffians for c in p.terms.values()]
            assert any(type(c) is Fraction for c in coeffs)
            assert [c for c in coeffs if type(c) is Fraction and c.denominator == 1] == []


@pytest.mark.parametrize("call", [
    invariants, matrix_discriminant, a1_char2,
    lambda m: project_from_point(m, (0, 0, 0, 0, 1)),
    lambda m: apply(identity_transform(5), m),
], ids=["invariants", "matrix_discriminant", "a1_char2", "project_from_point", "apply"])
def test_a_non_model_is_input_error(call):
    # the one degree check names the type of a value that is no model;
    # apply raised AttributeError on a string
    for value in ("x", None, 5, identity_transform(5), ZERO5):
        with pytest.raises(InputError, match=rf"takes models of degree [1-5, ]+, "
                                             rf"not a {type(value).__name__}$"):
            call(value)


@pytest.mark.parametrize("call, name, kind", [
    (equations, "equations", "model"),
    (model_to_dict, "model_to_dict", "model"),
    (dumps_model, "model_to_dict", "model"),
    (det_character, "det_character", "transformation"),
    (lambda g: compose(g, "y"), "compose", "transformation"),
    (lambda g: apply(g, wuthrich_model()), "apply", "transformation"),
    (transformation_to_dict, "transformation_to_dict", "transformation"),
], ids=["equations", "model_to_dict", "dumps_model", "det_character", "compose", "apply",
        "transformation_to_dict"])
def test_a_non_model_or_transformation_is_input_error(call, name, kind):
    # each raised AttributeError on a string; the models go through
    # require_degree, the transformations through require_transformation
    with pytest.raises(InputError, match=rf"^{name} takes {kind}s of degree 1, 2, 3, 4, 5, "
                                         rf"not a str$"):
        call("x")


@pytest.mark.parametrize("call, message", [
    (lambda: Deg2Model(1, 2), r"^p must be a polynomial in the ring \('x', 'z'\)$"),
    (lambda: Deg3Model(5), r"^cubic must be a polynomial in the ring \('x', 'y', 'z'\)$"),
    (lambda: Deg4Model(1, 2), r"^q1 must be a polynomial in the ring \('x1', "),
    (lambda: Deg4Model(Poly.zero(DEG4_RING), Poly.zero(DEG3_RING)), r"^q2 must be a polyno"),
    (lambda: Deg5Model((1,) * 10), r"^matrix entry must be a polynomial in the ring \('x1', "),
    (lambda: Deg5Model.from_matrix([[0] * 5] * 5), r"^matrix entry must be a polynomial in "),
    (lambda: Deg5Model(5), r"^the upper triangle must be a list, not int$"),
    (lambda: project_from_point(wuthrich_model(), None), r"^the point must have 5 "),
    (lambda: project_from_point(wuthrich_model(), [[0]] * 5), r"^the point must have 5 "),
    (lambda: Deg2Model.from_coefficients(5, 5), r"^coefficients must be a list, not int$"),
    (lambda: Deg3Model.from_coefficients(None), r"^coefficients must be a list, not NoneType$"),
    (lambda: Deg4Model.from_coefficients(None, [0] * 10), r"^coefficients must be a list, not "),
    (lambda: Deg5Model.from_coefficients([5] * 10), r"^coefficients must be a list, not int$"),
    (lambda: Deg5Model.from_matrix(5), r"^the matrix must be a list, not int$"),
    (lambda: Deg5Model.from_matrix([5] * 5), r"^a matrix row must be a list, not int$"),
    (lambda: Deg5Model.from_matrix([[0, "a", 0, 0, 0]] + [[0] * 5] * 4),
     r"^matrix entry must be a polynomial"),
    (lambda: Deg1Model(0, 0.5, 0, 0, 0), r"^not an exact scalar: 0\.5$"),
    (lambda: Deg3Model.from_coefficients([0.5] + [0] * 9), r"^not an exact scalar: 0\.5$"),
    (lambda: Deg3Transform(0.5, identity_transform(3).B), r"^not an exact scalar: 0\.5$"),
    (lambda: Deg1Model(0, "a", 0, 0, 0), r"^not an exact number n or n/d: 'a'$"),
    (lambda: Deg1Transform("x", 0, 0, 0), r"^not an exact number n or n/d: 'x'$"),
], ids=["deg2", "deg3", "deg4", "deg4-ring", "deg5", "from_matrix", "deg5-int", "point-none",
        "point-lists", "deg2-not-a-list", "deg3-not-a-list", "deg4-not-a-list",
        "deg5-entry-not-a-list", "from_matrix-not-a-list", "from_matrix-row-not-a-list",
        "from_matrix-string-entry", "deg1-float", "deg3-float-coefficient",
        "deg3-transform-float", "deg1-string", "deg1-transform-string"])
def test_a_bad_model_argument_is_input_error(call, message):
    # each raised AttributeError, TypeError or ValueError: the constructors
    # and the classmethods check their arguments once (from_coefficients and
    # from_matrix as the file format does, from_matrix each entry before
    # the alternation that negates it), a scalar that is not exact is
    # as_scalar's message, and a point that is not 5 exact scalars is a bad
    # point
    with pytest.raises(InputError, match=message):
        call()


def test_the_point_is_a_list_or_tuple():
    # "00001" gave the projection from (0:0:0:0:1), read from the string's
    # characters, and a dict gave the point of its keys; the file format
    # refuses both (json_list)
    m = weierstrass_model(Deg1Model(0, 0, 0, -1, 1), 5)
    for point in ("00001", dict.fromkeys(["0", "00", "000", "0000", "1"])):
        with pytest.raises(InputError, match=r"^the point must have 5 homogeneous coordinates"):
            project_from_point(m, point)
    projected = project_from_point(m, [0, 0, 0, 0, 1])
    assert project_from_point(m, (0, 0, 0, 0, 1)) == projected
    assert invariants(projected) == (48, -864, -368)


@pytest.mark.parametrize("degree", [2.0, True, 1, 6])
def test_weierstrass_and_gamma_take_a_plain_int_degree(degree):
    # 2.0 gave a degree-2 model and 3.0 a degree-3 transformation; the one
    # degree check, class_for_degree, refuses a bool or float
    with pytest.raises(InputError, match=rf"^unsupported Weierstrass model degree: "
                                         rf"{degree!r} \(expected 2, 3, 4, 5\)$"):
        weierstrass_model(Deg1Model(0, 0, 0, -1, 0), degree)
    with pytest.raises(InputError, match=rf"^unsupported gamma target degree: "
                                         rf"{degree!r} \(expected 2, 3, 4, 5\)$"):
        gamma(Deg1Transform(2, 1, 0, 0), degree)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_weierstrass_classmethods_take_what_deg1model_takes(degree):
    # degrees 4 and 5 negated a string coefficient (TypeError); each
    # classmethod normalises its five arguments through Deg1Model
    cls = MODEL_CLASSES[degree]
    assert cls.weierstrass(0, "2", 0, 0, 0) == weierstrass_model(Deg1Model(0, 2, 0, 0, 0), degree)
    with pytest.raises(ValueError, match=r"^not an exact number n or n/d: 'a'$"):
        cls.weierstrass(0, "a", 0, 0, 0)


def test_models_store_normalised_vectors():
    # one stored tuple per model: the same model from Poly values (one with
    # an integral Fraction left by Poly addition) and from coefficients
    x, y, z = generators(DEG3_RING)
    half = Fraction(1, 2) * x ** 3
    cubic = Deg3Model(half + half + 3 * x * y * z)
    same = Deg3Model.from_coefficients([1, 0, 0, 0, 0, 0, 0, 0, 0, 3])
    assert cubic == same and hash(cubic) == hash(same)
    assert type(cubic.coefficients()[0]) is int
    assert cubic.cubic == x ** 3 + 3 * x * y * z
    assert repr(cubic) == "Deg3Model(vectors=((1, 0, 0, 0, 3, 0, 0, 0, 0, 0),))"
    m2, m4, m5 = (random_model(random.Random(degree), degree) for degree in (2, 4, 5))
    assert Deg2Model(m2.p, m2.q) == m2
    assert Deg4Model(m4.q1, m4.q2) == m4
    assert Deg5Model(m5.upper) == m5


def dense_model(rng, degree):
    """A model of degree 1 to 4 with no zero coefficient, some of them Fractions."""
    pick = lambda n: [rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
                      for _ in range(n)]
    if degree == 1:
        return Deg1Model(*pick(5))
    if degree == 2:
        return Deg2Model.from_coefficients(pick(3), pick(5))
    if degree == 3:
        return Deg3Model.from_coefficients(pick(10))
    return Deg4Model.from_coefficients(pick(10), pick(10))


POLY_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__neg__", "__pow__", "__truediv__")


def refuse(*args):
    raise AssertionError("Poly arithmetic")


# x^3 (G = 0), xyz and x^3 + y^3 + z^3 (sparse Hessians) and the three
# lines x^3 + y^3 + z^3 - 3xyz, in the JSON order of Deg3Model.MONOMIALS,
# with their (c4, c6, Delta)
EDGE_CUBICS = [([1] + [0] * 9, (0, 0, 0)), ([0] * 9 + [1], (1, -1, 0)),
               ([1, 1, 1] + [0] * 7, (0, 5832, -19683)),
               ([1, 1, 1] + [0] * 6 + [-3], (729, 19683, 0))]


def test_degrees_1_to_4_run_without_poly_arithmetic(monkeypatch):
    # models store coefficient vectors: the invariants, the actions and the
    # file format of degrees 1-4 run on them, and Poly is only a view; the
    # edge cubics' pencils G(U + nu G) take the dense kernel too
    for name in POLY_OPERATORS:
        monkeypatch.setattr(Poly, name, refuse)
    rng = random.Random(21)
    for degree in (1, 2, 3, 4):
        for _ in range(4):
            m = dense_model(rng, degree)
            g1, g2 = random_transformation(rng, degree), random_transformation(rng, degree)
            triple = invariants(m)
            if degree > 2:
                assert matrix_discriminant(m) == triple.delta
            assert apply(compose(g1, g2), m) == apply(g1, apply(g2, m))
            assert loads_model(dumps_model(m)) == m
    w = Deg1Model(1, -1, 0, -2, 3)
    for n in (2, 3, 4):
        assert invariants(weierstrass_model(w, n)) == invariants(w)
    for coeffs, triple in EDGE_CUBICS:
        m = Deg3Model.from_coefficients(coeffs)
        assert invariants(m) == triple and matrix_discriminant(m) == triple[2]


def test_degree_5_runs_without_poly_arithmetic(monkeypatch):
    # Deg5Model._frame reads the Pfaffians once, as vectors and Hessians:
    # the Weierstrass model, projection, a1_char2 and the invariants run on
    # those, with the Pfaffians given and no other Poly arithmetic
    w, point = Deg1Model(0, 0, 0, -1, 1), (1, 1, 1, 1, 1)  # (x, y) = (1, 1)
    quintics = [weierstrass_model(w, 5), wuthrich_model(), random_model(random.Random(22), 5)]

    def run():
        m = weierstrass_model(w, 5)
        return m, project_from_point(m, point), [
            (invariants(q), matrix_discriminant(q), a1_char2(q)) for q in quintics]

    expected = run()
    saved = {q: q.pfaffians() for q in quintics}
    monkeypatch.setattr(Deg5Model, "pfaffians", lambda self: saved[self])
    for name in POLY_OPERATORS + ("evaluate", "derivative", "lift"):
        monkeypatch.setattr(Poly, name, refuse)
    assert run() == expected


class TestWeierstrassFamily:
    def test_pi2(self):
        m = weierstrass_model(Deg1Model(0, 0, 0, "2", "3"), 2)
        p, q = m.coefficients()
        assert p == (0, 0, 0)
        assert q == (0, 1, 0, 2, 3)

    def test_pi4(self):
        m = weierstrass_model(Deg1Model(0, 0, 0, 0, 0), 4)
        x1, x2, x3, x4 = generators(DEG4_RING)
        assert m.q1 == x1 * x4 - x2 * x2
        assert m.q2 == x3 * x3 - x2 * x4

    def test_pi5_linear_form(self):
        m = weierstrass_model(Deg1Model(1, 0, 0, 0, 0), 5)
        x5 = Poly.variable(DEG5_RING, "x5")
        assert m.upper[0] == x5  # the (1,2) entry is a1 x5 when only a1 != 0

    def test_pi5_general_linear_form(self):
        m = weierstrass_model(Deg1Model(1, 2, 3, 4, 6), 5)
        x1, x2, x3, x4, x5 = generators(DEG5_RING)
        assert m.upper[0] == x5 - 2 * x4 + 3 * x3 - 4 * x2 - 6 * x1

    def test_bad_degree(self):
        with pytest.raises(InputError):
            weierstrass_model(Deg1Model(0, 0, 0, 0, 0), 6)


class TestValidation:
    def test_inhomogeneous_cubic_rejected(self):
        x, y, z = generators(DEG3_RING)
        with pytest.raises(InputError):
            Deg3Model(x * x + y)

    def test_non_alternating_matrix_rejected(self):
        one = Poly.constant(DEG5_RING, 1)
        x1 = Poly.variable(DEG5_RING, "x1")
        rows = [[x1 * 0] * 5 for _ in range(5)]
        rows[0][1] = x1
        rows[1][0] = x1  # should be -x1
        with pytest.raises(InputError):
            Deg5Model.from_matrix(rows)

    def test_upper_triangle_round_trip(self):
        m = wuthrich_model()
        assert Deg5Model.from_matrix(m.matrix()) == m

    def test_wrong_coefficient_counts(self):
        with pytest.raises(InputError):
            Deg3Model.from_coefficients([1, 2, 3])
        with pytest.raises(InputError):
            Deg2Model.from_coefficients([1, 2], [0, 0, 0, 0, 0])


class TestWuthrichTranscription:
    def test_pfaffians_match_published_quadrics(self):
        # the matrix was built so its Pfaffians span the published
        # quadrics; each comes out as -8 times the published one
        pf = wuthrich_model().pfaffians()
        for i, name in enumerate(("p1", "p2")):
            expected = Poly(DEG5_RING, WUTHRICH_QUADRIC_COEFFS[name])
            assert pf[i] == -8 * expected


class TestModelFiles:
    def test_round_trip_all_degrees(self):
        rng = random.Random(5)
        for degree in (1, 2, 3, 4, 5):
            for _ in range(3):
                m = random_model(rng, degree)
                assert loads_model(dumps_model(m)) == m

    def test_scalar_strings(self):
        m = Deg1Model("1/2", "-3", 0, "7/4", 2)
        text = dumps_model(m)
        assert '"1/2"' in text
        assert loads_model(text) == m

    def test_degree5_dict_shape(self):
        data = model_to_dict(wuthrich_model())
        assert data["degree"] == 5
        assert len(data["coefficients"]["matrix"]) == 10
        assert data["coefficients"]["matrix"][0] == ["310", "3", "0", "0", "162"]

    def test_malformed_inputs(self):
        with pytest.raises(InputError):
            loads_model("not json")
        with pytest.raises(InputError):
            model_from_dict({"degree": 7, "coefficients": []})
        with pytest.raises(InputError):
            model_from_dict({"degree": 1, "coefficients": ["1", "2"]})
        with pytest.raises(InputError):
            model_from_dict({"degree": 5, "coefficients": {"matrix": [[1] * 5] * 9}})
        for degree in (True, 1.0, "1"):
            with pytest.raises(InputError):
                model_from_dict({"degree": degree, "coefficients": ["1", "2", "3", "4", "5"]})
        with pytest.raises(InputError):
            model_from_dict({"degree": 1, "coefficients": ["1", "2", "3", "4", "1/0"]})
        # a JSON integer past the int/str digit limit, and nesting past the
        # decoder's recursion limit
        with pytest.raises(InputError):
            loads_model('{"degree": 1, "coefficients": [0, 0, 0, 1%s, 0]}' % ("0" * 4400))
        with pytest.raises(InputError):
            loads_model("[" * 100000)
        # a string where a coefficient list belongs is not split into characters
        for degree, coefficients in STRING_COEFFICIENTS:
            with pytest.raises(InputError):
                model_from_dict({"degree": degree, "coefficients": coefficients})
