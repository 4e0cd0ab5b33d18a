"""Genus one models of degree 1 to 5 and their defining equations.

A genus one model is the coefficient data cutting out a genus one curve:

* degree 1 -- a Weierstrass equation (a1, a2, a3, a4, a6),
* degree 2 -- a pair (p, q) of binary forms of degree 2 and 4 in x, z,
  for the curve y^2 + p(x,z) y = q(x,z)  (the cross terms p are kept so
  that nothing breaks in characteristic 2),
* degree 3 -- a ternary cubic in x, y, z,
* degree 4 -- a pair of quadrics in x1..x4,
* degree 5 -- a 5x5 alternating matrix of linear forms in x1..x5, whose
  4x4 Pfaffians cut out the curve.

Degree-5 models are stored by their upper triangle only (positions
``DEG5_PAIRS``); alternation is structural, not data.  The Pfaffians and
the degree-5 group action read the ten entries directly; ``matrix`` and
``from_matrix`` convert to and from the full matrix, and only
``from_matrix``, which takes outside input, checks alternation.  All model
classes are frozen dataclasses; the polynomial rings are the fixed
module-level tuples below.

This module also provides the Weierstrass-family embeddings pi_n sending
a degree-1 model to an equivalent model of degree n = 2..5, projection of
a degree-5 model away from a rational point (down to degree 4), and the
JSON file format the CLI reads and writes.

Per-degree behaviour lives on the model classes (``equations``,
``to_json`` / ``from_json`` and, for n = 2..5, ``weierstrass``); the
module-level functions dispatch on the model or through ``MODEL_CLASSES``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import mul
from typing import Sequence, get_args

from .errors import DegenerateModelError, InputError
from .linalg import is_alternating, kernel_basis, pivot_columns, scalar_rank
from .poly import (Poly, Scalar, as_scalar, format_scalar, generators, monomials,
                   substituted_coefficients)

DEG1_RING = ("x", "y", "z")
DEG2_RING = ("x", "z")
DEG2_CURVE_RING = ("x", "z", "y")
DEG3_RING = ("x", "y", "z")
DEG4_RING = ("x1", "x2", "x3", "x4")
DEG5_RING = ("x1", "x2", "x3", "x4", "x5")

# Upper-triangle positions of a 5x5 alternating matrix, row-major.
DEG5_PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)]

# The exponents of x1..x5 alone: the coefficient order of a linear form.
DEG5_UNITS = monomials(DEG5_RING, 1)

QUADRIC_MONOMIALS_DEG4 = monomials(DEG4_RING, 2)


def json_scalars(values):
    """Nested tuples of scalars as nested lists of strings, for JSON files."""
    if isinstance(values, tuple):
        return [json_scalars(v) for v in values]
    return format_scalar(values)


def json_list(value, what: str = "coefficients"):
    """A list or tuple, such as a JSON array from a file; a string there is
    not a sequence of one-character scalars, nor is a JSON object a
    sequence of its keys."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _check_form(p: Poly, ring, degree: int, what: str) -> Poly:
    """``p`` checked as a form; integral Fractions (kept by Poly arithmetic) become ints."""
    if p.variables != ring:
        raise InputError(f"{what} must live in the ring {ring}")
    if not p.is_homogeneous(degree) and p:
        raise InputError(f"{what} must be homogeneous of degree {degree} (or zero)")
    return Poly._make(ring, {e: as_scalar(c) for e, c in p.terms.items()})


@dataclass(frozen=True)
class Deg1Model:
    """Weierstrass equation y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: Scalar
    a2: Scalar
    a3: Scalar
    a4: Scalar
    a6: Scalar

    degree = 1

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def equation(self) -> Poly:
        """y^2 z + a1 xyz + a3 y z^2 - x^3 - a2 x^2 z - a4 x z^2 - a6 z^3."""
        a1, a2, a3, a4, a6 = self.coefficients()
        return Poly(DEG1_RING, {(0, 2, 1): 1, (1, 1, 1): a1, (0, 1, 2): a3, (3, 0, 0): -1,
                                (2, 0, 1): -a2, (1, 0, 2): -a4, (0, 0, 3): -a6})

    def equations(self) -> list[Poly]:
        return [self.equation()]

    def to_json(self):
        return json_scalars(self.coefficients())

    @classmethod
    def from_json(cls, coeffs) -> "Deg1Model":
        return cls(*json_list(coeffs))


@dataclass(frozen=True)
class Deg2Model:
    """Generalised binary quartic: y^2 + p(x,z) y = q(x,z)."""

    p: Poly
    q: Poly

    degree = 2

    def __post_init__(self):
        object.__setattr__(self, "p", _check_form(self.p, DEG2_RING, 2, "p"))
        object.__setattr__(self, "q", _check_form(self.q, DEG2_RING, 4, "q"))

    @classmethod
    def from_coefficients(cls, p_coeffs: Sequence, q_coeffs: Sequence) -> "Deg2Model":
        """p as [alpha0, alpha1, alpha2] on x^2, xz, z^2; q as [a..e] on x^4..z^4."""
        if len(p_coeffs) != 3 or len(q_coeffs) != 5:
            raise InputError("degree-2 model needs 3 coefficients for p and 5 for q")
        p = Poly(DEG2_RING, {(2 - i, i): c for i, c in enumerate(p_coeffs)})
        q = Poly(DEG2_RING, {(4 - i, i): c for i, c in enumerate(q_coeffs)})
        return cls(p, q)

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg2Model":
        return cls.from_coefficients((0, a1, a3), (0, 1, a2, a4, a6))

    def coefficients(self):
        p = tuple(self.p.coefficient((2 - i, i)) for i in range(3))
        q = tuple(self.q.coefficient((4 - i, i)) for i in range(5))
        return p, q

    def equations(self) -> list[Poly]:
        """The full curve equation y^2 + p y - q in the ring (x, z, y)."""
        y = Poly.variable(DEG2_CURVE_RING, "y")
        p = self.p.lift(DEG2_CURVE_RING)
        q = self.q.lift(DEG2_CURVE_RING)
        return [y * y + p * y - q]

    def to_json(self):
        return dict(zip(("p", "q"), json_scalars(self.coefficients())))

    @classmethod
    def from_json(cls, coeffs) -> "Deg2Model":
        check_keys(coeffs, ("p", "q"), "degree-2 coefficients")
        return cls.from_coefficients(json_list(coeffs["p"]), json_list(coeffs["q"]))


@dataclass(frozen=True)
class Deg3Model:
    """Ternary cubic in x, y, z."""

    cubic: Poly

    degree = 3

    # Coefficient order of the JSON format: monomials of the cubic written
    # a x^3 + b y^3 + c z^3 + a2 x^2 y + a3 x^2 z + b1 x y^2 + b3 y^2 z
    #   + c1 x z^2 + c2 y z^2 + m xyz.
    MONOMIALS = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (2, 0, 1),
                 (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1)]

    def __post_init__(self):
        object.__setattr__(self, "cubic", _check_form(self.cubic, DEG3_RING, 3, "cubic"))

    @classmethod
    def from_coefficients(cls, coeffs: Sequence) -> "Deg3Model":
        if len(coeffs) != 10:
            raise InputError("degree-3 model needs 10 coefficients")
        return cls(Poly(DEG3_RING, dict(zip(cls.MONOMIALS, coeffs))))

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg3Model":
        # the degree-1 and degree-3 rings are both (x, y, z)
        return cls(Deg1Model(a1, a2, a3, a4, a6).equation())

    def coefficients(self):
        return tuple(self.cubic.coefficient(e) for e in self.MONOMIALS)

    def equations(self) -> list[Poly]:
        return [self.cubic]

    def to_json(self):
        return json_scalars(self.coefficients())

    @classmethod
    def from_json(cls, coeffs) -> "Deg3Model":
        return cls.from_coefficients(json_list(coeffs))


@dataclass(frozen=True)
class Deg4Model:
    """Pair of quadrics in x1..x4."""

    q1: Poly
    q2: Poly

    degree = 4

    def __post_init__(self):
        object.__setattr__(self, "q1", _check_form(self.q1, DEG4_RING, 2, "q1"))
        object.__setattr__(self, "q2", _check_form(self.q2, DEG4_RING, 2, "q2"))

    @classmethod
    def from_coefficients(cls, q1_coeffs: Sequence, q2_coeffs: Sequence) -> "Deg4Model":
        """Each quadric as 10 coefficients in graded-lex monomial order."""
        if len(q1_coeffs) != 10 or len(q2_coeffs) != 10:
            raise InputError("degree-4 model needs 10 coefficients per quadric")
        return cls(*(Poly(DEG4_RING, dict(zip(QUADRIC_MONOMIALS_DEG4, coeffs)))
                     for coeffs in (q1_coeffs, q2_coeffs)))

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg4Model":
        x1, x2, x3, x4 = generators(DEG4_RING)
        q1 = x1 * x4 - x2 * x2
        q2 = (x3 * x3 + a1 * x2 * x3 + a3 * x1 * x3
              - x2 * x4 - a2 * x2 * x2 - a4 * x1 * x2 - a6 * x1 * x1)
        return cls(q1, q2)

    def coefficients(self):
        return (tuple(self.q1.coefficient(e) for e in QUADRIC_MONOMIALS_DEG4),
                tuple(self.q2.coefficient(e) for e in QUADRIC_MONOMIALS_DEG4))

    def equations(self) -> list[Poly]:
        return [self.q1, self.q2]

    def to_json(self):
        return dict(zip(("q1", "q2"), json_scalars(self.coefficients())))

    @classmethod
    def from_json(cls, coeffs) -> "Deg4Model":
        check_keys(coeffs, ("q1", "q2"), "degree-4 coefficients")
        return cls.from_coefficients(json_list(coeffs["q1"]), json_list(coeffs["q2"]))


@dataclass(frozen=True)
class Deg5Model:
    """5x5 alternating matrix of linear forms, stored as its upper triangle."""

    upper: tuple

    degree = 5

    def __post_init__(self):
        if len(self.upper) != 10:
            raise InputError("degree-5 model needs 10 upper-triangle entries")
        upper = tuple(_check_form(entry, DEG5_RING, 1, "matrix entry") for entry in self.upper)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_matrix(cls, rows) -> "Deg5Model":
        if len(rows) != 5 or not is_alternating(rows):
            raise InputError("degree-5 model matrix must be 5x5 and alternating")
        return cls(tuple(rows[i][j] for i, j in DEG5_PAIRS))

    @classmethod
    def from_coefficients(cls, entries: Sequence[Sequence]) -> "Deg5Model":
        """Ten upper-triangle entries, each as 5 coefficients of x1..x5."""
        upper = []
        for coeffs in entries:
            if len(coeffs) != 5:
                raise InputError("each matrix entry needs 5 coefficients")
            upper.append(Poly(DEG5_RING, dict(zip(DEG5_UNITS, coeffs))))
        return cls(tuple(upper))

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg5Model":
        x1, x2, x3, x4, x5 = generators(DEG5_RING)
        ell = a1 * x5 - a2 * x4 + a3 * x3 - a4 * x2 - a6 * x1
        zero = Poly.zero(DEG5_RING)
        return cls((ell, x5, x4, x3,   # (1,2) (1,3) (1,4) (1,5)
                    x4, x3, x2,        # (2,3) (2,4) (2,5)
                    -x2, zero,         # (3,4) (3,5)
                    x1))               # (4,5)

    def coefficients(self):
        return tuple(tuple(entry.coefficient(e) for e in DEG5_UNITS) for entry in self.upper)

    def matrix(self) -> list[list[Poly]]:
        """The full alternating matrix: phi_ji = -phi_ij, zero diagonal."""
        rows = [[Poly.zero(DEG5_RING)] * 5 for _ in range(5)]
        for (i, j), entry in zip(DEG5_PAIRS, self.upper):
            rows[i][j] = entry
            rows[j][i] = -entry
        return rows

    def pfaffians(self) -> list[Poly]:
        """Submaximal Pfaffians p_i = (-1)^(i+1) pf(matrix with row/col i deleted).

        With a < b < c < d the other four indices, that Pfaffian is
        phi_ab phi_cd - phi_ac phi_bd + phi_ad phi_bc, all upper entries.
        """
        phi = dict(zip(DEG5_PAIRS, self.upper))
        out = []
        for i in range(5):
            a, b, c, d = (k for k in range(5) if k != i)
            p = phi[a, b] * phi[c, d] - phi[a, c] * phi[b, d] + phi[a, d] * phi[b, c]
            # Poly products keep integral Fractions: as_scalar makes them ints
            out.append(Poly._make(DEG5_RING, {e: as_scalar(-c if i % 2 else c)
                                              for e, c in p.terms.items()}))
        return out

    def equations(self) -> list[Poly]:
        return self.pfaffians()

    def to_json(self):
        return {"matrix": json_scalars(self.coefficients())}

    @classmethod
    def from_json(cls, coeffs) -> "Deg5Model":
        check_keys(coeffs, ("matrix",), "degree-5 coefficients")
        return cls.from_coefficients([json_list(entry) for entry in json_list(coeffs["matrix"])])


GenusOneModel = Deg1Model | Deg2Model | Deg3Model | Deg4Model | Deg5Model

MODEL_CLASSES = {cls.degree: cls for cls in get_args(GenusOneModel)}


def require_degree(model, degrees, what: str, classes=MODEL_CLASSES, kind="model") -> int:
    """The degree of ``model`` if it is a model of one of ``degrees``, else an
    InputError naming ``what``, the degrees and the degree (or type) given: the
    one check of which models (or transformations, ``transforms.TRANSFORM_CLASSES``
    and "transformation" given as ``classes`` and ``kind``) an operation accepts."""
    if type(model) in [classes[d] for d in degrees]:
        return model.degree
    given = (f"a degree-{model.degree} {kind}" if type(model) in classes.values()
             else f"a {type(model).__name__}")
    raise InputError(f"{what} takes {kind}s of degree {', '.join(map(str, degrees))}, not {given}")


def class_for_degree(classes: dict, degree, what: str):
    """``classes[degree]`` for a plain int degree (not JSON true or 1.0)."""
    if type(degree) is not int or degree not in classes:
        raise InputError(f"unsupported {what} degree: {degree!r}")
    return classes[degree]


def check_keys(data, allowed, what: str) -> None:
    """InputError for a key of the JSON object ``data`` outside
    ``allowed``: a misspelt key in a file is an error, not dropped."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, not {type(data).__name__}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise InputError(f"unknown keys for {what}: {', '.join(sorted(unknown))}")


def equations(model: GenusOneModel) -> list[Poly]:
    """The defining polynomial(s) of the model's curve."""
    require_degree(model, MODEL_CLASSES, "equations")
    return model.equations()


# ----------------------------------------------------------------------
# the Weierstrass family pi_n : degree-1 models -> degree-n models
# ----------------------------------------------------------------------

def weierstrass_model(w: Deg1Model, degree: int) -> GenusOneModel:
    """The degree-n model of the curve embedded by |n.0|, for n = 2..5.

    The images are the standard ones: (x:1), (1:x:y), (1:x:y:x^2) and
    (1:x:y:x^2:xy) respectively; restriction to this family is what
    normalises all the invariants.
    """
    if degree not in (2, 3, 4, 5):
        raise InputError(f"no Weierstrass model of degree {degree} (expected 2..5)")
    return MODEL_CLASSES[degree].weierstrass(*w.coefficients())


# ----------------------------------------------------------------------
# projection away from a rational point: degree 5 -> degree 4
# ----------------------------------------------------------------------

def project_from_point(model: Deg5Model, point: Sequence) -> Deg4Model:
    """Project a degree-5 model away from a smooth rational point on it.

    The point (given by 5 homogeneous coordinates) must lie on the curve
    and be smooth there (the Jacobian of the Pfaffians has rank 3).  We
    change coordinates so the point is (0:0:0:0:1) with tangent line
    x1 = x2 = x3 = 0, then keep the quadrics not involving x5; these cut
    out the projected curve in P^3.  The projected model defines the same
    curve up to isomorphism, so in particular has the same j-invariant.

    All choices (kernel basis, basis completion) are the canonical
    row-reduction ones, so the output is deterministic.
    """
    require_degree(model, (5,), "project_from_point")
    point = [as_scalar(c) for c in point]
    if len(point) != 5 or not any(point):
        raise InputError("the point must have 5 homogeneous coordinates, not all zero")

    pfaffians = model.pfaffians()
    if any(p.evaluate(point) != 0 for p in pfaffians):
        raise InputError("the point does not lie on the curve")
    jac = [[p.derivative(v).evaluate(point) for v in DEG5_RING] for p in pfaffians]
    kernel = kernel_basis(jac)  # contains the point; rank 3 leaves 2 dimensions
    if len(kernel) != 2:
        raise DegenerateModelError("the point is a singular point of the model")

    # Rows of the substitution matrix are the new basis vectors: three
    # standard vectors completing the tangent plane, then a second kernel
    # vector, then the point itself.  The pivot columns of [point, kernel,
    # e_1..e_5] choose them: the point, the first kernel vector not
    # proportional to it, then each e_i independent of those before it.
    candidates = [point] + kernel + [[int(j == i) for j in range(5)] for i in range(5)]
    chosen = [candidates[c] for c in pivot_columns(list(zip(*candidates)))]
    rows = chosen[2:] + [chosen[1], point]

    # Substitute x_j -> sum_i B_ij x_i' with B rows the new basis vectors:
    # the rows of Sym^2(B) give each moved Pfaffian's coefficients.
    quad_monos = monomials(DEG5_RING, 2)
    moved = substituted_coefficients(pfaffians, rows, 2)
    if scalar_rank(moved) != 5:
        raise DegenerateModelError("the Pfaffian quadrics are linearly dependent")

    # Combinations of the quadrics free of x5: the left kernel of their
    # coefficients on the x5-involving monomials.
    restriction = [col for e, col in zip(quad_monos, zip(*moved)) if e[4] > 0]
    combos = kernel_basis(restriction)
    if len(combos) != 2:
        raise DegenerateModelError(
            "projection does not yield exactly 2 independent quadrics without x5")

    out = []
    for combo in combos:
        quad = [sum(map(mul, combo, col)) for col in zip(*moved)]
        out.append(Poly(DEG4_RING, {e[:4]: c for e, c in zip(quad_monos, quad) if c}))
    return Deg4Model(out[0], out[1])


# ----------------------------------------------------------------------
# JSON model files
# ----------------------------------------------------------------------

def model_to_dict(model: GenusOneModel) -> dict:
    require_degree(model, MODEL_CLASSES, "model_to_dict")
    return {"degree": model.degree, "coefficients": model.to_json()}


def model_from_dict(data) -> GenusOneModel:
    """The model of a JSON object; data that is not one, or an unknown key
    in it or in its coefficients object, is an InputError."""
    try:
        check_keys(data, ("degree", "coefficients"), "a model")
        cls = class_for_degree(MODEL_CLASSES, data["degree"], "model")
        return cls.from_json(data["coefficients"])
    except KeyError as exc:
        raise InputError(f"malformed model data: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed model data: {exc}") from exc


def dumps_model(model: GenusOneModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def loads_model(text: str) -> GenusOneModel:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer past the int/str digit limit;
        # RecursionError is nesting deeper than the decoder's stack
        raise InputError(f"invalid JSON: {exc}") from exc
    return model_from_dict(data)
