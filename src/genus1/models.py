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

A model of degree 2 to 5 stores its exact coefficients once, as
``vectors``: one tuple of normalised scalars per form, over ``monomials``
of its ring and degree.  That is the tuple ``coefficients`` returns, except
in degree 3, which ``coefficients`` and ``from_coefficients`` permute to
and from the JSON order.  The ``Poly`` attributes (``p``, ``q``, ``cubic``,
``q1``, ``q2``, ``upper``), ``equations``, ``matrix`` and ``pfaffians`` are
views built from the vectors on each access.  The constructors take the
``Poly`` attributes and check them once: a value that is not a form of the
model's ring and degree is an InputError naming the argument and the ring.
Integral Fractions become ints on either route, so equal models compare
and hash equal however they were built.

Degree-5 models are stored by their upper triangle only (positions
``DEG5_PAIRS``); alternation is structural, not data.  ``matrix`` and
``from_matrix`` convert to and from the full matrix, and only
``from_matrix``, which takes outside input, checks alternation.  All model
classes are ``Record`` values: immutable, compared and hashed by
``FIELDS``.  The polynomial rings are the fixed module-level tuples below.
``_frame`` is the one reader of a degree-5 model's Pfaffians, as
coefficient vectors and Hessian matrices: the degree-5 invariants and
projection run on it, and the Weierstrass models on coefficient vectors,
with no ``Poly`` arithmetic outside ``pfaffians``.

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
from itertools import combinations_with_replacement
from operator import mul
from typing import Sequence, get_args

from .errors import DegenerateModelError, InputError
from .linalg import kernel_basis, pivot_columns, scalar_rank
from .poly import Poly, as_scalar, format_scalar, monomials, substituted_coefficients

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
# The quadric monomials in x1..x5; those free of x5 are QUADRIC_MONOMIALS_DEG4, in order.
_QUADRICS5 = monomials(DEG5_RING, 2)


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


def _vector(p, ring, degree: int, what: str) -> list:
    """The coefficients of ``p`` over ``monomials(ring, degree)``, after
    checking that it is a form of that degree in ``ring`` (or zero)."""
    if not isinstance(p, Poly) or p.variables != ring:
        raise InputError(f"{what} must be a polynomial in the ring {ring}")
    if any(sum(e) != degree for e in p.terms):
        raise InputError(f"{what} must be homogeneous of degree {degree} (or zero)")
    return [p.terms.get(e, 0) for e in monomials(ring, degree)]


def _exact(values) -> tuple:
    """``as_scalar`` of each value given to a public constructor; a bad one is an InputError."""
    try:
        return tuple(map(as_scalar, values))
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _view(ring, degree: int, vector) -> Poly:
    return Poly.from_vector(ring, monomials(ring, degree), vector)


def _symmetric(vec, n: int):
    """The Hessian M of the quadric (1/2) x^T M x of coefficients ``vec``:
    row i holds the coefficients of its derivative by x_i."""
    out = [[0] * n for _ in range(n)]
    for (i, j), c in zip(combinations_with_replacement(range(n), 2), vec):
        out[i][j] = out[j][i] = 2 * c if i == j else c
    return out


class Record:
    """An immutable value of the attributes ``FIELDS``, each set once by ``_set``: equal
    and hashed by class and fields, printed as a dataclass, ``Name(field=value, ...)``."""

    FIELDS = ()

    def _set(self, values):  # not by __dict__, which takes attribute reads off their fast path
        for name, value in zip(self.FIELDS, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Deg1Model(Record):
    """Weierstrass equation y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    FIELDS = ("a1", "a2", "a3", "a4", "a6")
    degree = 1

    def __init__(self, a1, a2, a3, a4, a6):
        self._set(_exact((a1, a2, a3, a4, a6)))

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def equation(self) -> Poly:
        """y^2 z + a1 xyz + a3 y z^2 - x^3 - a2 x^2 z - a4 x z^2 - a6 z^3."""
        return Deg3Model.weierstrass(*self.coefficients()).cubic

    def equations(self) -> list[Poly]:
        return [self.equation()]

    def to_json(self):
        return json_scalars(self.coefficients())

    @classmethod
    def from_json(cls, coeffs) -> "Deg1Model":
        return cls(*json_list(coeffs))


class _Forms(Record):
    """A model of degree 2 to 5, stored as ``vectors`` (see above)."""

    FIELDS = ("vectors",)

    def coefficients(self):
        return self.vectors

    def _store(self, *vectors):
        return self._set((tuple(map(_exact, vectors)),))

    @classmethod
    def _of(cls, *vectors):
        """The model of coefficient vectors in the stored order."""
        return object.__new__(cls)._store(*vectors)


class Deg2Model(_Forms):
    """Generalised binary quartic: y^2 + p(x,z) y = q(x,z)."""

    degree = 2

    def __init__(self, p: Poly, q: Poly):
        self._store(_vector(p, DEG2_RING, 2, "p"), _vector(q, DEG2_RING, 4, "q"))

    @classmethod
    def from_coefficients(cls, p_coeffs: Sequence, q_coeffs: Sequence) -> "Deg2Model":
        """p as [alpha0, alpha1, alpha2] on x^2, xz, z^2; q as [a..e] on x^4..z^4."""
        if len(json_list(p_coeffs)) != 3 or len(json_list(q_coeffs)) != 5:
            raise InputError("degree-2 model needs 3 coefficients for p and 5 for q")
        return cls._of(p_coeffs, q_coeffs)

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg2Model":
        return cls.from_coefficients((0, a1, a3), (0, 1, a2, a4, a6))

    p = property(lambda self: _view(DEG2_RING, 2, self.vectors[0]))
    q = property(lambda self: _view(DEG2_RING, 4, self.vectors[1]))

    def equations(self) -> list[Poly]:
        """The full curve equation y^2 + p y - q in the ring (x, z, y)."""
        y = Poly.variable(DEG2_CURVE_RING, "y")
        return [y * y + self.p.lift(DEG2_CURVE_RING) * y - self.q.lift(DEG2_CURVE_RING)]

    def to_json(self):
        return dict(zip(("p", "q"), json_scalars(self.coefficients())))

    @classmethod
    def from_json(cls, coeffs) -> "Deg2Model":
        check_keys(coeffs, ("p", "q"), "degree-2 coefficients")
        return cls.from_coefficients(coeffs["p"], coeffs["q"])


class Deg3Model(_Forms):
    """Ternary cubic in x, y, z, stored over ``monomials(DEG3_RING, 3)``."""

    degree = 3

    # Coefficient order of the JSON format: monomials of the cubic written
    # a x^3 + b y^3 + c z^3 + a2 x^2 y + a3 x^2 z + b1 x y^2 + b3 y^2 z
    #   + c1 x z^2 + c2 y z^2 + m xyz.
    MONOMIALS = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (2, 0, 1),
                 (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1)]
    # the place in the stored vector of each JSON coefficient, and back
    _TO_JSON = list(map(monomials(DEG3_RING, 3).index, MONOMIALS))
    _FROM_JSON = list(map(MONOMIALS.index, monomials(DEG3_RING, 3)))

    def __init__(self, cubic: Poly):
        self._store(_vector(cubic, DEG3_RING, 3, "cubic"))

    @classmethod
    def from_coefficients(cls, coeffs: Sequence) -> "Deg3Model":
        if len(json_list(coeffs)) != 10:
            raise InputError("degree-3 model needs 10 coefficients")
        return cls._of([coeffs[i] for i in cls._FROM_JSON])

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg3Model":
        # y^2 z + a1 xyz + a3 y z^2 - x^3 - a2 x^2 z - a4 x z^2 - a6 z^3
        # (the degree-1 and degree-3 rings are both (x, y, z))
        a1, a2, a3, a4, a6 = Deg1Model(a1, a2, a3, a4, a6).coefficients()
        return cls.from_coefficients((-1, 0, -a6, 0, -a2, 0, 1, -a4, a3, a1))

    cubic = property(lambda self: _view(DEG3_RING, 3, self.vectors[0]))

    def coefficients(self):
        return tuple(self.vectors[0][i] for i in self._TO_JSON)

    def equations(self) -> list[Poly]:
        return [self.cubic]

    def to_json(self):
        return json_scalars(self.coefficients())

    from_json = from_coefficients


class Deg4Model(_Forms):
    """Pair of quadrics in x1..x4."""

    degree = 4

    def __init__(self, q1: Poly, q2: Poly):
        self._store(_vector(q1, DEG4_RING, 2, "q1"), _vector(q2, DEG4_RING, 2, "q2"))

    @classmethod
    def from_coefficients(cls, q1_coeffs: Sequence, q2_coeffs: Sequence) -> "Deg4Model":
        """Each quadric as 10 coefficients in graded-lex monomial order."""
        if len(json_list(q1_coeffs)) != 10 or len(json_list(q2_coeffs)) != 10:
            raise InputError("degree-4 model needs 10 coefficients per quadric")
        return cls._of(q1_coeffs, q2_coeffs)

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg4Model":
        # q1 = x1 x4 - x2^2 and q2 = x3^2 + a1 x2 x3 + a3 x1 x3 - x2 x4
        # - a2 x2^2 - a4 x1 x2 - a6 x1^2 over QUADRIC_MONOMIALS_DEG4
        a1, a2, a3, a4, a6 = Deg1Model(a1, a2, a3, a4, a6).coefficients()
        return cls.from_coefficients((0, 0, 0, 1, -1, 0, 0, 0, 0, 0),
                                     (-a6, -a4, a3, 0, -a2, a1, -1, 1, 0, 0))

    q1 = property(lambda self: _view(DEG4_RING, 2, self.vectors[0]))
    q2 = property(lambda self: _view(DEG4_RING, 2, self.vectors[1]))

    def equations(self) -> list[Poly]:
        return [self.q1, self.q2]

    def to_json(self):
        return dict(zip(("q1", "q2"), json_scalars(self.coefficients())))

    @classmethod
    def from_json(cls, coeffs) -> "Deg4Model":
        check_keys(coeffs, ("q1", "q2"), "degree-4 coefficients")
        return cls.from_coefficients(coeffs["q1"], coeffs["q2"])


class Deg5Model(_Forms):
    """5x5 alternating matrix of linear forms, stored as its upper triangle."""

    degree = 5

    def __init__(self, upper: Sequence[Poly]):
        if len(json_list(upper, "the upper triangle")) != 10:
            raise InputError("degree-5 model needs 10 upper-triangle entries")
        self._store(*(_vector(entry, DEG5_RING, 1, "matrix entry") for entry in upper))

    @classmethod
    def from_matrix(cls, rows) -> "Deg5Model":
        rows = [json_list(row, "a matrix row") for row in json_list(rows, "the matrix")]
        vectors = [[_vector(entry, DEG5_RING, 1, "matrix entry") for entry in row] for row in rows]
        if list(map(len, vectors)) != [5] * 5 or any(
                vectors[j][i] != [-c for c in vectors[i][j]] for i in range(5) for j in range(i, 5)):
            raise InputError("degree-5 model matrix must be 5x5 and alternating")
        return cls._of(*(vectors[i][j] for i, j in DEG5_PAIRS))

    @classmethod
    def from_coefficients(cls, entries: Sequence[Sequence]) -> "Deg5Model":
        """Ten upper-triangle entries, each as 5 coefficients of x1..x5."""
        entries = [json_list(entry) for entry in json_list(entries)]
        if len(entries) != 10 or any(len(coeffs) != 5 for coeffs in entries):
            raise InputError("degree-5 model needs 10 upper-triangle entries of 5 coefficients")
        return cls._of(*entries)

    @classmethod
    def weierstrass(cls, a1, a2, a3, a4, a6) -> "Deg5Model":
        # a1 x5 - a2 x4 + a3 x3 - a4 x2 - a6 x1, then variables as unit vectors
        a1, a2, a3, a4, a6 = Deg1Model(a1, a2, a3, a4, a6).coefficients()
        x1, x2, x3, x4, x5 = DEG5_UNITS
        return cls._of((-a6, -a4, a3, -a2, a1), x5, x4, x3,   # (1,2) (1,3) (1,4) (1,5)
                       x4, x3, x2,                            # (2,3) (2,4) (2,5)
                       (0, -1, 0, 0, 0), (0,) * 5,            # (3,4) (3,5)
                       x1)                                    # (4,5)

    upper = property(lambda self: tuple(_view(DEG5_RING, 1, vec) for vec in self.vectors))

    def matrix(self) -> list[list[Poly]]:
        """The full alternating matrix: phi_ji = -phi_ij, zero diagonal."""
        rows = [[Poly.zero(DEG5_RING)] * 5 for _ in range(5)]
        for (i, j), vec in zip(DEG5_PAIRS, self.vectors):
            rows[i][j] = _view(DEG5_RING, 1, vec)
            rows[j][i] = _view(DEG5_RING, 1, [-c for c in vec])
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
        return cls.from_coefficients(coeffs["matrix"])


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
    """``classes[degree]`` for a plain int degree (not JSON true or 1.0):
    the one check of the degree an operation is asked to build."""
    if type(degree) is not int or degree not in classes:
        raise InputError(f"unsupported {what} degree: {degree!r} "
                         f"(expected {', '.join(map(str, classes))})")
    return classes[degree]


def check_keys(data, allowed, what: str) -> None:
    """InputError for a key of the JSON object ``data`` outside
    ``allowed``: a misspelt key in a file is an error, not dropped."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, not {type(data).__name__}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise InputError(f"unknown keys for {what}: {', '.join(sorted(unknown))}")


def _frame(model: Deg5Model, what: str):
    """For ``what``, on degree 5 only: the Pfaffians p_k over ``_QUADRICS5``, hess[k][t][u]
    = d^2 p_k/dx_t dx_u (hess[k][t] is dp_k/dx_t) and dphi[t][i][j], the x_t coefficient of phi_ij."""
    require_degree(model, (5,), what)
    pf = [[p.terms.get(e, 0) for e in _QUADRICS5] for p in model.pfaffians()]
    upper = dict(zip(DEG5_PAIRS, model.vectors))
    dphi = [[[upper[i, j][t] if i < j else -upper[j, i][t] if i > j else 0 for j in range(5)]
             for i in range(5)] for t in range(5)]
    return pf, [_symmetric(vec, 5) for vec in pf], dphi


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
    require_degree(w, (1,), "weierstrass_model")
    classes = {d: cls for d, cls in MODEL_CLASSES.items() if hasattr(cls, "weierstrass")}
    return class_for_degree(classes, degree, "Weierstrass model").weierstrass(*w.coefficients())


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
    pf, hess, _ = _frame(model, "project_from_point")
    try:
        point = [as_scalar(c) for c in json_list(point, "the point")]
    except (TypeError, ValueError):
        point = []  # not a list or tuple of exact scalars
    if len(point) != 5 or not any(point):
        raise InputError("the point must have 5 homogeneous coordinates, not all zero")

    # row k of the Jacobian at the point is H_k point, and by Euler's
    # identity point . H_k point = 2 p_k(point)
    jac = [[sum(map(mul, row, point)) for row in h] for h in hess]
    if any(sum(map(mul, grad, point)) for grad in jac):
        raise InputError("the point does not lie on the curve")
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
    moved = substituted_coefficients(pf, rows, 2)
    if scalar_rank(moved) != 5:
        raise DegenerateModelError("the Pfaffian quadrics are linearly dependent")

    # Combinations of the quadrics free of x5: the left kernel of their
    # coefficients on the x5-involving monomials.
    columns = list(zip(*moved))
    combos = kernel_basis([col for e, col in zip(_QUADRICS5, columns) if e[4]])
    if len(combos) != 2:
        raise DegenerateModelError(
            "projection does not yield exactly 2 independent quadrics without x5")
    free = [col for e, col in zip(_QUADRICS5, columns) if not e[4]]
    return Deg4Model._of(*([sum(map(mul, combo, col)) for col in free] for combo in combos))


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
