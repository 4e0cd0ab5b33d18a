"""The transformation groups acting on genus one models.

Each degree has its own group of coordinate changes:

* degree 1 -- [u; r, s, t]:  x = u^2 x' + r,  y = u^3 y' + u^2 s x' + t,
  and the equation is rescaled by u^-6;
* degree 2 -- [mu, r, B]:  (x, z) replaced via the 2x2 matrix B,
  y = mu^-1 y' + r0 x'^2 + r1 x'z' + r2 z'^2, equation rescaled by mu^2;
* degree 3 -- [mu, B]:  cubic rescaled by mu, variables via B (3x3);
* degree 4 -- [A, B]:  quadric pair mixed by A (2x2), variables via B (4x4);
* degree 5 -- [A, B]:  matrix phi -> A phi A^T, variables via B (5x5).

Variables always substitute as x_j = sum_i B_ij x_i'.  On forms of
degree d this maps the coefficient vector f to Sym^d(B) f, the symmetric
power of B (``poly.symmetric_power``), so ``apply`` for degrees 1 to 4 is
a matrix-vector product per form.  Degree 5 maps the 10x5 coefficient
matrix C of the upper entries to wedge^2(A) C B^T.  Each group carries
the multiplicative character ``det_character`` (u^-1, mu det B, mu det B,
det A det B, (det A)^2 det B); the invariants of weight k rescale by its
k-th power under the action.

``gamma`` is the embedding of the degree-1 group into the degree-n group
compatible with the Weierstrass family: applying gamma(g) to a Weierstrass
model is the same as pushing g through the family map.

Per-degree behaviour lives on the transformation classes (``det_character``,
``apply``, ``compose`` and, for n = 2..5, ``gamma``);
the module-level functions dispatch on the transformation or through
``TRANSFORM_CLASSES``.  The classes are ``models.Record`` values, and the
JSON keys are their ``FIELDS``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import get_args

from .errors import InputError, InternalCheckError
from .linalg import mat_mul, scalar_det
from .models import (DEG5_PAIRS, Deg1Model, Deg2Model, Deg3Model, Deg4Model,
                     Deg5Model, GenusOneModel, Record, _exact, check_keys, class_for_degree,
                     json_list, json_scalars, require_degree)
from .poly import Scalar, as_scalar, form_product, substituted_coefficients


def _upow(base: Scalar, k: int) -> Scalar:
    """base**k for possibly negative k, staying exact."""
    return as_scalar(Fraction(base) ** k)


def _matrix(data, n: int, what: str):
    rows = tuple(_exact(json_list(row, what)) for row in json_list(data, what))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError(f"{what} must be a {n}x{n} matrix")
    return rows


class Deg1Transform(Record):
    FIELDS = ("u", "r", "s", "t")
    degree = 1

    def __init__(self, u, r, s, t):
        self._set(_exact((u, r, s, t)))
        if self.u == 0:
            raise InputError("degree-1 transformation needs u != 0")

    def det_character(self) -> Scalar:
        return _upow(self.u, -1)

    def apply(self, m: Deg1Model) -> Deg1Model:
        # gamma_3 moves the Weierstrass cubic as this transformation does:
        # x = u^2 x' + r z',  y = u^2 s x' + u^3 y' + t z',  z = z', times u^-6
        moved = Deg3Transform.gamma(self.u, self.r, self.s, self.t).apply(
            Deg3Model.weierstrass(*m.coefficients()))
        # the JSON order is x^3, y^3, z^3, x^2 y, x^2 z, x y^2, y^2 z, x z^2, y z^2, xyz
        c = moved.coefficients()
        new = Deg1Model(c[9], -c[4], c[8], -c[7], -c[2])
        if Deg3Model.weierstrass(*new.coefficients()) != moved:
            raise InternalCheckError("degree-1 substitution left a non-Weierstrass polynomial")
        return new

    def compose(self, g2: "Deg1Transform") -> "Deg1Transform":
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = g2.u, g2.r, g2.s, g2.t
        return Deg1Transform(
            u1 * u2,
            u2 * u2 * r1 + r2,
            u2 * s1 + s2,
            u2 ** 3 * t1 + u2 * u2 * s2 * r1 + t2,
        )


class Deg2Transform(Record):
    FIELDS = ("mu", "r", "B")
    degree = 2

    def __init__(self, mu, r, B):
        mu, r = _exact((mu,))[0], _exact(json_list(r, "r"))
        if len(r) != 3:
            raise InputError("degree-2 transformation needs r = (r0, r1, r2)")
        self._set((mu, r, _matrix(B, 2, "B")))
        if mu * scalar_det(self.B) == 0:
            raise InputError("degree-2 transformation needs mu det B != 0")

    @classmethod
    def gamma(cls, u, r, s, t) -> "Deg2Transform":
        u2 = u * u
        return cls(_upow(u, -3), (0, u2 * s, t), ((u2, 0), (r, 1)))

    def det_character(self) -> Scalar:
        return self.mu * scalar_det(self.B)

    def apply(self, m: Deg2Model) -> Deg2Model:
        # p and q under B, then y = y' + rho: p + 2 rho and q - (p + rho) rho,
        # rescaled by mu and mu^2; r is rho's vector over x^2, xz, z^2
        mu, rho = self.mu, self.r
        (p_b,), (q_b,) = (substituted_coefficients([vec], self.B, d)
                          for vec, d in zip(m.vectors, (2, 4)))
        shifted = form_product([a + b for a, b in zip(p_b, rho)], rho, 2, 2, 2)
        return Deg2Model._of([mu * (a + 2 * b) for a, b in zip(p_b, rho)],
                             [mu * mu * (a - b) for a, b in zip(q_b, shifted)])

    def compose(self, g2: "Deg2Transform") -> "Deg2Transform":
        inv_mu2 = _upow(g2.mu, -1)
        moved, = substituted_coefficients([g2.r], self.B, 2)
        return Deg2Transform(self.mu * g2.mu, [inv_mu2 * a + b for a, b in zip(self.r, moved)],
                             mat_mul(self.B, g2.B))


class Deg3Transform(Record):
    FIELDS = ("mu", "B")
    degree = 3

    def __init__(self, mu, B):
        self._set((_exact((mu,))[0], _matrix(B, 3, "B")))
        if self.mu * scalar_det(self.B) == 0:
            raise InputError("degree-3 transformation needs mu det B != 0")

    @classmethod
    def gamma(cls, u, r, s, t) -> "Deg3Transform":
        # x = u^2 x' + r z',  y = u^2 s x' + u^3 y' + t z',  z = z'
        # (the matrix in ring order x, y, z; the cubic rescales by u^-6).
        u2 = u * u
        return cls(_upow(u, -6), ((u2, u2 * s, 0), (0, u ** 3, 0), (r, t, 1)))

    def det_character(self) -> Scalar:
        return self.mu * scalar_det(self.B)

    def apply(self, m: Deg3Model) -> Deg3Model:
        moved, = substituted_coefficients(m.vectors, self.B, 3)
        return Deg3Model._of([self.mu * c for c in moved])

    def compose(self, g2: "Deg3Transform") -> "Deg3Transform":
        return Deg3Transform(self.mu * g2.mu, mat_mul(self.B, g2.B))


class _MatrixPair(Record):
    """The groups of degrees 4 and 5: pairs (A, B) of invertible matrices
    of sizes SIZES, composed entrywise."""

    FIELDS = ("A", "B")

    def __init__(self, A, B):
        self._set((_matrix(A, self.SIZES[0], "A"), _matrix(B, self.SIZES[1], "B")))
        if scalar_det(self.A) * scalar_det(self.B) == 0:
            raise InputError(f"degree-{self.degree} transformation needs det A det B != 0")

    def compose(self, g2):
        return type(self)(mat_mul(self.A, g2.A), mat_mul(self.B, g2.B))


class Deg4Transform(_MatrixPair):
    degree = 4
    SIZES = (2, 4)

    @classmethod
    def gamma(cls, u, r, s, t) -> "Deg4Transform":
        u2 = u * u
        a = ((_upow(u, -4), 0), (_upow(u, -6) * r, _upow(u, -6)))
        b = ((1, r, t, r * r),
             (0, u2, u2 * s, 2 * u2 * r),
             (0, 0, u ** 3, 0),
             (0, 0, 0, u ** 4))
        return cls(a, b)

    def det_character(self) -> Scalar:
        return scalar_det(self.A) * scalar_det(self.B)

    def apply(self, m: Deg4Model) -> Deg4Model:
        q1, q2 = substituted_coefficients(m.vectors, self.B, 2)
        return Deg4Model._of(*([a * c + b * d for c, d in zip(q1, q2)] for a, b in self.A))


class Deg5Transform(_MatrixPair):
    degree = 5
    SIZES = (5, 5)

    @classmethod
    def gamma(cls, u, r, s, t) -> "Deg5Transform":
        u2, u3, u4, u5 = u * u, u ** 3, u ** 4, u ** 5
        iu2 = _upow(u, -2)
        iu3 = _upow(u, -3)
        a = ((iu2 * 1, iu2 * -s, iu2 * (2 * r - s * s), iu2 * (r * s - t),
              iu2 * (-r * r + r * s * s - s * t)),
             (0, iu2 * u, iu2 * 2 * u * s, iu2 * -u * r, iu2 * u * (-2 * r * s + t)),
             (0, 0, iu2 * u2, 0, iu2 * -u2 * r),
             (0, 0, 0, iu2 * u3, iu2 * u3 * s),
             (0, 0, 0, 0, iu2 * u4))
        b = ((iu3 * 1, iu3 * r, iu3 * t, iu3 * r * r, iu3 * r * t),
             (0, iu3 * u2, iu3 * u2 * s, iu3 * 2 * u2 * r, iu3 * u2 * (r * s + t)),
             (0, 0, iu3 * u3, 0, iu3 * u3 * r),
             (0, 0, 0, iu3 * u4, iu3 * u4 * s),
             (0, 0, 0, 0, iu3 * u5))
        return cls(a, b)

    def det_character(self) -> Scalar:
        det_a = scalar_det(self.A)
        return det_a * det_a * scalar_det(self.B)

    def apply(self, m: Deg5Model) -> Deg5Model:
        # Upper entries of A phi A^T, using phi_lk = -phi_kl:
        # (A phi A^T)_ij = sum_{k<l} (a_ik a_jl - a_il a_jk) phi_kl, so the
        # 10x5 coefficient matrix C becomes wedge(A) C.  x_j = sum_i B_ij x_i'
        # makes an entry's x_i' coefficient sum_j c_j B_ij, so C becomes C B^T.
        a = self.A
        wedge = [[a[i][k] * a[j][l] - a[i][l] * a[j][k] for k, l in DEG5_PAIRS]
                 for i, j in DEG5_PAIRS]
        moved = mat_mul(m.vectors, tuple(zip(*self.B)))
        return Deg5Model._of(*mat_mul(wedge, moved))


Transformation = (Deg1Transform | Deg2Transform | Deg3Transform
                  | Deg4Transform | Deg5Transform)

TRANSFORM_CLASSES = {cls.degree: cls for cls in get_args(Transformation)}


def require_transformation(g, what: str, degrees=TRANSFORM_CLASSES) -> int:
    """``models.require_degree`` for transformations."""
    return require_degree(g, degrees, what, TRANSFORM_CLASSES, "transformation")


def identity_transform(degree: int) -> Transformation:
    """The identity of the degree-n group: gamma_n is a homomorphism, so
    for n >= 2 it is gamma_n of the degree-1 identity."""
    one = Deg1Transform(1, 0, 0, 0)
    if class_for_degree(TRANSFORM_CLASSES, degree, "transformation") is Deg1Transform:
        return one
    return gamma(one, degree)


def det_character(g: Transformation) -> Scalar:
    """The multiplicative character by whose powers invariants rescale."""
    require_transformation(g, "det_character")
    return g.det_character()


# ----------------------------------------------------------------------
# the action on models
# ----------------------------------------------------------------------

def apply(g: Transformation, m: GenusOneModel) -> GenusOneModel:
    """The transformed model g . m (degrees of g and m must agree)."""
    require_degree(m, (require_transformation(g, "apply"),), f"a degree-{g.degree} transformation")
    return g.apply(m)


def compose(g1: Transformation, g2: Transformation) -> Transformation:
    """The transformation with apply(g1, apply(g2, m)) == apply(compose(g1, g2), m)."""
    if require_transformation(g1, "compose") != require_transformation(g2, "compose"):
        raise InputError("cannot compose transformations of different degrees")
    return g1.compose(g2)


# ----------------------------------------------------------------------
# gamma_n : degree-1 transformations -> degree-n transformations
# ----------------------------------------------------------------------

def gamma(g: Deg1Transform, degree: int) -> Transformation:
    """Embed [u; r, s, t] into the degree-n group, compatibly with the
    Weierstrass family: apply(gamma(g), pi_n(w)) == pi_n(apply(g, w)), and
    the det character is preserved."""
    require_transformation(g, "gamma", (1,))
    classes = {d: cls for d, cls in TRANSFORM_CLASSES.items() if hasattr(cls, "gamma")}
    return class_for_degree(classes, degree, "gamma target").gamma(g.u, g.r, g.s, g.t)


# ----------------------------------------------------------------------
# JSON encoding (same scalar conventions as model files)
# ----------------------------------------------------------------------

def transformation_to_dict(g: Transformation) -> dict:
    data = {"degree": require_transformation(g, "transformation_to_dict")}
    data.update((name, json_scalars(getattr(g, name))) for name in g.FIELDS)
    return data


def transformation_from_dict(data) -> Transformation:
    """The transformation of a JSON object; data that is not one, or a key
    other than ``degree`` and the fields of its class, is an InputError."""
    try:
        if not isinstance(data, dict):
            raise InputError(f"a transformation must be a JSON object, not {type(data).__name__}")
        cls = class_for_degree(TRANSFORM_CLASSES, data["degree"], "transformation")
        check_keys(data, ("degree", *cls.FIELDS), f"a degree-{cls.degree} transformation")
        return cls(**{name: data[name] for name in cls.FIELDS})
    except KeyError as exc:
        raise InputError(f"malformed transformation data: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed transformation data: {exc}") from exc
