"""Pinned exact outputs: one SHA-256 digest per group of seeded records.

Each group computes records - the ``repr`` of a canonical form of what
the library returns on seeded inputs, or of the error it raises - and the
SHA-256 of those records must equal the digest pinned in ``DIGESTS``.  The
canonical form keeps each coefficient's type, so an int that turns into an
integral Fraction moves a digest too.  A refactor that keeps every output
keeps every digest; a digest that moves names the group whose outputs
moved.  Change a digest only with a change meant to alter that output,
and record why.

    PYTHONPATH=src python -m pytest tests/test_exact_outputs.py
    PYTHONPATH=src python tests/test_exact_outputs.py   # print the digests
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest

from genus1 import (Deg1Model, Deg5Model, Genus1Error, Poly, a1_char2, apply,
                    compose, deg5_covariants, determinant, dumps_model, generators,
                    invariants, matrix_discriminant,
                    model_to_dict, project_from_point, transformation_to_dict,
                    weierstrass_model)
from genus1.cli import run
from genus1.models import DEG3_RING, DEG5_RING

from helpers import (fraction_moved_wuthrich, random_model, random_transformation,
                     wuthrich_model)

RING = ("x", "y", "z", "w")
X, Y, Z, W = generators(RING)
ZERO = Poly.zero(RING)


def canon(value):
    """A form of ``value`` whose ``repr`` is the same on every run: ``Poly``
    terms sorted by exponent, records and dicts by their fields or keys,
    and numbers by ``repr``, which tells an int from a Fraction."""
    if isinstance(value, Poly):
        return ("Poly", value.variables, sorted(value.terms.items()))
    if hasattr(value, "_values"):  # the package's immutable records
        return (type(value).__name__, canon(value._values()))
    if isinstance(value, dict):
        return sorted((repr(k), canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def outcome(func, *args):
    """canon(func(*args)), or the type and message of the package error it raises."""
    try:
        return canon(func(*args))
    except Genus1Error as exc:
        return ("raised", type(exc).__name__, str(exc))


def digest(records) -> str:
    return hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()


# ----------------------------------------------------------------------
# the record groups
# ----------------------------------------------------------------------

def _lift(poly, ring, k):
    """``poly`` times t^k, in ``ring``, whose first variable is t."""
    return Poly(ring, {(k,) + e: c for e, c in poly.terms.items()})


def _hessian_pencil(cubic):
    """Over (nu, x, y, z), the Hessian matrix of U + nu G, G the determinant
    of U's Hessian matrix: a pencil of linear forms, or with G = 0 a
    matrix with no nu term."""
    variables = cubic.variables
    hess = lambda f: [[f.derivative(a).derivative(b) for b in variables] for a in variables]
    g = determinant(hess(cubic))
    ring = ("nu",) + variables
    return [[_lift(a, ring, 0) + _lift(b, ring, 1) for a, b in zip(row_u, row_g)]
            for row_u, row_g in zip(hess(cubic), hess(g))]


def _quintic_pencils(models):
    """The (lam, v1..v5) pencils that ``deg5_covariants`` hands to ``determinant``."""
    module = sys.modules["genus1.invariants"]
    pencils = []

    def recorded(rows):
        if rows[0][0].variables[0] == "lam":
            pencils.append(rows)
        return determinant(rows)

    with mock.patch.object(module, "determinant", recorded):
        for model in models:
            with contextlib.suppress(Genus1Error):  # a degenerate model has no pencil
                deg5_covariants(model)
    return pencils


def _random_pencil(rng, n, g, sparse):
    """g x A + B over RING: A a multiple of y, z or w per entry, B linear
    forms in y, z, w (one term per row when sparse), Fractions among the
    coefficients."""
    coeff = lambda: rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
    rows = []
    for _ in range(n):
        if sparse:
            row = [ZERO] * n
            row[rng.randrange(n)] = g * rng.randint(1, 5) * X * rng.choice([Y, Z, W])
        else:
            row = [g * rng.randint(-3, 3) * X * rng.choice([Y, Z, W])
                   + sum((coeff() * v for v in rng.sample([Y, Z, W], rng.randint(0, 3))), ZERO)
                   for _ in range(n)]
        rows.append(row)
    return rows


def _random_entries(rng, n):
    """Square matrices of small sums of squarefree monomials, constants among them."""
    term = lambda: Poly(RING, {tuple(rng.randint(0, 1) for _ in RING): rng.randint(-5, 5)})
    return [[sum((term() for _ in range(rng.randint(0, 3))), ZERO) for _ in range(n)]
            for _ in range(n)]


def determinants():
    rng = random.Random("exact/determinant")
    matrices = _quintic_pencils([wuthrich_model(), fraction_moved_wuthrich()]
                                + [random_model(rng, 5) for _ in range(3)])
    x, y, z = generators(DEG3_RING)
    for cubic in (y * y * z - x ** 3 + x * z * z - z ** 3, x * y * z, x ** 3,
                  x ** 3 + y ** 3 + z ** 3, *(random_model(rng, 3).equations()[0] for _ in range(3))):
        matrices.append(_hessian_pencil(cubic))
    # pencils too sparse for the dense kernel, and the generic 5x5 matrix
    matrices.append([[4 * X * Y, ZERO], [ZERO, 3 * X * Z]])
    matrices += [_random_pencil(rng, n, 1, True) for n in (2, 3, 4, 4)]
    matrices.append([list(generators(tuple(f"a{i}{j}" for j in range(5)
                                           for i in range(5)))[5 * i:5 * i + 5]) for i in range(5)])
    # zero rows, Fraction rows and integral Fraction rows
    matrices += [[[X * Y + 5 * Z, -7 * X * W], [ZERO, ZERO]], [[X * Y, ZERO], [ZERO, ZERO]],
                 [[ZERO] * 3] * 3,
                 [[X * Y / 2 + Y, Fraction(-5, 3) * X * Z], [Z / 6, X * Y - Z / 4]],
                 [[Fraction(4, 3) * X * Y + Y / 5, Fraction(-8, 5) * X * Z + Z],
                  [Fraction(2, 3) * X * Z - Y, 4 * X * Y + Fraction(1, 3) * Z]],
                 [[X * Y / 2 + X * Y / 2, Z], [Z, X * Y / 2 + X * Y / 2 + Y]]]
    # not pencils: x^2 terms, an x-only term, no x, constants, the empty ring
    one, point, empty = Poly.constant(RING, 1), Poly.constant((), 3), Poly.zero(())
    matrices += [[[5 * X * Y + Z, -25 * X ** 2 * Y + W], [10 * X * W - Y, 3 * Y]],
                 [[X * Y, 4 * X], [Z, W]], [[Y, Z], [W, Y + 10 ** 20 * Z]],
                 [[X, Y, Z], [Y, 7 * one, W], [Z, W, X + 1]], [[X ** 7, Y ** 7], [Z ** 8, X ** 8]],
                 [[one * 5]], [[point]], [[empty]], [[point, empty], [empty, point]]]
    for n, g in zip((1, 2, 3, 4, 2, 3, 4, 3), (1, 2, -3, 7, 2 ** 40, 3 ** 9, Fraction(6, 7), 5)):
        matrices.append(_random_pencil(rng, n, g, False))
    matrices += [_random_entries(rng, n) for n in (1, 2, 3, 3, 4)]
    return [(canon(rows), canon(determinant(rows))) for rows in matrices]


def per_degree():
    rng = random.Random("exact/per_degree")
    curve = Deg1Model(1, -1, 1, -1, 1)
    records = []
    for degree in range(1, 6):
        base = curve if degree == 1 else weierstrass_model(curve, degree)
        models = [base, apply(random_transformation(rng, degree), base)]
        models += [random_model(rng, degree) for _ in range(3)]
        for model in models:
            g1, g2 = random_transformation(rng, degree), random_transformation(rng, degree)
            records.append((degree, canon(model), outcome(invariants, model),
                            outcome(matrix_discriminant, model), outcome(a1_char2, model),
                            canon(model_to_dict(apply(g1, model))),
                            canon(transformation_to_dict(compose(g1, g2))),
                            canon(model_to_dict(apply(compose(g1, g2), model)))))
    return records


def weierstrass_projections():
    records = []
    # (x0, y0) on y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, which
    # fixes a6; the degree-5 image of the point is (1 : x0 : y0 : x0^2 : x0 y0)
    for a1, a2, a3, a4, x0, y0 in ((0, 0, 0, -1, 1, 1), (1, -1, 0, 2, -2, 3), (0, 1, 1, 0, 0, -1),
                                   (1, 0, 0, -1, Fraction(1, 4), Fraction(-3, 8)),
                                   (0, 0, 1, 2, Fraction(-2, 3), Fraction(5, 2))):
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
        curve = Deg1Model(a1, a2, a3, a4, a6)
        records.append(canon(model_to_dict(curve)))
        for degree in range(2, 6):
            records.append(canon(model_to_dict(weierstrass_model(curve, degree))))
        quintic = weierstrass_model(curve, 5)
        point = (1, x0, y0, x0 * x0, x0 * y0)
        for p in (point, [Fraction(c, 2) for c in point], [3 * c for c in point],
                  (0, 0, 0, 0, 1), (0, 0, 0, 0, Fraction(-5, 7)), (1, 0, 0, 0, 0), (1, 1, 1, 1, 2)):
            records.append((canon(p), outcome(lambda q: model_to_dict(project_from_point(quintic, q)), p)))
    rng = random.Random("exact/covariants")
    for model in [wuthrich_model(), fraction_moved_wuthrich(), Deg5Model((Poly.zero(DEG5_RING),) * 10)] \
            + [random_model(rng, 5) for _ in range(4)]:
        records.append(outcome(deg5_covariants, model))
    return records


def from_matrix_outcomes():
    rng = random.Random("exact/from_matrix")
    x1, x2, x3 = generators(DEG5_RING)[:3]
    zero = Poly.zero(DEG5_RING)
    inputs = []
    for model in (wuthrich_model(), fraction_moved_wuthrich(), *(random_model(rng, 5) for _ in range(3))):
        rows = model.matrix()
        inputs.append(rows)
        i, j = rng.sample(range(5), 2)
        diagonal = [list(row) for row in rows]
        diagonal[i][i] = x2
        asymmetric = [list(row) for row in rows]
        asymmetric[j][i] = asymmetric[i][j] + x3
        inputs += [diagonal, asymmetric, rows[:4], [row[:4] for row in rows],
                   [list(row) + [zero] for row in rows], rows + [[zero] * 5]]
    six = [[zero] * 6 for _ in range(6)]
    inputs += [[[zero] * 5] * 5, [[x1] * 5 for _ in range(5)], six, [], [[]] * 5,
               [[zero] * 5] * 4 + [[zero] * 4 + [x1 * x1]], [[zero] * 5] * 4 + [[zero] * 4 + [zero + 1]],
               [[0] * 5] * 5, 5, [5] * 5]
    return [outcome(lambda rows: model_to_dict(Deg5Model.from_matrix(rows)), rows) for rows in inputs]


def cli_mix():
    """The verb mix of the ``cli_cold`` benchmark workload: invariants on
    every degree and the Wuthrich model, the matrix discriminant of
    degrees 3 to 5, jacobian, j, project, transform and weierstrass, with
    models from two seeds, through ``cli.run`` in this process."""
    records = []
    for seed in (1, 2):
        rng = random.Random(f"exact/cli/{seed}")
        smooth = lambda d: next(m for m in iter(lambda: random_model(rng, d), None)
                                if invariants(m).delta)
        curve = Deg1Model(*(rng.randint(-3, 3) for _ in range(4)), 0)
        while not invariants(curve).delta:
            curve = Deg1Model(*(rng.randint(-3, 3) for _ in range(4)), 0)
        quartic, cubic, quadrics = random_model(rng, 2), smooth(3), smooth(4)
        quintic, transform = random_model(rng, 5), random_transformation(rng, 3)
        jobs = [(["invariants", "-"], m) for m in (curve, quartic, cubic, quadrics, quintic,
                                                    wuthrich_model())]
        jobs += [(["discriminant", "-", "--method", "matrix"], m) for m in (cubic, quadrics, quintic)]
        jobs += [(["jacobian", "-"], cubic), (["j", "-"], quadrics),
                 (["project", "-", "--point", "0,0,0,0,1"], weierstrass_model(curve, 5)),
                 (["transform", "-", "--transformation",
                   json.dumps(transformation_to_dict(transform))], cubic),
                 (["weierstrass", *map(str, curve.coefficients()), "--degree", "5"], None)]
        for argv, model in jobs:
            out, err = io.StringIO(), io.StringIO()
            stdin = io.StringIO("" if model is None else dumps_model(model))
            with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(argv)
            records.append((argv, code, out.getvalue(), err.getvalue()))
    return records


GROUPS = {"determinant": determinants, "per_degree": per_degree,
          "weierstrass_projections": weierstrass_projections,
          "from_matrix": from_matrix_outcomes, "cli_mix": cli_mix}

DIGESTS = {
    "determinant": "db4dfb273c8add17582675f2548de9e548ba97d61ec166f1217dfda94186da9b",
    "per_degree": "c931d25c99c5767c02dbfc66b7b649c8d49763d4ca0658d419e2238c0072c1de",
    "weierstrass_projections": "f46a92fda2a78cad4f60f5ee0375918a3e48715c67608373753670b0b64d4b1f",
    "from_matrix": "264d812225e33e066d9e0cc4b351b87da9de5be04239d7ef160cb863ade7ba9f",
    "cli_mix": "835c785b87eb346f114aadb6c9c22a8c74f7d8308d3ef4b20a2e79a25d86fa46",
}


@pytest.mark.parametrize("group", GROUPS)
def test_digest(group):
    assert digest(GROUPS[group]()) == DIGESTS[group]


if __name__ == "__main__":
    for name, records in GROUPS.items():
        print(f"{name}: {digest(records())}")
