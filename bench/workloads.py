"""The four seeded workloads of the genus1 benchmark.

A workload is built from a seed.  ``cases()`` yields the inputs of
successive jobs, the same sequence for the same seed; a run passes over
the first ``jobs`` of them again and again.  ``run(case)`` is
one timed job: it calls the public API of genus1 through the package
namespace (``g.invariants``, not a name bound here), so that the
tracer's wrappers see every call.  ``check(case, output)`` compares the
output with exact values that the job itself did not produce: the golden
Wuthrich invariants, the independent determinant discriminant, the
weight law under the transformation groups, and restriction to the
Weierstrass family.

Input generation and the expected values use only this file's own
arithmetic (Tate's formulas, a Leibniz determinant), except where a
check is defined against the library's own result on a smaller input:
the base invariants of ``quintic_big`` and the CLI's expected output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import genus1 as g
import genus1.cli

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env():
    """Environment of a child interpreter that imports genus1 from SRC."""
    return dict(os.environ, PYTHONPATH=str(SRC))


# The order-5 Tate-Shafarevich quintic: upper triangle of the 5x5 matrix,
# entries (1,2), (1,3), ..., (4,5), each as coefficients of x1..x5.
WUTHRICH_ENTRIES = (
    (310, 3, 0, 0, 162),
    (-34, -5, 0, 0, -14),
    (10, 0, 0, 28, 16),
    (80, 0, 0, -32, 0),
    (6, 3, 0, 0, 2),
    (-6, 0, 7, -4, 0),
    (0, -14, -8, 0, 0),
    (0, 0, -1, 0, 0),
    (0, 2, 0, 0, 0),
    (-4, 0, 0, 0, 0),
)
WUTHRICH_C4 = 2 ** 44 * 151009
WUTHRICH_C6 = -(2 ** 66) * 34871057

# The determinant discriminant of degree n equals DISC_SCALE[n] * Delta.
DISC_SCALE = {3: 1728, 4: -16, 5: 32}

# Unit choices for the scalar parts (u, mu) of random transformations.
UNITS = (1, -1, 2, 3, Fraction(1, 2))


# ----------------------------------------------------------------------
# exact reference arithmetic, independent of the package
# ----------------------------------------------------------------------

def det(rows):
    """Leibniz determinant of a small scalar matrix."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        total += term
    return total


def tate_triple(a1, a2, a3, a4, a6):
    """(c4, c6, Delta) of a Weierstrass equation, by Tate's formulas."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    return c4, c6, Fraction(c4 ** 3 - c6 ** 2, 1728)


def j_of(triple):
    c4, _, delta = triple
    return Fraction(c4) ** 3 / delta


def scaled(triple, d):
    """The invariants after a transformation of character d (weights 4, 6, 12)."""
    c4, c6, delta = triple
    return (d ** 4 * c4, d ** 6 * c6, d ** 12 * delta)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

def wuthrich():
    return g.Deg5Model.from_coefficients(WUTHRICH_ENTRIES)


def random_quintic_entries(rng, lo=-2, hi=2):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(5)) for _ in range(10))


def random_model(rng, degree, lo=-3, hi=3):
    coeffs = lambda n: [rng.randint(lo, hi) for _ in range(n)]
    if degree == 1:
        return g.Deg1Model(*coeffs(5))
    if degree == 2:
        return g.Deg2Model.from_coefficients(coeffs(3), coeffs(5))
    if degree == 3:
        return g.Deg3Model.from_coefficients(coeffs(10))
    if degree == 4:
        return g.Deg4Model.from_coefficients(coeffs(10), coeffs(10))
    return g.Deg5Model.from_coefficients(random_quintic_entries(rng))


def random_matrix(rng, n, lo, hi):
    """A random invertible integer matrix and its determinant."""
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
        d = det(m)
        if d:
            return m, d


def random_transform(rng, degree, lo=-3, hi=3):
    """A random transformation of the given degree and its det character."""
    small = lambda: rng.randint(-2, 2)
    if degree == 1:
        u = rng.choice(UNITS)
        return g.Deg1Transform(u, small(), small(), small()), 1 / Fraction(u)
    if degree in (2, 3):
        mu = rng.choice(UNITS)
        b, det_b = random_matrix(rng, degree, lo, hi)
        if degree == 2:
            return g.Deg2Transform(mu, (small(), small(), small()), b), mu * det_b
        return g.Deg3Transform(mu, b), mu * det_b
    a, det_a = random_matrix(rng, 2 if degree == 4 else 5, lo, hi)
    b, det_b = random_matrix(rng, degree, lo, hi)
    if degree == 4:
        return g.Deg4Transform(a, b), det_a * det_b
    return g.Deg5Transform(a, b), det_a * det_a * det_b


def pointed_curve(rng):
    """A smooth Weierstrass model through a chosen rational point (x0, y0),
    with its Tate invariants and the image of the point on the degree-5
    model, (1 : x0 : y0 : x0^2 : x0 y0)."""
    while True:
        a1, a2, a3, a4, x0, y0 = (rng.randint(-3, 3) for _ in range(6))
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
        triple = tate_triple(a1, a2, a3, a4, a6)
        if triple[2]:
            point = (1, x0, y0, x0 * x0, x0 * y0)
            return g.Deg1Model(a1, a2, a3, a4, a6), point, triple


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

class Quintic:
    """Seeded random degree-5 models (entries in [-2, 2]), with the Wuthrich
    model as every eighth job.  Job: invariants plus the 15x15 determinant
    discriminant."""

    why = ("random degree-5 models plus the Wuthrich quintic: the covariant "
           "pipeline (pencil and dual determinants, five solves, Poly.__mul__) "
           "on small coefficients")
    jobs = 8

    def __init__(self, seed):
        self.seed = seed

    def cases(self):
        rng = random.Random(f"quintic/{self.seed}")
        for k in itertools.count():
            if k % self.jobs == 0:
                yield wuthrich(), (WUTHRICH_C4, WUTHRICH_C6)
            else:
                yield g.Deg5Model.from_coefficients(random_quintic_entries(rng)), None

    def run(self, case):
        model, _ = case
        return g.invariants(model), g.discriminant_deg5_matrix(model)

    def check(self, case, output):
        _, golden = case
        (c4, c6, delta), disc = output
        return (delta == Fraction(disc) / DISC_SCALE[5]
                and (golden is None or (c4, c6) == golden))


class QuinticBig:
    """A pool of four base quintics (Wuthrich and three seeded random ones),
    each pushed through seeded Deg5Transforms with entries in [-30, 30]:
    about 18-bit model coefficients and 300-bit c4.  Job: apply, the det
    character, and the invariants of the image."""

    why = ("the same code on quintics moved by transformations with entries in "
           "[-30, 30]: big-int products outweigh dict overhead, so a Poly change "
           "that costs big coefficients shows")
    pool = jobs = 4

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"quintic_big/{seed}/bases")
        c4, c6 = WUTHRICH_C4, WUTHRICH_C6
        self.bases = [(WUTHRICH_ENTRIES, (c4, c6, Fraction(c4 ** 3 - c6 ** 2, 1728)))]
        while len(self.bases) < self.pool:
            entries = random_quintic_entries(rng)
            triple = g.invariants(g.Deg5Model.from_coefficients(entries))
            if triple.delta:
                self.bases.append((entries, tuple(triple)))

    def cases(self):
        rng = random.Random(f"quintic_big/{self.seed}/transforms")
        for k in itertools.count():
            entries, triple = self.bases[k % self.pool]
            transform, character = random_transform(rng, 5, -30, 30)
            yield g.Deg5Model.from_coefficients(entries), transform, character, triple

    def run(self, case):
        model, transform, _, _ = case
        return g.invariants(g.apply(transform, model)), g.det_character(transform)

    def check(self, case, output):
        _, _, character, base = case
        triple, d = output
        return d == character and tuple(triple) == scaled(base, character)


class LowDegree:
    """One record per job: seeded random models of degrees 1-4 with a random
    transformation each, and a pointed Weierstrass curve.  Job: invariants of
    every model, the 6x6 and 10x10 determinant discriminants, apply and the
    invariants of each image, the Weierstrass models of degrees 2-4, the
    degree-5 one projected from the image of the point, and the j-invariant
    and Jacobian of the projection."""

    why = ("degrees 1 to 4, no degree-5 covariants: deg4_auxiliary_quadrics and "
           "the Hessian syzygy dominate; a degree-5 change must not move it")
    jobs = 8

    def __init__(self, seed):
        self.seed = seed

    def cases(self):
        rng = random.Random(f"low_degree/{self.seed}")
        while True:
            models = [random_model(rng, d) for d in (1, 2, 3, 4)]
            transforms = [random_transform(rng, d) for d in (1, 2, 3, 4)]
            yield models, transforms, pointed_curve(rng)

    def run(self, case):
        models, transforms, (curve, point, _) = case
        base = [g.invariants(m) for m in models]
        discs = (g.discriminant_deg3_matrix(models[2]), g.discriminant_deg4_matrix(models[3]))
        moved = [(g.det_character(t), g.invariants(g.apply(t, m)))
                 for (t, _), m in zip(transforms, models)]
        family = [g.invariants(g.weierstrass_model(curve, n)) for n in (2, 3, 4)]
        projected = g.project_from_point(g.weierstrass_model(curve, 5), point)
        return base, discs, moved, family, g.j_invariant(projected), g.jacobian(projected)

    def check(self, case, output):
        models, transforms, (_, _, triple) = case
        base, discs, moved, family, j, jac = output
        ok = tuple(base[0]) == tate_triple(*models[0].coefficients())
        ok &= all(base[d - 1].delta == Fraction(disc) / DISC_SCALE[d]
                  for d, disc in zip((3, 4), discs))
        ok &= all(d == character and tuple(image) == scaled(b, character)
                  for (_, character), (d, image), b in zip(transforms, moved, base))
        ok &= all(tuple(t) == triple for t in family)
        return ok and j == j_of(triple) == j_of(tate_triple(*jac.coefficients()))


# ----------------------------------------------------------------------
# the command line, one fresh interpreter per job
# ----------------------------------------------------------------------

def _text(model):
    return json.dumps(g.model_to_dict(model))


def _lines(**values):
    return "".join(f"{label} = {value}\n" for label, value in values.items())


def _smooth(rng, degree):
    while True:
        model = random_model(rng, degree)
        if g.invariants(model).delta:
            return model


class CliCold:
    """One ``python -m genus1.cli`` process per job, cycling over a fixed mix
    of fourteen verbs and degrees.  Models go in on standard input; the
    expected output is the library's result on the same model, computed in
    this process before timing."""

    why = ("one python -m genus1.cli process per job over a fixed verb mix: "
           "only here do interpreter start, import and argparse show")

    def __init__(self, seed):
        rng = random.Random(f"cli_cold/{seed}")
        curve, point, _ = pointed_curve(rng)
        quartic = random_model(rng, 2)
        cubic, quadrics = _smooth(rng, 3), _smooth(rng, 4)
        quintic = random_model(rng, 5)
        transform, _ = random_transform(rng, 3)
        quintic5 = g.weierstrass_model(curve, 5)
        mix = []
        for model in (curve, quartic, cubic, quadrics, quintic, wuthrich()):
            c4, c6, delta = g.invariants(model)
            mix.append((["invariants", "-"], _text(model), _lines(c4=c4, c6=c6, Delta=delta)))
        for model in (cubic, quadrics, quintic):
            mix.append((["discriminant", "-", "--method", "matrix"], _text(model),
                        _lines(Delta=g.invariants(model).delta)))
        a1, a2, a3, a4, a6 = g.jacobian(cubic).coefficients()
        mix.append((["jacobian", "-"], _text(cubic), _lines(a1=a1, a2=a2, a3=a3, a4=a4, a6=a6)))
        mix.append((["j", "-"], _text(quadrics), _lines(j=g.j_invariant(quadrics))))
        mix.append((["project", "-", "--point", ",".join(map(str, point))], _text(quintic5),
                    g.model_to_dict(g.project_from_point(quintic5, point))))
        mix.append((["transform", "-", "--transformation",
                     json.dumps(g.transformation_to_dict(transform))], _text(cubic),
                    g.model_to_dict(g.apply(transform, cubic))))
        mix.append((["weierstrass", *map(str, curve.coefficients()), "--degree", "5"], "",
                    g.model_to_dict(quintic5)))
        self.mix = mix
        self.jobs = len(mix)
        self.env = subprocess_env()

    def cases(self):
        return itertools.cycle(self.mix)

    def run(self, case):
        argv, stdin, _ = case
        done = subprocess.run([sys.executable, "-m", "genus1.cli", *argv], input=stdin,
                              capture_output=True, text=True, env=self.env, timeout=120)
        return done.returncode, done.stdout

    def run_in_process(self, case):
        """The same job through ``genus1.cli.run`` in this process."""
        argv, stdin, _ = case
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out):
                code = genus1.cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def check(self, case, output):
        _, _, expected = case
        code, stdout = output
        if code != 0:
            return False
        if isinstance(expected, str):
            return stdout == expected
        return json.loads(stdout) == expected


WORKLOADS = {"quintic": Quintic, "quintic_big": QuinticBig,
             "low_degree": LowDegree, "cli_cold": CliCold}
