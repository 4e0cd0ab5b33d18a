"""Point counts mod p as an independent check of the Jacobian.

A smooth genus one curve C over F_p has a point (Lang), so it is
isomorphic to its Jacobian E, and #C(F_p) = #E(F_p) with E the curve
y^2 = x^3 - 27 c4 x - 54 c6.  For a prime p >= 5 dividing neither Delta
nor a denominator of the model, both reduce to smooth curves mod p.  C is
counted by brute force from ``equations`` reduced mod p, E by Legendre
symbols; only ``equations`` and ``invariants`` are read, so the check
shares no code with the invariants.  Isogenous curves have equal counts,
so this pins (c4, c6) up to isogeny; the weight law pins the rest.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genus1 import Deg5Transform, apply, equations, invariants

from helpers import random_matrix, random_smooth_model, random_transformation

# The primes of the brute-force check: p = 7 alone for degree 5, whose P^4
# has 2801 points.  count_quintic takes degree 5 at primes up to 23.
PRIMES = {2: (7, 11, 13), 3: (7, 11, 13), 4: (7, 11, 13), 5: (7,)}
QUINTIC_PRIMES = (7, 11, 13, 17, 19, 23)


def reduce(c, p: int) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def projective_points(n: int, p: int):
    """One representative of each point of P^(n-1)(F_p), its first nonzero
    coordinate 1."""
    for k in range(n):
        for tail in product(range(p), repeat=n - 1 - k):
            yield (0,) * k + (1,) + tail


def count_curve(m, p: int) -> int:
    """#C(F_p) from the model's equations reduced mod p.  Degree 2 lives in
    the weighted plane: for each (x:z) in P^1, the y with y^2 + p y - q = 0."""
    polys = equations(m)
    eqs = [[(e, reduce(c, p)) for e, c in f.terms.items()] for f in polys]
    points = projective_points(len(polys[0].variables) - (m.degree == 2), p)
    if m.degree == 2:
        points = [xz + (y,) for xz in points for y in range(p)]
    count = 0
    for point in points:
        count += all(sum(c * prod_powers(point, e) for e, c in f) % p == 0 for f in eqs)
    return count


def prod_powers(point, exponents) -> int:
    out = 1
    for v, e in zip(point, exponents):
        if e:
            out *= v ** e
    return out


def count_jacobian(c4, c6, p: int) -> int:
    """#E(F_p) for E: y^2 = x^3 + a x + b, a = -27 c4, b = -54 c6."""
    a, b = reduce(-27 * Fraction(c4), p), reduce(-54 * Fraction(c6), p)
    total = p + 1
    for x in range(p):
        rhs = (x ** 3 + a * x + b) % p
        total += 0 if rhs == 0 else 1 if pow(rhs, (p - 1) // 2, p) == 1 else -1
    return total


def count_quintic(m, p: int) -> int:
    """#C(F_p) of a degree-5 model in O(p^3).  The Pfaffians are the test's
    own Poly products of the matrix entries.  At (x, x5), x a point of
    P^3(F_p), each is A x5^2 + B x5 + C; the x5-roots of the first that is
    not zero are checked in all five.  (0:0:0:0:1) is a point when every
    x5^2 coefficient vanishes."""
    phi = m.matrix()
    pfaffians = []
    for i in range(5):
        a, b, c, d = (k for k in range(5) if k != i)
        pfaffians.append(phi[a][b] * phi[c][d] - phi[a][c] * phi[b][d] + phi[a][d] * phi[b][c])
    # (exponents of x1..x4, exponent of x5, coefficient mod p) of each term
    forms = [[(e[:4], e[4], reduce(c, p)) for e, c in f.terms.items()] for f in pfaffians]
    roots = {}
    for r in range(p):
        roots.setdefault(r * r % p, set()).add(r)
    count = all(c % p == 0 for f in forms for _, k, c in f if k == 2)
    for x in projective_points(4, p):
        polys = []  # C, B, A of each Pfaffian
        for f in forms:
            cba = [0, 0, 0]
            for e, k, c in f:
                cba[k] += c * prod_powers(x, e)
            polys.append([v % p for v in cba])
        first = next((q for q in polys if any(q)), None)
        if first is None:  # the line through x and (0:0:0:0:1) lies on the curve
            count += p
            continue
        c0, c1, c2 = first
        if c2:
            half = pow(2 * c2, -1, p)
            candidates = {(r - c1) * half % p for r in roots.get((c1 * c1 - 4 * c2 * c0) % p, ())}
        else:
            candidates = {-c0 * pow(c1, -1, p) % p} if c1 else set()
        count += sum(all((q[0] + q[1] * t + q[2] * t * t) % p == 0 for q in polys)
                     for t in candidates)
    return count


def good_primes(m, triple, primes=None):
    """The primes of ``primes`` (PRIMES[degree] by default) dividing
    neither Delta's numerator nor a denominator of the model or of its
    invariants."""
    denominators = [Fraction(c).denominator for f in equations(m) for c in f.terms.values()]
    denominators += [Fraction(v).denominator for v in triple]
    return [p for p in primes or PRIMES[m.degree] if Fraction(triple.delta).numerator % p
            and all(d % p for d in denominators)]


def fraction_moved(rng, m):
    """m moved by a random transformation with a 1/3 in its scalar part."""
    g = random_transformation(rng, m.degree)
    rest = [getattr(g, name) for name in g.FIELDS[1:]]  # all but mu (degrees 2, 3) or A
    if m.degree <= 3:
        return apply(type(g)(Fraction(g.mu) / 3, *rest), m)
    return apply(type(g)([[Fraction(c, 3) for c in row] for row in g.A], *rest), m)


@st.composite
def smooth_models(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = random_smooth_model(rng, draw(st.sampled_from([2, 3, 4, 5])), invariants)
    return fraction_moved(rng, m) if draw(st.booleans()) else m


@settings(deadline=None, max_examples=16)
@given(smooth_models())
def test_points_of_the_curve_and_its_jacobian(m):
    triple = invariants(m)
    primes = good_primes(m, triple)
    assume(primes)
    for p in primes:
        assert count_curve(m, p) == count_jacobian(triple.c4, triple.c6, p), p


def test_a_twisted_jacobian_is_caught():
    # c6 -> -c6, the quadratic twist by -1, changes the count exactly at the
    # primes p = 3 mod 4 where #C(F_p) != p + 1; these seeded models have one
    rng = random.Random(0)
    for degree in (2, 3, 4, 5):
        m = random_smooth_model(rng, degree, invariants)
        c4, c6, delta = triple = invariants(m)
        assert any(count_curve(m, p) != count_jacobian(c4, -c6, p)
                   for p in good_primes(m, triple))


def test_points_of_moved_quintics():
    # quintics moved by integer transformations with entries in [-30, 30],
    # as in the benchmark's quintic_big, counted in O(p^3) at the first two
    # good primes up to 23; the fast count first agrees with the brute
    # force on each unmoved model, at p = 7 whether it is good or not
    rng = random.Random(5)
    checked = 0
    for _ in range(3):
        m = random_smooth_model(rng, 5, invariants)
        assert count_quintic(m, 7) == count_curve(m, 7)
        moved = apply(Deg5Transform(random_matrix(rng, 5, -30, 30),
                                    random_matrix(rng, 5, -30, 30)), m)
        triple = invariants(moved)
        for p in good_primes(moved, triple, QUINTIC_PRIMES)[:2]:
            assert count_quintic(moved, p) == count_jacobian(triple.c4, triple.c6, p), p
            checked += 1
    assert checked >= 4
