"""Print the invariants c4, c6, Delta of a model moved by a transformation.

    python tests/scaled_triple.py TRANSFORMATION_JSON C4 C6 DELTA

The moved model has d^4 c4, d^6 c6 and d^12 Delta, with d the det
character of the transformation: 1/u in degree 1, mu det B in degrees 2
and 3, det A det B in degree 4 and (det A)^2 det B in degree 5.  The determinants are taken
by the Leibniz formula, and nothing is imported from genus1, so the output
is a reference for ``genus1 invariants`` that the package did not compute.
Scalars are integers or "n/d" strings; the output prints them as genus1
does, one ``label = value`` line each.
"""

import json
import sys
from fractions import Fraction
from itertools import permutations


def det(m):
    total = 0
    for p in permutations(range(len(m))):
        term = (-1) ** sum(p[j] > p[i] for i in range(len(p)) for j in range(i))
        for i, j in enumerate(p):
            term *= Fraction(str(m[i][j]))
        total += term
    return total


def character(g) -> Fraction:
    if g["degree"] == 1:
        return 1 / Fraction(str(g["u"]))
    if g["degree"] in (2, 3):
        return Fraction(str(g["mu"])) * det(g["B"])
    return det(g["A"]) ** (g["degree"] - 3) * det(g["B"])


if __name__ == "__main__":
    d = character(json.loads(sys.argv[1]))
    c4, c6, delta = (Fraction(arg) for arg in sys.argv[2:5])
    print(f"c4 = {c4 * d ** 4}\nc6 = {c6 * d ** 6}\nDelta = {delta * d ** 12}")
