"""Exact linear algebra: polynomial determinants, Pfaffians, and
fraction-free elimination over the rationals.

Two families of routines live here.

* Polynomial matrices (lists of rows of :class:`~genus1.poly.Poly`):
  ``determinant`` via expansion by minors with memoisation on column
  subsets, and ``pfaffian4`` for 4x4 alternating matrices.  These are used
  on small matrices (at most 5x5 in the degree-5 pipeline) whose entries
  are polynomials, where elimination would cause coefficient blowup.

* Scalar matrices (rows of ints / Fractions): rank, determinant, linear
  solving and kernel bases, all through a single Bareiss fraction-free
  echelon pass on an integer matrix obtained by clearing denominators
  row by row.  Intermediate entries stay integral, which keeps the 15x15
  and 70x15 systems of the degree-5 algorithm fast and exact.

Pivots are always the first nonzero entry scanning rows top-down and
columns left-right, so every result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .poly import Poly, Scalar, as_scalar


# ----------------------------------------------------------------------
# polynomial matrices
# ----------------------------------------------------------------------

def _check_square(rows) -> int:
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return n


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials.

    Expansion by minors along the first remaining row, memoised on the
    set of unused columns, so each of the 2^n minors is computed once.
    """
    n = _check_square(rows)
    ring = rows[0][0].variables
    zero = Poly.zero(ring)
    memo: dict[tuple[int, int], Poly] = {}

    def minor(r: int, mask: int) -> Poly:
        if r == n:
            return Poly.constant(ring, 1)
        key = (r, mask)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = zero
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not (mask & bit):
                continue
            entry = rows[r][j]
            if entry:
                sub = minor(r + 1, mask & ~bit)
                total = total + entry * sub if sign > 0 else total - entry * sub
            sign = -sign
        memo[key] = total
        return total

    return minor(0, (1 << n) - 1)


def is_alternating(rows: Sequence[Sequence[Poly]]) -> bool:
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    for i in range(n):
        if rows[i][i]:
            return False
        for j in range(i + 1, n):
            if rows[j][i] != -rows[i][j]:
                return False
    return True


def pfaffian4(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Pfaffian of a 4x4 alternating matrix: m01*m23 - m02*m13 + m03*m12."""
    if len(rows) != 4 or not is_alternating(rows):
        raise ValueError("pfaffian4 needs a 4x4 alternating matrix")
    return rows[0][1] * rows[2][3] - rows[0][2] * rows[1][3] + rows[0][3] * rows[1][2]


def alternating_from_upper(ring, upper: Sequence[Poly], n: int):
    """Build an n x n alternating matrix from its upper triangle.

    ``upper`` is row-major: (0,1), (0,2), ..., (n-2, n-1).
    """
    if len(upper) != n * (n - 1) // 2:
        raise ValueError("wrong number of upper-triangle entries")
    zero = Poly.zero(ring)
    rows = [[zero] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            entry = next(it)
            rows[i][j] = entry
            rows[j][i] = -entry
    return rows


# ----------------------------------------------------------------------
# scalar matrices (ints / Fractions)
# ----------------------------------------------------------------------

def _norm(x: Scalar) -> Scalar:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _integerize(rows, rhs=None):
    """Scale each row (and its rhs entry) to integers; return the factors."""
    int_rows = []
    scaled_rhs = [] if rhs is not None else None
    factors = []
    for i, row in enumerate(rows):
        entries = [as_scalar(x) for x in row]
        extra = [as_scalar(rhs[i])] if rhs is not None else []
        mult = lcm(*(x.denominator for x in entries + extra if isinstance(x, Fraction)), 1)
        int_rows.append([int(x * mult) for x in entries])
        if rhs is not None:
            scaled_rhs.append(int(extra[0] * mult))
        factors.append(mult)
    return int_rows, scaled_rhs, factors


def _bareiss_echelon(m: list[list[int]]):
    """In-place fraction-free row echelon form of an integer matrix.

    Returns (pivot_columns, permutation_sign).  After the k-th step every
    entry is a (k+1)-minor of the original matrix, so all the interior
    divisions are exact.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    piv_cols: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, n_rows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (piv * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
    return piv_cols, sign


def scalar_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    if not rows or not rows[0]:
        return 0
    m, _, _ = _integerize(rows)
    piv_cols, _ = _bareiss_echelon(m)
    return len(piv_cols)


def scalar_det(rows: Sequence[Sequence]) -> Scalar:
    """Exact determinant of a square scalar matrix (Bareiss)."""
    n = _check_square(rows)
    m, _, factors = _integerize(rows)
    piv_cols, sign = _bareiss_echelon(m)
    if len(piv_cols) < n:
        return 0
    det = sign * m[n - 1][piv_cols[-1]]
    denom = 1
    for f in factors:
        denom *= f
    return _norm(Fraction(det, denom))


def solve_linear(rows: Sequence[Sequence], rhs: Sequence):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Overdetermined systems are fine.  Free variables (if any) are set to
    zero; when the solution is unique this returns it.
    """
    n_rows = len(rows)
    if len(rhs) != n_rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if n_rows == 0:
        return []
    n_cols = len(rows[0])
    if any(len(r) != n_cols for r in rows):
        raise ValueError("ragged matrix")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    m, _, _ = _integerize(aug)
    piv_cols, _ = _bareiss_echelon(m)
    if piv_cols and piv_cols[-1] == n_cols:
        return None  # a pivot in the rhs column: inconsistent
    x: list = [0] * n_cols
    for k in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[k]
        row = m[k]
        acc = Fraction(row[n_cols])
        for j in range(c + 1, n_cols):
            if row[j] and x[j]:
                acc -= row[j] * Fraction(x[j])
        x[c] = _norm(acc / row[c])
    return x


def kernel_basis(rows: Sequence[Sequence]) -> list[list]:
    """Canonical basis of the null space of A (one vector per free column).

    The basis is the reduced-echelon one: for each non-pivot column f the
    vector has entry 1 at f, zero at the other free columns, and the pivot
    entries solved by back-substitution.  Ordered by ascending f.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    m, _, _ = _integerize(rows)
    piv_cols, _ = _bareiss_echelon(m)
    pivots = list(enumerate(piv_cols))
    free_cols = [c for c in range(n_cols) if c not in piv_cols]
    basis = []
    for f in free_cols:
        v: list = [0] * n_cols
        v[f] = 1
        for k, c in reversed(pivots):
            row = m[k]
            acc = Fraction(0)
            for j in range(c + 1, n_cols):
                if row[j] and v[j]:
                    acc += row[j] * Fraction(v[j])
            v[c] = _norm(-acc / row[c])
        basis.append(v)
    return basis


# ----------------------------------------------------------------------
# small scalar-matrix helpers
# ----------------------------------------------------------------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if any(len(row) != k for row in a):
        raise ValueError("matrix shapes do not match")
    return tuple(
        tuple(_norm(sum(a[i][t] * b[t][j] for t in range(k))) for j in range(m))
        for i in range(n)
    )


def identity_matrix(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def adjugate(rows: Sequence[Sequence]) -> list[list]:
    """Adjugate of a square scalar matrix: adj(M)[i][j] = cofactor(j, i)."""
    n = _check_square(rows)
    if n == 1:
        return [[1]]
    return [
        [(-1) ** (i + j) * scalar_det([[rows[r][c] for c in range(n) if c != i]
                                       for r in range(n) if r != j])
         for j in range(n)]
        for i in range(n)
    ]


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    sign = 1
    items = list(perm)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign
