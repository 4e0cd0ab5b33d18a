"""Exact linear algebra: polynomial determinants and fraction-free
elimination over the rationals.

``determinant`` takes a square matrix of ``Poly`` entries of one ring
and chooses one of two routes, once, itself:

* a pencil t M_1 + M_0 of linear forms in the variables after t, dense
  enough for its coefficient vectors, goes to ``_pencil_terms``, which
  sets t to 2^w and runs the kernel ``_dense_determinant``: minors on
  dense coefficient vectors;
* any other matrix goes to ``_maximal_minors``: minor expansion on the
  entries, which ``adjugate`` also runs on scalars.

Below ``determinant`` every entry is the coefficient vector of a linear
form over one list of variables, the format the models store.
``invariants`` enters there, and nothing there declines: matrices of
vectors go to the kernel (the degree-5 secant and dual, the degree-3 G
and det(sA + tB) in s, t), and integer M_0 and M_1 to ``_pencil_terms``
(G(U + nu G)).  Only the degree-5 pencil takes ``determinant``.

The scalar routines run Bareiss elimination (Bareiss, Math. Comp. 1968)
on rows scaled to integers, and ``solve_linear`` tries p-adic lifting
first.

Pivots are always the first nonzero entry scanning rows top-down and
columns left-right, so every result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import comb, gcd, lcm, prod
from operator import mul, sub
from typing import Sequence

from .poly import Poly, Scalar, as_scalar, monomials, times_variable


# ----------------------------------------------------------------------
# polynomial matrices
# ----------------------------------------------------------------------

def _check_square(rows) -> int:
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return n


def _dense_determinant(rows) -> list:
    """The determinant of an n x n matrix of linear forms, each entry the
    coefficient vector of its form over one list of m variables, as its
    coefficients over the monomials of degree n in them (``monomials``).

    The expansion runs in integers, det M = det(L M) / L^n with L the lcm
    of the denominators, and reads each entry of L M as its (variable
    index, coefficient) pairs, zeros left out.  A minor of k rows is a list
    over the monomials of degree k.  The minors of the last k rows on every
    k-column set give those of the last k + 1 by expansion along the new
    row: a coefficient a of x_v times the b-th coefficient of a minor adds
    to place ``tab[v][b]`` of the wider one (``times_variable``), the exact
    place of the product.
    """
    n, nvars = len(rows), len(rows[0][0])
    scale = lcm(*(c.denominator for row in rows for entry in row for c in entry if type(c) is not int))
    rows = [[[(v, int(c * scale)) for v, c in enumerate(entry) if c] for entry in row] for row in rows]
    minors: dict[int, list] = {0: [1]}  # no rows: the constant 1
    for k in range(n):
        tab = times_variable(nvars, k)
        size = comb(nvars + k, k + 1)
        wider: dict[int, list] = {}
        for mask, minor in minors.items():
            for c, pairs in enumerate(rows[n - 1 - k]):
                bit = 1 << c
                if mask & bit or not pairs:
                    continue
                out = wider.get(mask | bit)
                if out is None:
                    out = wider[mask | bit] = [0] * size
                # c's place among the columns of mask | bit gives the sign
                odd = (mask & (bit - 1)).bit_count() & 1
                for v, a in pairs:
                    if odd:
                        a = -a
                    for i, m in zip(tab[v], minor):
                        out[i] += a * m
        minors = wider
    det = minors.get((1 << n) - 1) or [0] * comb(nvars + n - 1, n)
    return det if scale == 1 else [as_scalar(Fraction(c, scale ** n)) for c in det]


def _maximal_minors(rows) -> dict:
    """{column mask: minor} over the given rows, zero minors left out,
    built last row first: the minors of the last k rows give those of the
    last k + 1 by expansion along the new row.  The entries, ``Poly``
    values or scalars, need only ``*``, ``+``, unary ``-`` and ``bool``."""
    minors: dict = {0: 1}  # no rows: the constant 1
    for row in reversed(rows):
        wider: dict = {}
        for mask, minor in minors.items():
            for c, entry in enumerate(row):
                bit = 1 << c
                if mask & bit or not entry:
                    continue
                term = entry * minor
                # c's place among the columns of mask | bit gives the sign
                if (mask & (bit - 1)).bit_count() & 1:
                    term = -term
                prev = wider.get(mask | bit)
                wider[mask | bit] = term if prev is None else prev + term
        minors = {mask: minor for mask, minor in wider.items() if minor}
    return minors


def _pencil_terms(m0, m1) -> dict:
    """{(k,) + exponents: t^k coefficient} of det(t M_1 + M_0), M_0 and
    M_1 != 0 of integer linear forms, each entry its coefficient vector
    over the variables after t, by Kronecker substitution in t (Harvey,
    JSC 2009).

    First g, the gcd of the t coefficients, is taken out: M(t) = M'(g t),
    so the t^k coefficient of det M is g^k times that of det M'.  Then t
    is set to X = 2^w, and one determinant of linear forms in the
    variables that occur, by ``_dense_determinant``, carries every power
    of t in the balanced base-X digits of its coefficients.  B, the
    product over the rows of M' of the sum of the l1 norms of their
    entries, bounds every coefficient of det M' in all variables
    (||fg||_1 <= ||f||_1 ||g||_1), and 2^w > 2B, so those digits are
    exactly the coefficients of t^0, t^1, ...
    """
    content = gcd(*(c for row in m1 for entry in row for c in entry))
    bound = prod(sum(map(abs, chain.from_iterable(row0)))
                 + sum(map(abs, chain.from_iterable(row1))) // content
                 for row0, row1 in zip(m0, m1))
    if not bound:  # a zero row
        return {}
    # every row has l1 norm >= 1, so each digit c_k of an entry is below
    # X/2 in absolute value and no substituted coefficient c_0 + c_1 X is 0
    width, n, nvars = bound.bit_length() + 1, len(m0), len(m0[0][0])
    used = [v for v in range(nvars) if any(entry[v] for m in (m0, m1) for row in m for entry in row)]
    dense = _dense_determinant([[[a[v] + (b[v] // content << width) for v in used]
                                 for a, b in zip(row0, row1)] for row0, row1 in zip(m0, m1)])
    # det M' has t-degree at most n: adding X/2 to each of its n + 1
    # digits makes them all non-negative, and content^k restores t^k
    half, mask = 1 << (width - 1), (1 << width) - 1
    offset = sum(half << width * k for k in range(n + 1))
    # each exponent goes back to its variables' places
    places = [used.index(v) if v in used else len(used) for v in range(nvars)]
    out: dict[tuple, int] = {}
    for e, c in zip(monomials(used, n), dense):
        if c:
            exps = tuple(map((*e, 0).__getitem__, places))
            c += offset
            for k in range(n + 1):
                d = (c >> width * k & mask) - half
                if d:
                    out[(k,) + exps] = d * content ** k
    return out


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials of one ring.

    A row with a Fraction coefficient is first scaled to integers by the
    lcm of its denominators; the expansion runs in integers, and each
    coefficient of the result is divided once by the product of those
    lcms.  The route is chosen once, on the scaled matrix.  It is a
    pencil t M_1 + M_0 for ``_pencil_terms`` when every term is x_v or
    t x_v, v > 0 and t the first variable, some term has t, and it is
    dense enough for ``_dense_determinant``: P, the product of the rows'
    numbers of terms once t is set to 2^w and a bound on the
    determinant's, is 0 (a zero row) or at least C(m + n - 1, n), its
    places for the m variables that occur.  Any other matrix takes
    ``_maximal_minors`` of all its rows.

    Entries from different rings raise ValueError, as Poly arithmetic does.
    """
    n = _check_square(rows)
    ring = rows[0][0].variables
    for row in rows:
        for entry in row:
            if entry.variables != ring:
                raise ValueError(f"polynomial rings differ: {ring} vs {entry.variables}")
    scale = 1
    if not all(type(c) is int for row in rows for entry in row for c in entry.terms.values()):
        scaled = []
        for row in rows:
            mult = lcm(*(c.denominator for entry in row for c in entry.terms.values()
                         if isinstance(c, Fraction)), 1)
            # int() also turns the integral Fractions a Poly sum may hold into ints
            scaled.append([Poly._make(ring, {e: int(c * mult) for e, c in entry.terms.items()})
                           for entry in row])
            scale *= mult
        rows = scaled
    pencil = bool(ring) and all(e[0] <= 1 and sum(e) == e[0] + 1 for row in rows
                                for entry in row for e in entry.terms)
    if pencil:
        # the t^0 and t^1 parts of each entry as vectors over the variables after t
        m0, m1 = ([[[entry.terms.get((k,) + e, 0) for e in monomials(ring[1:], 1)]
                    for entry in row] for row in rows] for k in (0, 1))
        # setting t to 2^w cancels no coefficient, so x_v and t x_v make one term
        forms = [[{e[1:] for e in entry.terms} for entry in row] for row in rows]
        used = set().union(*chain.from_iterable(forms))
        size = prod(sum(map(len, row)) for row in forms)
        pencil = any(map(any, chain.from_iterable(m1))) and not 0 < size < comb(len(used) + n - 1, n)
    det = (Poly._make(ring, _pencil_terms(m0, m1)) if pencil
           else _maximal_minors(rows).get((1 << n) - 1, Poly.zero(ring)))
    if scale == 1:
        return det
    return Poly._make(ring, {e: as_scalar(Fraction(c, scale)) for e, c in det.terms.items()})


# ----------------------------------------------------------------------
# scalar matrices (ints / Fractions)
# ----------------------------------------------------------------------

def _integerize(rows):
    """Scale each row to integers; return the rows and the factors.  Rows
    of unequal lengths are a ValueError."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    int_rows = []
    factors = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            int_rows.append(list(row))
            factors.append(1)
            continue
        entries = [as_scalar(x) for x in row]
        mult = lcm(*(x.denominator for x in entries if isinstance(x, Fraction)), 1)
        int_rows.append([int(x * mult) for x in entries])
        factors.append(mult)
    return int_rows, factors


def _bareiss_echelon(m: list[list[int]], n_pivot_cols: int | None = None):
    """In-place fraction-free row echelon form of an integer matrix.

    Pivots are sought in the first ``n_pivot_cols`` columns (all by
    default); the row operations apply to every column, so the columns
    after them are carried along as right-hand sides.  Returns
    (pivot_columns, permutation_sign).  After the k-th step every entry
    is a (k+1)-minor of the original matrix, so all the interior
    divisions are exact.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    piv_cols: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols if n_pivot_cols is None else n_pivot_cols):
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


def _back_substitute(m, piv_cols, x: list, col: int | None = None):
    """Solve an integer echelon form m in integers, last pivot first.

    Row k reads sum_j m[k][j] x_j = m[k][col] (0 if col is None), and x
    holds the values of the free variables.  Returns (y, d) with y = d x
    and d the last pivot, the minor of the pivot rows and columns: by
    Cramer's rule every d x_j is an integer, so every division is exact.
    """
    d = m[len(piv_cols) - 1][piv_cols[-1]] if piv_cols else 1
    y = [d * v for v in x]
    for k in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[k]
        row = m[k]
        acc = 0 if col is None else d * row[col]
        for j in range(c + 1, len(y)):
            if row[j] and y[j]:
                acc -= row[j] * y[j]
        y[c] = acc // row[c]
    return y, d


def _divided(y: list, d: int) -> list:
    return y if d == 1 else [as_scalar(Fraction(v, d)) for v in y]


def pivot_columns(rows: Sequence[Sequence]) -> list[int]:
    """The pivot columns of the echelon form, ascending: each is
    independent of the columns before it, so they pick the first basis of
    the column space scanning left to right."""
    m, _ = _integerize(rows)
    return _bareiss_echelon(m)[0]


def scalar_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    return len(pivot_columns(rows))


def scalar_det(rows: Sequence[Sequence]) -> Scalar:
    """Exact determinant of a square scalar matrix (Bareiss)."""
    n = _check_square(rows)
    m, factors = _integerize(rows)
    piv_cols, sign = _bareiss_echelon(m)
    if len(piv_cols) < n:
        return 0
    det = sign * m[n - 1][piv_cols[-1]]
    denom = 1
    for f in factors:
        denom *= f
    return as_scalar(Fraction(det, denom))


# The prime of the p-adic solve, 2^127 - 1: one balanced base-p digit
# holds every degree-5 solution met so far, so a lift is mostly one step.
_PRIME = (1 << 127) - 1


def _dixon_solve(m: list[list[int]], n_cols: int):
    """(n_cols, solutions) of ``solve_linear`` by p-adic lifting (Dixon,
    "Exact solution of linear equations using p-adic expansions", Numer.
    Math. 1982), or None to leave the system to Bareiss.

    m is the integer matrix A | b_1 | ... | b_k.  When A's first n_cols
    rows, A_0, are invertible modulo the prime p, A has rank n_cols over
    Q (a minor nonzero mod p is nonzero), and each A_0 x = b lifts in
    balanced base-p digits: d = A_0^-1 r mod p from an LU factorisation
    mod p, x += p^i d and r = (r - A_0 d) / p, an exact division, so that
    A_0 x + p^i r = b throughout.  A zero residual makes x the solution.
    If the solution is integral, Hadamard's bound on its Cramer
    numerators gives |x_j| <= H with H^2 <= S, S the product over A_0's
    rows of |row|^2 + b_i^2, and the balanced x equals it once p^i > 2H;
    a residual still nonzero then proves it is not, and None is returned.

    Every equation of A is then checked for every column at once.  With
    |A_row x_c - b_c| < 2^w for every row and column, the product of the
    row A_row | b with (sum_c 2^(wc) x_c, -2^0, -2^w, ...) is
    sum_c (A_row x_c - b_c) 2^(wc), which is 0 exactly when every term
    is.  A row that fails is checked column by column, and the columns it
    fails get None.
    """
    p = _PRIME
    if not 0 < n_cols <= len(m):
        return None
    top = [row[:n_cols] for row in m[:n_cols]]
    # P A_0 = L U mod p in place, L's multipliers below the diagonal and
    # row i of P A_0 row order[i] of A_0.  Only the pivot row is reduced,
    # so an update x - l y only adds to an entry (0 <= l, y < p).
    lu = [list(row) for row in top]
    order = list(range(n_cols))
    inverses = []
    for c in range(n_cols):
        r = next((i for i in range(c, n_cols) if lu[i][c] % p), None)
        if r is None:
            return None
        lu[c], lu[r] = lu[r], lu[c]
        order[c], order[r] = order[r], order[c]
        pivot = lu[c]
        pivot[c:] = [x % p for x in pivot[c:]]
        inv = pow(pivot[c], -1, p)
        inverses.append(inv)
        tail = pivot[c + 1:]
        for row in lu[c + 1:]:
            f = row[c] = row[c] * inv % p
            if f:
                row[c + 1:] = map(sub, row[c + 1:], map(f.__mul__, tail))
    half = p >> 1
    norms = [sum(map(mul, row, row)) for row in top]
    solutions = []
    for col in range(n_cols, len(m[0])):
        residual = [row[col] for row in m[:n_cols]]
        bound = prod(s + v * v for s, v in zip(norms, residual))
        x = [0] * n_cols
        scale = 1
        while any(residual):
            if scale * scale > 4 * bound:
                return None  # not integral
            # L y = P r (each row's dot product stops at len(y)), U d = y
            y = []
            for row, i in zip(lu, order):
                y.append((residual[i] - sum(map(mul, row, y))) % p)
            digit = [0] * n_cols
            for c in range(n_cols - 1, -1, -1):
                d = (y[c] - sum(map(mul, lu[c][c + 1:], digit[c + 1:]))) * inverses[c] % p
                digit[c] = d - p if d > half else d
            x = [v + scale * d for v, d in zip(x, digit)]
            residual = [(v - sum(map(mul, row, digit))) // p for row, v in zip(top, residual)]
            scale *= p
        solutions.append(x)
    big = max((abs(v) for x in solutions for v in x), default=0)
    # |A_row x_c - b_c| <= (n_cols big + 1) max |m|
    width = ((n_cols * big + 1) * max(map(abs, chain.from_iterable(m)))).bit_length()
    packed = [sum(x[j] << width * c for c, x in enumerate(solutions)) for j in range(n_cols)]
    packed += [-1 << width * c for c in range(len(solutions))]
    bad = set()
    for row in m:
        if sum(map(mul, row, packed)):
            bad.update(c for c, x in enumerate(solutions) if sum(map(mul, row, x)) != row[n_cols + c])
    return n_cols, [None if c in bad else x for c, x in enumerate(solutions)]


def solve_linear(rows: Sequence[Sequence], columns: Sequence[Sequence]):
    """Exact solutions of A x = b for each column b in ``columns``.

    Returns (rank of A, solutions): one solution per column, in order, or
    None where A x = b is inconsistent.  ``_dixon_solve`` takes an
    integral system with an integral solution; any other goes through one
    Bareiss elimination of a basis of A's rows, the pivot columns of A^T,
    augmented with every column.  Both routes check every equation of A
    in integers and give the same rank and solutions.

    Overdetermined systems are fine.  Free variables (if any) are set to
    zero; when the solution is unique this returns it.
    """
    n_rows = len(rows)
    if any(len(b) != n_rows for b in columns):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if n_rows == 0:
        return 0, [[] for _ in columns]
    n_cols = len(rows[0])
    m, factors = _integerize([list(row) + [b[i] for b in columns] for i, row in enumerate(rows)])
    # rows scaled from Fractions seldom give integral solutions, which
    # the lift would pursue to its Hadamard step limit before giving up
    lifted = _dixon_solve(m, n_cols) if set(factors) == {1} else None
    if lifted is not None:
        return lifted
    # independent first n_cols rows are a basis of A's rows, and the one
    # A^T picks; otherwise take the rows of A^T's pivot columns
    echelon = [list(row) for row in m[:n_cols]]
    piv_cols, _ = _bareiss_echelon(echelon, n_cols)
    if len(piv_cols) < n_cols:
        basis, _ = _bareiss_echelon([list(col) for col in zip(*(row[:n_cols] for row in m))])
        # the basis rows have A's null space, so they have A's pivot columns
        echelon = [list(m[i]) for i in basis]
        piv_cols, _ = _bareiss_echelon(echelon, n_cols)
    solutions = []
    for col in range(n_cols, n_cols + len(columns)):
        y, d = _back_substitute(echelon, piv_cols, [0] * n_cols, col)
        consistent = all(sum(map(mul, row, y)) == d * row[col] for row in m)
        solutions.append(_divided(y, d) if consistent else None)
    return len(piv_cols), solutions


def kernel_basis(rows: Sequence[Sequence]) -> list[list]:
    """Canonical basis of the null space of A (one vector per free column).

    The basis is the reduced-echelon one: for each non-pivot column f the
    vector has entry 1 at f, zero at the other free columns, and the pivot
    entries solved by back-substitution.  Ordered by ascending f.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    m, _ = _integerize(rows)
    piv_cols, _ = _bareiss_echelon(m)
    return [_divided(*_back_substitute(m, piv_cols, [int(c == f) for c in range(n_cols)]))
            for f in range(n_cols) if f not in piv_cols]


# ----------------------------------------------------------------------
# small scalar-matrix helpers
# ----------------------------------------------------------------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if any(len(row) != k for row in a):
        raise ValueError("matrix shapes do not match")
    return tuple(
        tuple(as_scalar(sum(a[i][t] * b[t][j] for t in range(k))) for j in range(m))
        for i in range(n)
    )


def identity_matrix(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def adjugate(rows: Sequence[Sequence]) -> list[list]:
    """Adjugate of a square scalar matrix: adj(M)[i][j] = cofactor(j, i).

    The cofactors of row j are the ``_maximal_minors`` of the other rows."""
    n = _check_square(rows)
    full = (1 << n) - 1
    adj = [[0] * n for _ in range(n)]
    for j in range(n):
        minors = _maximal_minors([*rows[:j], *rows[j + 1:]])
        for i in range(n):
            cofactor = minors.get(full ^ (1 << i), 0)
            adj[i][j] = as_scalar(-cofactor if (i + j) % 2 else cofactor)
    return adj


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values: -1
    to the number of its inversions."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))
