"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as a dictionary mapping exponent tuples (one
non-negative integer per variable) to nonzero coefficients.  Coefficients
are plain Python ints or ``fractions.Fraction`` values, so every operation
is exact; no floating point is ever involved.  Integer coefficients are
kept as ints (big-int arithmetic is much faster than Fraction arithmetic)
and Fractions only appear when a division forces them: construction, a
scalar multiple and a scalar quotient turn an integral Fraction back into
an int.  The hot loops, the product of two polynomials and ``+``, do not
normalise, so a sum or product of Fraction coefficients may leave an
integral Fraction behind.

Every polynomial carries the ordered tuple of variable names of its ring.
Arithmetic between polynomials requires identical variable tuples; this is
deliberate, so that a degree-5 model polynomial in x1..x5 can never be
silently combined with an auxiliary quadric in v1..v5.

The monomial order used for printing, leading terms and exact division is
graded lexicographic: higher total degree first, ties broken by the
exponent tuple (so the first variable in the ring is the biggest).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import lcm
from operator import add, mul
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]


# "n" or "n/d" with an optional sign: no exponent or decimal point, so the
# value has no more digits than the text and the int/str digit limit holds.
_SCALAR_TEXT = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def as_scalar(value) -> Scalar:
    """Coerce ``value`` to an exact scalar; an integral Fraction becomes an int.

    Accepts ints, Fractions and strings like ``"5"`` or ``"-3/4"``.
    Floats are rejected: they would silently break exactness.  A zero
    denominator, an exponent (``"1e5"``) or a decimal point is a
    ValueError, like any other malformed number string.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        if not _SCALAR_TEXT.fullmatch(value):
            raise ValueError(f"not an exact number n or n/d: {value!r}")
        try:
            return as_scalar(Fraction(value.strip()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact scalar: {value!r}")


def integral(values: Sequence[Scalar]) -> tuple[Sequence[int], int]:
    """(L values, L) for exact scalars, L the lcm of their denominators: a Fraction c
    becomes c.numerator * (L // c.denominator), an int c becomes L c, and an all-int
    sequence comes back as it is, with L = 1.  Kernels divide by L once, at their end."""
    if set(map(type, values)) <= {int}:
        return values, 1
    scale = lcm(*(c.denominator for c in values))
    return [c.numerator * (scale // c.denominator) for c in values], scale


def _divided(values: list, d: int) -> list:
    """Each value divided by d, normalised; the list itself when d is 1."""
    return values if d == 1 else [as_scalar(Fraction(v, d)) for v in values]


def format_scalar(value: Scalar) -> str:
    """Render a scalar as ``"n"`` or ``"n/d"`` (the CLI output format)."""
    return str(as_scalar(value))


class Poly:
    """Immutable sparse polynomial over an ordered tuple of variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar] | None = None):
        variables = tuple(variables)
        clean: dict[tuple, Scalar] = {}
        if terms:
            nvars = len(variables)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not match variables {variables}")
                if any(e < 0 or not isinstance(e, int) for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                coeff = as_scalar(coeff)
                if coeff:
                    clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "Poly":
        # Internal fast path: terms are already canonical (no zeros).
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls._make(tuple(variables), {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Poly":
        value = as_scalar(value)
        variables = tuple(variables)
        if not value:
            return cls._make(variables, {})
        return cls._make(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} in ring {variables}")
        exps = tuple(int(v == name) for v in variables)
        return cls._make(variables, {exps: 1})

    @classmethod
    def from_vector(cls, variables: Sequence[str], basis, coeffs) -> "Poly":
        """The polynomial with the coefficients ``coeffs`` at the exponents of
        ``basis`` (such as ``monomials(variables, d)``), zeros left out: the
        view of a coefficient vector, whose scalars must be normalised."""
        return cls._make(tuple(variables), {e: c for e, c in zip(basis, coeffs) if c})

    # -- ring bookkeeping --------------------------------------------------

    def _same_ring(self, other: "Poly"):
        if self.variables != other.variables:
            raise ValueError(f"polynomial rings differ: {self.variables} vs {other.variables}")

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.variables, other)
        if isinstance(other, float):
            raise TypeError("float coefficients are not allowed (exact arithmetic only)")
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps, 0) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly._make(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_scalar(other)
            if not other:
                return Poly._make(self.variables, {})
            if isinstance(other, Fraction):
                return Poly._make(self.variables,
                                  {e: as_scalar(c * other) for e, c in self.terms.items()})
            return Poly._make(self.variables, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly._make(self.variables, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.variables, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset((e, Fraction(c)) for e, c in self.terms.items())))

    def __reduce__(self):
        return Poly, (self.variables, self.terms)

    def __bool__(self):
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exponents), 0)

    def _var_index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r} in ring {self.variables}") from None

    # -- calculus and maps -------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        """Exact partial derivative with respect to ``var``."""
        idx = self._var_index(var)
        out = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k:
                e = exps[:idx] + (k - 1,) + exps[idx + 1:]
                out[e] = out.get(e, 0) + k * coeff
        return Poly._make(self.variables, {e: c for e, c in out.items() if c})

    def evaluate(self, values: Sequence) -> Scalar:
        """Evaluate at a point given as one scalar per ring variable."""
        if len(values) != len(self.variables):
            raise ValueError("wrong number of values")
        values = [as_scalar(v) for v in values]
        total: Scalar = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return as_scalar(total)

    def lift(self, variables: Sequence[str]) -> "Poly":
        """Reinterpret in a larger ring containing all current variables."""
        variables = tuple(variables)
        positions = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"target ring {variables} does not contain {v!r}")
            positions.append(variables.index(v))
        out = {}
        for exps, coeff in self.terms.items():
            e = [0] * len(variables)
            for pos, k in zip(positions, exps):
                e[pos] = k
            out[tuple(e)] = coeff
        return Poly._make(variables, out)

    # -- printing ----------------------------------------------------------

    def _ordered_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self._ordered_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps) if e
            )
            c = as_scalar(coeff)
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if not mono:
                body = format_scalar(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{format_scalar(mag)}*{mono}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self.variables}, {self})"


def generators(variables: Sequence[str]) -> tuple:
    """The variables of a ring as polynomials, in ring order."""
    variables = tuple(variables)
    return tuple(Poly.variable(variables, v) for v in variables)


def monomials(variables: Sequence[str], degree: int) -> list:
    """Exponent tuples of all monomials of a total degree, descending graded-lex."""
    return list(_monomial_basis(len(variables), degree))


@cache
def _monomial_basis(nvars: int, degree: int) -> tuple:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


@cache
def product_places(nvars: int, d1: int, d2: int) -> tuple:
    """The index table of multiplication of monomials: ``tab[a][b]`` is the
    position in ``monomials(ring, d1 + d2)`` of the a-th monomial of
    ``monomials(ring, d1)`` times the b-th of ``monomials(ring, d2)``, for a
    ring of nvars variables; with d1 = 1, ``tab[v]`` places x_v times each.
    Built on first use and cached."""
    index = {e: i for i, e in enumerate(_monomial_basis(nvars, d1 + d2))}
    return tuple(tuple(index[tuple(map(add, a, b))] for b in _monomial_basis(nvars, d2))
                 for a in _monomial_basis(nvars, d1))


def form_product(f, g, nvars: int, d1: int, d2: int) -> list:
    """The coefficients of the product of forms of degrees d1 and d2 in
    nvars variables, each given over ``monomials`` of its degree, over
    ``monomials(ring, d1 + d2)``."""
    out = [0] * len(_monomial_basis(nvars, d1 + d2))
    for places, a in zip(product_places(nvars, d1, d2), f):
        if a:
            for i, b in zip(places, g):
                out[i] += a * b
    return out


@cache
def _partial_places(nvars: int, degree: int) -> tuple:
    # row v: for each monomial b of degree - 1, the place of x_v b and b_v + 1
    lower = _monomial_basis(nvars, degree - 1)
    return tuple(tuple(zip(places, [b[v] + 1 for b in lower]))
                 for v, places in enumerate(product_places(nvars, 1, degree - 1)))


def gradient(f, nvars: int, degree: int) -> list[list]:
    """The partials df/dx_v, v = 0..nvars-1, of a form of degree >= 1 in nvars
    variables given over ``monomials(ring, degree)``, each over ``monomials(ring,
    degree - 1)``: the coefficient at b is (b_v + 1) f[x_v b].  For a quadric the
    rows are its Hessian matrix."""
    return [[k * f[q] for q, k in row] for row in _partial_places(nvars, degree)]


def symmetric_power(B, degree: int) -> list:
    """The matrix Sym^d(B) of the substitution x_j = sum_i B_ij x_i' on
    forms of degree d in n = len(B) variables, as a list of rows.

    Column c holds the coefficients, over ``monomials(ring, d)``, of
    prod_j l_j^(e_j), where e is the c-th monomial and l_j = sum_i B_ij
    x_i'; so a form with coefficient vector f becomes the form with
    coefficient vector Sym^d(B) f.  The columns of degree k + 1 are
    built from those of degree k, each as l_j times the column that
    x_j multiplies into it, at the places ``product_places(n, 1, k)`` gives.
    """
    n = len(B)
    columns = [[1]]
    for k in range(degree):
        tab = product_places(n, 1, k)
        wider: list = [None] * len(_monomial_basis(n, k + 1))
        for j in range(n):
            form = [(tab[i], B[i][j]) for i in range(n) if B[i][j]]
            for b, place in enumerate(tab[j]):
                if wider[place] is None:
                    column = wider[place] = [0] * len(wider)
                    for places, a in form:
                        for i, c in zip(places, columns[b]):
                            if c:
                                column[i] += a * c
        columns = wider
    return list(zip(*columns))


def substituted_coefficients(vectors, B, degree: int) -> list[list]:
    """The coefficient vectors, over ``monomials(ring, degree)``, of forms
    of that degree, given by such vectors, under x_j = sum_i B_ij x_i':
    Sym^d(B) times each.
    With L B integral (``integral``), Sym^d(B) = Sym^d(L B) / L^d, so the
    products run on an integer matrix and each coefficient is divided
    once."""
    n = len(B)
    flat, scale = integral([c for row in B for c in row])
    sym = symmetric_power([flat[i:i + n] for i in range(0, n * n, n)], degree)
    return [_divided([sum(map(mul, row, vec)) for row in sym], scale ** degree) for vec in vectors]


def leading_term(p: Poly) -> tuple:
    """(exponents, coefficient) of the graded-lex leading term."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    exps = max(p.terms, key=lambda e: (sum(e), e))
    return exps, p.terms[exps]


def exact_divide(num: Poly, den: Poly):
    """Return ``q`` with ``num == q * den`` if it exists, else None.

    Division by leading-term reduction under graded lex.  Because leading
    terms are multiplicative, the first non-divisible leading term proves
    that no exact quotient exists.
    """
    num._same_ring(den)
    if not den:
        raise ZeroDivisionError("exact division by the zero polynomial")
    den_exps, den_coeff = leading_term(den)
    quotient: dict[tuple, Scalar] = {}
    rest = num
    while rest:
        exps, coeff = leading_term(rest)
        diff = tuple(map(lambda a, b: a - b, exps, den_exps))
        if any(e < 0 for e in diff):
            return None
        c = as_scalar(Fraction(coeff) / Fraction(den_coeff))
        quotient[diff] = c
        rest = rest - Poly._make(num.variables, {diff: c}) * den
    return Poly(num.variables, quotient)
