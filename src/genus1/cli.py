"""Command line front end.

Every verb but weierstrass, which builds its model from five coefficients,
reads a model from a JSON file (or standard input with ``-``) and prints
exact values, one ``label = value`` line per quantity, with numbers
rendered as decimal integers or ``num/den``.  Verbs that produce a model
(weierstrass, transform, project) write the model file to standard output
so they compose in a pipeline:

    genus1 weierstrass 0 0 0 -1 0 --degree 5 | genus1 invariants -

Exit codes: 0 success, 1 singular model where a smooth one is required
(jacobian / j on Delta = 0), 2 malformed input or violated precondition,
3 failed internal consistency check or any other unexpected error.
"""

from __future__ import annotations

import _thread
import argparse
import json
import sys

from .errors import DegenerateModelError, InputError, InternalCheckError, SingularModelError
from .invariants import a1_char2, invariants, j_invariant, jacobian, matrix_discriminant
from .models import (Deg1Model, dumps_model, loads_model, project_from_point,
                     require_degree, weierstrass_model)
from .poly import as_scalar
from .transforms import apply, transformation_from_dict


def _parse_scalar(text: str):
    try:
        return as_scalar(text)
    except (ValueError, TypeError) as exc:
        raise InputError(f"not an exact number: {text!r}") from exc


def _read_model(path: str):
    try:
        if path == "-":
            return loads_model(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return loads_model(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read model file {path!r}: {exc}") from exc


def _lines(labels, values) -> str:
    return "".join(f"{label} = {value}\n" for label, value in zip(labels, values))


# Each verb maps the model read (None for weierstrass) and the parsed
# arguments to the text it writes on standard output.

def _invariants(model, args) -> str:
    return _lines(("c4", "c6", "Delta"), invariants(model))


def _jacobian(model, args) -> str:
    return _lines(("a1", "a2", "a3", "a4", "a6"), jacobian(model).coefficients())


def _j(model, args) -> str:
    return _lines(("j",), (j_invariant(model),))


def _pfaffians(model, args) -> str:
    require_degree(model, (5,), "pfaffians")
    return _lines(("p1", "p2", "p3", "p4", "p5"), model.pfaffians())


def _discriminant(model, args) -> str:
    matrix = None if args.method == "formula" else matrix_discriminant(model)
    delta = matrix if args.method == "matrix" else invariants(model).delta
    if matrix is not None and matrix != delta:
        raise InternalCheckError(f"degree-{model.degree} model: formula and matrix Delta differ")
    return _lines(("Delta",), (delta,))


def _weierstrass(_, args) -> str:
    w = Deg1Model(*[_parse_scalar(c) for c in (args.a1, args.a2, args.a3, args.a4, args.a6)])
    return dumps_model(w if args.degree == 1 else weierstrass_model(w, args.degree))


def _transform(model, args) -> str:
    try:
        data = json.loads(args.transformation)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid transformation JSON: {exc}") from exc
    return dumps_model(apply(transformation_from_dict(data), model))


def _project(model, args) -> str:
    point = [_parse_scalar(part) for part in args.point.split(",")]
    return dumps_model(project_from_point(model, point))


def _a1_char2(model, args) -> str:
    return _lines(("a1 mod 2",), (a1_char2(model),))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus1",
        description="Exact invariants and Jacobians of genus one models of degree 1 to 5.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("model", help="model JSON file, or - for standard input")
        p.set_defaults(func=func)
        return p

    verb("invariants", _invariants, "print c4, c6 and Delta")
    verb("jacobian", _jacobian, "print the Jacobian Weierstrass coefficients")
    verb("j", _j, "print the j-invariant c4^3 / Delta")
    verb("pfaffians", _pfaffians, "print the quadrics of a degree-5 model")
    p = verb("discriminant", _discriminant, "print Delta by either method")
    p.add_argument("--method", choices=("formula", "matrix", "both"), default="formula",
                   help="formula: via c4, c6; matrix: via the determinant identity; "
                        "both: each, and exit 3 if they differ")

    p = sub.add_parser("weierstrass", help="emit the degree-n model of a Weierstrass equation")
    for name in ("a1", "a2", "a3", "a4", "a6"):
        p.add_argument(name, help=f"Weierstrass coefficient {name}")
    p.add_argument("--degree", type=int, default=1, choices=(1, 2, 3, 4, 5))
    p.set_defaults(func=_weierstrass)

    p = verb("transform", _transform, "apply a transformation to a model")
    p.add_argument("--transformation", required=True, metavar="JSON",
                   help='e.g. \'{"degree": 3, "mu": "2", "B": [["1","0","0"],["0","1","0"],["0","0","1"]]}\'')
    p = verb("project", _project, "project a degree-5 model from a rational point")
    p.add_argument("--point", required=True, metavar="x1,x2,x3,x4,x5",
                   help="homogeneous coordinates of a smooth point on the curve")
    verb("a1-char2", _a1_char2, "print the weight-1 invariant mod 2")
    return parser


_DIGITS, _DIGITS_LOCK = [0, None], _thread.allocate_lock()  # calls in run, limit to restore


def _digit_limit(step: int) -> None:
    """Count a call into (+1) or out of (-1) ``run``: the first in lifts the process-wide
    int/str digit limit (4300 by default), as exact values have none, the last out restores it."""
    with _DIGITS_LOCK:
        if not _DIGITS[0] and hasattr(sys, "get_int_max_str_digits"):  # Python >= 3.10.7
            _DIGITS[1] = sys.get_int_max_str_digits()
        _DIGITS[0] += step
        if _DIGITS[1] is not None:
            sys.set_int_max_str_digits(0 if _DIGITS[0] else _DIGITS[1])


def run(argv) -> int:
    _digit_limit(1)
    try:
        args = build_parser().parse_args(argv)
        model = _read_model(args.model) if "model" in args else None
        sys.stdout.write(args.func(model, args))
        return 0
    except (SingularModelError, InputError, DegenerateModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SingularModelError) else 2
    except Exception as exc:  # a failed check, or a bug: in the exit-code contract, not a traceback
        kind = "" if isinstance(exc, InternalCheckError) else f"{type(exc).__name__}: "
        print(f"internal error: {kind}{' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 3
    finally:
        _digit_limit(-1)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
