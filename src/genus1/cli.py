"""Command line front end.

Every verb reads a model from a JSON file (or standard input with ``-``)
and prints exact values, one ``label = value`` line per quantity, with
numbers rendered as decimal integers or ``num/den``.  Verbs that produce
a model (weierstrass, transform, project) write the model file to
standard output so they compose in a pipeline:

    genus1 weierstrass 0 0 0 -1 0 --degree 5 | genus1 invariants -

Exit codes: 0 success, 1 singular model where a smooth one is required
(jacobian / j on Delta = 0), 2 malformed input or violated precondition,
3 failed internal consistency check or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (DegenerateModelError, InputError, InternalCheckError,
                     SingularModelError)
from .invariants import (a1_char2, invariants, j_invariant, jacobian,
                         matrix_discriminant)
from .models import (Deg1Model, dumps_model, loads_model, project_from_point,
                     require_degree, weierstrass_model)
from .poly import as_scalar, format_scalar
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


def _cmd_invariants(args) -> int:
    model = _read_model(args.model)
    c4, c6, delta = invariants(model)
    print(f"c4 = {format_scalar(c4)}")
    print(f"c6 = {format_scalar(c6)}")
    print(f"Delta = {format_scalar(delta)}")
    return 0


def _cmd_jacobian(args) -> int:
    model = _read_model(args.model)
    curve = jacobian(model)
    for label, value in zip(("a1", "a2", "a3", "a4", "a6"), curve.coefficients()):
        print(f"{label} = {format_scalar(value)}")
    return 0


def _cmd_j(args) -> int:
    model = _read_model(args.model)
    print(f"j = {format_scalar(j_invariant(model))}")
    return 0


def _cmd_pfaffians(args) -> int:
    model = _read_model(args.model)
    require_degree(model, (5,), "pfaffians")
    for i, p in enumerate(model.pfaffians(), start=1):
        print(f"p{i} = {p}")
    return 0


def _cmd_discriminant(args) -> int:
    model = _read_model(args.model)
    delta = invariants(model).delta if args.method == "formula" else matrix_discriminant(model)
    print(f"Delta = {format_scalar(delta)}")
    return 0


def _cmd_weierstrass(args) -> int:
    w = Deg1Model(*[_parse_scalar(c) for c in (args.a1, args.a2, args.a3, args.a4, args.a6)])
    model = w if args.degree == 1 else weierstrass_model(w, args.degree)
    sys.stdout.write(dumps_model(model))
    return 0


def _cmd_transform(args) -> int:
    model = _read_model(args.model)
    try:
        data = json.loads(args.transformation)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid transformation JSON: {exc}") from exc
    g = transformation_from_dict(data)
    sys.stdout.write(dumps_model(apply(g, model)))
    return 0


def _cmd_project(args) -> int:
    model = _read_model(args.model)
    point = [_parse_scalar(part) for part in args.point.split(",")]
    sys.stdout.write(dumps_model(project_from_point(model, point)))
    return 0


def _cmd_a1_char2(args) -> int:
    model = _read_model(args.model)
    print(f"a1 mod 2 = {a1_char2(model)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus1",
        description="Exact invariants and Jacobians of genus one models of degree 1 to 5.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_model(p):
        p.add_argument("model", help="model JSON file, or - for standard input")
        return p

    p = with_model(sub.add_parser("invariants", help="print c4, c6 and Delta"))
    p.set_defaults(func=_cmd_invariants)

    p = with_model(sub.add_parser("jacobian", help="print the Jacobian Weierstrass coefficients"))
    p.set_defaults(func=_cmd_jacobian)

    p = with_model(sub.add_parser("j", help="print the j-invariant c4^3 / Delta"))
    p.set_defaults(func=_cmd_j)

    p = with_model(sub.add_parser("pfaffians", help="print the quadrics of a degree-5 model"))
    p.set_defaults(func=_cmd_pfaffians)

    p = with_model(sub.add_parser("discriminant", help="print Delta by either method"))
    p.add_argument("--method", choices=("formula", "matrix"), default="formula",
                   help="formula: via c4, c6; matrix: via the determinant identity")
    p.set_defaults(func=_cmd_discriminant)

    p = sub.add_parser("weierstrass", help="emit the degree-n model of a Weierstrass equation")
    for name in ("a1", "a2", "a3", "a4", "a6"):
        p.add_argument(name, help=f"Weierstrass coefficient {name}")
    p.add_argument("--degree", type=int, default=1, choices=(1, 2, 3, 4, 5))
    p.set_defaults(func=_cmd_weierstrass)

    p = with_model(sub.add_parser("transform", help="apply a transformation to a model"))
    p.add_argument("--transformation", required=True, metavar="JSON",
                   help='e.g. \'{"degree": 3, "mu": "2", "B": [["1","0","0"],["0","1","0"],["0","0","1"]]}\'')
    p.set_defaults(func=_cmd_transform)

    p = with_model(sub.add_parser("project", help="project a degree-5 model from a rational point"))
    p.add_argument("--point", required=True, metavar="x1,x2,x3,x4,x5",
                   help="homogeneous coordinates of a smooth point on the curve")
    p.set_defaults(func=_cmd_project)

    p = with_model(sub.add_parser("a1-char2", help="print the weight-1 invariant mod 2"))
    p.set_defaults(func=_cmd_a1_char2)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, DegenerateModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: report it in the exit-code contract, not a traceback
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def main() -> None:
    # Exact values have no size limit, so neither has their decimal text:
    # lift the int/str digit limit (4300 by default) for this process only,
    # not for programs that import the package.
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.10.7
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
