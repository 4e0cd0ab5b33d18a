"""Spans around the calls into each genus1 module, recorded from outside.

The tracer wraps a fixed list of public functions and methods.  A module
that imports a function by name (``from .linalg import determinant``)
holds its own binding, so every ``genus1`` namespace that binds the
original function object is patched, not only the defining module.
Spans are kept in memory while jobs run; ``layer_stats`` and ``dump``
turn them into per-layer totals and a file once tracing is over.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

import genus1.cli  # noqa: F401  (its name bindings must exist before patching)
from genus1.poly import Poly

# Module-level public functions to wrap, by module.
FUNCTIONS = {
    "poly": ("exact_divide",),
    "linalg": ("determinant", "solve_linear", "scalar_rank", "scalar_det",
               "adjugate", "kernel_basis"),
    "models": ("weierstrass_model", "project_from_point"),
    "transforms": ("apply", "det_character"),
    "invariants": ("invariants", "invariants_deg1", "invariants_deg2",
                   "invariants_deg3", "invariants_deg4", "invariants_deg5",
                   "deg5_covariants", "contract_quintics", "deg4_auxiliary_quadrics",
                   "discriminant_deg3_matrix", "discriminant_deg4_matrix",
                   "discriminant_deg5_matrix", "jacobian", "j_invariant"),
    "cli": ("run",),
}

# Methods to wrap: (module, class, attribute) -> span name.  The reflected
# operators are aliases of the same functions in Poly.
METHODS = {
    ("poly", "Poly", "__mul__"): "poly.mul",
    ("poly", "Poly", "__rmul__"): "poly.mul",
    ("poly", "Poly", "__add__"): "poly.add",
    ("poly", "Poly", "__radd__"): "poly.add",
    ("poly", "Poly", "derivative"): "poly.derivative",
    ("models", "Deg5Model", "pfaffians"): "models.pfaffians",
}

# determinant is split by the ring of its entries: the pencil quintic of
# the degree-5 pipeline (lam, v1..v5), the secant quintic (x1..x5), the
# dual quintic (v1..v5), and everything else.
DET_RINGS = {
    ("lam", "v1", "v2", "v3", "v4", "v5"): "linalg.det_pencil",
    ("x1", "x2", "x3", "x4", "x5"): "linalg.det_secant",
    ("v1", "v2", "v3", "v4", "v5"): "linalg.det_dual",
}


def _det_name(args):
    return DET_RINGS.get(args[0][0][0].variables, "linalg.det_other")


def _det_terms(args, result):
    return len(result.terms)


def _term_products(args, result):
    """Exact number of coefficient products in a Poly multiplication."""
    left, right = args
    return len(left.terms) * (len(right.terms) if isinstance(right, Poly) else 1)


WORK = {"linalg.determinant": _det_terms, "poly.mul": _term_products}


class Tracer:
    """Records one span per wrapped call: [job, name, parent, start_ns,
    end_ns, work], where parent is the index of the enclosing span or -1
    and work is an exact count (terms of a determinant, term products of
    a multiplication) or 0."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._open = []
        self._undo = []

    def _wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._open
        name_of = _det_name if name == "linalg.determinant" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.job, name_of(args) if name_of else name,
                    stack[-1] if stack else -1, perf_counter_ns(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced

    def install(self):
        """Patch every binding of the listed functions in genus1's modules."""
        namespaces = [vars(mod) for key, mod in sorted(sys.modules.items())
                      if key == "genus1" or key.startswith("genus1.")]
        for module, names in FUNCTIONS.items():
            defining = vars(sys.modules[f"genus1.{module}"])
            for attr in names:
                original = defining[attr]
                name = f"{module}.{attr}"
                wrapper = self._wrap(original, name, WORK.get(name))
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._undo.append((ns, key, value))
                            ns[key] = wrapper
        wrapped = {}
        for (module, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"genus1.{module}"], cls_name)
            original = cls.__dict__[attr]
            if original not in wrapped:
                wrapped[original] = self._wrap(original, name, WORK.get(name))
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapped[original])

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    def covered_ns(self):
        """{job: time inside its outermost spans}, which is the sum of the
        self times of all its spans."""
        covered = {}
        for s in self.spans:
            if s[2] < 0:
                covered[s[0]] = covered.get(s[0], 0) + s[4] - s[3]
        return covered

    def layer_stats(self):
        """{span name: [calls, total_ns, self_ns, work]} over all jobs."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child_ns[s[2]] += s[4] - s[3]
        stats = {}
        for s, children in zip(self.spans, child_ns):
            row = stats.setdefault(s[1], [0, 0, 0, 0])
            row[0] += 1
            row[1] += s[4] - s[3]
            row[2] += s[4] - s[3] - children
            row[3] += s[5]
        return stats

    def dump(self, path, extra):
        """Write the spans (times relative to the first) and ``extra``."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0
        rows = [[s[0], index[s[1]], s[2], s[3] - t0, s[4] - s[3], s[5]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "span_fields": ["job", "name", "parent", "start_ns",
                                                "duration_ns", "work"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))
