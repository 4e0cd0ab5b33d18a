"""Value semantics of the Record classes, and what ``import genus1`` loads.

Models, transformations and ``Deg5Covariants`` are ``models.Record``
values: equal and hashed alike by their ``FIELDS``, never equal across
classes, immutable, and unchanged by pickling or deep copying.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from genus1 import (Deg1Model, Deg2Model, Deg2Transform, Deg3Model, Deg4Model, Deg5Covariants,
                    Deg5Model, Poly, deg5_covariants)
from genus1.models import _Forms

from helpers import random_model, random_transformation, wuthrich_model


def integral_fractions(value):
    """``value`` with each int in it, through tuples, lists and the
    coefficients of a Poly, as an integral Fraction."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(integral_fractions, value))
    if isinstance(value, Poly):
        return Poly(value.variables, {e: Fraction(c) for e, c in value.terms.items()})
    return Fraction(value) if isinstance(value, int) else value


def records(f):
    """One value of each of the twelve Record classes, its scalars passed through ``f``."""
    rng = random.Random(5)
    m1, m2, m3, m4, m5 = (random_model(rng, degree) for degree in range(1, 6))
    moves = [random_transformation(rng, degree) for degree in range(1, 6)]
    cov = deg5_covariants(wuthrich_model())
    # the _Forms has the FIELDS and values of the Deg2Model, in another class
    return [Deg1Model(*f(m1.coefficients())),
            _Forms._of(*f(m2.vectors)),
            Deg2Model.from_coefficients(*f(m2.coefficients())),
            Deg3Model.from_coefficients(f(m3.coefficients())),
            Deg4Model.from_coefficients(*f(m4.coefficients())),
            Deg5Model.from_coefficients(f(m5.coefficients())),
            *(type(g)(*f([getattr(g, name) for name in g.FIELDS])) for g in moves),
            Deg5Covariants(*f([getattr(cov, name) for name in cov.FIELDS]))]


VALUES = records(lambda values: values)
SAME = records(integral_fractions)


@pytest.mark.parametrize("index", range(12), ids=[type(v).__name__ for v in VALUES])
def test_a_record_is_an_immutable_value(index):
    value, same = VALUES[index], SAME[index]
    assert value == same and hash(value) == hash(same)
    assert not [v for v in VALUES if v == value and type(v) is not type(value)]
    for name in value.FIELDS:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_a_transformation_prints_as_a_dataclass():
    g = Deg2Transform(Fraction(1, 2), [0, 1, 0], ((1, 2), (-1, 3)))
    assert repr(g) == "Deg2Transform(mu=Fraction(1, 2), r=(0, 1, 0), B=((1, 2), (-1, 3)))"


def test_import_loads_neither_dataclasses_nor_inspect():
    # each costs start-up time in every process, and nothing at run time
    # needs either
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, genus1; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
