"""The value types keep one contract, and the package imports without dataclasses.

Each public result type is an immutable value: keyword and positional
construction agree, a surplus, unknown or missing field is a TypeError,
equal values compare and hash equal, a pickle round trip gives an equal
value, fields cannot be assigned, and the repr is ``Name(field=value, ...)``.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import markovfrac
from markovfrac.analysis import FreenessReport, MarkovInterval, MarkovIrrationality
from markovfrac.exact import ContinuedFraction, DyadicRational, QuadraticSurd, _Value
from markovfrac.farey import FareyNode
from markovfrac.markov import (
    FractionTriple,
    GeneralizedEquation,
    MarkovFraction,
    MarkovTriple,
    RelationReport,
    UnicityReport,
)
from markovfrac.slopes import (
    BundleInvariants,
    EquivalenceReport,
    SlopeDecision,
    SlopeNormalization,
)
from markovfrac.verify import CheckResult

_LO = QuadraticSurd(-11, 1, 10, 221)
_HI = QuadraticSurd(19, -1, 10, 221)
_LENGTH = QuadraticSurd(15, -1, 5, 221)
_LAGRANGE = QuadraticSurd(0, 1, 5, 221)

# (class, field names in order, one example's field values, hashable).
_EXAMPLES = [
    (ContinuedFraction, ("quotients",), ((0, 2, 3),), True),
    (DyadicRational, ("m", "n"), (3, 2), True),
    (QuadraticSurd, ("a", "b", "c", "d"), (3, -1, 2, 5), False),
    (FareyNode, ("value", "left_parent", "right_parent"), (F(1, 3), F(0), F(1, 2)), True),
    (MarkovTriple, ("x", "y", "z"), (1, 2, 5), True),
    (FractionTriple, ("f1", "f2", "f3"), (F(0), F(1, 2), F(2, 5)), True),
    (RelationReport,
     ("det_f2_f3_is_q1", "det_f3_f1_is_q2", "det_f2_f1_is_flip",
      "left_child_consistent", "right_child_consistent"),
     (True, True, True, True, False), True),
    (MarkovFraction, ("value", "depth", "word"), (F(5, 13), 1, "L"), True),
    (UnicityReport, ("depth", "vertex_count", "distinct_denominators", "duplicates"),
     (2, 9, 8, ((5, (F(2, 5), F(3, 5))),)), True),
    (GeneralizedEquation, ("a", "b", "c", "d"), (1, 1, 2, 4), True),
    (EquivalenceReport, ("depth", "level_sizes", "levels_equal"),
     (2, (2, 3, 5), (True, True, False)), True),
    (SlopeNormalization, ("n", "sign", "reduced"), (1, -1, F(2, 5)), True),
    (SlopeDecision, ("accepted", "normalization", "witness", "stopped_at_denominator"),
     (True, SlopeNormalization(0, 1, F(5, 13)), "L", None), True),
    (BundleInvariants, ("rank", "c1", "s", "c2", "form"), (5, 2, 1, 4, (5, 11, -5)), True),
    (MarkovInterval, ("center", "lo", "hi", "length"), (F(2, 5), _LO, _HI, _LENGTH), False),
    (FreenessReport, ("center", "denominator_bound", "intruders"),
     (F(2, 5), 30, (F(1, 3),)), True),
    (MarkovIrrationality, ("center", "minus", "plus", "lagrange"),
     (F(2, 5), _LO, _HI, _LAGRANGE), False),
    (CheckResult, ("name", "passed", "checked", "failures", "detail", "seconds"),
     ("tree_walk", False, 7, 1, "first failure at 'LR'", 0.25), True),
]


@pytest.mark.parametrize("cls, names, values, hashable", _EXAMPLES,
                         ids=[example[0].__name__ for example in _EXAMPLES])
def test_value_type_contract(cls, names, values, hashable):
    x = cls(*values)
    assert cls(**dict(zip(names, values))) == x
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == x
    assert [getattr(x, name) for name in names] == list(values)
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:-1])

    copy = cls(*values)
    assert copy == x and not copy != x
    if hashable:
        assert hash(copy) == hash(x)
    else:
        with pytest.raises(TypeError):
            hash(x)
    if cls is not QuadraticSurd:
        assert x.__eq__(values) is NotImplemented
        assert x != values

    assert pickle.loads(pickle.dumps(x)) == x

    if cls is QuadraticSurd:
        assert repr(x) == str(x) == "(3-1*sqrt(5))/2"
    else:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(x) == f"{cls.__name__}({fields})"

    with pytest.raises(AttributeError):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    assert getattr(x, names[0]) == values[0]


def test_examples_list_every_value_type():
    in_package = {cls for cls in _Value.__subclasses__() if cls.__module__.startswith("markovfrac.")}
    assert in_package == {example[0] for example in _EXAMPLES}


def test_value_types_normalize_at_construction():
    assert DyadicRational(12, 4) == DyadicRational(3, 2)
    assert (DyadicRational(12, 4).m, DyadicRational(12, 4).n) == (3, 2)
    assert DyadicRational(0, 9) == DyadicRational(0, 0)
    s = QuadraticSurd(-6, 2, -4, 20)
    assert (s.a, s.b, s.c, s.d) == (3, -2, 2, 5)
    assert pickle.loads(pickle.dumps(s)).d == 5


def test_quadratic_surd_compares_by_value_and_is_unhashable():
    assert QuadraticSurd(4, 0, 2, 0) == F(2) == 2
    assert QuadraticSurd(3, 3, 1, 4) == 9
    assert QuadraticSurd(3, -1, 2, 5) != F(3, 8)
    assert QuadraticSurd(3, -1, 2, 5) < F(2, 5) < QuadraticSurd(3, 1, 2, 5)
    assert QuadraticSurd.__hash__ is None


def test_check_result_equality_ignores_seconds():
    timed = CheckResult("tree_walk", True, 7, 0, "", seconds=0.25)
    untimed = CheckResult("tree_walk", True, 7, 0, "", None)
    assert timed == untimed and hash(timed) == hash(untimed)
    assert timed != CheckResult("tree_walk", True, 7, 1, "", seconds=0.25)


def test_package_imports_without_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(markovfrac.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    probe = ("import sys; b = set(sys.modules); import markovfrac.cli; "
             "print(' '.join(sorted(set(sys.modules) - b)))")
    proc = subprocess.run([sys.executable, "-s", "-c", probe],
                          capture_output=True, text=True, env=env, check=True)
    added = set(proc.stdout.split())
    assert "markovfrac.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


def test_replace_builds_through_the_constructor():
    assert DyadicRational(3, 2)._replace(m=12) == DyadicRational(3, 0)
    assert CheckResult("unicity", True, 3, 0, "", None)._replace(failures=1).failures == 1
    with pytest.raises(ValueError):
        MarkovTriple(1, 2, 5)._replace(z=6)
    with pytest.raises(TypeError):
        FractionTriple(F(0), F(1, 2), F(2, 5))._replace(f4=F(1))
