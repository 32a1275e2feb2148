"""The verify suites: output shape, negative controls, domain errors.

Check counts follow closed forms in the depth: a tree suite capped at c
reads 2**(c+1) - 1 vertices, and the fixed-range suites have fixed
counts.  The negative controls corrupt one vertex of the tree a suite
reads and require that suite to count the failure.
"""

import inspect
import json
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from markovfrac import verify
from markovfrac.cli import main
from markovfrac.markov import FractionTriple


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def _gaps(depth):
    # length_series reports the gap below 1/2 left by the partial sum.
    return {0: "5.461e-03", 1: "7.211e-04", 6: "4.465e-08"}[depth]


def expected_suites(d):
    """(name, checked, detail) of every suite of `verify --depth d`, in order."""
    def vertices(c):
        return 2 ** (c + 1) - 1

    v = vertices(d)
    c6, c8, c10, c12, c15, c19 = (min(d, cap) for cap in (6, 8, 10, 12, 15, 19))
    return [
        ("tree_relations", v, ""),
        ("tree_walk", v, ""),
        ("tree_fractions", v, ""),
        ("markov_triples", v, ""),
        ("midpoint_identity", v, ""),
        ("slope_image", vertices(c12) + c12 + 1, f"depth {c12}"),
        ("slope_transport", 3045, ""),
        ("question_mark", 3099, ""),
        ("boundary_branches", 60, ""),
        ("transport_mediants", vertices(c10), f"depth {c10}"),
        ("approximation_bound", 15, "13 fractions"),
        ("interval_geometry", 2 * vertices(c8) - 1, f"depth {c8}"),
        ("interval_freeness", 63, "bound 1000000"),
        ("length_series", 3 * (c15 + 1), f"depth {c15}, gap above {_gaps(d)}"),
        ("unicity", 2 ** (c19 + 1) + 1, f"depth {c19}, {2 ** (c19 + 1) + 1} denominators"),
        ("congruence", 15, ""),
        ("generalized_equations", 7 * 2 ** c10 - 2, f"depth {c10}"),
        ("vieta_involution", 3 * vertices(c6), f"depth {c6}"),
        ("slope_membership", vertices(c10) + 1, f"depth {c10}"),
    ]


@pytest.mark.parametrize("depth", [0, 1, 6])
def test_verify_output_shape(capsys, depth):
    expected = expected_suites(depth)
    code, out, err = run_cli(capsys, "verify", "--depth", str(depth))
    assert (code, err) == (0, "")
    lines = [f"PASS {name}: {checked} checks" + (f" ({detail})" if detail else "")
             for name, checked, detail in expected]
    lines.append("19/19 invariant suites passed")
    assert out.splitlines() == lines

    code, out, err = run_cli(capsys, "verify", "--depth", str(depth), "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["status"] == "ok"
    assert record["outputs"]["depth"] == depth
    assert record["outputs"]["all_passed"] is True
    assert record["outputs"]["results"] == [
        {"name": name, "passed": True, "checked": checked, "failures": 0, "detail": detail}
        for name, checked, detail in expected
    ]


def test_suites_take_no_optional_parameters():
    checks = [fn for name, fn in vars(verify).items()
              if name.startswith("check_") and inspect.isfunction(fn)
              and fn.__module__ == verify.__name__]
    assert len(checks) == 19
    for fn in checks:
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__


def test_run_all_calls_enumerate_tree_four_times(monkeypatch):
    calls = []
    real = verify.enumerate_tree

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_tree", counting)
    results = verify.run_all(1)
    assert all(r.passed for r in results)
    # The shared reference, midpoint_identity's UNIT tree, interval_geometry, interval_freeness.
    assert len(calls) == 4


# -- negative controls -----------------------------------------------------------


def _corrupt_root(monkeypatch, corrupt):
    """Rewire verify's tree_walk so that corrupt(item) replaces the root's item."""
    real = verify.tree_walk

    def walk(*args, **kwargs):
        for item in real(*args, **kwargs):
            yield corrupt(item) if item[2] == 0 else item

    monkeypatch.setattr(verify, "tree_walk", walk)


def test_property_suites_count_a_wrong_vertex(monkeypatch):
    # The root 2/5 becomes 1/101: off the tree, coprime to its neighbours'
    # denominators but not a Markov number, not an exceptional slope, and
    # with approximation constant 1/101.
    _corrupt_root(monkeypatch, lambda item: (item[0][:4] + (1, 101), item[1], item[2]))
    for result, failures in [
        (verify.check_tree_walk(2, verify._reference_tree(2)), 1),
        (verify.check_tree_fractions(2), 1),
        (verify.check_markov_triples(2), 1),
        (verify.check_approximation(), 1),
        (verify.check_vieta(2), 3),
        (verify.check_slopes(2), 1),
    ]:
        assert not result.passed, result.name
        assert result.failures == failures, result.name


@pytest.mark.parametrize("level", [0, 2])
def test_tree_walk_counts_a_wrong_farey_pair(monkeypatch, level):
    # The suite carries the Farey parents down the reference words, so a walk
    # whose parents are off at one vertex, at the root or below, is counted.
    real = verify.tree_walk

    def walk(*args, **kwargs):
        for vertex, (a1, b1, a2, b2), lev in real(*args, **kwargs):
            yield vertex, ((a1, b1, a2, b2 + 1) if lev == level else (a1, b1, a2, b2)), lev

    monkeypatch.setattr(verify, "tree_walk", walk)
    result = verify.check_tree_walk(3, verify._reference_tree(3))
    assert (result.passed, result.checked, result.failures) == (False, 15, 2 ** level)


def _corrupt_tree_root(monkeypatch, corrupt):
    """Rewire verify's enumerate_tree so that corrupt(triple) replaces the root's triple."""
    real = verify.enumerate_tree

    def tree(*args, **kwargs):
        for word, triple in real(*args, **kwargs):
            yield word, (triple if word else corrupt(triple))

    monkeypatch.setattr(verify, "enumerate_tree", tree)


def test_reference_suites_count_a_wrong_vertex(monkeypatch):
    _corrupt_tree_root(monkeypatch, lambda t: FractionTriple(t.f1, t.f2, F(1, 100)))
    reference = verify._reference_tree(2)
    for result in (verify.check_tree_relations(reference),
                   verify.check_tree_walk(2, reference)):
        assert (result.passed, result.checked, result.failures) == (False, 7, 1), result.name


def test_midpoint_identity_counts_a_wrong_vertex(monkeypatch):
    # The suite reads the neighbours of the [0, 1]-tree's vertices; the root's
    # right neighbour 1/1 becomes 1/3.
    _corrupt_tree_root(monkeypatch, lambda t: FractionTriple(t.f1, F(1, 3), t.f3))
    result = verify.check_midpoint_identity(2)
    assert (result.passed, result.checked, result.failures) == (False, 7, 1)


def test_transport_mediants_counts_a_wrong_mu(monkeypatch):
    # mu(1/3) = 5/13 moves by 10**-60, less than its distance to any image it
    # is compared with at depth 4, so every mediant that reads it exists.  The
    # wrong value fails at 1/3 and at the six vertices below it that have 1/3
    # as a Farey parent: 1/4, 2/7, 3/10 and 2/5, 3/8, 4/11.
    real = verify.mu

    def mu(x):
        image = real(x)
        return SimpleNamespace(value=image.value + F(1, 10 ** 60)) if x == F(1, 3) else image

    monkeypatch.setattr(verify, "mu", mu)
    result = verify.check_transport_mediants(4)
    assert (result.passed, result.checked, result.failures) == (False, 31, 7)


def test_verify_reports_a_failing_suite(capsys, monkeypatch):
    # A wrong level is read by the tree_walk suite alone.
    _corrupt_root(monkeypatch, lambda item: (item[0], item[1], 1))
    code, out, _ = run_cli(capsys, "verify", "--depth", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL tree_walk: 1 of 7 checks failed"
    assert sum(line.startswith("FAIL ") for line in lines) == 1
    assert lines[-1] == "18/19 invariant suites passed"

    code, out, _ = run_cli(capsys, "verify", "--depth", "2", "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "error"
    assert record["outputs"]["all_passed"] is False
    failed = [r for r in record["outputs"]["results"] if not r["passed"]]
    assert failed == [{"name": "tree_walk", "passed": False, "checked": 7,
                       "failures": 1, "detail": ""}]


# -- domain errors --------------------------------------------------------------


@pytest.mark.parametrize("depth, message", [
    (-1, "depth must be nonnegative"),
    (20, "depth 20 exceeds the 1048576 vertex budget"),
])
def test_verify_depth_out_of_range(capsys, depth, message):
    code, out, err = run_cli(capsys, "verify", "--depth", str(depth))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run_cli(capsys, "verify", "--depth", str(depth), "--format", "json")
    assert code == 1
    assert json.loads(out)["error_detail"] == message
    assert err == f"error: {message}\n"
