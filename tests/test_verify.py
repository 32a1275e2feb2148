"""The verify suites: output shape, negative controls, domain errors.

Check counts follow closed forms in the depth: a tree suite capped at c
reads 2**(c+1) - 1 vertices, and the fixed-range suites have fixed
counts.  The negative controls corrupt one vertex of the tree a suite
reads, or one value of a function it calls, and pin the failures that
suite counts.
"""

import inspect
import json
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from markovfrac import analysis, verify
from markovfrac.cli import main
from markovfrac.exact import DyadicRational
from markovfrac.markov import FractionTriple
from markovfrac.slopes import _epsilon_by_midpoints


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def _gaps(depth):
    # length_series reports the gap below 1/2 left by the partial sum.
    return {0: "5.461e-03", 1: "7.211e-04", 6: "4.465e-08", 12: "4.307e-13"}[depth]


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


@pytest.mark.parametrize("depth", [0, 1, 6, 12])
def test_verify_output_shape(capsys, depth):
    # Depth 12 is the first where the caps at 6, 8 and 10 bind and the cap at
    # 12 is reached.  Its run takes seconds, so it is made in JSON alone; the
    # text lines are formatted from the same results.
    expected = expected_suites(depth)
    if depth < 12:
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


def test_verify_timings_add_only_seconds(capsys):
    # Without the flag the JSON carries no timings; with it each result gains
    # a float `seconds` >= 0 and is otherwise byte for byte the same.
    code, plain, _ = run_cli(capsys, "verify", "--depth", "2", "--format", "json")
    assert code == 0 and '"seconds"' not in plain
    code, timed, err = run_cli(capsys, "verify", "--depth", "2", "--format", "json", "--timings")
    assert (code, err) == (0, "")
    record = json.loads(timed)
    results = record["outputs"]["results"]
    assert len(results) == 19
    for r in results:
        seconds = r.pop("seconds")
        assert isinstance(seconds, float) and seconds >= 0, r["name"]
    assert json.dumps(record, indent=2) + "\n" == plain


def test_verify_timings_need_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--depth", "0", "--timings"])
    assert exc.value.code == 2
    assert "--timings needs --format json" in capsys.readouterr().err


def test_suites_take_no_optional_parameters():
    checks = [fn for name, fn in vars(verify).items()
              if name.startswith("check_") and inspect.isfunction(fn)
              and fn.__module__ == verify.__name__]
    assert len(checks) == 19
    for fn in checks:
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__


def test_run_all_calls_enumerate_tree_three_times(monkeypatch):
    calls = []
    real = verify.enumerate_tree

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_tree", counting)
    results = verify.run_all(1)
    assert all(r.passed for r in results)
    # The shared reference, interval_geometry, interval_freeness; midpoint_identity
    # reads the integer walk of the [0, 1] tree.
    assert calls == [(1,), (1,), (5,)]


def test_run_all_times_every_suite():
    results = verify.run_all(1)
    assert all(isinstance(r.seconds, float) and r.seconds >= 0 for r in results)
    # The seconds take no part in a result's equality.
    assert results[0] == replace(results[0], seconds=None)


def test_transported_slopes_match_the_midpoint_oracle():
    # Every value the memo fills for denominators <= 30 is the one the
    # recursion reaches from (0, 1), one binary digit at a time.
    xs = list(verify._rationals(30))
    found = list(verify._transported_slopes(xs))
    assert [x for x, _ in found] == xs
    for x, value in found:
        assert value == _epsilon_by_midpoints(verify.question_mark_farey(x)), x


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
    # The suite reads the neighbours of the vertices of the [0, 1] tree's walk;
    # the root's right neighbour 1/1 becomes 1/3.
    _corrupt_root(monkeypatch, lambda item: ((0, 1, 1, 3) + item[0][4:], item[1], item[2]))
    result = verify.check_midpoint_identity(2)
    assert (result.passed, result.checked, result.failures) == (False, 7, 1)


def test_midpoint_identity_counts_unordered_neighbours(monkeypatch):
    # The root's neighbours swap: the order check fails, and the identity is
    # not read.
    _corrupt_root(monkeypatch, lambda item: ((1, 1, 0, 1) + item[0][4:], item[1], item[2]))
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


def _one_more_intruder(monkeypatch, module, name):
    """Rewire module.name, a scan, to report 1/3 inside the interval of 2/5 as well."""
    real = getattr(module, name)

    def scan(lo, hi, bound, exclude=None):
        found = real(lo, hi, bound, exclude)
        return sorted(found + [F(1, 3)]) if exclude == F(2, 5) else found

    monkeypatch.setattr(module, name, scan)


@pytest.mark.parametrize("scan", ["fast_adds", "fast_drops"])
def test_interval_freeness_counts_a_wrong_intruder_list(monkeypatch, scan):
    # An intruder the pruned walk adds, or one the full-scan oracle finds
    # and the pruned walk drops, fails the one fraction whose lists differ.
    if scan == "fast_adds":
        _one_more_intruder(monkeypatch, analysis, "fractions_strictly_inside")
    else:
        _one_more_intruder(monkeypatch, verify, "_fractions_inside_by_scan")
    result = verify.check_interval_freeness()
    assert (result.checked, result.failures, result.passed) == (63, 1, False)


def _wrong_at(monkeypatch, name, at, wrong):
    """Rewire verify's name so that it returns wrong(result) for the argument at."""
    real = getattr(verify, name)

    def fn(x, *args, **kwargs):
        result = real(x, *args, **kwargs)
        return wrong(result) if x == at else result

    monkeypatch.setattr(verify, name, fn)


def test_slope_image_counts_a_wrong_level(monkeypatch):
    real = verify.set_equivalence

    def report(depth):
        found = real(depth)
        return replace(found, levels_equal=(True, False) + found.levels_equal[2:])

    monkeypatch.setattr(verify, "set_equivalence", report)
    result = verify.check_slope_image(2)
    assert (result.passed, result.checked, result.failures) == (False, 10, 1)
    assert result.detail == "depth 2"


def test_slope_transport_counts_a_wrong_slope(monkeypatch):
    # The tree side at x = 1/3 is one off; every other x still matches.
    _wrong_at(monkeypatch, "descend_value", verify.farey_path_to(F(1, 3)),
              lambda value: value + 1)
    result = verify.check_slope_transport()
    assert (result.passed, result.checked, result.failures) == (False, 3045, 1)


def test_slope_transport_propagates_a_wrong_midpoint_step(monkeypatch):
    # The step that fills epsilon(?(1/3)) = epsilon(1/4) = 2/5 is off by
    # 10**-60.  Every dyadic in (0, 1/2) takes its value from 1/4 through a
    # chain of neighbours, so all 1521 x in (0, 1/2) fail: half of the 3043
    # in (0, 1) other than 1/2.
    real = verify._midpoint_value

    def step(v1, v2):
        value = real(v1, v2)
        return value + F(1, 10 ** 60) if value == F(2, 5) else value

    monkeypatch.setattr(verify, "_midpoint_value", step)
    result = verify.check_slope_transport()
    assert (result.passed, result.checked, result.failures) == (False, 3045, 1521)


def test_slope_transport_counts_a_wrong_question_mark(monkeypatch):
    # ?(1/3) = 1/4 becomes 1/2**40, whose upper neighbour 1/2**39 is never
    # kept: 1/3 fails without an exception, and so does every x whose value
    # needs epsilon(1/4), which is never kept either.
    _wrong_at(monkeypatch, "question_mark_farey", F(1, 3), lambda y: DyadicRational(1, 40))
    result = verify.check_slope_transport()
    assert (result.passed, result.checked, result.failures) == (False, 3045, 1521)


@pytest.mark.parametrize("name, at, failures", [
    # The series route is off at one x.
    ("question_mark_salem", F(1, 3), 1),
    # The word route is off everywhere, and is read at the 773 x with 0 < x < 1
    # of the 775; x = 0 and x = 1 count as passing checks.
    ("question_mark_of_word", None, 773),
])
def test_question_mark_counts_a_wrong_route(monkeypatch, name, at, failures):
    real = getattr(verify, name)

    def route(x):
        value = real(x)
        wrong = at is None or x == at
        return SimpleNamespace(value=value.value + 1) if wrong else value

    monkeypatch.setattr(verify, name, route)
    result = verify.check_question_mark()
    assert (result.passed, result.checked, result.failures) == (False, 3099, failures)


def test_question_mark_counts_a_monotonicity_break(monkeypatch):
    # ?(1/3) = 1 in place of 1/4 fails five checks: the order against the next
    # x, the series and word routes at 1/3, and the symmetry at both 1/3 and
    # 2/3, each of which reads the other.
    real = verify.question_mark_farey

    def qmark(x):
        return SimpleNamespace(value=F(1)) if x == F(1, 3) else real(x)

    monkeypatch.setattr(verify, "question_mark_farey", qmark)
    result = verify.check_question_mark()
    assert (result.passed, result.checked, result.failures) == (False, 3099, 5)


def test_boundary_branches_counts_a_wrong_branch(monkeypatch):
    _wrong_at(monkeypatch, "pell_branch", 3, lambda f: SimpleNamespace(value=f.value + 1))
    result = verify.check_branches()
    assert (result.passed, result.checked, result.failures) == (False, 60, 1)


def test_interval_geometry_counts_a_wrong_interval(monkeypatch):
    # The upper end of 2/5's interval moves up by 1/10: its length no longer
    # matches, and it overlaps the next interval in sorted order.
    real = verify.markov_interval

    def interval(f):
        found = real(f)
        return replace(found, hi=found.hi + F(1, 10)) if f.value == F(2, 5) else found

    monkeypatch.setattr(verify, "markov_interval", interval)
    result = verify.check_interval_geometry(2)
    assert (result.passed, result.checked, result.failures) == (False, 13, 2)
    assert result.detail == "depth 2"


def test_length_series_counts_a_level_out_of_order(monkeypatch):
    # Levels 1 and 2 swap: level 2 then falls below level 1, and only its
    # monotonicity check fails.  The detail reads the last level's upper bound.
    real = verify.mcshane_partial_sums

    def sums(depth, precision):
        found = real(depth, precision)
        found[1], found[2] = found[2], found[1]
        return found

    monkeypatch.setattr(verify, "mcshane_partial_sums", sums)
    result = verify.check_length_series(3)
    gap = F(1, 2) - real(3, 14)[-1][1]
    assert (result.passed, result.checked, result.failures) == (False, 12, 1)
    assert result.detail == f"depth 3, gap above {float(gap):.3e}"


def test_unicity_counts_a_duplicate(monkeypatch):
    real = verify.unicity_scan

    def scan(depth):
        return replace(real(depth), duplicates=((5, (F(2, 5), F(3, 5))),))

    monkeypatch.setattr(verify, "unicity_scan", scan)
    result = verify.check_unicity(2)
    assert (result.passed, result.checked, result.failures) == (False, 9, 1)
    assert result.detail == "depth 2, 9 denominators"


@pytest.mark.parametrize("q, failures", [
    # 37666 is in the fixed table and in the brute-force list.
    (37666, 2),
    # 13 is in the brute-force list only.
    (13, 1),
])
def test_congruence_counts_a_wrong_solution_list(monkeypatch, q, failures):
    _wrong_at(monkeypatch, "solve_congruence", q, lambda roots: roots + [q])
    result = verify.check_congruence()
    assert (result.passed, result.checked, result.failures) == (False, 15, failures)


def test_congruence_counts_a_rejected_slope(monkeypatch):
    _wrong_at(monkeypatch, "is_exceptional_slope", F(15571, 37666),
              lambda decision: SimpleNamespace(accepted=False))
    result = verify.check_congruence()
    assert (result.passed, result.checked, result.failures) == (False, 15, 1)


@pytest.mark.parametrize("corrupt, checked, failures", [
    # A non-solution joins the Markov closure at depth 2: one more check, failing.
    (lambda name, depth, found: found | {(2, 2, 2)} if name == "markov" and depth == 2
     else found, 27, 1),
    # (5, 1, 1) goes missing from the x3 closure at depth 1: a fixed check fails.
    (lambda name, depth, found: found - {(5, 1, 1)} if name == "x3" and depth == 1
     else found, 26, 1),
], ids=["nonsolution_added", "fixed_triple_missing"])
def test_generalized_equations_counts_a_wrong_closure(monkeypatch, corrupt, checked, failures):
    real = verify.generalized_enumerate
    names = {eq: name for name, eq in verify.SUPPORTED_EQUATIONS.items()}

    def closure(eq, depth):
        return corrupt(names[eq], depth, real(eq, depth))

    monkeypatch.setattr(verify, "generalized_enumerate", closure)
    result = verify.check_generalized(2)
    assert (result.passed, result.checked, result.failures) == (False, checked, failures)
    assert result.detail == "depth 2"


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
    assert (record["status"], record["error_detail"]) == ("error", "1 invariant suites failed")
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
