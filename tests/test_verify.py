"""The verify suites: output shape, negative controls, domain errors.

Check counts follow closed forms in the depth: a tree suite capped at c
reads 2**(c+1) - 1 vertices, and the fixed-range suites have fixed
counts.  The negative controls corrupt one vertex of the tree a suite
reads, or one value of a function it calls, and pin the failures that
suite counts.
"""

import inspect
import itertools
import json
import os
import pickle
import select
import signal
import time
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from markovfrac import analysis, markov, verify
from markovfrac.cli import main
from markovfrac.exact import DyadicRational
from markovfrac.markov import FractionTriple
from markovfrac.slopes import _epsilon_by_midpoints
from conftest import assert_no_child_left, refuse_to_fork


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
    c6, c8, c10, c15, c19 = (min(d, cap) for cap in (6, 8, 10, 15, 19))
    return [
        ("tree_relations", v, ""),
        ("tree_walk", v, ""),
        ("tree_fractions", v, ""),
        ("markov_triples", v, ""),
        ("midpoint_identity", v, ""),
        ("slope_image", vertices(d) + d + 1, f"depth {d}"),
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
    # Depth 12 is past the caps at 6, 8 and 10.  Its run takes seconds, so it
    # is made in JSON alone; the text lines are formatted from the same
    # results.
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


def test_run_all_calls_enumerate_tree_three_times(monkeypatch, in_process):
    calls = []
    real = verify.enumerate_tree

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_tree", counting)
    results = verify.run_all(1)
    assert all(r.passed for r in results)
    # tree_walk, interval_geometry, interval_freeness; tree_relations and
    # midpoint_identity read integer walks.
    assert calls == [(1,), (1,), (5,)]


def test_run_all_times_every_suite():
    results = verify.run_all(1)
    assert all(isinstance(r.seconds, float) and r.seconds >= 0 for r in results)
    # The seconds take no part in a result's equality.
    assert results[0] == results[0]._replace(seconds=None)


def test_usable_cpus():
    # run_all reads the count of markov's task pool.
    assert not hasattr(verify, "_usable_cpus")
    assert 1 <= markov._usable_cpus() <= os.cpu_count()


@pytest.mark.parametrize("depth", range(7))
def test_run_all_with_a_worker_matches_one_process(usable_cpus, depth):
    # One child is forked even on a one-CPU host; where a suite runs
    # changes nothing but its seconds.
    usable_cpus(2)
    shared = verify.run_all(depth)
    assert_no_child_left()
    usable_cpus(1)
    assert shared == verify.run_all(depth)


def test_run_all_on_one_cpu_starts_no_worker(monkeypatch, in_process):
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert all(r.passed for r in verify.run_all(1))


def test_run_all_checks_the_depth_before_any_worker(monkeypatch, usable_cpus):
    usable_cpus(2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    with pytest.raises(ValueError, match="depth 20 exceeds the 1048576 vertex budget"):
        verify.run_all(20)


def _serve(tasks, indices):
    """The outcome a forked child writes after pulling the given task indices."""
    queue, feed = os.pipe()
    os.write(feed, bytes(indices))
    os.close(feed)
    out, into = os.pipe()
    pid = os.fork()
    if pid == 0:
        markov._serve(queue, into, tasks)
    os.close(into)
    os.close(queue)
    with open(out, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return pickle.loads(data)


def test_worker_sends_the_results_of_the_tasks_it_pulls():
    tasks = verify._tasks(2)
    assert len(tasks) == 19
    outcome = _serve(tasks, [1, 5])
    assert_no_child_left()
    assert outcome == [(1, tasks[1]()), (5, tasks[5]())]
    assert [result.name for _, result in outcome] == ["tree_walk", "slope_image"]


def test_worker_sends_a_task_exception():
    def fails():
        raise ValueError("suite failed")

    outcome = _serve([fails], [0])
    assert_no_child_left()
    assert isinstance(outcome, ValueError) and outcome.args == ("suite failed",)


@pytest.fixture
def two_process_tasks():
    """make(here, in_child): two tasks, of which this process runs here() and the child in_child().

    The task this process takes first waits until the child has taken the
    other one, so neither process can run both.
    """
    pipes = []

    def make(here, in_child):
        parent = os.getpid()
        taken, tell = os.pipe()
        pipes.append((taken, tell))

        def task():
            if os.getpid() == parent:
                readable, _, _ = select.select([taken], [], [], 30)
                assert readable, "the child took no task"
                return here()
            os.write(tell, b"x")
            return in_child()

        return [task, task]

    yield make
    for pipe in pipes:
        for fd in pipe:
            os.close(fd)


def _fails():
    raise ValueError("suite failed")


def _exits():
    os._exit(3)


@pytest.mark.parametrize("in_child, error, message", [
    # A child's task raises; the child reports the exception for it.
    (_fails, ValueError, "suite failed"),
    # A child that dies without an outcome.
    (_exits, RuntimeError, "a worker exited with status 3"),
], ids=["exception", "exit_status"])
def test_a_worker_failure_fails_run_all(monkeypatch, usable_cpus, two_process_tasks, in_child,
                                        error, message):
    tasks = two_process_tasks(lambda: None, in_child)
    usable_cpus(2)
    monkeypatch.setattr(verify, "_tasks", lambda depth: tasks)
    with pytest.raises(error, match=message):
        verify.run_all(1)
    assert_no_child_left()


def test_a_failure_in_this_process_kills_the_workers(monkeypatch, usable_cpus, two_process_tasks):
    # The child's task sleeps for a minute; this process fails its own task
    # once the child has taken one, and kills the child rather than wait.
    tasks = two_process_tasks(_fails, lambda: time.sleep(60))
    statuses = []
    real_waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    usable_cpus(2)
    monkeypatch.setattr(verify, "_tasks", lambda depth: tasks)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    start = time.monotonic()
    with pytest.raises(ValueError, match="suite failed"):
        verify.run_all(12)
    assert time.monotonic() - start < 30
    assert statuses == [-signal.SIGKILL]
    assert_no_child_left()


def test_transported_slopes_match_the_midpoint_oracle():
    # Every value the memo fills for denominators <= 30 is the one the
    # recursion reaches from (0, 1), one binary digit at a time.
    xs = list(verify._rationals(30))
    found = list(verify._transported_slopes(xs))
    assert [x for x, _ in found] == xs
    for x, value in found:
        assert value == _epsilon_by_midpoints(verify.question_mark_farey(x)), x


# -- negative controls -----------------------------------------------------------


def _corrupt_root(monkeypatch, corrupt, walk_name="tree_walk"):
    """Rewire one of verify's walks so that corrupt(item) replaces the root's item."""
    real = getattr(verify, walk_name)

    def walk(*args, **kwargs):
        for item in real(*args, **kwargs):
            yield corrupt(item) if item[2] == 0 else item

    monkeypatch.setattr(verify, walk_name, walk)


def test_property_suites_count_a_wrong_vertex(monkeypatch):
    # The root 2/5 becomes 1/101: off the tree, coprime to its neighbours'
    # denominators but not a Markov number, not an exceptional slope, and
    # with approximation constant 1/101.
    _corrupt_root(monkeypatch, lambda item: (item[0][:4] + (1, 101), item[1], item[2]))
    for result, failures in [
        (verify.check_tree_relations(2), 1),
        (verify.check_tree_walk(2), 1),
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
    result = verify.check_tree_walk(3)
    assert (result.passed, result.checked, result.failures) == (False, 15, 2 ** level)


@pytest.mark.parametrize("corrupt", [
    lambda item: ((1, 2, 6), item[1], item[2]),
    lambda item: (item[0], (0, 1, 1, 2), item[2]),
    lambda item: (item[0], item[1], 1),
], ids=["triple", "farey_pair", "level"])
def test_markov_triples_counts_a_rank_walk_off_the_walk(monkeypatch, corrupt):
    _corrupt_root(monkeypatch, corrupt, "_rank_walk")
    result = verify.check_markov_triples(3)
    assert (result.passed, result.checked, result.failures) == (False, 15, 1)


def test_markov_triples_counts_a_short_rank_walk(monkeypatch):
    real = verify._rank_walk
    monkeypatch.setattr(verify, "_rank_walk", lambda depth: itertools.islice(real(depth), 14))
    result = verify.check_markov_triples(3)
    assert (result.passed, result.checked, result.failures) == (False, 15, 1)


def _corrupt_tree_root(monkeypatch, corrupt):
    """Rewire verify's enumerate_tree so that corrupt(triple) replaces the root's triple."""
    real = verify.enumerate_tree

    def tree(*args, **kwargs):
        for word, triple in real(*args, **kwargs):
            yield word, (triple if word else corrupt(triple))

    monkeypatch.setattr(verify, "enumerate_tree", tree)


def test_reference_suites_count_a_wrong_vertex(monkeypatch):
    _corrupt_tree_root(monkeypatch, lambda t: FractionTriple(t.f1, t.f2, F(1, 100)))
    result = verify.check_tree_walk(2)
    assert (result.passed, result.checked, result.failures) == (False, 7, 1)


@pytest.mark.parametrize("check, checked", [(verify.check_tree_relations, 8191),
                                            (verify.check_tree_walk, 8191),
                                            (verify.check_slope_image, 8204)],
                         ids=["tree_relations", "tree_walk", "slope_image"])
def test_tree_suites_hold_one_path_in_memory(check, checked):
    # The suites stream the tree in word order.  A materialised reference of
    # the 8191 vertices of depth 12 peaks at about 3.6 MB, and the two whole
    # levels of slope_image's dyadic and tree sides at depth 12 at 1.3 MB.
    tracemalloc.start()
    try:
        result = check(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.passed, result.checked) == (True, checked)
    assert peak < 1 << 20


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
        return found._replace(levels_equal=(True, False) + found.levels_equal[2:])

    monkeypatch.setattr(verify, "set_equivalence", report)
    result = verify.check_slope_image(2)
    assert (result.passed, result.checked, result.failures) == (False, 10, 1)
    assert result.detail == "depth 2"


def test_slope_image_runs_past_depth_12():
    # Levels 0..13 hold 2**n + 1 values each: 16,397 checks.
    result = verify.check_slope_image(13)
    assert (result.passed, result.checked, result.detail) == (True, 16397, "depth 13")


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


@pytest.mark.parametrize("branch", ["fibonacci_branch", "pell_branch"])
def test_boundary_branches_counts_a_wrong_branch(monkeypatch, branch):
    _wrong_at(monkeypatch, branch, 3, lambda f: SimpleNamespace(value=f.value + 1))
    result = verify.check_branches()
    assert (result.passed, result.checked, result.failures) == (False, 60, 1)


def test_interval_geometry_counts_a_wrong_interval(monkeypatch):
    # The upper end of 2/5's interval moves up by 1/10: its length no longer
    # matches, and it overlaps the next interval in sorted order.
    real = verify.markov_interval

    def interval(f):
        found = real(f)
        return found._replace(hi=found.hi + F(1, 10)) if f.value == F(2, 5) else found

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
        return real(depth)._replace(duplicates=((5, (F(2, 5), F(3, 5))),))

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


def test_verify_reports_a_failing_suite(capsys, monkeypatch, in_process):
    # A wrong level is read by the tree_walk suite and by markov_triples,
    # which zips the walk with the rank walk; the rank walk is rewired to
    # the same level, so tree_walk alone fails.
    _corrupt_root(monkeypatch, lambda item: (item[0], item[1], 1))
    _corrupt_root(monkeypatch, lambda item: (item[0], item[1], 1), "_rank_walk")
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
