"""Exhaustive invariant checks over enumerable ranges.

Each check walks a finite slice of the structures and counts exact
verifications; together they form the reproducible evidence behind the
package.  The CLI `verify` subcommand prints one line per check.

A suite yields one outcome per check, and `_tally` counts them: a suite
passes when no outcome fails.  The two report suites, `slope_image` and
`unicity`, take their counts from a library report instead: the levels
of `set_equivalence` and the duplicates of `unicity_scan`.

`tree_walk` checks the integer walk against the Fraction reference
`enumerate_tree(depth)` vertex by vertex, both streamed in word order,
so its memory is bounded by the depth.  The other tree suites read the
integer walk: `tree_relations` checks its neighbour relations, which
with `tree_walk` proves them on the tree as defined, `markov_triples`
checks against it the denominator-only walk `_rank_walk` behind
`unicity` and the jump sums, and `midpoint_identity` reads the integer
walk of the [0, 1] tree, which the tests check against its reference.
`slope_image` streams that reference in `set_equivalence`, and
`interval_geometry` and `interval_freeness` the reduced one, for the
turn words.  Checks cap their own range where a larger depth would
change the cost class (the caps are noted per check); the depth argument
bounds everything else, and the fixed ranges are module constants.

The slope-side suites take one midpoint step per vertex:
`midpoint_identity` on the integers of the walk, `slope_image` against
each reference vertex, and `slope_transport` by dyadic, so each value is
one step from its two neighbours.

The suites are independent, so `run_all` hands them to the task pool
`markov._share`, one task per suite: the main process runs tasks itself,
beside one forked child per further CPU it may use, and each process
takes the next task from one pipe until none is left, so the split
follows the CPU count and the task costs as they fall, with no cost
table.  With one usable CPU no child starts.  Each result records its
suite's wall seconds in the process that ran it, which the results'
equality ignores.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import partial
from itertools import chain, zip_longest
from math import gcd
from operator import attrgetter
from time import perf_counter

from .analysis import (
    _fractions_inside_by_scan,
    approx_constant,
    approx_constant_detail,
    interval_freeness,
    markov_interval,
    mcshane_partial_sums,
)
from .exact import DyadicRational, _Value, surd_compare
from .farey import (
    farey_path_to,
    question_mark_farey,
    question_mark_of_word,
    question_mark_salem,
)
from .markov import (
    SUPPORTED_EQUATIONS,
    MarkovFraction,
    MarkovTriple,
    UNIT_SEEDS,
    _check_scan_depth,
    _rank_walk,
    _relations,
    _share,
    congruence_brute,
    descend_value,
    enumerate_tree,
    fibonacci_branch,
    generalized_enumerate,
    mu,
    pell_branch,
    solve_congruence,
    springborn_mediant,
    tree_walk,
    unicity_scan,
    vieta_mutate,
)
from .slopes import (
    _identity_holds,
    _midpoint_value,
    is_exceptional_slope,
    normalize_slope,
    set_equivalence,
)

__all__ = ["CheckResult", "run_all"]

#: Fixed ranges of the suites whose cost does not grow with the depth.
_TRANSPORT_DMAX = 100          # slope_transport: denominators of x
_QMARK_DMAX = 50               # question_mark: denominators of x
_BRANCH_KMAX = 15              # boundary_branches: branch indices
_APPROX_BOUND = 1000           # approximation_bound: denominators of tree fractions
_FREENESS_BOUND = 1_000_000    # interval_freeness: denominators searched


class CheckResult(_Value):
    __slots__ = ("name", "passed", "checked", "failures", "detail", "seconds")
    # seconds, the suite's wall time set by run_all, takes no part in equality.
    _key = attrgetter("name", "passed", "checked", "failures", "detail")


def _result(name: str, checked: int, failures: int, detail: str = "") -> CheckResult:
    return CheckResult(name, failures == 0, checked, failures, detail, None)


def _tally(name: str, outcomes: Iterable[object], detail: str = "") -> CheckResult:
    """The result of a suite from its outcomes, one per check; a false one fails."""
    failed = Counter(not ok for ok in outcomes)
    return _result(name, failed[False] + failed[True], failed[True], detail)


def check_tree_relations(depth: int) -> CheckResult:
    """Every vertex of the integer walk satisfies the five exact neighbour relations.

    tree_walk checks that the walk is the reference on every vertex, so
    the relations hold on the tree of the definition.
    """
    return _tally("tree_relations",
                  (_relations(*vertex).all_hold for vertex, _, _ in tree_walk(depth)))


def check_tree_walk(depth: int) -> CheckResult:
    """The integer walk matches the reference and the Farey tree on every vertex.

    The reference enumerate_tree applies the gcd-reduced mediant of the
    definition, while the walk takes Vieta steps; both come in word order.
    Integers are compared, so the walk must also yield lowest terms.  The
    Farey parents are carried down the reference, where a word's parent
    word comes before it: a last letter L replaces the right parent by the
    parent vertex's mediant, an R the left one.  This is what lets the
    other suites read the walk instead of the reference.
    """
    def outcomes():
        pairs = []  # pairs[n]: Farey parents of the latest reference word of length n
        for ref, walked in zip_longest(enumerate_tree(depth), tree_walk(depth)):
            if ref is None or walked is None:
                yield False
                continue
            (word, triple), (vertex, farey, level) = ref, walked
            if word:
                a1, b1, a2, b2 = pairs[len(word) - 1]
                a3, b3 = a1 + a2, b1 + b2
                pair = (a1, b1, a3, b3) if word[-1] == "L" else (a3, b3, a2, b2)
            else:
                pair = (0, 1, 1, 1)
            del pairs[len(word):]
            pairs.append(pair)
            fractions = (triple.f1, triple.f2, triple.f3)
            expected = tuple(n for f in fractions for n in (f.numerator, f.denominator)) + pair
            yield vertex + farey == expected and level == len(word)

    return _tally("tree_walk", outcomes())


def check_tree_fractions(depth: int) -> CheckResult:
    """Reduced values, strict betweenness, numerator congruence, growing denominators.

    Betweenness p1/q1 < p/q < p2/q2 is compared by cross-multiplying.
    """
    return _tally("tree_fractions", (
        gcd(p, q) == 1
        and p1 * q < p * q1
        and p * q2 < p2 * q
        and (p * p + 1) % q == 0
        and q > max(q1, q2)
        for (p1, q1, p2, q2, p, q), _, _ in tree_walk(depth)))


def check_markov_triples(depth: int) -> CheckResult:
    """The rank walk is the walk's denominators, which are Markov triples.

    Zips _rank_walk with tree_walk: per vertex the denominator triples,
    Farey pairs and levels agree, and the triple solves the Markov
    equation and is pairwise coprime.  A walk that runs short or long
    fails once.
    """
    def outcomes():
        for ranked, walked in zip_longest(_rank_walk(depth), tree_walk(depth)):
            if ranked is None or walked is None:
                yield False
                continue
            (a, b, c), _, _ = ranked
            vertex, farey, level = walked
            yield (ranked == (vertex[1::2], farey, level)
                   and a * a + b * b + c * c == 3 * a * b * c
                   and gcd(a, b) == gcd(b, c) == gcd(a, c) == 1)

    return _tally("markov_triples", outcomes())


def check_midpoint_identity(depth: int) -> CheckResult:
    """The midpoint formula agrees with the tree mediant on every neighbour pair.

    The pairs are read from the integer walk of the [0, 1] tree, in lowest
    terms, and must be ordered; the identity is decided on their integers.
    """
    return _tally("midpoint_identity", (
        p1 * q2 < p2 * q1 and _identity_holds(p1, q1, p2, q2)
        for (p1, q1, p2, q2, _, _), _, _ in tree_walk(depth, seeds=UNIT_SEEDS)))


def check_slope_image(depth: int) -> CheckResult:
    """Slope values of level-n dyadics equal the [0,1]-seeded tree, level by level."""
    report = set_equivalence(depth)
    failures = sum(1 for ok in report.levels_equal if not ok)
    return _result("slope_image", sum(report.level_sizes), failures,
                   detail=f"depth {depth}")


def _rationals(dmax: int) -> Iterator[Fraction]:
    """Every reduced a/b in [0, 1] with b <= dmax, by denominator, then numerator."""
    for b in range(1, dmax + 1):
        for a in range(0, b + 1):
            if gcd(a, b) == 1:
                yield Fraction(a, b)


def _transported_slopes(xs: Iterable[Fraction]) -> Iterator[tuple[Fraction, Fraction | None]]:
    """(x, epsilon(?(x))) for x in [0, 1] given after their Farey parents.

    The images under ? of the Farey parents of x are the neighbours
    (m - 1)/2**n and (m + 1)/2**n of ?(x) = m/2**n, so each value is one
    midpoint step from two values kept by dyadic, seeded with
    epsilon(0) = 0 and epsilon(1) = 1.  The value is None when a
    neighbour was never kept.

    A value is kept only if its denominator is at most q1**2 + q2**2,
    that of the tree mediant of its neighbours' values: off the tree the
    step nearly squares the denominator, and a wrong value kept would
    square it again at every level below it.  So a wrong step fails the
    values that read it instead of stalling the suite.
    """
    slopes = {(0, 0): Fraction(0), (1, 0): Fraction(1)}
    for x in xs:
        y = question_mark_farey(x)
        if y.n == 0:
            yield x, slopes.get((y.m, 0))
            continue
        lo, hi = DyadicRational(y.m - 1, y.n), DyadicRational(y.m + 1, y.n)
        v1, v2 = slopes.get((lo.m, lo.n)), slopes.get((hi.m, hi.n))
        if v1 is None or v2 is None:
            yield x, None
            continue
        value = _midpoint_value(v1, v2)
        if value.denominator <= v1.denominator ** 2 + v2.denominator ** 2:
            slopes[y.m, y.n] = value
        yield x, value


def check_slope_transport() -> CheckResult:
    """epsilon(?(x)) equals the tree transport of x for denominators <= 100.

    epsilon itself descends the tree at the binary word of ?(x), which is
    the Farey word of x, so the slope side is the midpoint recursion, one
    step per x (see _transported_slopes: the x come by denominator).  A
    value missing for want of a neighbour fails.
    """
    return _tally("slope_transport", (
        (x if x in (0, 1) else descend_value(farey_path_to(x), UNIT_SEEDS)) == value
        for x, value in _transported_slopes(_rationals(_TRANSPORT_DMAX))))


def check_question_mark() -> CheckResult:
    """Three question-mark routes agree; strict monotonicity; symmetry at 1/2."""
    def outcomes():
        values = []
        for x in _rationals(_QMARK_DMAX):
            y = question_mark_farey(x).value
            yield question_mark_salem(x).value == y
            yield not 0 < x < 1 or question_mark_of_word(farey_path_to(x)).value == y
            yield question_mark_farey(1 - x).value == 1 - y
            values.append((x, y))
        values.sort()
        yield from (left[1] < right[1] for left, right in zip(values, values[1:]))

    return _tally("question_mark", outcomes())


def check_branches() -> CheckResult:
    """The branches match the Fibonacci and Pell numbers; Pell pairs solve x^2-2y^2=+-1.

    The oracle is additive, not the descent: fibonacci_branch(k) is
    F(2k+1)/F(2k+3), and pell_branch(k) is y(2k)/y(2k+1) for y(1), y(2) = 1, 2.
    """
    def outcomes():
        f, g = 2, 3            # F(2k + 1), F(2k + 2)
        y, z = 2, 5            # y(2k), y(2k + 1); y(n+1) = 2*y(n) + y(n-1)
        for k in range(1, _BRANCH_KMAX + 1):
            yield fibonacci_branch(k).value == Fraction(f, f + g)
            yield pell_branch(k).value == Fraction(y, z)
            f, g = f + g, f + 2 * g
            y, z = 2 * z + y, 5 * z + 2 * y
        # x + y*sqrt(2) runs over the powers of 1 + sqrt(2), whose norms alternate.
        x, y = 1, 1
        for n in range(2 * _BRANCH_KMAX):
            yield x * x - 2 * y * y == (-1) ** (n + 1)
            x, y = x + 2 * y, x + y

    return _tally("boundary_branches", outcomes())


def check_transport_mediants(depth: int) -> CheckResult:
    """mu maps Farey mediants to tree mediants on every Farey-tree vertex.

    mu is called once per vertex and once per seed 0/1, 1/1; its values are
    kept by (numerator, denominator).  The Farey parents of a vertex are
    seeds or ancestors, which the depth-first walk has already visited.
    """
    capped = min(depth, 10)
    values = {(a, 1): mu(Fraction(a)).value for a in (0, 1)}

    def outcomes():
        for _, (a1, b1, a2, b2), _ in tree_walk(capped):
            value = values[a1 + a2, b1 + b2] = mu(Fraction(a1 + a2, b1 + b2)).value
            yield value == springborn_mediant(values[a1, b1], values[a2, b2])

    return _tally("transport_mediants", outcomes(), detail=f"depth {capped}")


def _approx_scan(f: Fraction) -> tuple[Fraction, Fraction]:
    """Oracle for approx_constant_detail: a scan over every denominator b.

    For each b the minimum of |p*b - a*q| over integers a is computed
    directly, and every value for denominator b is at least b/q, so the
    scan stops once b/q exceeds the best value found.  Its cost is linear
    in q.  Returns the constant and the first rational attaining it
    (smallest b, then the lower of the two nearest candidates).
    """
    p, q = f.numerator, f.denominator
    best: Fraction | None = None
    witness = f
    b = 1
    while best is None or Fraction(b, q) <= best:
        r = (p * b) % q
        if r == 0:
            # The nearest distinct rational with this denominator sits a
            # full 1/b away; report the one above f.
            value = Fraction(b)
            a = (p * b) // q + 1
        elif 2 * r <= q:
            value = Fraction(b * r, q)
            a = (p * b - r) // q
        else:
            value = Fraction(b * (q - r), q)
            a = (p * b + (q - r)) // q
        if best is None or value < best:
            best, witness = value, Fraction(a, b)
        b += 1
    return best, witness


def check_approximation() -> CheckResult:
    """Approximation constants of Markov fractions with q <= 1000 are >= 1/3.

    Each value and witness must also equal those of the scan oracle.  The
    walk prunes at the bound; no fraction below depth 8 is that small.
    """
    fractions = [Fraction(0), Fraction(1, 2)]
    fractions += [Fraction(v[4], v[5]) for v, _, _ in tree_walk(8, _APPROX_BOUND)]
    third = Fraction(1, 3)

    def outcomes():
        for f in fractions:
            detail = approx_constant_detail(f)
            yield detail[0] >= third and detail == _approx_scan(f)
        yield approx_constant(Fraction(0)) == 1
        yield approx_constant(Fraction(1, 2)) == Fraction(1, 2)

    return _tally("approximation_bound", outcomes(), detail=f"{len(fractions)} fractions")


def check_interval_geometry(depth: int) -> CheckResult:
    """Interval lengths match exactly; sorted intervals have disjoint interiors."""
    capped = min(depth, 8)
    intervals = [markov_interval(MarkovFraction(triple.f3, len(word), word))
                 for word, triple in enumerate_tree(capped)]
    ordered = sorted(intervals, key=lambda iv: iv.center)
    return _tally("interval_geometry", chain(
        ((iv.hi - iv.lo).compare(iv.length) == 0 for iv in intervals),
        (surd_compare(left.hi, right.lo) <= 0 for left, right in zip(ordered, ordered[1:]))),
        detail=f"depth {capped}")


def check_interval_freeness() -> CheckResult:
    """The intervals of the depth <= 5 fractions are free up to large denominators.

    The pruned walk behind interval_freeness must also find exactly the
    intruders of the full scan, its oracle.
    """
    def outcomes():
        for word, triple in enumerate_tree(5):
            f = MarkovFraction(triple.f3, len(word), word)
            report = interval_freeness(f, _FREENESS_BOUND)
            interval = markov_interval(f)
            oracle = _fractions_inside_by_scan(interval.lo, interval.hi, _FREENESS_BOUND,
                                               exclude=f.value)
            yield report.free and list(report.intruders) == oracle

    return _tally("interval_freeness", outcomes(), detail=f"bound {_FREENESS_BOUND}")


def check_length_series(depth: int) -> CheckResult:
    """Prefix sums of interval lengths increase strictly and stay below 1/2."""
    capped = min(depth, 15)
    half = Fraction(1, 2)
    sums = mcshane_partial_sums(capped, 14)
    steps = zip([(0, 0)] + sums, sums)
    return _tally("length_series", (
        ok for (run_lo, run_hi), (lo, hi) in steps
        for ok in (lo > run_lo and hi > run_hi, hi < half, lo < hi)),
        detail=f"depth {capped}, gap above {float(half - sums[-1][1]):.3e}")


def check_unicity(depth: int) -> CheckResult:
    """No Markov number appears as the denominator of two tree fractions."""
    report = unicity_scan(depth)
    return _result("unicity", report.vertex_count, len(report.duplicates),
                   detail=f"depth {depth}, {report.distinct_denominators} denominators")


def check_congruence() -> CheckResult:
    """Numerator congruence solver: fixed examples and agreement with brute force."""
    expected = {
        1: [0], 2: [1], 3: [], 4: [], 5: [2, 3],
        37666: [2337, 15571, 22095, 35329],
    }

    def outcomes():
        yield from (solve_congruence(q) == want for q, want in expected.items())
        yield from (congruence_brute(q) == solve_congruence(q)
                    for q in (13, 169, 290, 1325, 9077, 37666, 99970, 985 * 433))
        yield is_exceptional_slope(Fraction(15571, 37666)).accepted

    return _tally("congruence", outcomes())


def check_generalized(depth: int) -> CheckResult:
    """Closures of (1,1,1) under Vieta flips for the three supported equations."""
    capped = min(depth, 10)

    def outcomes():
        for _, eq in sorted(SUPPORTED_EQUATIONS.items()):
            yield from (eq.satisfied_by(*t) for t in generalized_enumerate(eq, capped))
        yield (3, 1, 1) in generalized_enumerate(SUPPORTED_EQUATIONS["quadric"], 1)
        yield (5, 1, 1) in generalized_enumerate(SUPPORTED_EQUATIONS["x3"], 1)

    return _tally("generalized_equations", outcomes(), detail=f"depth {capped}")


def check_vieta(depth: int) -> CheckResult:
    """Double mutation is the identity on every denominator triple of the walk."""
    capped = min(depth, 6)

    def outcomes():
        for (_, a, _, b, _, c), _, _ in tree_walk(capped):
            try:
                t = MarkovTriple(a, b, c)
            except ValueError:  # not a Markov triple: its three mutations fail
                yield from (False, False, False)
                continue
            yield from (vieta_mutate(vieta_mutate(t, index), index) == t
                        for index in (1, 2, 3))

    return _tally("vieta_involution", outcomes(), detail=f"depth {capped}")


def check_slopes(depth: int) -> CheckResult:
    """Membership, normalization idempotence, and invariants on tree fractions.

    Each vertex takes two membership searches, for x and for 3 - x.  The
    invariants are read from the decision on x, and only once it has
    accepted, since bundle_invariants rejects any other slope.
    """
    capped = min(depth, 10)

    def outcomes():
        for (_, _, _, _, p, q), _, _ in tree_walk(capped):
            value = Fraction(p, q)
            norm = normalize_slope(value)
            decision = is_exceptional_slope(value)
            yield (
                decision.accepted
                and is_exceptional_slope(3 - value).accepted
                and normalize_slope(norm.reduced) == norm
                and (inv := decision.bundle_invariants()).s * q == p * p + 1
                and 2 * inv.c2 == (q - 1) * (inv.s + 1)
                and inv.form_discriminant == 9 * q * q - 4
            )
        yield not is_exceptional_slope(Fraction(1, 3)).accepted

    return _tally("slope_membership", outcomes(), detail=f"depth {capped}")


def _timed(check: Callable[..., CheckResult], *args: object) -> CheckResult:
    """check(*args) with its wall seconds in the result."""
    start = perf_counter()
    result = check(*args)
    return result._replace(seconds=perf_counter() - start)


#: A task runs one suite and returns its timed result.
Task = Callable[[], CheckResult]


def _tasks(depth: int) -> list[Task]:
    """Every task of run_all(depth), in report order."""
    return [
        partial(_timed, check_tree_relations, depth),
        partial(_timed, check_tree_walk, depth),
        partial(_timed, check_tree_fractions, depth),
        partial(_timed, check_markov_triples, depth),
        partial(_timed, check_midpoint_identity, depth),
        partial(_timed, check_slope_image, depth),
        partial(_timed, check_slope_transport),
        partial(_timed, check_question_mark),
        partial(_timed, check_branches),
        partial(_timed, check_transport_mediants, depth),
        partial(_timed, check_approximation),
        partial(_timed, check_interval_geometry, depth),
        partial(_timed, check_interval_freeness),
        partial(_timed, check_length_series, depth),
        partial(_timed, check_unicity, depth),
        partial(_timed, check_congruence),
        partial(_timed, check_generalized, depth),
        partial(_timed, check_vieta, depth),
        partial(_timed, check_slopes, depth),
    ]


def run_all(depth: int) -> list[CheckResult]:
    """Run every check, bounded by depth where applicable; deterministic order.

    The suites are the tasks of markov._share: this process and, on Linux,
    one forked child per further usable CPU take them one at a time from
    one pipe.  Everything runs in this process with one usable CPU, off
    Linux, or while a second thread is alive.  Every child is reaped
    before run_all returns or raises, and a suite's exception, in
    whichever process, is raised here.  The depth is checked before any
    child starts.  The results come in report order, each with its
    suite's wall seconds in the process that ran it.
    """
    _check_scan_depth(depth)
    return _share(_tasks(depth))
