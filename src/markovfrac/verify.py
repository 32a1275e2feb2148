"""Exhaustive invariant checks over enumerable ranges.

Each check walks a finite slice of the structures and counts exact
verifications; together they form the reproducible evidence behind the
package.  The CLI `verify` subcommand prints one line per check.

The Fraction reference `enumerate_tree(depth)` is built once per run and
read by the two suites that check it: `tree_relations` checks its
neighbour relations and `tree_walk` checks the integer walk against it
vertex by vertex.  Suites that only read vertex properties then read the
integer walk.  Checks cap their own range where a larger depth would
change the cost class (the caps are noted per check); the depth argument
bounds everything else, and the fixed ranges are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .analysis import (
    approx_constant,
    approx_constant_detail,
    interval_freeness,
    markov_interval,
    mcshane_partial_sums,
)
from .exact import surd_compare
from .farey import (
    TurnWord,
    farey_path_to,
    question_mark_farey,
    question_mark_of_word,
    question_mark_salem,
)
from .markov import (
    SUPPORTED_EQUATIONS,
    FractionTriple,
    MarkovFraction,
    MarkovTriple,
    UNIT_SEEDS,
    check_relations,
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
    _epsilon_by_midpoints,
    identity_check,
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

#: enumerate_tree's (word, triple) pairs, sorted by word.
Reference = list[tuple[TurnWord, FractionTriple]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    failures: int = 0
    detail: str = ""


def _result(name: str, checked: int, failures: int, detail: str = "") -> CheckResult:
    return CheckResult(name, failures == 0, checked, failures, detail)


def _reference_tree(depth: int) -> Reference:
    """enumerate_tree(depth), sorted by word.

    Sorting the words puts the breadth-first vertices in the depth-first
    order of tree_walk.
    """
    return sorted(enumerate_tree(depth), key=lambda item: item[0])


def check_tree_relations(reference: Reference) -> CheckResult:
    """Every reference vertex satisfies the five exact neighbour relations."""
    checked = failures = 0
    for _, triple in reference:
        checked += 1
        if not check_relations(triple).all_hold:
            failures += 1
    return _result("tree_relations", checked, failures)


def check_tree_walk(depth: int, reference: Reference) -> CheckResult:
    """The integer walk matches the reference and the Farey tree on every vertex.

    The reference applies the gcd-reduced mediant of the definition, while
    the walk takes Vieta steps.  Integers are compared, so the walk must
    also yield lowest terms.  The Farey parents are carried down the
    sorted reference, where a word's parent word comes before it: a last
    letter L replaces the right parent by the parent vertex's mediant, an
    R the left one.  This is what lets the property suites below read the
    walk instead of the reference.
    """
    checked = failures = 0
    pairs = []  # pairs[n]: Farey parents of the latest reference word of length n
    for ref, walked in zip_longest(reference, tree_walk(depth)):
        checked += 1
        if ref is None or walked is None:
            failures += 1
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
        if vertex + farey != expected or level != len(word):
            failures += 1
    return _result("tree_walk", checked, failures)


def check_tree_fractions(depth: int) -> CheckResult:
    """Reduced values, strict betweenness, numerator congruence, growing denominators.

    Betweenness p1/q1 < p/q < p2/q2 is compared by cross-multiplying.
    """
    checked = failures = 0
    for (p1, q1, p2, q2, p, q), _, _ in tree_walk(depth):
        checked += 1
        ok = (
            gcd(p, q) == 1
            and p1 * q < p * q1
            and p * q2 < p2 * q
            and (p * p + 1) % q == 0
            and q > max(q1, q2)
        )
        if not ok:
            failures += 1
    return _result("tree_fractions", checked, failures)


def check_markov_triples(depth: int) -> CheckResult:
    """Denominator triples solve the Markov equation and are pairwise coprime."""
    checked = failures = 0
    for (_, a, _, b, _, c), _, _ in tree_walk(depth):
        checked += 1
        ok = (a * a + b * b + c * c == 3 * a * b * c
              and gcd(a, b) == gcd(b, c) == gcd(a, c) == 1)
        if not ok:
            failures += 1
    return _result("markov_triples", checked, failures)


def check_midpoint_identity(depth: int) -> CheckResult:
    """The midpoint formula agrees with the tree mediant on every neighbour pair."""
    checked = failures = 0
    for _, triple in enumerate_tree(depth, UNIT_SEEDS):
        checked += 1
        if not identity_check(triple.f1, triple.f2):
            failures += 1
    return _result("midpoint_identity", checked, failures)


def check_slope_image(depth: int) -> CheckResult:
    """Slope values of level-n dyadics equal the [0,1]-seeded tree, level by level."""
    capped = min(depth, 12)
    report = set_equivalence(capped)
    failures = sum(1 for ok in report.levels_equal if not ok)
    return _result("slope_image", sum(report.level_sizes), failures,
                   detail=f"depth {capped}")


def check_slope_transport() -> CheckResult:
    """epsilon(?(x)) equals the tree transport of x for denominators <= 100.

    epsilon itself descends the tree at the binary word of ?(x), which is
    the Farey word of x, so the slope side is the midpoint recursion.
    """
    checked = failures = 0
    for b in range(1, _TRANSPORT_DMAX + 1):
        for a in range(0, b + 1):
            if gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            checked += 1
            if x == 0:
                expected = Fraction(0)
            elif x == 1:
                expected = Fraction(1)
            else:
                expected = descend_value(farey_path_to(x), UNIT_SEEDS)
            if _epsilon_by_midpoints(question_mark_farey(x)) != expected:
                failures += 1
    return _result("slope_transport", checked, failures)


def check_question_mark() -> CheckResult:
    """Three question-mark routes agree; strict monotonicity; symmetry at 1/2."""
    checked = failures = 0
    values = []
    for b in range(1, _QMARK_DMAX + 1):
        for a in range(0, b + 1):
            if gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            y = question_mark_farey(x)
            checked += 3
            if question_mark_salem(x).value != y.value:
                failures += 1
            if 0 < x < 1 and question_mark_of_word(farey_path_to(x)).value != y.value:
                failures += 1
            if question_mark_farey(1 - x).value != 1 - y.value:
                failures += 1
            values.append((x, y.value))
    values.sort()
    checked += len(values) - 1
    failures += sum(1 for i in range(len(values) - 1)
                    if values[i][1] >= values[i + 1][1])
    return _result("question_mark", checked, failures)


def check_branches() -> CheckResult:
    """Closed-form boundary branches match tree descent; Pell pairs solve x^2-2y^2=+-1."""
    checked = failures = 0
    for k in range(1, _BRANCH_KMAX + 1):
        checked += 2
        if fibonacci_branch(k).value != descend_value("L" * (k - 1)):
            failures += 1
        if pell_branch(k).value != descend_value("R" * (k - 1)):
            failures += 1
    x1, x2 = 1, 3
    y1, y2 = 1, 2
    sign = -1
    for _ in range(2 * _BRANCH_KMAX):
        checked += 1
        if x1 * x1 - 2 * y1 * y1 != sign:
            failures += 1
        x1, x2 = x2, 2 * x2 + x1
        y1, y2 = y2, 2 * y2 + y1
        sign = -sign
    return _result("boundary_branches", checked, failures)


def check_transport_mediants(depth: int) -> CheckResult:
    """mu maps Farey mediants to tree mediants on every Farey-tree vertex.

    mu is called once per vertex and once per seed 0/1, 1/1; its values are
    kept by (numerator, denominator).  The Farey parents of a vertex are
    seeds or ancestors, which the depth-first walk has already visited.
    """
    capped = min(depth, 10)
    checked = failures = 0
    values = {(a, 1): mu(Fraction(a)).value for a in (0, 1)}
    for _, (a1, b1, a2, b2), _ in tree_walk(capped):
        checked += 1
        value = values[a1 + a2, b1 + b2] = mu(Fraction(a1 + a2, b1 + b2)).value
        if value != springborn_mediant(values[a1, b1], values[a2, b2]):
            failures += 1
    return _result("transport_mediants", checked, failures, detail=f"depth {capped}")


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
    checked = failures = 0
    fractions = [Fraction(0), Fraction(1, 2)]
    fractions += [Fraction(v[4], v[5]) for v, _, _ in tree_walk(8, _APPROX_BOUND)]
    third = Fraction(1, 3)
    for f in fractions:
        checked += 1
        detail = approx_constant_detail(f)
        if detail[0] < third or detail != _approx_scan(f):
            failures += 1
    checked += 2
    failures += approx_constant(Fraction(0)) != 1
    failures += approx_constant(Fraction(1, 2)) != Fraction(1, 2)
    return _result("approximation_bound", checked, failures,
                   detail=f"{len(fractions)} fractions")


def check_interval_geometry(depth: int) -> CheckResult:
    """Interval lengths match exactly; sorted intervals have disjoint interiors."""
    capped = min(depth, 8)
    intervals = []
    checked = failures = 0
    for word, triple in enumerate_tree(capped):
        interval = markov_interval(MarkovFraction(triple.f3, len(word), word))
        checked += 1
        if (interval.hi - interval.lo).compare(interval.length) != 0:
            failures += 1
        intervals.append(interval)
    intervals.sort(key=lambda iv: iv.center)
    for left, right in zip(intervals, intervals[1:]):
        checked += 1
        if surd_compare(left.hi, right.lo) > 0:
            failures += 1
    return _result("interval_geometry", checked, failures, detail=f"depth {capped}")


def check_interval_freeness() -> CheckResult:
    """The intervals of the depth <= 5 fractions are free up to large denominators."""
    checked = failures = 0
    for word, triple in enumerate_tree(5):
        checked += 1
        report = interval_freeness(MarkovFraction(triple.f3, len(word), word),
                                   _FREENESS_BOUND)
        if not report.free:
            failures += 1
    return _result("interval_freeness", checked, failures,
                   detail=f"bound {_FREENESS_BOUND}")


def check_length_series(depth: int) -> CheckResult:
    """Prefix sums of interval lengths increase strictly and stay below 1/2."""
    capped = min(depth, 15)
    checked = failures = 0
    half = Fraction(1, 2)
    run_lo = run_hi = Fraction(0)
    for lo, hi in mcshane_partial_sums(capped, 14):
        checked += 3
        if not lo > run_lo or not hi > run_hi:
            failures += 1
        if not hi < half:
            failures += 1
        if not lo < hi:
            failures += 1
        run_lo, run_hi = lo, hi
    gap = half - run_hi
    return _result("length_series", checked, failures,
                   detail=f"depth {capped}, gap above {float(gap):.3e}")


def check_unicity(depth: int) -> CheckResult:
    """No Markov number appears as the denominator of two tree fractions."""
    capped = min(depth, 19)
    report = unicity_scan(capped)
    return _result("unicity", report.vertex_count, len(report.duplicates),
                   detail=f"depth {capped}, {report.distinct_denominators} denominators")


def check_congruence() -> CheckResult:
    """Numerator congruence solver: fixed examples and agreement with brute force."""
    checked = failures = 0
    expected = {
        1: [0], 2: [1], 3: [], 4: [], 5: [2, 3],
        37666: [2337, 15571, 22095, 35329],
    }
    for q, want in expected.items():
        checked += 1
        if solve_congruence(q) != want:
            failures += 1
    for q in (13, 169, 290, 1325, 9077, 37666, 99970, 985 * 433):
        checked += 1
        if congruence_brute(q) != solve_congruence(q):
            failures += 1
    checked += 1
    decision = is_exceptional_slope(Fraction(15571, 37666))
    if not decision.accepted:
        failures += 1
    return _result("congruence", checked, failures)


def check_generalized(depth: int) -> CheckResult:
    """Closures of (1,1,1) under Vieta flips for the three supported equations."""
    capped = min(depth, 10)
    checked = failures = 0
    for name, eq in sorted(SUPPORTED_EQUATIONS.items()):
        triples = generalized_enumerate(eq, capped)
        checked += len(triples)
        failures += sum(1 for t in triples if not eq.satisfied_by(*t))
    checked += 2
    if (3, 1, 1) not in generalized_enumerate(SUPPORTED_EQUATIONS["quadric"], 1):
        failures += 1
    if (5, 1, 1) not in generalized_enumerate(SUPPORTED_EQUATIONS["x3"], 1):
        failures += 1
    return _result("generalized_equations", checked, failures, detail=f"depth {capped}")


def check_vieta(depth: int) -> CheckResult:
    """Double mutation is the identity on every denominator triple of the walk."""
    capped = min(depth, 6)
    checked = failures = 0
    for (_, a, _, b, _, c), _, _ in tree_walk(capped):
        checked += 3
        try:
            t = MarkovTriple(a, b, c)
        except ValueError:  # not a Markov triple: no mutation can be checked
            failures += 3
            continue
        failures += sum(vieta_mutate(vieta_mutate(t, index), index) != t
                        for index in (1, 2, 3))
    return _result("vieta_involution", checked, failures, detail=f"depth {capped}")


def check_slopes(depth: int) -> CheckResult:
    """Membership, normalization idempotence, and invariants on tree fractions.

    Each vertex takes two membership searches, for x and for 3 - x.  The
    invariants are read from the decision on x, and only once it has
    accepted, since bundle_invariants rejects any other slope.
    """
    capped = min(depth, 10)
    checked = failures = 0
    for (_, _, _, _, p, q), _, _ in tree_walk(capped):
        value = Fraction(p, q)
        checked += 1
        norm = normalize_slope(value)
        decision = is_exceptional_slope(value)
        ok = (
            decision.accepted
            and is_exceptional_slope(3 - value).accepted
            and normalize_slope(norm.reduced) == norm
            and (inv := decision.bundle_invariants()).s * q == p * p + 1
            and 2 * inv.c2 == (q - 1) * (inv.s + 1)
            and inv.form_discriminant == 9 * q * q - 4
        )
        if not ok:
            failures += 1
    checked += 1
    if is_exceptional_slope(Fraction(1, 3)).accepted:
        failures += 1
    return _result("slope_membership", checked, failures, detail=f"depth {capped}")


def run_all(depth: int) -> list[CheckResult]:
    """Run every check, bounded by depth where applicable; deterministic order."""
    reference = _reference_tree(depth)
    results = [check_tree_relations(reference), check_tree_walk(depth, reference)]
    # The reference is the largest structure of the run; free it before the rest.
    del reference
    return results + [
        check_tree_fractions(depth),
        check_markov_triples(depth),
        check_midpoint_identity(depth),
        check_slope_image(depth),
        check_slope_transport(),
        check_question_mark(),
        check_branches(),
        check_transport_mediants(depth),
        check_approximation(),
        check_interval_geometry(depth),
        check_interval_freeness(),
        check_length_series(depth),
        check_unicity(depth),
        check_congruence(),
        check_generalized(depth),
        check_vieta(depth),
        check_slopes(depth),
    ]
