"""Exhaustive invariant checks over enumerable ranges.

Each check walks a finite slice of the structures and counts exact
verifications; together they form the reproducible evidence behind the
package.  The CLI `verify` subcommand prints one line per check.

Checks cap their own range where a larger depth would change the cost
class (the caps are noted per check); the depth argument bounds
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .analysis import (
    approx_constant,
    interval_freeness,
    markov_interval,
    mcshane_partial_sums,
)
from .exact import surd_compare
from .farey import (
    farey_node_at,
    farey_path_to,
    question_mark_farey,
    question_mark_of_word,
    question_mark_salem,
)
from .markov import (
    MarkovFraction,
    MarkovTriple,
    UNIT_SEEDS,
    check_relations,
    descend_value,
    enumerate_tree,
    fibonacci_branch,
    mu,
    pell_branch,
    solve_congruence,
    springborn_mediant,
    tree_walk,
    unicity_scan,
    vieta_mutate,
    _congruence_brute,
    _congruence_factored,
)
from .slopes import (
    bundle_invariants,
    epsilon,
    identity_check,
    is_exceptional_slope,
    normalize_slope,
    set_equivalence,
)

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    failures: int = 0
    detail: str = ""


def _result(name: str, checked: int, failures: int, detail: str = "") -> CheckResult:
    return CheckResult(name, failures == 0, checked, failures, detail)


def check_tree_relations(depth: int) -> CheckResult:
    """Every vertex satisfies the five exact neighbour relations."""
    checked = failures = 0
    for _, triple in enumerate_tree(depth):
        checked += 1
        if not check_relations(triple).all_hold:
            failures += 1
    return _result("tree_relations", checked, failures)


def check_tree_walk(depth: int) -> CheckResult:
    """The integer walk matches enumerate_tree and the Farey tree on every vertex.

    enumerate_tree is the reference: it applies the gcd-reduced mediant of
    the definition, while the walk takes Vieta steps.  Sorting the words
    puts the breadth-first vertices in the walk's depth-first order, and
    integers are compared, so the walk must also yield lowest terms.
    """
    checked = failures = 0
    reference = sorted(enumerate_tree(depth), key=lambda item: item[0])
    for ref, walked in zip_longest(reference, tree_walk(depth)):
        checked += 1
        if ref is None or walked is None:
            failures += 1
            continue
        (word, triple), (vertex, farey, level) = ref, walked
        node = farey_node_at(word)
        fractions = (triple.f1, triple.f2, triple.f3, node.left_parent, node.right_parent)
        expected = tuple(n for f in fractions for n in (f.numerator, f.denominator))
        if vertex + farey != expected or level != len(word):
            failures += 1
    return _result("tree_walk", checked, failures)


def check_tree_fractions(depth: int) -> CheckResult:
    """Reduced values, strict betweenness, numerator congruence, growing denominators."""
    checked = failures = 0
    for _, triple in enumerate_tree(depth):
        checked += 1
        f1, f2, f3 = triple.f1, triple.f2, triple.f3
        p, q = f3.numerator, f3.denominator
        ok = (
            gcd(p, q) == 1
            and f1 < f3 < f2
            and (p * p + 1) % q == 0
            and q > max(f1.denominator, f2.denominator)
        )
        if not ok:
            failures += 1
    return _result("tree_fractions", checked, failures)


def check_markov_triples(depth: int) -> CheckResult:
    """Denominator triples solve the Markov equation and are pairwise coprime."""
    checked = failures = 0
    for _, triple in enumerate_tree(depth):
        checked += 1
        a, b, c = (triple.f1.denominator, triple.f2.denominator, triple.f3.denominator)
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


def check_slope_transport(dmax: int = 100) -> CheckResult:
    """epsilon(?(x)) equals the tree transport of x for denominators <= 100."""
    checked = failures = 0
    for b in range(1, dmax + 1):
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
            if epsilon(question_mark_farey(x)) != expected:
                failures += 1
    return _result("slope_transport", checked, failures)


def check_question_mark(dmax: int = 50) -> CheckResult:
    """Three question-mark routes agree; strict monotonicity; symmetry at 1/2."""
    checked = failures = 0
    values = []
    for b in range(1, dmax + 1):
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


def check_branches(kmax: int = 15) -> CheckResult:
    """Closed-form boundary branches match tree descent; Pell pairs solve x^2-2y^2=+-1."""
    checked = failures = 0
    for k in range(1, kmax + 1):
        checked += 2
        if fibonacci_branch(k).value != descend_value("L" * (k - 1)):
            failures += 1
        if pell_branch(k).value != descend_value("R" * (k - 1)):
            failures += 1
    x1, x2 = 1, 3
    y1, y2 = 1, 2
    sign = -1
    for _ in range(2 * kmax):
        checked += 1
        if x1 * x1 - 2 * y1 * y1 != sign:
            failures += 1
        x1, x2 = x2, 2 * x2 + x1
        y1, y2 = y2, 2 * y2 + y1
        sign = -sign
    return _result("boundary_branches", checked, failures)


def check_transport_mediants(depth: int) -> CheckResult:
    """mu maps Farey mediants to tree mediants on every Farey-tree vertex."""
    capped = min(depth, 10)
    checked = failures = 0
    for _, (a1, b1, a2, b2), _ in tree_walk(capped):
        checked += 1
        image = springborn_mediant(mu(Fraction(a1, b1)).value, mu(Fraction(a2, b2)).value)
        if mu(Fraction(a1 + a2, b1 + b2)).value != image:
            failures += 1
    return _result("transport_mediants", checked, failures, detail=f"depth {capped}")


def check_approximation(bound: int = 1000) -> CheckResult:
    """Best-approximation constants of Markov fractions with q <= bound are >= 1/3."""
    checked = failures = 0
    fractions = [Fraction(0), Fraction(1, 2)]
    fractions += [t.f3 for _, t in enumerate_tree(8) if t.f3.denominator <= bound]
    third = Fraction(1, 3)
    for f in fractions:
        checked += 1
        if approx_constant(f) < third:
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


def check_interval_freeness(bound: int = 1_000_000) -> CheckResult:
    """The intervals of the depth <= 5 fractions are free up to large denominators."""
    checked = failures = 0
    for word, triple in enumerate_tree(5):
        checked += 1
        report = interval_freeness(MarkovFraction(triple.f3, len(word), word), bound)
        if not report.free:
            failures += 1
    return _result("interval_freeness", checked, failures, detail=f"bound {bound}")


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
    """Numerator congruence solver: fixed examples and brute/factored agreement."""
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
        if _congruence_brute(q) != _congruence_factored(q):
            failures += 1
    checked += 1
    decision = is_exceptional_slope(Fraction(15571, 37666))
    if not decision.accepted:
        failures += 1
    return _result("congruence", checked, failures)


def check_generalized(depth: int) -> CheckResult:
    """Closures of (1,1,1) under Vieta flips for the three supported equations."""
    from .markov import SUPPORTED_EQUATIONS, generalized_enumerate
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
    """Double mutation is the identity on every enumerated denominator triple."""
    capped = min(depth, 6)
    checked = failures = 0
    for _, triple in enumerate_tree(capped):
        t = MarkovTriple(triple.f1.denominator, triple.f2.denominator,
                         triple.f3.denominator)
        for index in (1, 2, 3):
            checked += 1
            if vieta_mutate(vieta_mutate(t, index), index) != t:
                failures += 1
    return _result("vieta_involution", checked, failures, detail=f"depth {capped}")


def check_slopes(depth: int) -> CheckResult:
    """Membership, normalization idempotence, and invariants on tree fractions."""
    capped = min(depth, 10)
    checked = failures = 0
    for _, triple in enumerate_tree(capped):
        value = triple.f3
        p, q = value.numerator, value.denominator
        checked += 1
        norm = normalize_slope(value)
        decision = is_exceptional_slope(value)
        inv = bundle_invariants(value)
        translate = is_exceptional_slope(3 - value)
        ok = (
            decision.accepted
            and normalize_slope(norm.reduced) == norm
            and inv.s * q == p * p + 1
            and 2 * inv.c2 == (q - 1) * (inv.s + 1)
            and inv.form_discriminant == 9 * q * q - 4
            and translate.accepted
        )
        if not ok:
            failures += 1
    checked += 1
    if is_exceptional_slope(Fraction(1, 3)).accepted:
        failures += 1
    return _result("slope_membership", checked, failures, detail=f"depth {capped}")


def run_all(depth: int) -> list[CheckResult]:
    """Run every check, bounded by depth where applicable; deterministic order."""
    return [
        check_tree_relations(depth),
        check_tree_walk(depth),
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
