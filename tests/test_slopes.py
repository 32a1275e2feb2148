"""Exceptional-slope function, tree equivalence, membership, bundle invariants.

Oracles: epsilon descends the [0, 1]-seeded tree at the binary digits of m
(minus the trailing 1) read as turn letters; the midpoint recursion
``_epsilon_by_midpoints`` reaches the same value one binary digit at a time
and shares no step with it.  The run-length membership search is checked
against the search that takes one Vieta step per letter, and
``identity_check``, which cross-multiplies unreduced terms, against both
sides built as reduced Fractions.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovfrac import (
    REDUCED_SEEDS,
    UNIT_SEEDS,
    DyadicRational,
    MarkovFraction,
    bundle_invariants,
    descend_value,
    enumerate_tree,
    epsilon,
    fibonacci_branch,
    identity_check,
    is_exceptional_slope,
    normalize_slope,
    pell_branch,
    set_equivalence,
    solve_congruence,
    springborn_mediant,
    tree_walk,
)
from markovfrac import exact, markov, slopes
from markovfrac.exact import MAX_VALUE_BITS
from markovfrac.markov import _REDUCED_ROOT, _vieta_child
from markovfrac.slopes import (
    EquivalenceReport,
    SlopeDecision,
    _epsilon_by_midpoints,
    _midpoint_value,
)

dyadics = st.builds(
    DyadicRational,
    m=st.integers(-300, 300),
    n=st.integers(0, 9),
)


def _epsilon_oracle(d: DyadicRational) -> F:
    """Tree-descent route for dyadics in [0, 1]: binary digits become turns."""
    if d.n == 0:
        return F(d.m)
    assert 0 < d.value < 1
    bits = format(d.m, "b").zfill(d.n)
    assert bits.endswith("1")
    word = bits[:-1].replace("0", "L").replace("1", "R")
    return descend_value(word, UNIT_SEEDS)


# -- epsilon ----------------------------------------------------------------


def test_epsilon_integers():
    assert epsilon(0) == 0
    assert epsilon(1) == 1
    assert epsilon(-3) == -3
    assert epsilon(DyadicRational(2, 0)) == 2


def test_epsilon_spot_values():
    assert epsilon(DyadicRational(1, 1)) == F(1, 2)
    assert epsilon(DyadicRational(1, 2)) == F(2, 5)
    assert epsilon(DyadicRational(3, 2)) == F(3, 5)
    assert epsilon(DyadicRational(1, 3)) == F(5, 13)
    assert epsilon(DyadicRational(3, 3)) == F(12, 29)
    assert epsilon(DyadicRational(5, 8)) == epsilon(F(5, 256))


def test_epsilon_accepts_dyadic_fractions():
    assert epsilon(F(3, 4)) == F(3, 5)
    assert epsilon(F(9, 4)) == F(12, 5)  # translation by 2
    assert epsilon(F(-1, 4)) == F(-2, 5)  # oddness
    with pytest.raises(ValueError):
        epsilon(F(1, 3))


def test_epsilon_matches_descent_oracle():
    inputs = [DyadicRational(m, n) for n in range(0, 9) for m in range(0, (1 << n) + 1)]
    # Boundary branches only at large n: inner dyadics have astronomically large slopes.
    for n in (32, 64, 128):
        inputs += [DyadicRational(1, n), DyadicRational((1 << n) - 1, n)]
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(9, 16)
        inputs.append(DyadicRational(2 * rng.randrange(1 << (n - 1)) + 1, n))
    for d in inputs:
        assert epsilon(d) == _epsilon_oracle(d)


def test_epsilon_budget_refuses_a_long_inner_dyadic():
    # Its slope has far more than 2**18 bits; without the budget it runs for minutes.
    with pytest.raises(ValueError, match="epsilon\\(x\\) exceeds the 262144-bit value budget"):
        epsilon(DyadicRational(123456789012345, 50))


def test_epsilon_refuses_a_long_exponent_before_the_first_step(monkeypatch):
    def refuse(k, r):
        raise AssertionError("a matrix power was taken")

    monkeypatch.setattr(markov, "_lucas_pair", refuse)
    for n in (MAX_VALUE_BITS, 10**20):
        with pytest.raises(ValueError, match="epsilon\\(x\\) exceeds the 262144-bit value budget"):
            epsilon(DyadicRational(1, n))


def test_epsilon_budget_is_exact(monkeypatch):
    # Under a budget of exactly its own bits a slope is admitted, one bit
    # less refuses it, and no step is taken whose result must pass the budget.
    rng = random.Random(50)
    inputs = [DyadicRational(rng.randrange(1, 1 << n, 2) + (rng.randint(-2, 2) << n), n)
              for n in range(1, 16) for _ in range(12)]
    inputs += [DyadicRational(1, n) for n in range(60, 70)]
    values = {d: epsilon(d) for d in inputs}
    run_step, lucas_pair = markov._run_step, markov._lucas_pair
    runs, steps = [], []

    def recording_run(v, letter, r):
        runs.append((v, letter))
        return run_step(v, letter, r)

    def recording_power(k, r):
        # A run of r letters multiplies the denominator by more than (k - 1)**r.
        v, letter = runs[-1]
        assert k == 3 * v[1 if letter == "L" else 3]
        steps.append((v[5].bit_length() + r * ((k - 1).bit_length() - 1), budget))
        return lucas_pair(k, r)

    monkeypatch.setattr(markov, "_run_step", recording_run)
    monkeypatch.setattr(markov, "_lucas_pair", recording_power)
    for d, value in values.items():
        budget = value.denominator.bit_length()
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget)
        assert epsilon(d) == value
        budget -= 1
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget)
        with pytest.raises(ValueError, match=f" {budget}-bit value budget"):
            epsilon(d)
    assert steps and all(lower <= budget for lower, budget in steps)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 24), st.data(), st.integers(-10**6, 10**6))
def test_epsilon_matches_midpoint_recursion(n, data, shift):
    # Any dyadic, negative or translated: the descent equals the digit-by-digit definition.
    d = DyadicRational(data.draw(st.integers(-(1 << n), 1 << n)) + (shift << n), n)
    assert epsilon(d) == _epsilon_by_midpoints(d)


def test_epsilon_cliff_is_gone():
    # Digit by digit this took 10 s and grew cubically in the exponent.
    start = time.perf_counter()
    value = epsilon(DyadicRational(1, 10_000))
    assert time.perf_counter() - start < 2.0
    assert value == descend_value("L" * 9_999, UNIT_SEEDS)


@given(dyadics, st.integers(-5, 5))
def test_epsilon_translation(d, shift):
    assert epsilon(DyadicRational(d.m + (shift << d.n), d.n)) == epsilon(d) + shift


@given(dyadics)
def test_epsilon_oddness(d):
    assert epsilon(DyadicRational(-d.m, d.n)) == -epsilon(d)


@given(dyadics)
def test_epsilon_reflection(d):
    # combining oddness with translation: eps(1 - x) = 1 - eps(x)
    mirrored = DyadicRational((1 << d.n) - d.m, d.n)
    assert epsilon(mirrored) == 1 - epsilon(d)


def test_epsilon_strictly_increasing_on_level7():
    values = [epsilon(DyadicRational(m, 7)) for m in range(0, 129)]
    assert all(a < b for a, b in zip(values, values[1:]))


# -- the identity behind the equivalence -------------------------------------


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    st.booleans(),
)
def test_midpoint_value_matches_literal_formula(v1, v2, on_pole):
    # Any pair: negative, unordered, off-tree, and half the time the pole.
    if on_pole:
        v1 = v2 - 3
    divisor = v1 - v2 + 3
    if divisor == 0:
        with pytest.raises(ValueError):
            _midpoint_value(v1, v2)
        return
    q1, q2 = v1.denominator, v2.denominator
    literal = (v1 + v2 + (F(1, q1 * q1) - F(1, q2 * q2)) / divisor) / 2
    assert _midpoint_value(v1, v2) == literal


def test_identity_check_spot():
    assert identity_check(F(0, 1), F(1, 2))
    assert identity_check(F(2, 5), F(1, 2))
    assert identity_check(F(0, 1), F(1, 1))


def test_identity_check_fails_off_tree():
    assert not identity_check(F(0, 1), F(1, 3))


def test_identity_check_degenerate_pair():
    with pytest.raises(ValueError):
        identity_check(F(0, 1), F(3, 1))  # difference of 3 zeroes the divisor


def _identity_oracle(f1, f2):
    # Both sides as reduced Fractions; the midpoint's ValueError comes first.
    return _midpoint_value(f1, f2) == springborn_mediant(f1, f2)


def _outcome(check, f1, f2):
    try:
        return check(f1, f2)
    except ValueError as error:
        return str(error)


_NEIGHBOURS = [(t.f1, t.f2) for seeds in (REDUCED_SEEDS, UNIT_SEEDS)
               for _, t in enumerate_tree(5, seeds)]
_pair_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=1000)


@st.composite
def _candidate_pairs(draw):
    """Tree neighbours, perturbed, swapped or equal ones, pairs 3 apart, arbitrary pairs."""
    if draw(st.booleans()):
        return draw(_pair_fractions), draw(_pair_fractions)
    f1, f2 = draw(st.sampled_from(_NEIGHBOURS))
    change = draw(st.sampled_from(["none", "perturb", "swap", "equal", "pole"]))
    if change == "perturb":
        f2 += F(draw(st.integers(-3, 3)), draw(st.integers(1, 50)))
    elif change == "swap":
        f1, f2 = f2, f1
    elif change == "equal":
        f2 = f1
    elif change == "pole":
        f2 = f1 + 3
    return f1, f2


@settings(max_examples=400)
@given(_candidate_pairs())
@example((F(0, 1), F(3, 1)))
@example((F(3, 1), F(0, 1)))
@example((F(0, 1), F(1, 3)))
@example((F(1, 2), F(1, 2)))
def test_identity_check_matches_fraction_oracle(pair):
    assert _outcome(identity_check, *pair) == _outcome(_identity_oracle, *pair)


def test_identity_check_all_neighbors_to_depth7():
    for seeds in (REDUCED_SEEDS, UNIT_SEEDS):
        for _, t in enumerate_tree(7, seeds):
            assert identity_check(t.f1, t.f2)


# -- set equivalence ----------------------------------------------------------


def test_set_equivalence_small_depths():
    r1 = set_equivalence(1)
    assert r1.level_sizes == (2, 3)
    assert r1.equal

    r2 = set_equivalence(2)
    assert r2.level_sizes == (2, 3, 5)
    assert all(r2.levels_equal)
    level2 = {epsilon(DyadicRational(m, 2)) for m in range(5)}
    assert level2 == {F(0), F(2, 5), F(1, 2), F(3, 5), F(1)}


def test_set_equivalence_depth8():
    report = set_equivalence(8)
    assert report.level_sizes[-1] == 257
    assert report.equal


def test_set_equivalence_depth_bounds():
    # The depth is held to the vertex budget of the scans, as the tree walks are.
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        set_equivalence(-1)
    with pytest.raises(ValueError, match="depth 20 exceeds the 1048576 vertex budget"):
        set_equivalence(20)
    report = set_equivalence(13)
    assert report.equal
    assert report.level_sizes[-1] == 8193


def _set_equivalence_by_levels(depth):
    """set_equivalence by both whole levels: midpoints of the ε level, mediants of the tree's."""
    eps_level = [F(0), F(1)]
    tree_level = list(UNIT_SEEDS)
    sizes = [len(eps_level)]
    equal = [eps_level == tree_level]
    for _ in range(depth):
        next_eps = []
        next_tree = []
        for i in range(len(eps_level) - 1):
            next_eps += [eps_level[i], slopes._midpoint_value(eps_level[i], eps_level[i + 1])]
            next_tree += [tree_level[i], springborn_mediant(tree_level[i], tree_level[i + 1])]
        next_eps.append(eps_level[-1])
        next_tree.append(tree_level[-1])
        eps_level, tree_level = next_eps, next_tree
        sizes.append(len(eps_level))
        equal.append(eps_level == tree_level)
    return EquivalenceReport(depth, tuple(sizes), tuple(equal))


def test_set_equivalence_matches_the_level_lists_to_depth12():
    for depth in range(13):
        assert set_equivalence(depth) == _set_equivalence_by_levels(depth)


@pytest.mark.parametrize("pairs, levels_equal", [
    # The root's pair: level 1 and every later level differ.
    ([(F(0), F(1))], (True,) + (False,) * 6),
    # The neighbours of 75/194, a vertex of level 4.
    ([(F(5, 13), F(2, 5))], (True,) * 4 + (False,) * 3),
    # Never a neighbour pair: no level differs.
    ([(F(1, 3), F(2, 3))], (True,) * 7),
    # The neighbours of the level-2 vertex L and of the level-3 vertex RR,
    # which the word-order walk reaches later: level 2 is the first to differ.
    ([(F(0), F(1, 2)), (F(3, 5), F(1))], (True,) * 2 + (False,) * 5),
])
def test_set_equivalence_matches_the_level_lists_under_a_wrong_midpoint(
        monkeypatch, pairs, levels_equal):
    real = slopes._midpoint_value

    def off_at_pairs(v1, v2):
        value = real(v1, v2)
        return value + 1 if (v1, v2) in pairs else value

    monkeypatch.setattr(slopes, "_midpoint_value", off_at_pairs)
    for depth in range(7):
        assert set_equivalence(depth) == _set_equivalence_by_levels(depth)
    assert set_equivalence(6).levels_equal == levels_equal


# -- slope normalization --------------------------------------------------------


def test_normalize_slope_examples():
    assert normalize_slope(F(2, 5)) == normalize_slope(F(2, 5))
    n = normalize_slope(F(2, 5))
    assert (n.n, n.sign, n.reduced) == (0, 1, F(2, 5))
    n = normalize_slope(F(3, 5))
    assert (n.n, n.sign, n.reduced) == (1, -1, F(2, 5))
    n = normalize_slope(F(-7, 5))
    assert (n.n, n.sign, n.reduced) == (-1, -1, F(2, 5))


def test_normalize_slope_half_integers_prefer_plus():
    assert normalize_slope(F(3, 2)) == normalize_slope(F(1) + F(1, 2))
    assert normalize_slope(F(3, 2)).sign == 1
    assert normalize_slope(F(4)).reduced == 0


@given(st.fractions(min_value=-20, max_value=20, max_denominator=200))
def test_normalize_slope_reconstructs(x):
    n = normalize_slope(x)
    assert n.n + n.sign * n.reduced == x
    assert 0 <= n.reduced <= F(1, 2)
    # Built without a gcd, the reduced slope is the Fraction that normalization builds.
    r = n.reduced
    expected = F(r.numerator, r.denominator)
    assert (r.numerator, r.denominator, hash(r)) == (
        expected.numerator, expected.denominator, hash(expected))
    assert n.sign in (1, -1)
    again = normalize_slope(n.reduced)
    assert (again.n, again.sign, again.reduced) == (0, 1, n.reduced)


# -- membership -------------------------------------------------------------------


def test_membership_accepts_documented_fraction():
    decision = is_exceptional_slope(F(13, 34))
    assert decision.accepted
    assert decision.witness == "LL"
    assert descend_value(decision.witness) == F(13, 34)
    mf = decision.markov_fraction()
    assert (mf.value, mf.depth) == (F(13, 34), 2)


def test_membership_rejects_non_members():
    decision = is_exceptional_slope(F(1, 3))
    assert not decision.accepted
    assert decision.witness is None
    assert decision.stopped_at_denominator == 5  # root already overshoots q=3
    with pytest.raises(ValueError):
        decision.markov_fraction()

    for bad in (F(2, 7), F(3, 8), F(4, 9), F(5, 11), F(6, 13), F(5, 3)):
        assert not is_exceptional_slope(bad).accepted


def test_membership_normalizes_translates():
    decision = is_exceptional_slope(F(8, 5))
    assert decision.accepted
    assert decision.reduced == F(2, 5)
    assert decision.witness == ""
    assert is_exceptional_slope(F(-7, 5)).accepted
    assert is_exceptional_slope(F(3, 5)).accepted


def test_membership_accepts_seeds():
    for seed in (F(0), F(1, 2), F(1), F(-2)):
        decision = is_exceptional_slope(seed)
        assert decision.accepted
        assert decision.witness is None
        assert decision.markov_fraction() == MarkovFraction(decision.reduced, 0, None)


def test_membership_matches_enumeration_to_depth8():
    # markov_fraction skips the constructor's checks; it must build what they accept.
    for word, t in enumerate_tree(8):
        decision = is_exceptional_slope(t.f3)
        assert decision.accepted
        assert decision.witness == word
        assert decision.markov_fraction() == MarkovFraction(t.f3, len(word), word)


def test_membership_rejection_is_justified():
    decision = is_exceptional_slope(F(15, 38))
    assert not decision.accepted
    assert decision.stopped_at_denominator > 38


def _membership_oracle(r):
    """(witness, stopped_at_denominator) of the mediant search for r in (0, 1/2)."""
    f1, f2 = REDUCED_SEEDS
    word = ""
    while True:
        f3 = springborn_mediant(f1, f2)
        if f3 == r:
            return word, None
        if f3.denominator > r.denominator:
            return None, f3.denominator
        if r < f3:
            f2, word = f3, word + "L"
        else:
            f1, word = f3, word + "R"


def test_membership_matches_mediant_search():
    for q in range(3, 300):
        for p in range(1, (q + 1) // 2):
            if math.gcd(p, q) != 1:
                continue
            decision = is_exceptional_slope(F(p, q))
            witness, stopped = _membership_oracle(F(p, q))
            assert decision.accepted == (witness is not None)
            assert (decision.witness, decision.stopped_at_denominator) == (witness, stopped)


def _membership_by_letters(x):
    """The membership search with one Vieta step per letter."""
    norm = normalize_slope(x)
    r = norm.reduced
    if r == 0 or 2 * r == 1:
        return SlopeDecision(True, norm, None, None)
    rp, rq = r.numerator, r.denominator
    v = _REDUCED_ROOT
    letters = []
    while True:
        p3, q3 = v[4], v[5]
        if p3 == rp and q3 == rq:
            return SlopeDecision(True, norm, "".join(letters), None)
        if q3 > rq:
            return SlopeDecision(False, norm, None, q3)
        letter = "L" if rp * q3 < p3 * rq else "R"
        letters.append(letter)
        v = _vieta_child(v, letter)


def _near(p, q):
    """p/q and the reduced fractions at ±1 and ±2 from its numerator or denominator."""
    out = {F(p, q)}
    for delta in (-2, -1, 1, 2):
        out |= {F(p + delta, q), F(p, q + delta)} if q + delta else {F(p + delta, q)}
    return out


def test_run_length_membership_matches_letter_search():
    targets = set()
    for (_, _, _, _, p, q), _, _ in tree_walk(7):
        targets |= _near(p, q)
    for k in range(1, 201):
        for branch in (fibonacci_branch(k), pell_branch(k)):
            targets |= _near(branch.value.numerator, branch.value.denominator)
    # Long runs below short words, where a run's multiplier is large.
    rng = random.Random(11)
    for _ in range(60):
        prefix = "".join(rng.choice("LR") * rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        suffix = "".join(rng.choice("LR") for _ in range(rng.randint(0, 2)))
        value = descend_value(prefix + rng.choice("LR") * rng.choice([15, 16, 17, 40, 150]) + suffix)
        targets |= _near(value.numerator, value.denominator)
    for x in sorted(targets):
        for shifted in (x, 3 - x):
            assert is_exceptional_slope(shifted) == _membership_by_letters(shifted), shifted


def test_membership_cliff_is_gone():
    # Letter by letter, accepting this branch vertex took 16 s, and rejecting
    # its neighbours (p + 1)/q and p/(q + 1) 5 s and 18 s.
    value = descend_value("L" * 19_999)  # fibonacci_branch(20000), built in runs
    assert value.denominator.bit_length() == 27_771
    start = time.perf_counter()
    decision = is_exceptional_slope(value)
    assert time.perf_counter() - start < 5.0
    assert decision.witness == "L" * 19_999
    for neighbour in (F(value.numerator + 1, value.denominator),
                      F(value.numerator, value.denominator + 1)):
        start = time.perf_counter()
        decision = is_exceptional_slope(neighbour)
        assert time.perf_counter() - start < 5.0
        assert not decision.accepted
        assert decision.stopped_at_denominator > value.denominator


def test_membership_value_budget():
    # The input's denominator is held to the budget, exactly at its boundary.
    assert not is_exceptional_slope(F(1, 2 ** (MAX_VALUE_BITS - 1))).accepted
    with pytest.raises(ValueError, match="the slope x exceeds the 262144-bit value budget"):
        is_exceptional_slope(F(1, 2 ** MAX_VALUE_BITS))
    with pytest.raises(ValueError, match="the slope x exceeds"):
        bundle_invariants(F(7, 2 ** MAX_VALUE_BITS) + 5)


# -- bundle invariants ----------------------------------------------------------------


def test_bundle_invariants_spot_values():
    b = bundle_invariants(F(0, 1))
    assert (b.rank, b.c1, b.s, b.c2, b.form) == (1, 0, 1, 0, (1, 3, 1))
    assert b.form_discriminant == 5

    b = bundle_invariants(F(2, 5))
    assert (b.rank, b.c1, b.s, b.c2, b.form) == (5, 2, 1, 4, (5, 11, -5))
    assert b.form_discriminant == 221

    b = bundle_invariants(F(1, 2))
    assert (b.rank, b.c1, b.s, b.c2, b.form) == (2, 1, 1, 1, (2, 4, -2))
    assert b.form_discriminant == 32
    assert b.form_content == 2  # form need not be primitive; content is reported as-is

    b = bundle_invariants(F(13, 34))
    assert (b.s, b.c2, b.form) == (5, 99, (34, 76, -34))


def test_bundle_invariants_reject_non_slopes():
    with pytest.raises(ValueError):
        bundle_invariants(F(1, 3))


def test_bundle_invariants_congruence_solutions():
    b = bundle_invariants(F(13, 34))
    assert b.c1 % b.rank in b.congruence_solutions()
    assert b.congruence_solutions() == solve_congruence(34)


def test_bundle_invariants_identities_to_depth6():
    for _, t in enumerate_tree(6):
        b = bundle_invariants(t.f3)
        p, q = t.f3.numerator, t.f3.denominator
        assert (b.rank, b.c1) == (q, p)
        assert b.s * q == p * p + 1
        assert 2 * b.c2 == (q - 1) * (b.s + 1)
        assert b.form == (q, 3 * q - 2 * p, b.s - 3 * p)
        assert b.form_discriminant == 9 * q * q - 4
        assert b.form_content == math.gcd(math.gcd(b.form[0], abs(b.form[1])), abs(b.form[2]))


@settings(max_examples=60)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=60))
def test_membership_decision_is_translation_invariant(x):
    base = is_exceptional_slope(x)
    shifted = is_exceptional_slope(x + 1)
    mirrored = is_exceptional_slope(-x)
    assert base.accepted == shifted.accepted == mirrored.accepted
    assert base.reduced == shifted.reduced == mirrored.reduced
