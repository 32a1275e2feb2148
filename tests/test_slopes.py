"""Exceptional-slope function, tree equivalence, membership, bundle invariants.

The dual-route oracle: an exceptional slope at the dyadic m/2^n can also be
reached by reading the binary digits of m (minus the trailing 1) as turn
letters and descending the [0, 1]-seeded mediant tree.  The two routes share
no code, so their agreement pins down both.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovfrac import (
    REDUCED_SEEDS,
    UNIT_SEEDS,
    DyadicRational,
    bundle_invariants,
    descend_value,
    enumerate_tree,
    epsilon,
    identity_check,
    is_exceptional_slope,
    normalize_slope,
    set_equivalence,
    solve_congruence,
    springborn_mediant,
)
from markovfrac import exact, slopes
from markovfrac.exact import MAX_VALUE_BITS
from markovfrac.slopes import _midpoint_value

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
    def refuse(v1, v2):
        raise AssertionError("a midpoint step was taken")

    monkeypatch.setattr(slopes, "_midpoint_value", refuse)
    for n in (MAX_VALUE_BITS, 10**20):
        with pytest.raises(ValueError, match="epsilon\\(x\\) exceeds the 262144-bit value budget"):
            epsilon(DyadicRational(1, n))


def test_epsilon_budget_is_exact(monkeypatch):
    # Under a budget of exactly its own bits a slope is admitted, one bit
    # less refuses it, and no step is taken whose result must pass the budget.
    rng = random.Random(50)
    inputs = [DyadicRational(rng.randrange(1, 1 << n, 2) + (rng.randint(-2, 2) << n), n)
              for n in range(1, 16) for _ in range(12)]
    values = {d: epsilon(d) for d in inputs}
    steps = []

    def recording(v1, v2):
        steps.append((v1.denominator.bit_length() + v2.denominator.bit_length(), budget))
        return _midpoint_value(v1, v2)

    monkeypatch.setattr(slopes, "_midpoint_value", recording)
    for d, value in values.items():
        budget = value.denominator.bit_length()
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget)
        assert epsilon(d) == value
        budget -= 1
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget)
        with pytest.raises(ValueError, match=f" {budget}-bit value budget"):
            epsilon(d)
    assert all(lower <= budget for lower, budget in steps)


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
    with pytest.raises(ValueError):
        set_equivalence(13)
    with pytest.raises(ValueError):
        set_equivalence(-1)


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


def test_membership_matches_enumeration_to_depth8():
    for word, t in enumerate_tree(8):
        decision = is_exceptional_slope(t.f3)
        assert decision.accepted
        assert decision.witness == word


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
