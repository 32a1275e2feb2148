"""Farey tree addressing and the three question mark function routes.

The independent oracles here are from-scratch mediant bisections that never
touch turn words or continued fractions: one narrows a Farey interval
around the target letter by letter, the other also halves a dyadic interval
in lockstep.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovfrac import (
    DyadicRational,
    farey_mediant,
    farey_node_at,
    farey_path_to,
    question_mark_farey,
    question_mark_of_word,
    question_mark_salem,
)
from markovfrac.exact import MAX_VALUE_BITS

words = st.text(alphabet="LR", min_size=0, max_size=12)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10_000).filter(
    lambda x: 0 < x < 1)


def _fibonacci_ratios(count: int) -> list[F]:
    fib = [1, 1]
    while len(fib) < count + 2:
        fib.append(fib[-1] + fib[-2])
    return [F(fib[i], fib[i + 1]) for i in range(1, count + 1)]


def _path_by_mediants(x: F) -> str:
    """Oracle: the turn word of x, one Farey mediant per letter."""
    lp, rp = F(0), F(1)
    letters = []
    while True:
        value = farey_mediant(lp, rp)
        if value == x:
            return "".join(letters)
        if x < value:
            letters.append("L")
            rp = value
        else:
            letters.append("R")
            lp = value


def _qmark_bisect(x: F) -> F:
    """Oracle: ?(x) by simultaneous Farey/dyadic interval bisection."""
    lo, hi = F(0), F(1)
    ylo, yhi = F(0), F(1)
    while True:
        mid = F(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        y = (ylo + yhi) / 2
        if mid == x:
            return y
        if x < mid:
            hi, yhi = mid, y
        else:
            lo, ylo = mid, y


def _reduced_in_unit_interval(max_den: int) -> list[F]:
    out = [F(0), F(1)]
    for q in range(2, max_den + 1):
        out.extend(F(p, q) for p in range(1, q) if F(p, q).denominator == q)
    return sorted(out)


# -- tree addressing ------------------------------------------------------


def test_farey_node_examples():
    root = farey_node_at("")
    assert (root.value, root.left_parent, root.right_parent) == (F(1, 2), F(0), F(1))
    left = farey_node_at("L")
    assert (left.value, left.left_parent, left.right_parent) == (F(1, 3), F(0), F(1, 2))
    rl = farey_node_at("RL")
    assert (rl.value, rl.left_parent, rl.right_parent) == (F(3, 5), F(1, 2), F(2, 3))


def test_farey_path_examples():
    assert farey_path_to(F(1, 2)) == ""
    assert farey_path_to(F(1, 3)) == "L"
    assert farey_path_to(F(2, 5)) == "LR"


def test_farey_path_rejects_outside_open_interval():
    for bad, shown in ((F(0), "0"), (F(1), "1"), (F(3, 2), "3/2"), (F(-1, 2), "-1/2"),
                       (0, "0"), (1, "1"), (2, "2")):
        with pytest.raises(ValueError,
                           match=f"^no Farey tree vertex carries {shown}; need 0 < x < 1$"):
            farey_path_to(bad)


def test_farey_node_rejects_bad_letters():
    with pytest.raises(ValueError):
        farey_node_at("LXR")


def test_farey_path_long_runs_match_mediant_oracle():
    ladder = [2, 3, 4, 5, 17, 100, 999, 1000, 4097, 9999, 10_000]
    xs = [F(1, b) for b in ladder] + [F(b - 1, b) for b in ladder] + _fibonacci_ratios(25)
    xs += [1 - x for x in _fibonacci_ratios(25)] + [F(2, 2 * b + 1) for b in ladder]
    for x in xs:
        assert farey_path_to(x) == _path_by_mediants(x), x
    assert farey_path_to(F(1, 10_000)) == "L" * 9998
    assert farey_path_to(F(9999, 10_000)) == "R" * 9998


@settings(max_examples=100, deadline=None)
@given(unit_fractions)
@example(F(1, 10_000))
@example(F(9999, 10_000))
@example(F(6765, 10946))
@example(F(4181, 10946))
def test_farey_path_matches_mediant_oracle(x):
    assert farey_path_to(x) == _path_by_mediants(x)


@given(words)
def test_farey_roundtrip(word):
    node = farey_node_at(word)
    assert farey_path_to(node.value) == word


@given(words)
def test_farey_node_matches_the_fraction_walk(word):
    # Oracle: one reduced Fraction mediant per letter.
    lp, rp = F(0), F(1)
    for ch in word:
        if ch == "L":
            rp = farey_mediant(lp, rp)
        else:
            lp = farey_mediant(lp, rp)
    node = farey_node_at(word)
    assert (node.value, node.left_parent, node.right_parent) == (farey_mediant(lp, rp), lp, rp)


@given(words)
def test_farey_node_invariants(word):
    node = farey_node_at(word)
    lp, rp = node.left_parent, node.right_parent
    assert node.value == farey_mediant(lp, rp)
    assert lp < node.value < rp
    det = rp.numerator * lp.denominator - lp.numerator * rp.denominator
    assert det == 1


# -- question mark: spot values -------------------------------------------


def test_question_mark_farey_examples():
    assert question_mark_farey(F(1, 2)) == DyadicRational(1, 1)
    assert question_mark_farey(F(1, 3)) == DyadicRational(1, 2)
    assert question_mark_farey(F(2, 5)) == DyadicRational(3, 3)
    assert question_mark_farey(F(0)) == DyadicRational(0, 0)
    assert question_mark_farey(F(1)) == DyadicRational(1, 0)


def test_question_mark_salem_examples():
    assert question_mark_salem(F(1, 3)) == DyadicRational(1, 2)  # one term: 1/4
    assert question_mark_salem(F(2, 5)) == DyadicRational(3, 3)  # 1/2 - 1/8
    assert question_mark_salem(F(1)) == DyadicRational(1, 0)
    assert question_mark_salem(F(0)) == DyadicRational(0, 0)


def test_question_mark_of_word_examples():
    assert question_mark_of_word("LR") == DyadicRational(3, 3)  # 0.011b at 2/5
    assert question_mark_of_word("") == DyadicRational(1, 1)  # 0.1b at the root
    assert question_mark_of_word("L") == DyadicRational(1, 2)  # 0.01b at 1/3


def test_question_mark_rejects_outside_unit_interval():
    for route in (question_mark_farey, question_mark_salem):
        for bad, shown in ((F(5, 4), "5/4"), (F(-1, 7), "-1/7"), (2, "2"), (-1, "-1")):
            with pytest.raises(ValueError,
                               match=f"^question mark is evaluated on \\[0, 1\\]; got {shown}$"):
                route(bad)
        assert route(0) == DyadicRational(0, 0) and route(1) == DyadicRational(1, 0)


# -- question mark: route agreement and oracle ----------------------------


def test_question_mark_farey_matches_bisection_oracle():
    for q in range(1, 41):
        for p in range(0, q + 1):
            x = F(p, q)
            if x.denominator != q or not 0 < x < 1:
                continue
            assert question_mark_farey(x).value == _qmark_bisect(x)


@settings(max_examples=60, deadline=None)
@given(unit_fractions)
@example(F(1, 3000))
@example(F(2999, 3000))
@example(F(6765, 10946))
def test_question_mark_farey_matches_bisection_oracle_property(x):
    assert question_mark_farey(x).value == _qmark_bisect(x)


def test_question_mark_routes_agree_up_to_denominator_50():
    for x in _reduced_in_unit_interval(50):
        assert question_mark_farey(x) == question_mark_salem(x)


@given(words)
def test_question_mark_of_word_matches_farey_route(word):
    value = farey_node_at(word).value
    assert question_mark_of_word(word) == question_mark_farey(value)


def test_question_mark_strictly_monotone_up_to_denominator_30():
    xs = _reduced_in_unit_interval(30)
    images = [question_mark_farey(x).value for x in xs]
    assert all(a < b for a, b in zip(images, images[1:]))


def test_question_mark_symmetry_up_to_denominator_30():
    for x in _reduced_in_unit_interval(30):
        assert question_mark_farey(1 - x).value == 1 - question_mark_farey(x).value


def _salem_by_fractions(x: F) -> DyadicRational:
    """Oracle: the alternating series, one reduced Fraction addition per quotient."""
    p, q = x.numerator, x.denominator
    quotients = []
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    total, run = F(quotients[0]), 0
    for i, a in enumerate(quotients[1:]):
        run += a
        term = F(1, 1 << (run - 1))
        total += term if i % 2 == 0 else -term
    return DyadicRational.from_fraction(total)


def test_question_mark_salem_matches_the_fraction_series():
    xs = _reduced_in_unit_interval(300) + _fibonacci_ratios(40)
    xs += [F(1, b) for b in (1250, 4097)] + [F(b - 1, b) for b in (1250, 4097)]
    for x in xs:
        assert question_mark_salem(x) == _salem_by_fractions(x), x


@settings(max_examples=80)
@given(st.fractions(min_value=0, max_value=1, max_denominator=400))
def test_question_mark_salem_equals_bisection(x):
    if 0 < x < 1:
        assert question_mark_salem(x).value == _qmark_bisect(x)


# -- value budget -----------------------------------------------------------------


def test_question_mark_budget_boundary():
    # ?(1/b) = 1/2^(b - 1): a denominator of b bits, the sum of the quotients.
    admitted, rejected = F(1, MAX_VALUE_BITS), F(1, MAX_VALUE_BITS + 1)
    expected = DyadicRational(1, MAX_VALUE_BITS - 1)
    assert question_mark_farey(admitted) == question_mark_salem(admitted) == expected
    assert farey_path_to(admitted) == "L" * (MAX_VALUE_BITS - 2)
    assert question_mark_of_word(farey_path_to(admitted)) == expected
    for route in (question_mark_farey, question_mark_salem, farey_path_to):
        with pytest.raises(ValueError, match="262144-bit value budget"):
            route(rejected)
    with pytest.raises(ValueError, match="262144-bit value budget"):
        question_mark_of_word("L" * (MAX_VALUE_BITS - 1))


def test_farey_node_budget_boundary():
    # A word of n letters has a denominator of at least n + 2; the budget
    # holds the word to MAX_VALUE_BITS letters, as farey_path_to holds its words.
    assert farey_node_at("L" * MAX_VALUE_BITS).value == F(1, MAX_VALUE_BITS + 2)
    with pytest.raises(ValueError, match="^the turn word exceeds the 262144-bit value budget$"):
        farey_node_at("LR" * (MAX_VALUE_BITS // 2) + "L")


@pytest.mark.parametrize("x", [F(1, 10 ** 12), F(10 ** 12 - 1, 10 ** 12), F(1, 3) + F(1, 10 ** 9)])
def test_question_mark_budget_is_checked_before_the_route(x):
    # Each of these would take minutes and gigabytes; the budget refuses them at once.
    for route in (question_mark_farey, question_mark_salem, farey_path_to):
        with pytest.raises(ValueError, match="value budget"):
            route(x)
