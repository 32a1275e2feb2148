"""Markov fraction tree, triples, branches, congruence, generalized equations.

Independent oracles: Fibonacci/Pell integer recurrences for the two named
branches, sympy's sqrt_mod, isprime and factorint for the numerator
congruence, a direct Vieta-closure reimplementation for the generalized
equations, and the reduced-Fraction form of the neighbour relations, which
check_relations decides on integers.
"""

import itertools
import math
import os
import random
import threading
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.ntheory.modular import crt
from sympy.ntheory.residue_ntheory import sqrt_mod

from markovfrac import (
    REDUCED_SEEDS,
    UNIT_SEEDS,
    FractionTriple,
    GeneralizedEquation,
    MarkovTriple,
    check_relations,
    descend_value,
    enumerate_tree,
    epsilon,
    farey_node_at,
    farey_path_to,
    fibonacci_branch,
    generalized_enumerate,
    mu,
    pell_branch,
    question_mark_salem,
    solve_congruence,
    springborn_mediant,
    tree_walk,
    unicity_scan,
    vieta_mutate,
)
from markovfrac import exact, markov
from markovfrac.exact import MAX_VALUE_BITS
from markovfrac.markov import (
    MarkovFraction,
    _is_probable_prime,
    _lucas_pair,
    _rank_walk,
    _root,
    _run_step,
    _vieta_child,
    congruence_brute,
)
from conftest import assert_no_child_left, refuse_to_fork

words = st.text(alphabet="LR", min_size=0, max_size=10)


def _sqrt_mod_oracle(q: int) -> list[int]:
    roots = sqrt_mod(-1, q, all_roots=True)
    return sorted(roots) if roots else []


# -- Springborn mediant ----------------------------------------------------


def test_springborn_examples():
    assert springborn_mediant(F(0, 1), F(1, 2)) == F(2, 5)
    assert springborn_mediant(F(0, 1), F(2, 5)) == F(5, 13)
    assert springborn_mediant(F(2, 5), F(1, 2)) == F(12, 29)


def test_springborn_requires_order():
    with pytest.raises(ValueError):
        springborn_mediant(F(1, 2), F(0, 1))


@given(words)
def test_springborn_lands_strictly_between(word):
    f1, f2 = REDUCED_SEEDS
    for ch in word:
        child = springborn_mediant(f1, f2)
        assert f1 < child < f2
        if ch == "L":
            f2 = child
        else:
            f1 = child
    assert springborn_mediant(f1, f2) == descend_value(word)


# -- Vieta involution -------------------------------------------------------


def test_vieta_examples():
    assert vieta_mutate(MarkovTriple(1, 1, 1), 3) == MarkovTriple(1, 1, 2)
    assert vieta_mutate(MarkovTriple(1, 1, 2), 2) == MarkovTriple(1, 5, 2)
    assert vieta_mutate(MarkovTriple(1, 5, 2), 1) == MarkovTriple(29, 5, 2)


def test_markov_triple_validation():
    with pytest.raises(ValueError):
        MarkovTriple(1, 1, 3)
    with pytest.raises(ValueError):
        MarkovTriple(0, 1, 1)
    with pytest.raises(ValueError):
        vieta_mutate(MarkovTriple(1, 1, 2), 4)


@given(st.lists(st.integers(1, 3), min_size=0, max_size=12))
def test_vieta_is_an_involution(indices):
    t = MarkovTriple(1, 1, 1)
    for i in indices:
        t = vieta_mutate(t, i)  # constructor re-checks the equation each time
        assert vieta_mutate(vieta_mutate(t, i), i) == t
    x, y, z = t.as_tuple()
    assert math.gcd(x, y) == math.gcd(y, z) == math.gcd(x, z) == 1


# -- tree enumeration -------------------------------------------------------


def test_enumerate_depth0():
    vertices = list(enumerate_tree(0))
    assert len(vertices) == 1
    word, triple = vertices[0]
    assert word == ""
    assert (triple.f1, triple.f2, triple.f3) == (F(0, 1), F(1, 2), F(2, 5))


def test_enumerate_depth2_exact_set():
    values = {t.f3 for _, t in enumerate_tree(2)}
    assert values == {
        F(2, 5), F(5, 13), F(12, 29), F(13, 34),
        F(75, 194), F(179, 433), F(70, 169),
    }


def test_enumerate_vertex_count():
    for depth in range(6):
        assert len(list(enumerate_tree(depth))) == (1 << (depth + 1)) - 1


def test_enumerate_contains_headline_fractions_at_depth5():
    listed = ["2/5", "5/13", "12/29", "13/34", "34/89", "70/169",
              "75/194", "89/233", "179/433", "233/610", "408/985"]
    values = {str(t.f3) for _, t in enumerate_tree(5)}
    assert set(listed) <= values


def test_enumerate_unit_seeds():
    values = {t.f3 for _, t in enumerate_tree(1, UNIT_SEEDS)}
    assert values == {F(1, 2), F(2, 5), F(3, 5)}


def test_enumerate_rejects_bad_depth():
    with pytest.raises(ValueError):
        list(enumerate_tree(-1))
    with pytest.raises(ValueError):
        list(enumerate_tree(20))  # beyond the vertex budget


def test_enumerate_is_depth_first_in_word_order():
    order = [word for word, _ in enumerate_tree(2)]
    assert order == ["", "L", "LL", "LR", "R", "RL", "RR"]


def test_tree_invariants_to_depth6():
    for word, t in enumerate_tree(6):
        assert check_relations(t).all_hold
        q1, q2, q3 = t.f1.denominator, t.f2.denominator, t.f3.denominator
        assert q1 * q1 + q2 * q2 + q3 * q3 == 3 * q1 * q2 * q3
        p3 = t.f3.numerator
        assert (p3 * p3 + 1) % q3 == 0
        assert t.f1 < t.f3 < t.f2
        assert len(word) <= 6


# -- integer walk and descent -------------------------------------------------


def _as_integers(*fractions):
    return tuple(n for f in fractions for n in (f.numerator, f.denominator))


def test_tree_walk_matches_enumerate_tree_to_depth10():
    reference = list(enumerate_tree(10))
    walked = list(tree_walk(10))
    assert len(walked) == len(reference) == (1 << 11) - 1
    for (word, t), (vertex, farey, level) in zip(reference, walked):
        node = farey_node_at(word)
        assert vertex == _as_integers(t.f1, t.f2, t.f3), word
        assert farey == _as_integers(node.left_parent, node.right_parent), word
        assert level == len(word)


@pytest.mark.parametrize("seeds", [UNIT_SEEDS, REDUCED_SEEDS, (F(1), F(3, 2)), (F(1), F(2))],
                         ids=["unit", "reduced", "reduced_plus_1", "unit_plus_1"])
def test_tree_walk_on_seeds_matches_enumerate_tree(seeds):
    # The [0, 1] walk is what verify's midpoint_identity reads; integer
    # translates span trees too, and the Farey pairs follow the words alone.
    for depth in range(9):
        reference = list(enumerate_tree(depth, seeds))
        walked = list(tree_walk(depth, seeds=seeds))
        assert len(walked) == len(reference) == (1 << (depth + 1)) - 1
        for (word, t), (vertex, farey, level) in zip(reference, walked):
            node = farey_node_at(word)
            assert vertex == _as_integers(t.f1, t.f2, t.f3), (depth, word)
            assert farey == _as_integers(node.left_parent, node.right_parent), (depth, word)
            assert level == len(word)


@pytest.mark.parametrize("seeds, message", [
    ((F(0), F(1, 3)), "do not span a Markov fraction tree"),
    ((F(1, 2), F(0)), "arguments must be ordered"),
])
def test_tree_walk_rejects_bad_seeds(seeds, message):
    # The walk raises as _root does, when it is called, before any vertex.
    with pytest.raises(ValueError, match=message):
        markov._root(seeds)
    with pytest.raises(ValueError, match=message):
        tree_walk(3, seeds=seeds)


def test_tree_walk_rejects_bad_depth():
    for bad, message in ((-1, "depth must be nonnegative"),
                         (20, "depth 20 exceeds the 1048576 vertex budget")):
        with pytest.raises(ValueError, match=message):
            tree_walk(bad)
        with pytest.raises(ValueError, match=message):
            list(enumerate_tree(bad))
    with pytest.raises(ValueError):
        tree_walk(None)


def test_tree_walk_prunes_by_denominator():
    def vertices(depth, bound):
        return [v for v, _, _ in tree_walk(depth, bound)]
    assert vertices(6, 1000) == [_as_integers(t.f1, t.f2, t.f3)
                                 for _, t in enumerate_tree(6) if t.f3.denominator <= 1000]
    # Every denominator at level 7 or deeper exceeds 1000, so depth None agrees.
    assert vertices(None, 1000) == vertices(6, 1000)
    assert vertices(None, 4) == []


def _misses(a, b):
    """Subtree-closed cut: the neighbours p1/q1 < p2/q2 miss the window (a, b)."""
    def cut(v):
        p1, q1, p2, q2 = v[:4]
        return F(p2, q2) <= a or F(p1, q1) >= b
    return cut


@pytest.mark.parametrize("prune", [
    _misses(F(1, 3), F(2, 5)),
    _misses(F(2, 5) - F(1, 10 ** 6), F(2, 5) + F(1, 10 ** 6)),
    _misses(F(0), F(1, 100)),
    lambda v: v[5] > 2000,
    lambda v: True,
    lambda v: False,
])
def test_tree_walk_prune_cuts_subtrees(prune):
    # A subtree-closed predicate cuts exactly the vertices it holds for.
    for depth, bound in ((None, 10 ** 6), (None, 1000), (7, None), (9, 10 ** 9)):
        pruned = list(tree_walk(depth, bound, prune=prune))
        assert pruned == [item for item in tree_walk(depth, bound) if not prune(item[0])]


def test_tree_walk_prune_runs_after_the_denominator_cut():
    seen = []
    list(tree_walk(None, 1000, prune=lambda v: seen.append(v[5]) or False))
    assert seen and max(seen) <= 1000


def test_rank_walk_is_the_denominators_of_tree_walk_to_depth10():
    for depth in (0, 1, 4, 10):
        ranked = list(_rank_walk(depth))
        walked = list(tree_walk(depth))
        assert len(ranked) == len(walked) == (1 << (depth + 1)) - 1
        for (triple, farey, level), (vertex, walked_farey, walked_level) in zip(ranked, walked):
            assert (triple, farey, level) == (vertex[1::2], walked_farey, walked_level)


def _farey_at_or_right_of(x):
    """Subtree-closed cut: the left Farey parent a1/b1 is at or right of x."""
    def cut(item):
        a1, b1 = item[1][:2]
        return F(a1, b1) >= x
    return cut


@pytest.mark.parametrize("prune", [
    _farey_at_or_right_of(F(1, 1000)),
    _farey_at_or_right_of(F(1, 3)),
    _farey_at_or_right_of(F(5, 7)),
    lambda item: item[0][2] > 2000,
    lambda item: item[2] > 3,
    lambda item: True,
    lambda item: False,
])
def test_rank_walk_prune_cuts_subtrees(prune):
    for depth in (0, 5, 9):
        assert list(_rank_walk(depth, prune)) == [
            item for item in _rank_walk(depth) if not prune(item)]


def test_rank_walk_from_a_start_walks_its_subtree():
    walk = list(_rank_walk(9))
    starts = [item for item in walk if item[2] == 5]
    assert len(starts) == 32
    below = [list(_rank_walk(9, start=start)) for start in starts]
    assert all(len(items) == 31 and items[0] == start for items, start in zip(below, starts))
    # The subtrees at level 5 and the 31 vertices above them are the walk.
    above = [item for item in walk if item[2] < 5]
    assert sorted(above + [item for items in below for item in items]) == sorted(walk)


@pytest.mark.parametrize("depth, prune, shared", [
    (4, None, False),
    (10, None, False),   # 32 subtrees of 63 vertices: 2016, below the threshold
    (11, None, True),
    (12, _farey_at_or_right_of(F(1, 1000)), False),   # one subtree is left
    (12, _farey_at_or_right_of(F(1, 3)), False),   # 8 subtrees of 255 vertices: 2040
    (12, _farey_at_or_right_of(F(1, 2)), True),    # 16 of them
    (12, lambda item: True, False),
])
def test_shared_rank_walk_covers_the_walk_once(usable_cpus, forks, depth, prune, shared):
    usable_cpus(2)
    parts = markov._shared_rank_walk(depth, prune, list)
    assert_no_child_left()
    assert len(forks) == shared
    # The part above the split level and one per subtree kept, or one part.
    assert (len(parts) > 1) == shared
    assert sorted(item for part in parts for item in part) == sorted(_rank_walk(depth, prune))


def test_shared_rank_walk_refuses_a_depth_before_any_vertex():
    def part(items):
        raise AssertionError("walked a depth past the budget")

    with pytest.raises(ValueError, match="depth 20 exceeds the 1048576 vertex budget"):
        markov._shared_rank_walk(20, None, part)


# -- the task pool -----------------------------------------------------------


def test_share_returns_the_results_in_task_order(usable_cpus):
    usable_cpus(2)
    assert markov._share([lambda i=i: i * i for i in range(40)]) == [i * i for i in range(40)]
    assert_no_child_left()
    assert markov._share([]) == []


def test_share_refuses_more_than_256_tasks(monkeypatch, usable_cpus):
    # An index is one byte.
    usable_cpus(2)
    assert markov._share([lambda i=i: i for i in range(256)]) == list(range(256))
    assert_no_child_left()
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    with pytest.raises(ValueError, match="at most 256 tasks"):
        markov._share([lambda: 0] * 257)


def test_share_runs_serially_on_one_cpu(monkeypatch, usable_cpus):
    usable_cpus(1)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    assert markov._share([os.getpid] * 3) == [os.getpid()] * 3
    assert_no_child_left()


def test_share_runs_serially_when_nested(usable_cpus, forks):
    # A task's own share, in this process or in the child, runs where the
    # task runs: one fork in all, for the outer share.
    usable_cpus(2)
    inner = [os.getpid] * 3
    results = markov._share([lambda: markov._share(inner)] * 4)
    assert_no_child_left()
    assert len(forks) == 1
    assert all(pids == [pids[0]] * 3 for pids in results)
    assert not markov._sharing


def test_share_runs_serially_beside_a_second_thread(monkeypatch, usable_cpus):
    usable_cpus(2)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert markov._share([os.getpid] * 3) == [os.getpid()] * 3
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_no_child_left()


def test_rank_walk_refuses_a_depth_before_any_vertex():
    def visit(item):
        raise AssertionError("visited a vertex past the budget")

    for bad, message in ((-1, "depth must be nonnegative"),
                         (20, "depth 20 exceeds the 1048576 vertex budget")):
        with pytest.raises(ValueError, match=message):
            _rank_walk(bad, visit)


def _mediant_descents(word, seeds):
    """Values at every prefix of word, one springborn_mediant per letter."""
    f1, f2 = seeds
    values = []
    for ch in word:
        f3 = springborn_mediant(f1, f2)
        values.append(f3)
        if ch == "L":
            f2 = f3
        else:
            f1 = f3
    values.append(springborn_mediant(f1, f2))
    return values


@pytest.mark.parametrize("seeds", [REDUCED_SEEDS, UNIT_SEEDS])
def test_descend_value_matches_mediant_oracle(seeds):
    # L^(b - 2) is the Farey word of 1/b: the ladder of mu(1/b).
    ladder = _mediant_descents("L" * 1248, seeds)
    for b in range(1150, 1251):
        assert descend_value("L" * (b - 2), seeds) == ladder[b - 2]
    assert descend_value("R" * 1200, seeds) == _mediant_descents("R" * 1200, seeds)[-1]
    rng = random.Random(20251018)
    for _ in range(300):
        b = rng.randrange(2, 400)
        a = rng.randrange(1, b)
        if math.gcd(a, b) != 1:
            continue
        word = farey_path_to(F(a, b))
        assert descend_value(word, seeds) == _mediant_descents(word, seeds)[-1], word


def _vieta_fold(word, seeds):
    """Oracle: one _vieta_child step per letter, as tree_walk takes them."""
    v = _root(seeds)
    for ch in word:
        v = _vieta_child(v, ch)
    return F(v[4], v[5])


def _words_with_long_runs(rng, count, max_bits):
    """Random words of runs up to 3000 letters, grown while the fold stays below max_bits."""
    words = []
    for _ in range(count):
        word, v = "", _root(REDUCED_SEEDS)
        for _ in range(rng.randint(1, 8)):
            letter = rng.choice("LR")
            run = letter * rng.choice([1, 2, 3, rng.randint(4, 40), rng.randint(41, 3000)])
            w = v
            for ch in run:
                w = _vieta_child(w, ch)
                if w[5].bit_length() > max_bits:
                    break
            else:
                word, v = word + run, w
        words.append(word)
    return words


# Both seed pairs and integer translates of each.
_SEED_PAIRS = [REDUCED_SEEDS, UNIT_SEEDS, (F(3), F(7, 2)), (F(-2), F(-1))]


def test_descend_value_matches_vieta_fold_on_long_runs():
    rng = random.Random(8)
    for word in _words_with_long_runs(rng, 120, 20_000) + ["", "L", "R", "LR" * 9, "R" * 3000]:
        for seeds in _SEED_PAIRS:
            assert descend_value(word, seeds) == _vieta_fold(word, seeds), (word, seeds)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from("LR"), st.integers(0, 2000),
       st.lists(st.tuples(st.sampled_from("LR"), st.integers(1, 3)), max_size=3),
       st.sampled_from(_SEED_PAIRS))
def test_descend_value_matches_vieta_fold_property(letter, length, runs, seeds):
    # One long run, then short ones: after a long run the multiplier k is
    # large, so a second long run would pass the value budget.
    word = letter * length + "".join(ch * r for ch, r in runs)
    assert descend_value(word, seeds) == _vieta_fold(word, seeds)


# Runs of up to 3000 letters and alternating stretches, in any order.
_segments = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("LR"), st.integers(1, 3000)).map(lambda t: t[0] * t[1]),
        st.tuples(st.sampled_from(["LR", "RL"]), st.integers(1, 40)).map(lambda t: t[0] * t[1]),
    ),
    max_size=6,
)


def _fold_below(word, seeds, max_bits=20_000):
    """The longest prefix of word whose fold stays within max_bits, and its vertex value (p, q)."""
    v = _root(seeds)
    for i, ch in enumerate(word):
        w = _vieta_child(v, ch)
        if w[5].bit_length() > max_bits:
            return word[:i], (v[4], v[5])
        v = w
    return word, (v[4], v[5])


def _assert_same_fraction(value, p, q):
    """value is the Fraction(p, q) that normalization builds, slot for slot."""
    expected = F(p, q)
    assert type(value) is F
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0
    assert hash(value) == hash(expected)
    assert value == expected and {expected: 1}[value] == 1


@settings(max_examples=60, deadline=None)
@given(_segments, st.sampled_from([REDUCED_SEEDS, UNIT_SEEDS, (F(3), F(7, 2)), (F(-2), F(-3, 2))]))
def test_descend_value_is_the_normalized_fraction(segments, seeds):
    word, (p, q) = _fold_below("".join(segments), seeds)
    _assert_same_fraction(descend_value(word, seeds), p, q)


@settings(max_examples=40, deadline=None)
@given(_segments)
def test_mu_is_the_normalized_fraction(segments):
    word, (p, q) = _fold_below("".join(segments), REDUCED_SEEDS)
    image = mu(farey_node_at(word).value)
    assert image.word == word
    _assert_same_fraction(image.value, p, q)


@settings(max_examples=60, deadline=None)
@given(_segments, st.integers(-5, 5))
def test_epsilon_is_the_normalized_fraction(segments, whole):
    # Bits n - 1, ..., 1 of m read L -> 0 and R -> 1; the last bit is 1.
    word, (p, q) = _fold_below("".join(segments), UNIT_SEEDS)
    n = len(word) + 1
    m = (whole << n) + int(word.translate(str.maketrans("LR", "01")) + "1", 2)
    _assert_same_fraction(epsilon(F(m, 1 << n)), whole * q + p, q)


@pytest.mark.parametrize("k", [3, 6, 15, 3 * 29, 3 * 10 ** 30])
def test_lucas_pair_is_the_matrix_power(k):
    u = [0, 1]
    for _ in range(200):
        u.append(k * u[-1] - u[-2])
    power = [[1, 0], [0, 1]]
    for r in range(200):
        assert _lucas_pair(k, r) == (u[r + 1], u[r])
        assert power == [[u[r + 1], -u[r]], [u[r], -u[r - 1] if r else 1]]
        power = [[k * power[0][0] - power[1][0], k * power[0][1] - power[1][1]], power[0]]


def test_descend_value_budget_boundary():
    # The branches L^n and R^n reach exactly 2**18 bits at these lengths.
    for letter, n in (("L", 188_797), ("R", 103_079)):
        assert descend_value(letter * n).denominator.bit_length() == MAX_VALUE_BITS
        with pytest.raises(ValueError, match="262144-bit value budget"):
            descend_value(letter * (n + 1))
    assert mu(F(1, 188_799)).value.denominator.bit_length() == MAX_VALUE_BITS
    with pytest.raises(ValueError, match="value budget"):
        mu(F(1, 188_800))


def test_mu_budget_on_zigzag_words():
    # 832040/1346269 has the word (RL)^14: every run is one letter, and the bits
    # grow like Fibonacci numbers (156,801 already at 46368/75025, word (RL)^11).
    with pytest.raises(ValueError, match="262144-bit value budget"):
        mu(F(832040, 1346269))
    assert mu(F(1, 100_000)).value.denominator.bit_length() == 138_848


def test_descend_value_refuses_a_run_before_its_power(monkeypatch):
    def no_power(k, r):
        raise AssertionError(f"matrix power taken for a run of {r}")

    monkeypatch.setattr(markov, "_lucas_pair", no_power)
    for word in ("L" * 10 ** 6, "R" * 10 ** 6):
        with pytest.raises(ValueError, match="value budget"):
            descend_value(word)


def test_descend_value_budget_is_exact(monkeypatch):
    # Under a budget of exactly its own bits a value is admitted; one bit less
    # refuses it.  The empty word is the root, which test_branch_budget_is_exact
    # checks as the first branch index.
    rng = random.Random(18)
    words = [w for w in _words_with_long_runs(rng, 40, 3000) if w]
    words += ["L" * n for n in range(1420, 1450)]
    values = {(w, s): descend_value(w, s) for w in words for s in _SEED_PAIRS}
    for (word, seeds), value in values.items():
        budget = value.denominator.bit_length()
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget)
        assert descend_value(word, seeds) == value
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget - 1)
        with pytest.raises(ValueError, match=f" {budget - 1}-bit value budget"):
            descend_value(word, seeds)


def test_run_step_of_one_letter_is_the_vieta_child():
    # A run of one letter takes the Vieta step; the matrix power of two and
    # three letters, which composes with it, is its oracle.
    for seeds in (REDUCED_SEEDS, UNIT_SEEDS):
        for v, _, _ in tree_walk(8, seeds=seeds):
            for letter in "LR":
                child = _vieta_child(v, letter)
                assert _run_step(v, letter, 1) == child
                for r in (1, 2):
                    assert _run_step(child, letter, r) == _run_step(v, letter, r + 1)


def test_module_seeds_find_their_root_without_checking_it(monkeypatch):
    # The two module seed pairs are recognised by identity; any other pair,
    # an equal copy too, is checked by _root.
    checked = []
    monkeypatch.setattr(markov, "_root", lambda seeds: checked.append(seeds) or _root(seeds))
    assert descend_value("LR") == F(75, 194) == mu(F(2, 5)).value
    assert descend_value("LR", UNIT_SEEDS) == epsilon(F(3, 8))
    assert len(list(tree_walk(2))) == len(list(tree_walk(2, seeds=UNIT_SEEDS))) == 7
    assert checked == []
    copy = (F(0), F(1, 2))
    assert descend_value("LR", copy) == F(75, 194)
    assert checked == [copy]


def test_descend_value_seeds():
    for word in ("", "L", "RRL", "LRLRR"):
        assert descend_value(word, (F(1), F(3, 2))) == descend_value(word) + 1
    with pytest.raises(ValueError, match="do not span a Markov fraction tree"):
        descend_value("L", (F(0), F(1, 3)))


# -- relation reports --------------------------------------------------------


def test_check_relations_spot():
    assert check_relations(FractionTriple(F(0, 1), F(1, 2), F(2, 5))).all_hold
    assert check_relations(FractionTriple(F(0, 1), F(2, 5), F(5, 13))).all_hold


def test_check_relations_negative_control():
    # 3/10 is the Springborn mediant of 0/1 and 1/3, but (1, 3, 10) is not
    # a Markov triple, so the flip identity must fail.
    report = check_relations(FractionTriple(F(0, 1), F(1, 3), F(3, 10)))
    assert not report.det_f2_f1_is_flip
    assert not report.all_hold
    assert report.det_f2_f3_is_q1  # the determinant relations alone do hold
    assert report.det_f3_f1_is_q2
    d = report.as_dict()
    assert d["det_f2_f1_is_flip"] is False


def test_check_relations_child_flags_need_the_vieta_child():
    # With f2 = 1/1 and f1 = 0/1 the divisor q is 1, so both pairs of mediant
    # terms are integral and ordered; neither is the Vieta child of 2/11.
    report = check_relations(FractionTriple(F(0), F(1), F(2, 11)))
    assert report.left_child_consistent is False
    assert report.right_child_consistent is False
    for seeds in (REDUCED_SEEDS, UNIT_SEEDS):
        for _, t in enumerate_tree(8, seeds):
            report = check_relations(t)
            assert report.left_child_consistent and report.right_child_consistent, t


def _child_consistent_oracle(fa, fb, kept, dropped, f3, num, den, q):
    # The Fraction form: (fa, fb) must have a mediant, and (num/q, den/q),
    # as Fractions, must be the two terms of the Vieta child of f3 that keeps
    # the neighbour kept and drops the neighbour dropped.
    try:
        springborn_mediant(fa, fb)
    except ValueError:
        return False
    k = 3 * kept.denominator
    return (F(num, q) == k * f3.numerator - dropped.numerator
            and F(den, q) == k * f3.denominator - dropped.denominator)


def _relations_oracle(t):
    """check_relations(t).as_dict(), with the child relations built from Fractions."""
    p1, q1 = t.f1.numerator, t.f1.denominator
    p2, q2 = t.f2.numerator, t.f2.denominator
    p3, q3 = t.f3.numerator, t.f3.denominator
    qq12 = q1 * q1 + q2 * q2
    return {
        "det_f2_f3_is_q1": p2 * q3 - p3 * q2 == q1,
        "det_f3_f1_is_q2": p3 * q1 - p1 * q3 == q2,
        "det_f2_f1_is_flip": (qq12 % q3 == 0
                              and p2 * q1 - p1 * q2 == qq12 // q3 == 3 * q1 * q2 - q3),
        "left_child_consistent": _child_consistent_oracle(
            t.f1, t.f3, t.f1, t.f2, t.f3, p1 * q1 + p3 * q3, q1 * q1 + q3 * q3, q2),
        "right_child_consistent": _child_consistent_oracle(
            t.f3, t.f2, t.f2, t.f1, t.f3, p2 * q2 + p3 * q3, q2 * q2 + q3 * q3, q1),
    }


_TREE_TRIPLES = [t for seeds in (REDUCED_SEEDS, UNIT_SEEDS) for _, t in enumerate_tree(5, seeds)]
_small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@st.composite
def _candidate_triples(draw):
    """Tree triples, perturbed, reordered or collapsed ones, and arbitrary ones."""
    if draw(st.booleans()):
        return FractionTriple(*draw(st.tuples(_small_fractions, _small_fractions, _small_fractions)))
    t = draw(st.sampled_from(_TREE_TRIPLES))
    fractions = [t.f1, t.f2, t.f3]
    change = draw(st.sampled_from(["none", "perturb", "permute", "collapse"]))
    if change == "perturb":
        i = draw(st.integers(0, 2))
        f = fractions[i]
        dp, dq = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        fractions[i] = F(f.numerator + dp, max(1, f.denominator + dq))
    elif change == "permute":
        fractions = list(draw(st.permutations(fractions)))
    elif change == "collapse":
        i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]))
        fractions[i] = fractions[j]
    return FractionTriple(*fractions)


@settings(max_examples=400)
@given(_candidate_triples())
@example(FractionTriple(F(0), F(1, 2), F(2, 5)))
@example(FractionTriple(F(0), F(1, 3), F(3, 10)))
@example(FractionTriple(F(1, 2), F(0), F(2, 5)))  # integral child terms, but unordered
@example(FractionTriple(F(0), F(3), F(0)))
@example(FractionTriple(F(2, 5), F(2, 5), F(2, 5)))
@example(FractionTriple(F(0), F(1), F(2, 11)))  # integral mediant terms, but not the child
def test_check_relations_matches_fraction_oracle(t):
    assert check_relations(t).as_dict() == _relations_oracle(t)


# -- Frobenius parametrization ----------------------------------------------


def test_mu_spot_values():
    assert mu(F(0)).value == F(0, 1)
    assert mu(F(1)).value == F(1, 2)
    assert mu(F(1, 2)).value == F(2, 5)
    assert mu(F(1, 3)).value == F(5, 13)
    assert mu(F(2, 3)).value == F(12, 29)


def test_mu_word_and_depth():
    m = mu(F(1, 3))
    assert (m.word, m.depth) == ("L", 1)
    assert mu(F(1, 2)).word == ""
    assert mu(F(0)).word is None  # seeds sit above the tree


def test_mu_domain():
    for bad, shown in ((F(3, 2), "3/2"), (F(-1, 5), "-1/5"), (2, "2"), (-1, "-1")):
        with pytest.raises(ValueError, match=f"^mu is defined on \\[0, 1\\]; got {shown}$"):
            mu(bad)
    assert mu(0) == MarkovFraction(F(0), 0, None)
    assert mu(1) == MarkovFraction(F(1, 2), 0, None)


def _long_word_ladder(count, lo=1150, hi=1250):
    """Denominators b of 1/b, word L^(b - 2), on a geometric grid over [lo, hi]."""
    return [round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)]


def test_mu_matches_the_descent_of_its_farey_word():
    # mu descends the runs that it reads off the continued fraction; the
    # oracle spells the word first and descends the word.
    xs = [F(a, b) for b in range(2, 201) for a in range(1, b) if math.gcd(a, b) == 1]
    xs += [F(1, b) for b in _long_word_ladder(56)]
    for x in xs:
        word = farey_path_to(x)
        expected = MarkovFraction(descend_value(word), len(word), word)
        image = mu(x)
        assert (image.value, image.word, image.depth) == (
            expected.value, expected.word, expected.depth), x


def test_point_query_refusals_keep_their_text_and_order():
    budget = f"exceeds the {MAX_VALUE_BITS}-bit value budget"
    # Every run of the word (RL)^14 is one letter; the vertex passes the budget.
    with pytest.raises(ValueError, match=f"^the tree vertex {budget}$"):
        mu(F(832040, 1346269))
    # The word L^299998 is refused before any run of it is descended.
    with pytest.raises(ValueError, match=f"^the turn word of x {budget}$"):
        mu(F(1, 300_000))
    with pytest.raises(ValueError, match=f"^\\?\\(x\\) {budget}$"):
        question_mark_salem(F(1, 300_000))


def test_mu_strictly_increasing():
    xs = sorted(F(p, q) for q in range(1, 26) for p in range(0, q + 1)
                if math.gcd(p, q) == 1)
    images = [mu(x).value for x in xs]
    assert all(a < b for a, b in zip(images, images[1:]))


@given(words)
def test_mu_intertwines_mediants(word):
    node = farey_node_at(word)
    left = mu(node.left_parent).value
    right = mu(node.right_parent).value
    assert mu(node.value).value == springborn_mediant(left, right)


def test_vertex_constructor_equals_the_public_one():
    # mu and the branches build their values without the constructor's
    # checks; each must be the MarkovFraction that the checks accept.
    values = [(t.f3, word) for word, t in enumerate_tree(8)]
    values += [(branch(k).value, letter * (k - 1))
               for branch, letter in ((fibonacci_branch, "L"), (pell_branch, "R"))
               for k in range(1, 31)]
    for value, word in values:
        built = MarkovFraction._of_vertex(value, word)
        assert built == MarkovFraction(value, len(word), word), word
        assert (built.depth, built.word) == (len(word), word)
        # The branches skip the gcd too: their values must be in lowest terms.
        assert math.gcd(value.numerator, value.denominator) == 1, word


def test_constructor_rejects_a_value_off_the_tree():
    # 2/7 lies in [0, 1/2], but 2**2 + 1 = 5 is not 0 mod 7.
    with pytest.raises(ValueError, match="fails the numerator congruence"):
        MarkovFraction(F(2, 7), 1, "L")
    with pytest.raises(ValueError, match="outside"):
        MarkovFraction(F(3, 5), 1, "R")
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        MarkovFraction(F(2, 5), -1, "")


@pytest.mark.parametrize("value, depth, word, message", [
    # 2/5 is the root: word "" and depth 0.
    (F(2, 5), 3, "L", "^depth 3 does not match the turn word 'L'$"),
    (F(2, 5), 0, "RRR", "^depth 0 does not match the turn word 'RRR'$"),
    (F(0), 1, None, "^depth 1 does not match the turn word None$"),
    (F(5, 13), 0, None, "^5/13 is not a seed, so it needs its turn word$"),
    (F(2, 5), 1, "L", "^the tree vertex at 'L' is not 2/5$"),
    (F(5, 13), 1, "R", "^the tree vertex at 'R' is not 5/13$"),
    (F(5, 13), 1, "X", "^turn word may only contain 'L' and 'R': 'X'$"),
])
def test_constructor_rejects_a_wrong_address(value, depth, word, message):
    with pytest.raises(ValueError, match=message):
        MarkovFraction(value, depth, word)


# -- named branches -----------------------------------------------------------


def test_fibonacci_branch_spot():
    assert fibonacci_branch(1).value == F(2, 5)
    assert fibonacci_branch(2).value == F(5, 13)
    assert fibonacci_branch(3).value == F(13, 34)


def test_fibonacci_branch_matches_fibonacci_numbers():
    fib = [0, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 16):
        assert fibonacci_branch(k).value == F(fib[2 * k + 1], fib[2 * k + 3])


def test_fibonacci_branch_matches_descent():
    # One reduced mediant per letter, not the run step that the branch takes.
    for k in (1, 2, 5, 10):
        branch = fibonacci_branch(k)
        assert branch.value == _mediant_descents("L" * (k - 1), REDUCED_SEEDS)[-1]
        assert branch.word == "L" * (k - 1)


def test_fibonacci_branch_recurrence():
    # p_{k+1} = q_k and q_{k+1} = (q_k^2 + 1) / q_{k-1}, seeded by 1/2, 2/5
    prev_q, cur = 2, fibonacci_branch(1).value
    for k in range(2, 12):
        nxt = fibonacci_branch(k).value
        assert nxt.numerator == cur.denominator
        assert nxt.denominator == (cur.denominator ** 2 + 1) // prev_q
        prev_q, cur = cur.denominator, nxt


def test_pell_branch_spot():
    assert pell_branch(1).value == F(2, 5)
    assert pell_branch(2).value == F(12, 29)
    assert pell_branch(3).value == F(70, 169)
    assert pell_branch(4).value == F(408, 985)


def test_pell_branch_matches_pell_numbers():
    y = [1, 2]
    while len(y) < 40:
        y.append(2 * y[-1] + y[-2])
    for k in range(1, 16):
        assert pell_branch(k).value == F(y[2 * k - 1], y[2 * k])


def test_pell_companion_pairs():
    pairs = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29),
             (99, 70), (239, 169), (577, 408), (1393, 985)]
    for n, (x, y) in enumerate(pairs, start=1):
        assert x * x - 2 * y * y == (-1) ** n


def test_pell_branch_matches_descent():
    # One reduced mediant per letter, not the run step that the branch takes.
    for k in (1, 2, 4, 8):
        branch = pell_branch(k)
        assert branch.value == _mediant_descents("R" * (k - 1), REDUCED_SEEDS)[-1]
        assert branch.word == "R" * (k - 1)


def test_branch_index_validation():
    with pytest.raises(ValueError):
        fibonacci_branch(0)
    with pytest.raises(ValueError):
        pell_branch(0)


def test_long_branches_match_descent():
    # One Vieta step per letter and no matrix power: 0.06 s at k = 20,000.
    assert fibonacci_branch(20_000).value == _vieta_fold("L" * 19_999, REDUCED_SEEDS)
    assert pell_branch(10_000).value == _vieta_fold("R" * 9_999, REDUCED_SEEDS)


def test_branch_oracles_catch_a_wrong_run_step(monkeypatch):
    # Negative control: a matrix power one letter short for runs of two or
    # more letters moves each branch, and every branch oracle sees it.
    lucas_pair = markov._lucas_pair
    monkeypatch.setattr(markov, "_lucas_pair",
                        lambda k, r: lucas_pair(k, r - 1) if r >= 2 else lucas_pair(k, r))
    for test in (test_fibonacci_branch_matches_descent, test_pell_branch_matches_descent,
                 test_long_branches_match_descent):
        with pytest.raises(AssertionError):
            test()


def test_branch_budget_boundary():
    # The words L^188797 and R^103079 address the last vertices of each
    # branch within the budget (see test_descend_value_budget_boundary); the
    # next index is refused, as is any index far past it, before the branch
    # or its word is built.
    for branch, k in ((fibonacci_branch, 188_799), (pell_branch, 103_081)):
        for index in (k, 10 ** 18, 10 ** 400):
            with pytest.raises(ValueError, match="262144-bit value budget"):
                branch(index)


def test_branch_budget_is_exact(monkeypatch):
    # Under a budget of exactly its own bits a value is admitted; one bit less
    # refuses it.
    values = {(branch, k): branch(k).value
              for branch in (fibonacci_branch, pell_branch) for k in (1, 2, 3, 50, 777, 2024)}
    for (branch, k), value in values.items():
        budget = value.denominator.bit_length()
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget)
        assert branch(k).value == value
        monkeypatch.setattr(exact, "MAX_VALUE_BITS", budget - 1)
        with pytest.raises(ValueError, match=f" {budget - 1}-bit value budget"):
            branch(k)


# -- numerator congruence ------------------------------------------------------


def test_congruence_spot_values():
    assert solve_congruence(5) == [2, 3]
    assert solve_congruence(3) == []
    assert solve_congruence(1) == [0]
    assert solve_congruence(2) == [1]
    assert solve_congruence(4) == []
    assert solve_congruence(37666) == [2337, 15571, 22095, 35329]


def test_congruence_rejects_nonpositive():
    # The oracle refuses what the solver refuses.
    for solve in (solve_congruence, congruence_brute):
        for q in (0, -5):
            with pytest.raises(ValueError, match="modulus must be positive"):
                solve(q)


def test_congruence_matches_sympy_oracle():
    moduli = [1, 2, 5, 10, 13, 25, 29, 34, 65, 169, 290, 325,
              1325, 7561, 9077, 37666, 99970, 426389]
    for q in moduli:
        assert solve_congruence(q) == _sqrt_mod_oracle(q)


def test_congruence_factored_path_matches_sympy():
    # high prime powers, the even case and a prime beyond trial division
    for q in (5**11, 2 * 5**10, 13**7, 10**7 + 19):
        assert solve_congruence(q) == _sqrt_mod_oracle(q)


def test_congruence_brute_and_factored_agree():
    for q in (13, 169, 290, 1325, 9077, 37666, 99970, 433 * 985):
        assert congruence_brute(q) == solve_congruence(q)


def test_congruence_brute_oracle_on_small_and_seeded_moduli():
    for q in range(1, 3001):
        assert congruence_brute(q) == solve_congruence(q), q
    # half of them x**2 + 1, so that roots exist
    rng = random.Random(20261018)
    moduli = [rng.randrange(10**4, 10**6) for _ in range(10)]
    moduli += [x * x + 1 for x in (rng.randrange(100, 1000) for _ in range(10))]
    for q in moduli:
        assert solve_congruence(q) == congruence_brute(q), q


def test_solve_congruence_does_not_call_the_oracle(monkeypatch):
    def refuse(q):
        raise AssertionError(f"congruence_brute({q}) called")

    monkeypatch.setattr(markov, "congruence_brute", refuse)
    for q in [*range(1, 201), 9999, 10000]:
        assert solve_congruence(q) == _sqrt_mod_oracle(q), q


def test_congruence_modulo_strong_pseudoprimes_matches_sympy():
    # The smallest strong pseudoprimes to the first 12 and 13 prime bases
    # (Sorenson and Webster 2017), 399165290221 * 798330580441 and
    # 1287836182261 * 2575672364521: Miller-Rabin must not pass them as
    # primes, or half of the roots are lost.
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    for q in (psi12, 5 * psi12, psi13):
        assert not _is_probable_prime(q)
        assert solve_congruence(q) == _sqrt_mod_oracle(q), q


# Arnault (1995): a strong pseudoprime to every prime base below 307.
ARNAULT_P1 = int(
    "29674495668685510550154174642905332730771991799853043350995075531276"
    "838753171770199594238596428121188033664754218345562493168782883")
ARNAULT = ARNAULT_P1 * (313 * (ARNAULT_P1 - 1) + 1) * (353 * (ARNAULT_P1 - 1) + 1)
# The median 45-digit Markov number, with its prime factors and tree numerator.
LADDER_45 = 307378121820862131242648259740198831724128857
LADDER_45_FACTORS = (18863539913, 35228577869161, 462545697532472985449)
LADDER_45_NUMERATOR = 127312793469548728662392224007634729410868788
# Two 20-digit primes 1 mod 4, the first after 10**19 and 2 * 10**19.
BUDGET_P, BUDGET_Q = 10000000000000000097, 20000000000000000153


def _prime_1_mod_4(rng: random.Random, digits: int) -> int:
    while True:
        p = sympy.nextprime(rng.randrange(10 ** (digits - 1), 10 ** digits))
        if p % 4 == 1 and p < 10 ** digits:
            return p


def test_arnault_number_is_composite():
    assert len(str(ARNAULT)) == 397
    # Miller-Rabin to the bases 2...47 passes it; the strong Lucas test does not.
    d, s = ARNAULT - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in markov._SMALL_PRIMES:
        x = pow(a, d, ARNAULT)
        assert x in (1, ARNAULT - 1) or ARNAULT - 1 in (
            pow(x, 1 << r, ARNAULT) for r in range(1, s))
    assert not markov._is_strong_lucas_probable_prime(ARNAULT)
    assert not _is_probable_prime(ARNAULT)


def test_strong_lucas_test_on_known_values():
    # Primes pass; so do the smallest strong Lucas pseudoprimes (OEIS A217255),
    # which Miller-Rabin rejects; squares, which have no Selfridge D, fail.
    assert all(markov._is_strong_lucas_probable_prime(p) for p in sympy.primerange(53, 3000))
    for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
        assert markov._is_strong_lucas_probable_prime(n) and not _is_probable_prime(n)
    assert not any(markov._is_strong_lucas_probable_prime(p * p) for p in (53, 10**12 + 39))


def test_probable_prime_matches_sympy_above_the_proven_bound():
    rng = random.Random(20261018)
    primes = [sympy.nextprime(rng.randrange(10**25, 10**60)) for _ in range(40)]
    sample = primes + [p * sympy.nextprime(rng.randrange(10**12, 10**20)) for p in primes[:20]]
    sample += [p * p for p in primes[:5]] + [rng.randrange(10**25, 10**60) | 1 for _ in range(200)]
    for n in sample:
        assert n > 10**25
        assert _is_probable_prime(n) == sympy.isprime(n), n


def test_congruence_stops_without_factoring_when_no_root_exists(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored a modulus without roots")

    monkeypatch.setattr(markov, "_factorize", refuse)
    # 4 divides q; the odd part is 3 mod 4 (Arnault's number among them)
    for q in (4 * 10**40, 2 * (4 * 10**40 + 3), ARNAULT, 2 * ARNAULT):
        assert solve_congruence(q) == []


def test_congruence_stops_at_a_factor_3_mod_4(monkeypatch):
    def refuse(*args):
        raise AssertionError("ECM ran on a modulus without roots")

    monkeypatch.setattr(markov, "_ecm", refuse)
    # q is 1 mod 4, and so is its first cofactor; a factor 3 mod 4 shows later.
    q = 1000003 * 1000039 * 5
    assert q % 4 == 1 and 1000003 % 4 == 1000039 % 4 == 3
    assert solve_congruence(q) == [] == _sqrt_mod_oracle(q)


def test_factorize_past_the_rho_cap_matches_factorint(monkeypatch):
    # Factors of 10 to 16 digits are past the reach of rho's capped walk.
    ecm_calls = []
    ecm = markov._ecm

    def counting(n, curves):
        ecm_calls.append(n)
        return ecm(n, curves)

    monkeypatch.setattr(markov, "_ecm", counting)
    rng = random.Random(20261018)
    for _ in range(6):
        primes = [_prime_1_mod_4(rng, rng.randint(10, 16)) for _ in range(rng.randint(2, 3))]
        n = math.prod(primes)
        assert markov._factorize(n) == sympy.factorint(n), primes
    assert ecm_calls


def test_congruence_on_the_45_digit_ladder_entry():
    assert math.prod(LADDER_45_FACTORS) == LADDER_45
    assert markov._factorize(LADDER_45) == {p: 1 for p in LADDER_45_FACTORS}
    per_prime = [sqrt_mod(-1, p, all_roots=True) for p in LADDER_45_FACTORS]
    want = sorted(crt(LADDER_45_FACTORS, combo)[0] for combo in itertools.product(*per_prime))
    roots = solve_congruence(LADDER_45)
    assert len(roots) == 8 and roots == want
    assert LADDER_45_NUMERATOR in roots


def test_factoring_budget_is_a_value_error(monkeypatch):
    monkeypatch.setattr(markov, "_ECM_SCHEDULE", ((2_000, 147_396, 2),))
    q = BUDGET_P * BUDGET_Q
    with pytest.raises(ValueError, match="^a 39-digit cofactor is left unsplit by the "
                                         "factoring budget of 2 elliptic curves$"):
        solve_congruence(q)


def test_congruence_certificate_raises_arithmetic_error(monkeypatch):
    assert solve_congruence(65) == [8, 18, 47, 57]
    monkeypatch.setattr(markov, "_factorize", lambda n: {5: 1, 17: 1})
    with pytest.raises(ArithmeticError, match="certificate"):
        solve_congruence(65)  # the factors multiply to 85
    monkeypatch.setattr(markov, "_factorize", lambda n: {5: 1, 13: 1})
    monkeypatch.setattr(markov, "_sqrt_minus_one_mod_prime_power", lambda p, e: [2, 3, 4])
    with pytest.raises(ArithmeticError, match="certificate"):
        solve_congruence(65)  # wrong roots, and too many


@settings(max_examples=80)
@given(st.integers(1, 4000))
def test_congruence_solutions_check_out(q):
    roots = solve_congruence(q)
    assert roots == sorted(set(roots))
    for x in roots:
        assert 0 <= x < q
        assert (x * x + 1) % q == 0


def test_tree_numerators_solve_their_congruence():
    for _, t in enumerate_tree(5):
        p, q = t.f3.numerator, t.f3.denominator
        assert p % q in solve_congruence(q)


# -- unicity scan ----------------------------------------------------------------


def test_unicity_scan_depths():
    report = unicity_scan(5)
    assert report.vertex_count == 65  # 63 tree vertices plus the two seeds
    assert report.distinct_denominators == 65
    assert report.duplicates == ()
    assert report.all_unique
    assert unicity_scan(10).all_unique


def test_unicity_scan_rejects_budget_overflow():
    with pytest.raises(ValueError):
        unicity_scan(21)


P61 = (1 << 61) - 1


def _exact_unicity(depth):
    """The report of a scan without duplicates, counted on the numbers of tree_walk."""
    qs = [1, 2, *(v[5] for v, _, _ in tree_walk(depth))]
    assert len(set(qs)) == len(qs)
    return markov.UnicityReport(depth, len(qs), len(qs), ())


def _spy_rank_walk(monkeypatch):
    """Record the step of every _rank_walk call."""
    steps = []
    real = markov._rank_walk

    def spy(depth, prune=None, start=markov._RANK_ROOT, step=markov._flips):
        steps.append(step)
        return real(depth, prune, start, step)

    monkeypatch.setattr(markov, "_rank_walk", spy)
    return steps


def test_residue_walk_carries_each_markov_number_mod_p():
    assert markov._RESIDUE_MODULUS == P61
    walked = list(_rank_walk(12))
    residues = list(_rank_walk(12, step=markov._residue_flips))
    assert len(residues) == len(walked) == (1 << 13) - 1
    for (r, farey, level), (q, walked_farey, walked_level) in zip(residues, walked):
        assert (farey, level) == (walked_farey, walked_level)
        assert r == tuple(x % P61 for x in q) == tuple(hash(x) for x in q)
    assert max(q for (_, _, q), _, _ in walked).bit_length() > 61  # the residues do reduce


def test_unicity_scan_decides_on_residues_alone(monkeypatch):
    steps = _spy_rank_walk(monkeypatch)
    for depth in range(15):
        assert unicity_scan(depth) == _exact_unicity(depth)
    # One walk a depth, on residues.
    assert steps == [markov._residue_flips] * 15


def test_unicity_scan_decides_depth_19_and_refuses_depth_20():
    # Every accepted depth walks a subset of these vertices, so no accepted
    # depth repeats a residue: about 1 s and 96 MB.
    assert unicity_scan(19) == markov.UnicityReport(19, 1048577, 1048577, ())
    with pytest.raises(ValueError, match="vertex budget"):
        unicity_scan(20)


@pytest.mark.parametrize("modulus, first_repeat", [(7, 1), (101, 2)])
def test_unicity_scan_refuses_repeated_residues(monkeypatch, modulus, first_repeat):
    # Negative control: mod 7, 29 repeats the seed 1 at depth 1; mod 101,
    # 433 repeats 29 at depth 2.  Repeated residues prove nothing, so the
    # scan must raise there and below give the unpatched report.
    expected = {depth: unicity_scan(depth) for depth in range(first_repeat)}
    monkeypatch.setattr(markov, "_RESIDUE_MODULUS", modulus)
    for depth in range(13):
        if depth < first_repeat:
            assert unicity_scan(depth) == expected[depth]
        else:
            with pytest.raises(ArithmeticError, match=f"unicity_scan\\({depth}\\).* mod {modulus} "):
                unicity_scan(depth)


# -- generalized equations ---------------------------------------------------------


def _closure_oracle(coeffs: tuple[int, int, int, int], depth: int) -> set:
    a, b, c, d = coeffs
    current = {(1, 1, 1)}
    seen = set(current)
    for _ in range(depth):
        nxt = set()
        for x, y, z in current:
            for flipped in ((d * y * z // a - x, y, z),
                            (x, d * x * z // b - y, z),
                            (x, y, d * x * y // c - z)):
                if flipped not in seen and all(v > 0 for v in flipped):
                    nxt.add(flipped)
        seen |= nxt
        current = nxt
    return seen


def test_generalized_depth1_sets():
    quadric = generalized_enumerate(GeneralizedEquation(1, 1, 2, 4), 1)
    assert quadric == {(1, 1, 1), (3, 1, 1), (1, 3, 1)}
    x3 = generalized_enumerate(GeneralizedEquation(1, 2, 3, 6), 1)
    assert x3 == {(1, 1, 1), (5, 1, 1), (1, 2, 1)}


def test_generalized_markov_matches_vieta_closure():
    eq = GeneralizedEquation(1, 1, 1, 3)
    got = generalized_enumerate(eq, 2)
    assert got == _closure_oracle((1, 1, 1, 3), 2)
    assert {(1, 1, 1), (1, 1, 2), (1, 5, 2), (5, 1, 2)} <= got


def test_generalized_triples_satisfy_equation():
    for coeffs in ((1, 1, 2, 4), (1, 2, 3, 6), (1, 1, 1, 3)):
        eq = GeneralizedEquation(*coeffs)
        triples = generalized_enumerate(eq, 6)
        assert triples == _closure_oracle(coeffs, 6)
        for x, y, z in triples:
            assert eq.satisfied_by(x, y, z)


def test_generalized_validation():
    with pytest.raises(ValueError):
        GeneralizedEquation(1, 1, 1, 4)  # (1,1,1) would not solve it
    with pytest.raises(ValueError):
        GeneralizedEquation(1, 1, -2, 0)
    with pytest.raises(ValueError):
        generalized_enumerate(GeneralizedEquation(2, 1, 1, 4), 1)  # unsupported
    with pytest.raises(ValueError):
        generalized_enumerate(GeneralizedEquation(1, 1, 1, 3), -1)


@pytest.mark.parametrize("name, size, first_rejected", [
    ("markov", lambda d: 3 * 2 ** d - 2, 19),
    ("quadric", lambda d: 2 ** (d + 1) - 1, 20),
    ("x3", lambda d: 2 ** (d + 1) - 1, 20),
])
def test_generalized_closure_size_and_budget(name, size, first_rejected):
    eq = markov.SUPPORTED_EQUATIONS[name]
    assert [len(generalized_enumerate(eq, d)) for d in range(9)] == [size(d) for d in range(9)]
    assert size(first_rejected - 1) <= 1 << 20 < size(first_rejected)
    # Rejected up front: neither depth is ever expanded.
    for depth in (first_rejected, 10 ** 12):
        with pytest.raises(ValueError, match=f"depth {depth} exceeds the 1048576 vertex budget"):
            generalized_enumerate(eq, depth)
