"""Markov fraction tree, triples, branches, congruence, generalized equations.

Independent oracles: Fibonacci/Pell integer recurrences for the two named
branches, sympy's sqrt_mod for the numerator congruence, and a direct
Vieta-closure reimplementation for the generalized equations.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    farey_node_at,
    farey_path_to,
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
from markovfrac import markov
from markovfrac.markov import congruence_brute, congruence_factored

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


def test_enumerate_is_breadth_first_left_to_right():
    order = [word for word, _ in enumerate_tree(2)]
    assert order == ["", "L", "R", "LL", "LR", "RL", "RR"]


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
    reference = sorted(enumerate_tree(10), key=lambda item: item[0])
    walked = list(tree_walk(10))
    assert len(walked) == len(reference) == (1 << 11) - 1
    for (word, t), (vertex, farey, level) in zip(reference, walked):
        node = farey_node_at(word)
        assert vertex == _as_integers(t.f1, t.f2, t.f3), word
        assert farey == _as_integers(node.left_parent, node.right_parent), word
        assert level == len(word)


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
    reference = sorted(enumerate_tree(6), key=lambda item: item[0])
    assert vertices(6, 1000) == [_as_integers(t.f1, t.f2, t.f3)
                                 for _, t in reference if t.f3.denominator <= 1000]
    # Every denominator at level 7 or deeper exceeds 1000, so depth None agrees.
    assert vertices(None, 1000) == vertices(6, 1000)
    assert vertices(None, 4) == []


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
    with pytest.raises(ValueError):
        mu(F(3, 2))
    with pytest.raises(ValueError):
        mu(F(-1, 5))


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
    for k in (1, 2, 5, 10):
        branch = fibonacci_branch(k)
        assert branch.value == descend_value(branch.word)
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
    for k in (1, 2, 4, 8):
        branch = pell_branch(k)
        assert branch.value == descend_value(branch.word)
        assert branch.word == "R" * (k - 1)


def test_branch_index_validation():
    with pytest.raises(ValueError):
        fibonacci_branch(0)
    with pytest.raises(ValueError):
        pell_branch(0)


# -- numerator congruence ------------------------------------------------------


def test_congruence_spot_values():
    assert solve_congruence(5) == [2, 3]
    assert solve_congruence(3) == []
    assert solve_congruence(1) == [0]
    assert solve_congruence(2) == [1]
    assert solve_congruence(4) == []
    assert solve_congruence(37666) == [2337, 15571, 22095, 35329]


def test_congruence_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_congruence(0)


def test_congruence_matches_sympy_oracle():
    moduli = [1, 2, 5, 10, 13, 25, 29, 34, 65, 169, 290, 325,
              1325, 7561, 9077, 37666, 99970, 426389]
    for q in moduli:
        assert solve_congruence(q) == _sqrt_mod_oracle(q)


def test_congruence_factored_path_matches_sympy():
    # beyond 10^4 the implementation switches to factorization + lifting
    for q in (5**11, 2 * 5**10, 13**7, 10**7 + 19):
        assert q > 10**4
        assert solve_congruence(q) == _sqrt_mod_oracle(q)


def test_congruence_brute_and_factored_agree():
    for q in (13, 169, 290, 1325, 9077, 37666, 99970, 433 * 985):
        assert congruence_brute(q) == congruence_factored(q)


def test_congruence_brute_oracle_on_both_sides_of_the_limit():
    # moduli the brute-force path serves, then seeded ones it no longer serves
    for q in range(1, 3001):
        assert congruence_brute(q) == congruence_factored(q), q
    # half of them x**2 + 1, so that roots exist
    rng = random.Random(20261018)
    moduli = [rng.randrange(10**4, 10**6) for _ in range(10)]
    moduli += [x * x + 1 for x in (rng.randrange(100, 1000) for _ in range(10))]
    for q in moduli:
        assert solve_congruence(q) == congruence_brute(q) == congruence_factored(q), q


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


def test_unicity_scan_reports_duplicates(monkeypatch):
    # No real walk repeats a denominator, so a fake walk exercises the report.
    def fake_walk(depth):
        assert depth == 3
        farey = (0, 1, 1, 1)
        for p, q in ((3, 5), (2, 5), (5, 13), (3, 2), (4, 5)):
            yield (0, 1, 1, 2, p, q), farey, 0
    monkeypatch.setattr(markov, "tree_walk", fake_walk)
    report = unicity_scan(3)
    assert report.vertex_count == 7
    assert report.distinct_denominators == 4
    assert report.duplicates == (
        (2, (F(1, 2), F(3, 2))),
        (5, (F(2, 5), F(3, 5), F(4, 5))),
    )
    assert not report.all_unique


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
