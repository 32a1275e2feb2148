"""Approximation constants, free intervals, jump sums, Lyapunov estimates.

Oracles: a brute-force denominator scan for approximation constants, mpmath
at 60 digits for the jump-length partial sums, and exact big-integer
descent for the Lyapunov trajectory at small step counts.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovfrac import (
    QuadraticSurd,
    approx_constant,
    approx_constant_detail,
    enumerate_tree,
    farey_node_at,
    fractions_strictly_inside,
    interval_freeness,
    lyapunov_estimate,
    lyapunov_trajectory,
    markov_interval,
    markov_irrationality,
    mcshane_partial_sum,
    mcshane_partial_sums,
    mu,
    reduced_fractions_up_to,
    saltus_mu,
    saltus_samples,
    springborn_mediant,
    surd_compare,
    tree_walk,
)
from markovfrac import analysis
from markovfrac.markov import MarkovFraction
from markovfrac.analysis import (
    _fractions_inside_by_scan,
    _guard_bits,
    _leading_length_bounds,
    _length_bounds,
)

LN_PHI = math.log((1 + math.sqrt(5)) / 2)


def _approx_brute(f: F) -> tuple[F, F]:
    """Oracle: scan every denominator b <= q, where b/q already exceeds 1/2.

    Returns the minimum and the first candidate attaining it, in the order
    (b, a): smallest b, then the lower of the two nearest numerators.  For
    a multiple b of q only the numerator above counts, as for b = 1 at an
    integer.
    """
    p, q = f.numerator, f.denominator
    best = None
    for b in range(1, q + 1):
        a = p * b // q
        for cand in (a, a + 1):
            gap = abs(p * b - cand * q)
            if gap and (best is None or b * gap < best[0]):
                best = (b * gap, b, cand)
    key, b, a = best
    return F(key, q), F(a, b)


def _length_mp(q: int) -> mpmath.mpf:
    return 3 - mpmath.sqrt(9 * q * q - 4) / q


def _mcshane_mp(depth: int) -> mpmath.mpf:
    total = (_length_mp(1) + _length_mp(2)) / 2
    for _, t in enumerate_tree(depth):
        total += _length_mp(t.f3.denominator)
    return total


def _heaviside(t: F) -> mpmath.mpf:
    return mpmath.mpf(1 if t > 0 else 0.5 if t == 0 else 0)


def _saltus_mp(x: F, depth: int) -> mpmath.mpf:
    """-l(1)/2 + l(1) H(x) + l(2) H(x - 1) + sum of l(q) H(x - a/b) over the tree."""
    total = _length_mp(1) * (_heaviside(x) - 0.5) + _length_mp(2) * _heaviside(x - 1)
    for word, t in enumerate_tree(depth):
        total += _length_mp(t.f3.denominator) * _heaviside(x - farey_node_at(word).value)
    return total


def _as_mpf(x: F) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


# -- approximation constants -------------------------------------------------


def test_approx_constant_spot_values():
    assert approx_constant(F(0, 1)) == 1
    assert approx_constant(F(1, 2)) == F(1, 2)
    assert approx_constant(F(2, 5)) == F(2, 5)
    assert approx_constant(F(1, 3)) == F(1, 3)
    assert approx_constant(F(2, 7)) == F(2, 7)  # below 1/3: not a Markov fraction


def test_approx_constant_witness_attains_value():
    for f in (F(0, 1), F(1, 2), F(2, 5), F(5, 13), F(3, 7)):
        value, witness = approx_constant_detail(f)
        b = witness.denominator
        assert b * b * abs(f - witness) == value


def test_approx_constant_ties():
    assert approx_constant_detail(F(0)) == (1, 1)
    for n in range(-5, 6):
        assert approx_constant_detail(F(n)) == (1, n + 1)
        assert approx_constant_detail(F(2 * n + 1, 2)) == (F(1, 2), n)


def test_approx_constant_matches_brute_force():
    for q in range(1, 30):
        for p in range(0, q + 1):
            f = F(p, q)
            if f.denominator == q:
                assert approx_constant_detail(f) == _approx_brute(f)


def test_approx_constant_markov_bound_to_q200():
    third = F(1, 3)
    for _, t in enumerate_tree(4):
        if t.f3.denominator <= 200:
            assert approx_constant(t.f3) >= third


def test_approx_constant_markov_bound_on_tree_walk9():
    third = F(1, 3)
    for (_, _, _, _, p, q), _, _ in tree_walk(9):
        f = F(p, q)
        value, witness = approx_constant_detail(f)
        b = witness.denominator
        assert value >= third
        assert b * b * abs(f - witness) == value


@settings(max_examples=200)
@given(st.fractions(min_value=-10, max_value=10, max_denominator=2000))
@example(F(7, 2))
@example(F(-3))
def test_approx_constant_brute_force_property(f):
    assert approx_constant_detail(f) == _approx_brute(f)


# -- maximal free intervals -----------------------------------------------------


def test_interval_spot_2_5():
    iv = markov_interval(mu(F(1, 2)))
    assert iv.center == F(2, 5)
    assert surd_compare(iv.lo, QuadraticSurd(-11, 1, 10, 221)) == 0
    assert surd_compare(iv.hi, QuadraticSurd(19, -1, 10, 221)) == 0
    assert surd_compare(iv.length, QuadraticSurd(15, -1, 5, 221)) == 0


def test_interval_spot_seeds():
    iv0 = markov_interval(mu(F(0)))
    assert surd_compare(iv0.lo, QuadraticSurd(-3, 1, 2, 5)) == 0
    assert surd_compare(iv0.hi, QuadraticSurd(3, -1, 2, 5)) == 0

    iv1 = markov_interval(mu(F(1)))
    assert surd_compare(iv1.lo, QuadraticSurd(-1, 1, 1, 2)) == 0  # sqrt(2) - 1
    assert surd_compare(iv1.hi, QuadraticSurd(2, -1, 1, 2)) == 0  # 2 - sqrt(2)
    assert surd_compare(iv1.length, QuadraticSurd(3, -2, 1, 2)) == 0


def test_interval_length_is_exact_difference():
    for x in (F(0), F(1, 2), F(1, 3), F(1)):
        iv = markov_interval(mu(x))
        assert surd_compare(iv.hi - iv.lo, iv.length) == 0
        assert surd_compare(iv.lo, iv.center) < 0 < surd_compare(iv.hi, iv.center)


def test_interval_fields_match_the_public_constructor():
    # Route of every surd through the public constructor: hi = center + length/2,
    # lo = center - length/2.  9*2**2 - 4 = 32 = 4**2 * 2 has a square factor.
    fractions = [mu(F(0)), mu(F(1))]
    fractions += [MarkovFraction(t.f3, len(word), word) for word, t in enumerate_tree(8)]
    for f in fractions:
        p, q = f.value.numerator, f.value.denominator
        length = QuadraticSurd(3 * q, -1, q, 9 * q * q - 4)
        half = QuadraticSurd(length.a, length.b, 2 * length.c, length.d)
        lo = QuadraticSurd(p * half.c - half.a * q, -half.b * q, q * half.c, half.d)
        hi = QuadraticSurd(p * half.c + half.a * q, half.b * q, q * half.c, half.d)
        iv = markov_interval(f)
        for got, expected in ((iv.length, length), (iv.lo, lo), (iv.hi, hi)):
            assert (got.a, got.b, got.c, got.d) == (expected.a, expected.b, expected.c, expected.d)


def test_interval_lengths_decrease_with_denominator():
    lengths = [markov_interval(mu(x)).length
               for x in (F(0), F(1), F(1, 2), F(1, 3), F(1, 4))]  # q = 1,2,5,13,34
    for small, large in zip(lengths, lengths[1:]):
        assert surd_compare(large, small) < 0
    for lv in lengths:
        assert surd_compare(lv, F(0)) > 0
        assert surd_compare(lv, F(3)) < 0


def test_interval_freeness_positive():
    report = interval_freeness(mu(F(1, 2)), 10**6)
    assert report.free
    assert report.intruders == ()
    assert interval_freeness(mu(F(1, 3)), 10**6).free  # 5/13


def test_interval_freeness_negative_control():
    # widening the 2/5 interval to twice its length must capture neighbours
    length = markov_interval(mu(F(1, 2))).length
    lo = F(2, 5) - length
    hi = F(2, 5) + length
    captured = fractions_strictly_inside(lo, hi, 1000, exclude=F(2, 5))
    assert F(5, 13) in captured
    assert F(12, 29) in captured


def test_fractions_strictly_inside_excludes_endpoints():
    # [0/1, 1/2] as exact rational surd bounds: interior misses both endpoints
    lo = QuadraticSurd(0, 0, 1, 0)
    hi = QuadraticSurd(1, 0, 2, 0)
    inside = fractions_strictly_inside(lo, hi, 1000)
    assert F(0) not in inside
    assert F(1, 2) not in inside
    assert F(2, 5) in inside


_TREE_VALUES = reduced_fractions_up_to(1000)


def _irrational(draw, lo, hi):
    """A quadratic irrational (a + b*sqrt(d))/c of either sign of b, in about [lo, hi]."""
    d = draw(st.integers(2, 500).filter(lambda d: math.isqrt(d) ** 2 != d))
    b = draw(st.sampled_from((-1, 1))) * draw(st.integers(1, 3))
    c = draw(st.integers(1, 50))
    a = draw(st.integers(lo * c, hi * c)) - math.isqrt(b * b * d) * (1 if b > 0 else -1)
    return QuadraticSurd(a, b, c, d)


def _on_tree(draw, lo, hi):
    """A translate n + r or n - r of a tree fraction r up to 1000, as an exact surd."""
    n = draw(st.integers(lo, hi))
    r = draw(st.sampled_from(_TREE_VALUES))
    return QuadraticSurd.from_fraction(n + draw(st.sampled_from((1, -1))) * r)


@st.composite
def _windows(draw):
    """(lo, hi, bound, pick): irrational or tree-fraction ends, one integer or several.

    pick is None, or the index of the intruder to pass as exclude.
    """
    span = draw(st.sampled_from((0, 0, 3)))
    ends = [draw(st.sampled_from((_irrational, _on_tree)))(draw, -2, 2) for _ in range(2)]
    ends[1] = ends[1] + span
    lo, hi = sorted(ends, key=float)
    if surd_compare(lo, hi) == 0:
        hi = hi + F(1, 7)
    bound = draw(st.one_of(st.integers(1, 40), st.integers(0, 6).map(lambda k: 10 ** k),
                           st.integers(1, 10 ** 6)))
    return lo, hi, bound, draw(st.one_of(st.none(), st.integers(0, 10 ** 6)))


@settings(max_examples=300, deadline=None)
@given(_windows())
@example((markov_interval(mu(F(1, 2))).lo, markov_interval(mu(F(1, 2))).hi, 10 ** 6, None))
@example((QuadraticSurd.from_fraction(F(0)), QuadraticSurd.from_fraction(F(1, 2)), 1, None))
@example((QuadraticSurd.from_fraction(F(-1)), QuadraticSurd.from_fraction(F(3, 2)), 2, 3))
def test_fractions_strictly_inside_matches_full_scan(window):
    lo, hi, bound, pick = window
    inside = _fractions_inside_by_scan(lo, hi, bound)
    assert fractions_strictly_inside(lo, hi, bound) == inside
    if pick is not None:
        exclude = inside[pick % len(inside)] if inside else F(pick)
        assert (fractions_strictly_inside(lo, hi, bound, exclude)
                == _fractions_inside_by_scan(lo, hi, bound, exclude)
                == [f for f in inside if f != exclude])


def test_fractions_strictly_inside_matches_full_scan_on_markov_intervals():
    for word, t in enumerate_tree(5):
        interval = markov_interval(MarkovFraction(t.f3, len(word), word))
        for bound in (1, 2, 5, 1000, 10 ** 6):
            for exclude in (None, t.f3):
                assert (fractions_strictly_inside(interval.lo, interval.hi, bound, exclude)
                        == _fractions_inside_by_scan(interval.lo, interval.hi, bound, exclude))


def test_freeness_walk_stays_near_the_interval(monkeypatch):
    # The full tree to 10**200 has about 38,500 vertices; the pruned walk
    # follows the branches toward the two ends of the 2/5 interval (341).
    visited = []
    real = analysis.tree_walk

    def counting(*args, **kwargs):
        for item in real(*args, **kwargs):
            visited.append(item[0])
            yield item

    monkeypatch.setattr(analysis, "tree_walk", counting)
    assert interval_freeness(mu(F(1, 2)), 10 ** 200).free
    assert 0 < len(visited) < 400


def test_freeness_bound_budget():
    budget = analysis._MAX_FREENESS_BITS
    assert (10 ** 200).bit_length() < budget
    assert interval_freeness(mu(F(1, 2)), (1 << budget) - 1).free
    message = f"the freeness bound exceeds the {budget}-bit budget"
    with pytest.raises(ValueError, match=message):
        interval_freeness(mu(F(1, 2)), 1 << budget)
    with pytest.raises(ValueError, match="denominator bound must be positive"):
        fractions_strictly_inside(QuadraticSurd.from_fraction(F(0)),
                                  QuadraticSurd.from_fraction(F(1)), 0)


def test_freeness_bound_refused_before_the_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked past the freeness budget")

    monkeypatch.setattr(analysis, "tree_walk", no_walk)
    with pytest.raises(ValueError, match="-bit budget"):
        interval_freeness(mu(F(1, 2)), 10 ** 1000)


def test_reduced_fractions_up_to_1000():
    got = reduced_fractions_up_to(1000)
    denominators = sorted(f.denominator for f in got)
    assert denominators == [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985]
    for f in got:
        assert (f.numerator ** 2 + 1) % f.denominator == 0
        assert 0 <= f <= F(1, 2)
    with pytest.raises(ValueError):
        reduced_fractions_up_to(0)


# -- jump-length partial sums ------------------------------------------------------


def _length_bounds_oracle(q: int, guard: int) -> tuple[int, int, int]:
    """The enclosure of l(q) with one isqrt and two full products per call."""
    root = math.isqrt((9 * q * q - 4) << (2 * guard))
    base = 3 * q << guard
    m_lo = q * (base + root)
    m_hi = q * (base + root + 1)
    e = m_hi.bit_length() + guard
    numerator = 1 << (e + guard + 2)
    return numerator // m_hi, -((-numerator) // m_lo), e


def test_length_bounds_match_isqrt_oracle_at_threshold():
    # isqrt is skipped once 3q > 2**(guard + 1); every q within 64 of that
    # threshold, on both sides, must give the oracle's tuple.
    for precision in range(1, 41):
        guard = _guard_bits(precision)
        threshold = (2 << guard) // 3
        for q in range(threshold - 64, threshold + 65):
            assert _length_bounds(q, guard) == _length_bounds_oracle(q, guard), (precision, q)


def _bits_straddling_q(k: int) -> int:
    """The largest q with 6q**2 < 2**k: 6(q + 1)**2 passes 2**k, so no leading
    bits of q decide bits(6q**2)."""
    return math.isqrt(((1 << k) - 1) // 6)


def _quotient_straddling_q(k: int, guard: int) -> int:
    """A q with bits(6q**2) = k whose floor 2**(k + 2g + 2) // (6q**2) sits
    a hair above an integer, closer than the leading bits can tell."""
    return math.isqrt((1 << (k + 2 * guard + 2)) // (6 * ((3 << (2 * guard + 1)) + 1)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**4000), st.integers(1, 40))
@example(1, 1)
@example(2, 40)
@example(2**4000, 12)
@example(_bits_straddling_q(7990), 12)
@example(_bits_straddling_q(1001), 40)
@example(_quotient_straddling_q(7990, _guard_bits(12)), 12)
@example(_quotient_straddling_q(1200, _guard_bits(40)) + 1, 40)
def test_length_bounds_match_isqrt_oracle(q, precision):
    guard = _guard_bits(precision)
    assert _length_bounds(q, guard) == _length_bounds_oracle(q, guard)


@pytest.mark.parametrize("precision", [1, 12, 40])
@pytest.mark.parametrize("k", [1200, 7990])
def test_length_bounds_fall_back_when_leading_bits_are_ambiguous(precision, k):
    # The leading-bits path declines these q, and the full products give the
    # oracle's tuple; a q of the same length away from the edges takes the
    # short path to the same tuple.
    guard = _guard_bits(precision)
    for q in (_bits_straddling_q(k), _quotient_straddling_q(k, guard),
              _quotient_straddling_q(k, guard) + 1):
        assert _leading_length_bounds(q, guard) is None, q
        assert _length_bounds(q, guard) == _length_bounds_oracle(q, guard), q
    q = 5 << (k // 2 - 3)
    assert _leading_length_bounds(q, guard) == _length_bounds_oracle(q, guard)


def test_mcshane_matches_mpmath_oracle():
    mpmath.mp.dps = 60
    for depth in (0, 1, 3, 5):
        lo, hi = mcshane_partial_sum(depth, 12)
        oracle = _mcshane_mp(depth)
        eps = mpmath.mpf(10) ** -50
        assert _as_mpf(lo) <= oracle + eps
        assert oracle - eps <= _as_mpf(hi)
        assert hi - lo < F(1, 10**12)


def test_mcshane_depth0_value():
    # 0.5*(l(1) + l(2)) + l(5) = 0.4945386994...
    lo, hi = mcshane_partial_sum(0, 8)
    assert F(49453, 10**5) < lo <= hi < F(49454, 10**5)


def test_mcshane_depth1_value():
    # previous plus l(13) + l(29) = 0.4992788813...
    lo, hi = mcshane_partial_sum(1, 8)
    assert F(49927, 10**5) < lo <= hi < F(49928, 10**5)


def test_mcshane_monotone_and_below_half():
    previous = None
    for depth in range(7):
        lo, hi = mcshane_partial_sum(depth, 10)
        assert hi < F(1, 2)
        if previous is not None:
            assert lo > previous
        previous = lo


def test_mcshane_depth5_close_to_half():
    lo, hi = mcshane_partial_sum(5, 10)
    assert F(1, 2) - hi < F(1, 10**6)


def test_mcshane_rejects_bad_precision():
    with pytest.raises(ValueError):
        mcshane_partial_sum(2, 0)


def test_precision_budget():
    budget = analysis._MAX_PRECISION_DIGITS
    lo, hi = mcshane_partial_sum(0, budget)
    assert 0 < hi - lo < F(1, 10 ** budget)
    assert saltus_mu(F(1, 2), 0, budget) == saltus_samples([F(1, 2)], 0, budget)[0]


@pytest.mark.parametrize("call", [
    lambda p: mcshane_partial_sum(14, p),
    lambda p: mcshane_partial_sums(14, p),
    lambda p: saltus_mu(F(1, 2), 14, p),
    lambda p: saltus_samples([F(0), F(1)], 14, p),
], ids=["mcshane_partial_sum", "mcshane_partial_sums", "saltus_mu", "saltus_samples"])
def test_precision_refused_before_the_walk(monkeypatch, call):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked past the precision budget")

    monkeypatch.setattr(analysis, "tree_walk", no_walk)
    budget = analysis._MAX_PRECISION_DIGITS
    with pytest.raises(ValueError, match=f"the precision exceeds the {budget}-digit budget"):
        call(budget + 1)


def test_mcshane_partial_sums_equal_single_depths():
    sums = mcshane_partial_sums(6, 11)
    assert sums == [mcshane_partial_sum(level, 11) for level in range(7)]
    assert sums[-1] == saltus_samples([F(1)], 6, 11)[0]
    with pytest.raises(ValueError):
        mcshane_partial_sums(-1, 11)
    with pytest.raises(ValueError):
        mcshane_partial_sums(20, 11)


# -- saltus representation ------------------------------------------------------------


def test_saltus_endpoints():
    assert saltus_mu(F(0), 4, 8) == (F(0), F(0))
    assert saltus_mu(F(1), 5, 9) == mcshane_partial_sum(5, 9)


def test_saltus_converges_from_below():
    for x, target in ((F(1, 2), F(2, 5)), (F(1, 3), F(5, 13)), (F(1, 4), F(13, 34))):
        lo, hi = saltus_mu(x, 6, 10)
        assert lo <= hi <= target
        assert target - lo < F(1, 10**5)


def test_saltus_deeper_is_closer():
    target = F(2, 5)
    gap_shallow = target - saltus_mu(F(1, 2), 2, 10)[0]
    gap_deep = target - saltus_mu(F(1, 2), 7, 10)[0]
    assert gap_deep < gap_shallow


def test_saltus_domain():
    with pytest.raises(ValueError):
        saltus_mu(F(3, 2), 3, 8)
    with pytest.raises(ValueError, match="increase strictly"):
        saltus_samples([F(1, 2), F(1, 3)], 3, 8)
    with pytest.raises(ValueError, match="increase strictly"):
        saltus_samples([F(1, 3), F(1, 3)], 3, 8)
    with pytest.raises(ValueError, match="on \\[0, 1\\]"):
        saltus_samples([F(0), F(1, 2), F(5, 4)], 3, 8)
    with pytest.raises(ValueError, match="on \\[0, 1\\]"):
        saltus_samples([F(-1, 4), F(1, 2)], 3, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        saltus_samples([F(1, 2)], -1, 8)


def test_saltus_samples_match_mpmath_oracle():
    mpmath.mp.dps = 60
    eps = mpmath.mpf(10) ** -50
    xs = [F(i, 8) for i in range(9)]  # hits the jumps at 1/4, 1/2 and 3/4
    samples = saltus_samples(xs, 5, 12)
    for x, (lo, hi) in zip(xs, samples):
        oracle = _saltus_mp(x, 5)
        assert _as_mpf(lo) <= oracle + eps
        assert oracle - eps <= _as_mpf(hi)
        assert hi - lo < F(1, 10**12)
    assert samples[0] == (F(0), F(0))
    assert saltus_samples([F(0)], 5, 12) == [samples[0]]
    assert saltus_samples([F(1)], 5, 12) == [samples[-1]]


def test_saltus_samples_equal_single_points():
    xs = [F(0), F(1, 5), F(1, 3), F(1, 2), F(7, 11), F(1)]
    assert saltus_samples(xs, 4, 9) == [saltus_mu(x, 4, 9) for x in xs]
    assert saltus_samples([], 4, 9) == []


def _saltus_samples_reference(xs, depth: int, precision: int) -> list[tuple[F, F]]:
    """The jump sum by Fraction positions, bisect and Fraction accumulation."""
    guard = _guard_bits(precision)
    slots = [[F(0), F(0)] for _ in range(len(xs) + 1)]  # the last slot is dropped

    def add(i, q, weight):
        lo, hi, e = _length_bounds(q, guard)
        slots[i][0] += weight * F(lo, 1 << e)
        slots[i][1] += weight * F(hi, 1 << e)

    add(bisect_right(xs, 0), 1, F(1, 2))
    add(bisect_left(xs, 1), 2, F(1, 2))
    for word, t in enumerate_tree(depth):
        position = farey_node_at(word).value
        i = bisect_left(xs, position)
        if i < len(xs) and xs[i] == position:
            add(i, t.f3.denominator, F(1, 2))
            add(i + 1, t.f3.denominator, F(1, 2))
        else:
            add(i, t.f3.denominator, 1)
    sums, lo, hi = [], F(0), F(0)
    for slot_lo, slot_hi in slots[:-1]:
        lo, hi = lo + slot_lo, hi + slot_hi
        sums.append((lo, hi))
    return sums


def test_saltus_samples_match_fraction_reference():
    # Mixed coprime denominators, five points on jumps of levels 0-4, and
    # the ints 0 and 1.
    xs = [0, F(1, 7), F(2, 11), F(1, 3), F(3, 8), F(5, 13), F(2, 5), F(1, 2),
          F(4, 7), F(7, 9), F(10, 11), 1]
    for depth, precision in ((0, 5), (4, 9), (6, 12)):
        assert saltus_samples(xs, depth, precision) == _saltus_samples_reference(
            xs, depth, precision)
    assert saltus_samples([1], 5, 9) == _saltus_samples_reference([1], 5, 9)
    assert saltus_samples([0], 5, 9) == [(F(0), F(0))]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.fractions(0, 1, max_denominator=40), max_size=12))
def test_saltus_samples_match_fraction_reference_on_random_points(points):
    xs = sorted(points)
    assert saltus_samples(xs, 5, 8) == _saltus_samples_reference(xs, 5, 8)


# -- Markov irrationalities --------------------------------------------------------------


def test_markov_irrationality_spots():
    ir = markov_irrationality(F(1, 2))
    assert surd_compare(ir.minus, QuadraticSurd(-11, 1, 10, 221)) == 0
    assert surd_compare(ir.plus, QuadraticSurd(19, -1, 10, 221)) == 0
    assert surd_compare(ir.lagrange, QuadraticSurd(0, 1, 5, 221)) == 0

    ir = markov_irrationality(F(0))
    assert surd_compare(ir.lagrange, QuadraticSurd(0, 1, 1, 5)) == 0

    ir = markov_irrationality(F(1))
    assert surd_compare(ir.lagrange, QuadraticSurd(0, 2, 1, 2)) == 0  # sqrt(32)/2


def test_markov_irrationality_matches_interval():
    for x in (F(0), F(1, 2), F(2, 3), F(1)):
        ir = markov_irrationality(x)
        iv = markov_interval(mu(x))
        assert surd_compare(ir.minus, iv.lo) == 0
        assert surd_compare(ir.plus, iv.hi) == 0
        assert surd_compare(ir.lagrange, F(3)) < 0  # Lagrange number < 3, exactly


# -- Lyapunov estimates ---------------------------------------------------------------------


def test_lyapunov_first_step():
    assert lyapunov_trajectory(itertools.repeat("L"), 1) == [math.log(math.log(5))]
    assert lyapunov_estimate(itertools.cycle("LR"), 1) == math.log(math.log(5))


def test_lyapunov_constant_word_decays():
    estimate = lyapunov_estimate(itertools.repeat("L"), 100)
    assert 0 < estimate < 0.05


def test_lyapunov_alternating_word_near_ln_phi():
    estimate = lyapunov_estimate(itertools.cycle("LR"), 100)
    assert abs(estimate - LN_PHI) < 0.02


def test_lyapunov_matches_exact_descent():
    # exact big-integer denominators are feasible for a dozen steps
    f1, f2 = F(0, 1), F(1, 2)
    value = springborn_mediant(f1, f2)
    denominators = [value.denominator]
    for ch in "LRLRLRLRLRL":
        if ch == "L":
            f2 = value
        else:
            f1 = value
        value = springborn_mediant(f1, f2)
        denominators.append(value.denominator)
    trajectory = lyapunov_trajectory(itertools.cycle("LR"), 12)
    for n, (q, got) in enumerate(zip(denominators, trajectory), start=1):
        assert abs(got - math.log(math.log(q)) / n) < 1e-9


def test_lyapunov_long_run_stays_in_range():
    # early steps overshoot ln(phi) transiently (the bound is asymptotic),
    # so the window check starts once the 1/n transient has decayed
    for word, steps in ((itertools.cycle("LR"), 5000), (itertools.repeat("R"), 2000)):
        trajectory = lyapunov_trajectory(word, steps)
        assert len(trajectory) == steps
        assert all(v >= 0 for v in trajectory)
        assert all(v <= LN_PHI + 0.05 for v in trajectory[49:])


@settings(max_examples=15, deadline=None)
@given(st.text(alphabet="LR", min_size=99, max_size=99))
def test_lyapunov_random_words_bounded(word):
    estimate = lyapunov_estimate(word, 100)
    assert 0 <= estimate <= LN_PHI + 0.05


def test_lyapunov_validation():
    with pytest.raises(ValueError):
        lyapunov_trajectory(itertools.repeat("L"), 0)
    with pytest.raises(ValueError):
        lyapunov_trajectory(itertools.repeat("L"), 10_001)
    with pytest.raises(ValueError):
        lyapunov_trajectory("L" * 98, 100)  # word too short
    with pytest.raises(ValueError):
        lyapunov_trajectory("LXL", 3)
