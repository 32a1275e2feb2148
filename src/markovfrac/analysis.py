"""Diophantine analysis around the Markov fractions.

Provides the best-approximation constant inf b**2*|f - a/b|, the maximal
interval around each Markov fraction that is free of other Markov
fractions, guaranteed rational enclosures for the interval-length series
(which converges to 1/2), the saltus representation of the tree transport
mu, the quadratic irrationalities at interval endpoints, and a growth-rate
estimator for denominators along a branch.

Enclosures are exact rationals with guaranteed containment; the only
floating point lives in the growth-rate estimator, where the quantity of
interest is a double logarithm.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from math import exp, floor, isqrt, log, log1p
from typing import Iterable, Sequence

from .exact import DyadicRational, QuadraticSurd, _Value, surd_enclose
from .markov import UNIT_SEEDS, MarkovFraction, _shared_rank_walk, mu, tree_walk

__all__ = [
    "FreenessReport",
    "MarkovInterval",
    "MarkovIrrationality",
    "approx_constant",
    "approx_constant_detail",
    "fractions_strictly_inside",
    "interval_freeness",
    "lyapunov_estimate",
    "lyapunov_trajectory",
    "markov_interval",
    "markov_irrationality",
    "mcshane_partial_sum",
    "mcshane_partial_sums",
    "reduced_fractions_up_to",
    "saltus_mu",
    "saltus_samples",
]

_MAX_LYAPUNOV_STEPS = 10_000

#: Bit budget of the freeness bound B of fractions_strictly_inside, and so of
#: interval_freeness and `interval --freeness-bound`; the times at the budget
#: are in fractions_strictly_inside.  It admits 10**300.
_MAX_FREENESS_BITS = 1024

#: Budget of the integer translates n at which fractions_strictly_inside seeks
#: n + r, r on the [0, 1] tree: one window of r each, over up to all of
#: [0, 1).  It counts floor(hi) - floor(lo) + 2 translates, one more than
#: the windows; a Markov interval, shorter than 1, counts at most 3.
_MAX_WINDOW_TRANSLATES = 16

#: Digit budget of the jump-sum precision of mcshane_partial_sum(s),
#: saltus_samples and saltus_mu, and so of `mcshane` and `saltus
#: --precision`; the times at the budget are in _guard_bits.
_MAX_PRECISION_DIGITS = 100


# -- best approximation constant ---------------------------------------------


def approx_constant_detail(f: Fraction) -> tuple[Fraction, Fraction]:
    """The constant inf b**2 * |f - a/b| over rationals a/b != f, with a witness.

    By Legendre's theorem a fraction in lowest terms, as every minimiser
    is, with b**2 * |f - a/b| < 1/2 is a convergent of f, while the b = 1
    neighbours floor(f) and floor(f) + 1 reach 1/2 or less.  So the
    minimum is over those two and the convergents other than f, found in
    one Euclidean pass: O(len CF) steps, not a scan linear in q.  A
    candidate a/b is ranked by the integer key b * |p*b - a*q| over the
    common denominator q; for a convergent h/k that is k times the
    Euclidean remainder after it.  Returns the constant and the first
    rational attaining it (smallest b, then the lower candidate); an
    integer f reports f + 1.
    """
    p, q = f.numerator, f.denominator
    a0, r = divmod(p, q)
    candidates = [(q - r, 1, a0 + 1)]
    u, v = q, r
    h_prev, k_prev, h, k = 1, 0, a0, 1
    while v:
        candidates.append((k * v, k, h))
        t, w = divmod(u, v)
        u, v = v, w
        h_prev, h = h, t * h + h_prev
        k_prev, k = k, t * k + k_prev
    key, b, a = min(candidates)
    return Fraction(key, q), Fraction(a, b)


def approx_constant(f: Fraction) -> Fraction:
    """Best-approximation constant of f; at least 1/3 exactly on Markov fractions."""
    return approx_constant_detail(f)[0]


# -- intervals free of Markov fractions ---------------------------------------


def _length_surd(q: int) -> QuadraticSurd:
    """Interval length 3 - sqrt(9*q**2 - 4)/q as an exact surd."""
    return QuadraticSurd(3 * q, -1, q, 9 * q * q - 4)


class MarkovInterval(_Value):
    """The maximal interval around a Markov fraction containing no other.

    Endpoints are exact quadratic surds; hi - lo equals the length
    3 - sqrt(9*q**2 - 4)/q by construction.
    """

    __slots__ = ("center", "lo", "hi", "length")


def markov_interval(f: MarkovFraction) -> MarkovInterval:
    """Exact free interval around a Markov fraction."""
    length = _length_surd(f.value.denominator)
    half = length * Fraction(1, 2)
    return MarkovInterval(f.value, f.value - half, f.value + half, length)


def _check_freeness_bound(denominator_bound: int) -> None:
    """Refuse a denominator bound B below 1 or past the _MAX_FREENESS_BITS budget."""
    if denominator_bound < 1:
        raise ValueError("denominator bound must be positive")
    if denominator_bound.bit_length() > _MAX_FREENESS_BITS:
        raise ValueError(f"the freeness bound exceeds the {_MAX_FREENESS_BITS}-bit budget")


def reduced_fractions_up_to(denominator_bound: int) -> list[Fraction]:
    """All Markov fractions in [0, 1/2] with denominator <= bound, seeds included.

    The tree is pruned at the bound: denominators grow strictly along
    every branch, so a subtree below an oversized vertex never recovers.
    B is held to the budget of fractions_strictly_inside before the walk.
    """
    _check_freeness_bound(denominator_bound)
    found = [f for f in (Fraction(0), Fraction(1, 2)) if f.denominator <= denominator_bound]
    found += [Fraction(p, q) for (_, _, _, _, p, q), _, _ in tree_walk(None, denominator_bound)]
    return sorted(found)


def _terms(*fs: Fraction) -> tuple[int, ...]:
    return tuple(t for f in fs for t in (f.numerator, f.denominator))


def fractions_strictly_inside(
    lo: QuadraticSurd,
    hi: QuadraticSurd,
    denominator_bound: int,
    exclude: Fraction | None = None,
) -> list[Fraction]:
    """Markov fractions n + r with denominator <= B strictly between lo and hi.

    Every such value, with n an integer and r = 0 or a vertex of the
    tree on UNIT_SEEDS (the Markov fractions in (0, 1): 1/2 and each
    reduced fraction with its reflection), is found, as by the full scan of
    every reduced fraction.  Here r is confined to one window
    (lo - n, hi - n) per translate n, and one walk of that tree cuts
    every vertex whose neighbours p1/q1 < p2/q2 miss all windows, since
    its whole subtree lies strictly between them.  So only the branches
    that reach the interval are walked: for the Markov interval of 2/5,
    11 vertices at B = 10**6 and 342 at 10**200.

    lo and hi are enclosed once, to 2*digits(B) + 4 digits.  Tree
    fractions pile up at the interval's ends, and a quadratic irrational
    end stays about 1/q**2 away from p/q, so this precision cuts the
    branches that only come near an end.  Every window bound derives from
    the two enclosures, the cut is an integer cross product, and a
    candidate is decided by the inner and outer bounds, with the exact
    surd comparison only where they cannot decide.

    B may have at most _MAX_FREENESS_BITS = 1024 bits, and the interval
    may reach at most _MAX_WINDOW_TRANSLATES = 16 integer translates n;
    past either budget ValueError is raised before the walk.  At the bit
    budget a Markov interval walks 526 vertices in about 0.01 s, while
    the worst case, a window over all of [0, 1], cuts nothing: it returns
    all 182,661 fractions in about 3.6 s and 200 MB, and over [0, 1/2]
    91,331 in 1.8 s and 108 MB (Python 3.11.7, one core of a shared
    2-core x86-64 host; 1.1 s and 77,023 fractions in [0, 1] at 10**200).
    """
    _check_freeness_bound(denominator_bound)
    precision = 2 * (denominator_bound.bit_length() * 3 // 10 + 1) + 4
    lo_out, lo_in = surd_enclose(lo, precision)
    hi_in, hi_out = surd_enclose(hi, precision)
    if floor(hi_out) - floor(lo_out) + 2 > _MAX_WINDOW_TRANSLATES:
        raise ValueError(f"the interval exceeds the {_MAX_WINDOW_TRANSLATES}-translate budget")
    # (n, outer r-window, inner r-window) as integer terms: a candidate n + r
    # lies outside (lo, hi) unless r is inside the outer window, and inside
    # it when r is inside the inner one.  With r in [0, 1), only
    # floor(lo) <= n <= floor(hi) can reach the interval.
    windows = [(n, *_terms(lo_out - n, hi_out - n, lo_in - n, hi_in - n))
               for n in range(floor(lo_out), floor(hi_out) + 1)]

    def misses_every_window(v: tuple[int, ...]) -> bool:
        p1, q1, p2, q2 = v[:4]
        return not any(p2 * ad > an * q2 and p1 * bd < bn * q1
                       for _, an, ad, bn, bd, _, _, _, _ in windows)

    walked = ((v[4], v[5]) for v, _, _ in tree_walk(None, denominator_bound,
                                                      prune=misses_every_window,
                                                      seeds=UNIT_SEEDS))
    skip = None if exclude is None else _terms(exclude)
    # Distinct candidates, all with denominators <= B, differ by at least
    # 1/B**2, so floor(x * 2**shift) keys them in order, on integers alone.
    shift = 2 * denominator_bound.bit_length() + 1
    intruders = {}
    for p, q in chain([(0, 1)], walked):
        for n, an, ad, bn, bd, cn, cd, dn, dd in windows:
            if not (an * q < p * ad and p * bd < bn * q):
                continue
            num = n * q + p  # x = num/q in lowest terms, as p/q is
            if (num, q) == skip:
                continue
            if ((cn * q < p * cd and p * dd < dn * q)
                    or lo.compare(Fraction(num, q)) < 0 < hi.compare(Fraction(num, q))):
                intruders[(num << shift) // q] = (num, q)
    return [Fraction(num, q) for _, (num, q) in sorted(intruders.items())]


def _fractions_inside_by_scan(
    lo: QuadraticSurd,
    hi: QuadraticSurd,
    denominator_bound: int,
    exclude: Fraction | None = None,
) -> list[Fraction]:
    """fractions_strictly_inside by the full scan, the oracle of the pruned walk.

    Every value n + r and n - r with r in the reduced set and n an integer
    near the interval is tested by exact surd comparison.
    """
    reduced = reduced_fractions_up_to(denominator_bound)
    lo_bound, _ = surd_enclose(lo, 3)
    _, hi_bound = surd_enclose(hi, 3)
    n_min = lo_bound.numerator // lo_bound.denominator
    n_max = hi_bound.numerator // hi_bound.denominator + 1
    intruders = set()
    for n in range(n_min, n_max + 1):
        for r in reduced:
            for candidate in (n + r, n - r):
                if candidate == exclude:
                    continue
                if lo.compare(candidate) < 0 < hi.compare(candidate):
                    intruders.add(candidate)
    return sorted(intruders)


class FreenessReport(_Value):
    """Whether an interval is free of other Markov fractions up to a bound."""

    __slots__ = ("center", "denominator_bound", "intruders")

    @property
    def free(self) -> bool:
        return not self.intruders


def interval_freeness(f: MarkovFraction, denominator_bound: int) -> FreenessReport:
    """Check that f's interval contains no other Markov fraction up to the bound."""
    interval = markov_interval(f)
    intruders = fractions_strictly_inside(
        interval.lo, interval.hi, denominator_bound, exclude=f.value)
    return FreenessReport(f.value, denominator_bound, tuple(intruders))


# -- interval length series and the saltus representation of the transport -----


def _length_bounds(q: int, guard_bits: int) -> tuple[int, int, int]:
    """Bounds [lo, hi]/2**e on the interval length with relative error below 2**(1-guard).

    Uses l(q) = 4 / (q * (3q + sqrt(9*q**2 - 4))), which needs no
    cancellation, with the square root scaled to guard_bits extra bits.
    Dyadic denominators keep long sums cheap to accumulate exactly.

    With R = 3q * 2**guard_bits, the scaled root isqrt((9q**2 - 4) * 4**guard_bits)
    equals R - 1 whenever 3q > 2**(guard_bits + 1): the radicand is
    R**2 - 4**(guard_bits + 1), which lies in [(R - 1)**2, R**2) because
    2R - 1 >= 4**(guard_bits + 1) there.  So isqrt runs only below that
    threshold, for a few hundred vertices of a deep walk.  A q long
    enough, far above it, is first tried on its leading bits (see
    _leading_length_bounds).
    """
    bounds = _leading_length_bounds(q, guard_bits)
    if bounds is not None:
        return bounds
    # Scaled denominators q * (R + root) and q * (R + root + 1), in units
    # of 2**-guard_bits; with root = R - 1 the upper one is 6q**2 * 2**guard_bits.
    if 3 * q > 2 << guard_bits:
        m_hi = 6 * (q * q) << guard_bits
        m_lo = m_hi - q
    else:
        root = isqrt((9 * q * q - 4) << (2 * guard_bits))
        m_lo = q * ((3 * q << guard_bits) + root)
        m_hi = m_lo + q
    e = m_hi.bit_length() + guard_bits
    numerator = 1 << (e + guard_bits + 2)
    return numerator // m_hi, -((-numerator) // m_lo), e


def _leading_length_bounds(q: int, guard_bits: int) -> tuple[int, int, int] | None:
    """_length_bounds(q, guard_bits) from the top bits of q, or None.

    Only a q of more than 2g + 32 bits is shortened, so 3q > 2**(g + 1):
    there the bounds are floor(N / m_hi) and ceil(N / m_lo), with
    m_hi = 6q**2 * 2**g, m_lo = m_hi - q and N = 2**(e + g + 2), where
    g = guard_bits and e = bits(6q**2) + 2g: quotients of about 2g bits.
    With a = q >> s, about 2g + 32 bits, and c = ((a + 1) >> (s + g)) + 1,
    both m_lo and m_hi lie strictly between (6a**2 - c) * 2**(2s + g) and
    6(a + 1)**2 * 2**(2s + g).  Let n = 2**(bits(6a**2) + 2g + 2).  When
    n // (6(a + 1)**2) and n // (6a**2 - c) agree on some k, no power of
    two lies in (6a**2, 6(a + 1)**2), since it would put 2**(2g + 2)
    between the two quotients, so bits(6q**2) = bits(6a**2) + 2s gives e;
    then N / m_hi and N / m_lo both lie strictly between k and k + 1, so
    the bounds are k and k + 1.  As 6a**2 - c < 6(a + 1)**2, the second
    quotient is at least k, and it is k exactly when n < (k + 1) * (6a**2 - c):
    one product instead of a division.  When
    they differ (about one q in 2**28), or q has too few bits to shorten,
    this returns None and the caller takes the full products.
    """
    s = q.bit_length() - 2 * guard_bits - 32
    if s <= 0:
        return None
    a = q >> s
    lo6 = 6 * a * a
    bits = lo6.bit_length()
    numerator = 1 << (bits + 2 * guard_bits + 2)
    k = numerator // (6 * (a + 1) * (a + 1))
    if numerator >= (k + 1) * (lo6 - ((a + 1) >> (s + guard_bits)) - 1):
        return None
    return k, k + 1, bits + 2 * s + 2 * guard_bits


def _guard_bits(precision: int) -> int:
    """Guard bits of a jump sum to `precision` digits, refused past the budget.

    Every vertex divides numbers of about 2*bits(q) + guard bits, or of
    about 6 * guard bits once q is longer than 2 * guard + 32 bits (see
    _leading_length_bounds), so the cost grows with the digits as well as
    with the depth, and without a budget the digits, not the vertex
    budget, would bound it.  At _MAX_PRECISION_DIGITS = 100 they stay a
    small factor: to depth 15 the sums take 0.25 s at 12 digits and 0.87 s
    at 100, and to depth 17 2.0 s and 4.0 s (Python 3.11.7, one core of a
    shared 2-core x86-64 host).  The check runs before any walk.
    """
    if precision < 1:
        raise ValueError("precision must be a positive digit count")
    if precision > _MAX_PRECISION_DIGITS:
        raise ValueError(f"the precision exceeds the {_MAX_PRECISION_DIGITS}-digit budget")
    return 4 * precision + 24


def _dyadic_add(acc: list[int], lo: int, hi: int, e: int) -> None:
    """acc = [lo, hi, e], meaning [lo, hi]/2**e, grows by [lo, hi]/2**e exactly."""
    shift = e - acc[2]
    if shift > 0:
        acc[0] <<= shift
        acc[1] <<= shift
        acc[2] = e
    else:
        lo <<= -shift
        hi <<= -shift
    acc[0] += lo
    acc[1] += hi


def _merged(n: int, parts: Iterable[dict[int, list[int]]]) -> list[list[int]]:
    """n dyadic slots [lo, hi, e], each the exact sum of its entries in the parts.

    A slot's exponent ends as the largest of its terms' (or 0), whatever
    their order, so the slots are those of one walk that added every term.
    """
    slots = [[0, 0, 0] for _ in range(n)]
    for part in parts:
        for i, slot in part.items():
            _dyadic_add(slots[i], *slot)
    return slots


def saltus_samples(
    xs: Sequence[Fraction], depth: int, precision: int
) -> list[tuple[Fraction, Fraction]]:
    """Enclosures of the pure jump sum representing the tree transport at each x.

    The sum is -l(1)/2 + sum over rationals a/b in [0, 1] of
    l(q(a/b)) * H(x - a/b), where 0/1 and 1/1 carry the seed denominators
    1 and 2 and interior jumps are truncated at the given tree depth, with
    the symmetric Heaviside convention H(0) = 1/2.  As the depth grows the
    value converges to the transport mu(x) for every x in [0, 1]; at x = 1
    it is the length series converging to 1/2.

    The points, ints or Fractions, must increase strictly.  One walk of
    the Markov numbers (markov._rank_walk) serves them all: each jump's
    bounds go to the first point at or right of it (half to that point
    and half to the next where the two coincide), and the points take
    prefix sums.  A jump past the last point adds nothing, so the walk
    cuts every subtree whose left Farey parent is at or right of it: at
    1/1000 to depth 19 it visits 20 vertices, not 2**20 - 1.  Every bound
    is an exact dyadic sum, the enclosure width is below 10**-precision,
    and no table of jumps is kept.

    The walk is shared across the usable CPUs by subtrees
    (markov._shared_rank_walk) when enough of it is left after the cut;
    each subtree sends back the sums of the points its jumps reach, and
    the exact merge gives the bytes of one walk.  At 1/1000 one subtree is
    left, and nothing is shared.
    """
    for x in xs:
        if not 0 <= x <= 1:
            raise ValueError(f"saltus is evaluated on [0, 1]; got {x}")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("saltus sample points must increase strictly")
    guard = _guard_bits(precision)
    points = [Fraction(x) for x in xs]
    nums = [x.numerator for x in points]
    dens = [x.denominator for x in points]
    n = len(points)

    def add(sums: dict[int, list[int]], i: int, lo: int, hi: int, e: int) -> None:
        if i < n:
            slot = sums.get(i)
            if slot is None:
                sums[i] = [lo, hi, e]
            else:
                _dyadic_add(slot, lo, hi, e)

    # A subtree whose left Farey parent is at or right of the last point
    # lies past it, and every jump there would fall past the last slot.
    # With no point, -1/1 cuts the root.
    x_num, x_den = (nums[-1], dens[-1]) if n else (-1, 1)

    def past_last(item) -> bool:
        _, (a1, b1, _, _), _ = item
        return a1 * x_den >= x_num * b1

    def part(walk: Iterable[tuple]) -> dict[int, list[int]]:
        sums: dict[int, list[int]] = {}
        for (_, _, q), (a1, b1, a2, b2), _ in walk:
            # Bisect for the first point at or right of the jump a/b on
            # integer cross products, so no vertex pays for a Fraction.
            a, b = a1 + a2, b1 + b2
            i, j = 0, n
            while i < j:
                k = (i + j) >> 1
                if nums[k] * b < a * dens[k]:
                    i = k + 1
                else:
                    j = k
            if i == n:
                continue
            lo, hi, e = _length_bounds(q, guard)
            if nums[i] * b == a * dens[i]:
                add(sums, i, lo, hi, e + 1)
                add(sums, i + 1, lo, hi, e + 1)
            else:
                add(sums, i, lo, hi, e)
        return sums

    # The seeds add l(1)/2 at every x > 0 and l(2)/2 at x = 1 only.
    seeds: dict[int, list[int]] = {}
    lo, hi, e = _length_bounds(1, guard)
    add(seeds, bisect_right(points, 0), lo, hi, e + 1)
    lo, hi, e = _length_bounds(2, guard)
    add(seeds, bisect_left(points, 1), lo, hi, e + 1)
    parts = _shared_rank_walk(depth, past_last, part)
    return _prefix_enclosures(_merged(n, [seeds, *parts]))


def _prefix_enclosures(slots: list[list[int]]) -> list[tuple[Fraction, Fraction]]:
    """Running totals of dyadic slots [lo, hi, e], as exact fraction pairs."""
    total = [0, 0, 0]
    sums = []
    for slot in slots:
        _dyadic_add(total, *slot)
        lo, hi, e = total
        sums.append((DyadicRational(lo, e).value, DyadicRational(hi, e).value))
    return sums


def mcshane_partial_sums(depth: int, precision: int) -> list[tuple[Fraction, Fraction]]:
    """Enclosures of mcshane_partial_sum(level, precision) for levels 0..depth.

    One walk of the Markov numbers (markov._rank_walk) serves every level:
    each vertex adds its length bounds to the slot of its level, and the
    levels take prefix sums, so each entry equals the single-depth
    enclosure exactly.  From depth 11 the walk is shared across the
    usable CPUs by subtrees (markov._shared_rank_walk), each sending back
    its sums by level, and the exact merge gives the bytes of one walk.
    """
    guard = _guard_bits(precision)

    def part(walk: Iterable[tuple]) -> dict[int, list[int]]:
        sums = [[0, 0, 0] for _ in range(depth + 1)]
        for (_, _, q), _, level in walk:
            _dyadic_add(sums[level], *_length_bounds(q, guard))
        return dict(enumerate(sums))

    seeds = [0, 0, 0]
    for q in (1, 2):
        lo, hi, e = _length_bounds(q, guard)
        _dyadic_add(seeds, lo, hi, e + 1)
    parts = _shared_rank_walk(depth, None, part)
    return _prefix_enclosures(_merged(depth + 1, [{0: seeds}, *parts]))


def mcshane_partial_sum(depth: int, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of (l(1) + l(2))/2 + sum of l(q) over tree vertices to depth.

    This is the jump sum at x = 1.  The series converges to 1/2 from
    below.  Bounds are guaranteed, the enclosure width is below
    10**-precision, and for fixed precision both bounds grow strictly with
    depth (each vertex contributes a strictly positive lower bound).
    """
    return mcshane_partial_sums(depth, precision)[-1]


def saltus_mu(x: Fraction, depth: int, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure of the truncated jump sum at one point; see saltus_samples."""
    return saltus_samples([x], depth, precision)[0]


# -- endpoint irrationalities ---------------------------------------------------


class MarkovIrrationality(_Value):
    """The two endpoint irrationalities at a rational and their Lagrange number.

    ``lagrange`` is sqrt(9*q**2 - 4)/q, always strictly below 3.
    """

    __slots__ = ("center", "minus", "plus", "lagrange")


def markov_irrationality(x: Fraction) -> MarkovIrrationality:
    """Endpoint irrationalities mu(x) -+ l(q)/2 of the transport of x; lagrange is 3 - l(q)."""
    image = mu(x)
    interval = markov_interval(image)
    return MarkovIrrationality(image.value, interval.lo, interval.hi, 3 - interval.length)


# -- denominator growth along a branch ------------------------------------------


def lyapunov_trajectory(turns: Iterable[str], steps: int) -> list[float]:
    """Estimates log(log q_n)/n for n = 1..steps along a branch.

    The walk starts at the root (denominator 5, parents 1 and 2) and
    consumes steps - 1 turns.  Denominator logarithms are tracked as
    doubles while they fit and as double logarithms beyond, so deep
    alternating branches (log q growing like the golden ratio to the n)
    stay finite.
    """
    if not 1 <= steps <= _MAX_LYAPUNOV_STEPS:
        raise ValueError(f"steps must lie in [1, {_MAX_LYAPUNOV_STEPS}]")
    log3 = log(3)
    # ln(ln q) for the triple around the current vertex; ln(ln 1) = -inf.
    ta, tb, tc = float("-inf"), log(log(2)), log(log(5))
    estimates = [tc / 1]
    it = iter(turns)
    for n in range(2, steps + 1):
        try:
            ch = next(it)
        except StopIteration:
            raise ValueError(f"turn sequence ended before step {n}") from None
        if ch not in ("L", "R"):
            raise ValueError(f"turn word may only contain 'L' and 'R': {ch!r}")
        if ch == "L":
            pa, pc, replaced = ta, tc, tb
        else:
            pa, pc, replaced = tc, tb, ta
        if max(pa, pc, replaced) < 700.0:
            la, lc, lb = exp(pa), exp(pc), exp(replaced)
            t_new = log(log3 + la + lc + log1p(-exp(lb - log3 - la - lc)))
        else:
            # The subtracted term is below double precision here.
            m = max(pa, pc)
            t_new = m + log(exp(pa - m) + exp(pc - m) + log3 * exp(-m))
        if ch == "L":
            ta, tb, tc = ta, tc, t_new
        else:
            ta, tb, tc = tc, tb, t_new
        estimates.append(t_new / n)
    return estimates


def lyapunov_estimate(turns: Iterable[str], steps: int) -> float:
    """Final growth estimate log(log q_n)/n after the given number of steps."""
    return lyapunov_trajectory(turns, steps)[-1]
