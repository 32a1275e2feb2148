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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import exp, floor, isqrt, log, log1p
from typing import Iterable, Iterator, Sequence

from .exact import QuadraticSurd, surd_enclose
from .markov import MarkovFraction, mu, tree_walk

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


@dataclass(frozen=True)
class MarkovInterval:
    """The maximal interval around a Markov fraction containing no other.

    Endpoints are exact quadratic surds; hi - lo equals the length
    3 - sqrt(9*q**2 - 4)/q by construction.
    """

    center: Fraction
    lo: QuadraticSurd
    hi: QuadraticSurd
    length: QuadraticSurd


def markov_interval(f: MarkovFraction) -> MarkovInterval:
    """Exact free interval around a Markov fraction."""
    length = _length_surd(f.value.denominator)
    half = length * Fraction(1, 2)
    return MarkovInterval(
        center=f.value,
        lo=f.value - half,
        hi=f.value + half,
        length=length,
    )


def reduced_fractions_up_to(denominator_bound: int) -> list[Fraction]:
    """All Markov fractions in [0, 1/2] with denominator <= bound, seeds included.

    The tree is pruned at the bound: denominators grow strictly along
    every branch, so a subtree below an oversized vertex never recovers.
    """
    if denominator_bound < 1:
        raise ValueError("denominator bound must be positive")
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
    """Markov fractions n + r and n - r with denominator <= B strictly between lo and hi.

    Every such value, with r a reduced tree fraction in [0, 1/2] (the
    seeds 0 and 1/2 included) and n an integer, is found, as by the full
    scan of every reduced fraction.  Here r is confined to the windows
    (lo - n, hi - n) and (n - hi, n - lo), and one walk of the tree cuts
    every vertex whose neighbours p1/q1 < p2/q2 miss all windows, since
    its whole subtree lies strictly between them.  So only the branches
    that reach the interval are walked: for the Markov interval of 2/5,
    10 vertices at B = 10**6 and 341 at 10**200.

    lo and hi are enclosed once, to 2*digits(B) + 4 digits.  Tree
    fractions pile up at the interval's ends, and a quadratic irrational
    end stays about 1/q**2 away from p/q, so this precision cuts the
    branches that only come near an end.  Every window bound derives from
    the two enclosures, the cut is an integer cross product, and a
    candidate is decided by the inner and outer bounds, with the exact
    surd comparison only where they cannot decide.

    B may have at most _MAX_FREENESS_BITS = 1024 bits; a larger one
    raises ValueError before the walk.  At the budget a Markov interval
    walks 525 vertices in about 0.01 s, while the worst case, a window
    over all of [0, 1/2], cuts nothing: it returns all 91,331 reduced
    fractions in about 3 s and 110 MB (Python 3.11, one core of a shared
    2-core x86-64 host; 0.8 s and 38,583 fractions at 10**200).
    """
    if denominator_bound < 1:
        raise ValueError("denominator bound must be positive")
    if denominator_bound.bit_length() > _MAX_FREENESS_BITS:
        raise ValueError(f"the freeness bound exceeds the {_MAX_FREENESS_BITS}-bit budget")
    precision = 2 * (denominator_bound.bit_length() * 3 // 10 + 1) + 4
    lo_out, lo_in = surd_enclose(lo, precision)
    hi_in, hi_out = surd_enclose(hi, precision)
    half = Fraction(1, 2)
    # (n, sign, outer r-window, inner r-window) as integer terms: a candidate
    # n + sign*r lies outside (lo, hi) unless r is inside the outer window,
    # and inside it when r is inside the inner one.  With r in [0, 1/2],
    # only floor(lo) <= n <= floor(hi) + 1 can reach the interval.
    windows = []
    for n in range(floor(lo_out), floor(hi_out) + 2):
        for sign, a, b, c, d in ((1, lo_out - n, hi_out - n, lo_in - n, hi_in - n),
                                 (-1, n - hi_out, n - lo_out, n - hi_in, n - lo_in)):
            if a < half and b > 0:
                windows.append((n, sign, *_terms(a, b, c, d)))

    def misses_every_window(v: tuple[int, ...]) -> bool:
        p1, q1, p2, q2 = v[:4]
        return not any(p2 * ad > an * q2 and p1 * bd < bn * q1
                       for _, _, an, ad, bn, bd, _, _, _, _ in windows)

    seeds = [(p, q) for p, q in ((0, 1), (1, 2)) if q <= denominator_bound]
    walked = ((v[4], v[5]) for v, _, _ in tree_walk(None, denominator_bound,
                                                      prune=misses_every_window))
    skip = None if exclude is None else _terms(exclude)
    # Distinct candidates, all with denominators <= B, differ by at least
    # 1/B**2, so floor(x * 2**shift) keys them in order, on integers alone.
    shift = 2 * denominator_bound.bit_length() + 1
    intruders = {}
    for p, q in chain(seeds, walked):
        for n, sign, an, ad, bn, bd, cn, cd, dn, dd in windows:
            if not (an * q < p * ad and p * bd < bn * q):
                continue
            num = n * q + sign * p  # x = num/q in lowest terms, as p/q is
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


@dataclass(frozen=True)
class FreenessReport:
    """Whether an interval is free of other Markov fractions up to a bound."""

    center: Fraction
    denominator_bound: int
    intruders: tuple[Fraction, ...]

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
    threshold, for a few hundred vertices of a deep walk.  Above it, a
    long q is first tried on its leading bits (see _leading_length_bounds).
    """
    # Scaled denominators q * (R + root) and q * (R + root + 1), in units
    # of 2**-guard_bits; with root = R - 1 the upper one is 6q**2 * 2**guard_bits.
    if 3 * q > 2 << guard_bits:
        bounds = _leading_length_bounds(q, guard_bits)
        if bounds is not None:
            return bounds
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
    """_length_bounds(q, guard_bits) for 3q > 2**(guard_bits + 1), from the top bits of q.

    There the bounds are floor(N / m_hi) and ceil(N / m_lo), with
    m_hi = 6q**2 * 2**g, m_lo = m_hi - q and N = 2**(e + g + 2), where
    g = guard_bits and e = bits(6q**2) + 2g: quotients of about 2g bits.
    With a = q >> s, about 2g + 32 bits, and c = ((a + 1) >> (s + g)) + 1,
    both m_lo and m_hi lie strictly between (6a**2 - c) * 2**(2s + g) and
    6(a + 1)**2 * 2**(2s + g).  Let n = 2**(bits(6a**2) + 2g + 2).  When
    n // (6(a + 1)**2) and n // (6a**2 - c) agree on some k, no power of
    two lies in (6a**2, 6(a + 1)**2), since it would put 2**(2g + 2)
    between the two quotients, so bits(6q**2) = bits(6a**2) + 2s gives e;
    then N / m_hi and N / m_lo both lie strictly between k and k + 1, so
    the bounds are k and k + 1.  When
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
    if k != numerator // (lo6 - ((a + 1) >> (s + guard_bits)) - 1):
        return None
    return k, k + 1, bits + 2 * s + 2 * guard_bits


def _guard_bits(precision: int) -> int:
    """Guard bits of a jump sum to `precision` digits, refused past the budget.

    Every vertex divides numbers of about 2*bits(q) + guard bits, or of
    about 6 * guard bits once q is longer than 2 * guard + 32 bits (see
    _leading_length_bounds), so the cost grows with the digits as well as
    with the depth.  The budget was set when every vertex took the full
    products: to depth 15 the sums took 0.7 s at 12 digits, 1.8 s at 100
    and 26 s at 1,000, and at _MAX_PRECISION_DIGITS = 100 the digits
    stayed a fraction of the cost at the vertex budget: to depth 19 the
    sums took 159 s, against 112 s at 12 digits (Python 3.11, one core of
    a shared 2-core x86-64 host).  The check runs before any walk.
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

    The points, ints or Fractions, must increase strictly.  One walk
    serves them all: each jump's bounds go to the first point at or right
    of it (half to that point and half to the next where the two
    coincide), and the points take prefix sums.  Every bound is an exact dyadic sum, the enclosure
    width is below 10**-precision, and no table of jumps is kept.
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
    slots = [[0, 0, 0] for _ in points]

    def add(i: int, lo: int, hi: int, e: int) -> None:
        if i < n:
            _dyadic_add(slots[i], lo, hi, e)

    # The seeds add l(1)/2 at every x > 0 and l(2)/2 at x = 1 only.
    lo, hi, e = _length_bounds(1, guard)
    add(bisect_right(points, 0), lo, hi, e + 1)
    lo, hi, e = _length_bounds(2, guard)
    add(bisect_left(points, 1), lo, hi, e + 1)
    for (_, _, _, _, _, q), (a1, b1, a2, b2), _ in tree_walk(depth):
        # Bisect for the first point at or right of the jump a/b on integer
        # cross products, so no vertex pays for a Fraction.
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
            add(i, lo, hi, e + 1)
            add(i + 1, lo, hi, e + 1)
        else:
            add(i, lo, hi, e)
    return _prefix_enclosures(slots)


def _prefix_enclosures(slots: list[list[int]]) -> list[tuple[Fraction, Fraction]]:
    """Running totals of dyadic slots [lo, hi, e], as exact fraction pairs."""
    total = [0, 0, 0]
    sums = []
    for slot in slots:
        _dyadic_add(total, *slot)
        lo, hi, e = total
        sums.append((Fraction(lo, 1 << e), Fraction(hi, 1 << e)))
    return sums


def mcshane_partial_sums(depth: int, precision: int) -> list[tuple[Fraction, Fraction]]:
    """Enclosures of mcshane_partial_sum(level, precision) for levels 0..depth.

    One walk serves every level: each vertex adds its length bounds to the
    slot of its level, and the levels take prefix sums, so each entry
    equals the single-depth enclosure exactly.
    """
    guard = _guard_bits(precision)
    walk = tree_walk(depth)
    slots = [[0, 0, 0] for _ in range(depth + 1)]
    for q in (1, 2):
        lo, hi, e = _length_bounds(q, guard)
        _dyadic_add(slots[0], lo, hi, e + 1)
    for (_, _, _, _, _, q), _, level in walk:
        _dyadic_add(slots[level], *_length_bounds(q, guard))
    return _prefix_enclosures(slots)


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


@dataclass(frozen=True)
class MarkovIrrationality:
    """The two endpoint irrationalities at a rational and their Lagrange number.

    ``lagrange`` is sqrt(9*q**2 - 4)/q, always strictly below 3.
    """

    center: Fraction
    minus: QuadraticSurd
    plus: QuadraticSurd
    lagrange: QuadraticSurd


def markov_irrationality(x: Fraction) -> MarkovIrrationality:
    """Endpoint irrationalities mu(x) -+ l(q)/2 of the transport of x."""
    image = mu(x)
    interval = markov_interval(image)
    q = image.value.denominator
    return MarkovIrrationality(
        center=image.value,
        minus=interval.lo,
        plus=interval.hi,
        lagrange=QuadraticSurd(0, 1, q, 9 * q * q - 4),
    )


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
