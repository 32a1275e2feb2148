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
from math import exp, isqrt, log, log1p
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


# -- best approximation constant ---------------------------------------------


def approx_constant_detail(f: Fraction) -> tuple[Fraction, Fraction]:
    """The constant inf b**2 * |f - a/b| over rationals a/b != f, with a witness.

    For each b the minimum of |p*b - a*q| over integers a is computed
    directly, and every value for denominator b is at least b/q, so the
    scan stops once b/q exceeds the best value found.  Returns the
    constant and the first rational attaining it (smallest b, then the
    lower of the two nearest candidates).
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


def fractions_strictly_inside(
    lo: QuadraticSurd,
    hi: QuadraticSurd,
    denominator_bound: int,
    exclude: Fraction | None = None,
) -> list[Fraction]:
    """Markov fractions (any integer translate n +- r) strictly between lo and hi.

    The full fraction set on the line is scanned, not just the reduced
    tree: every value n + r and n - r with r in the reduced set and n an
    integer near the interval is tested by exact surd comparison.
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
    """
    d = 9 * q * q - 4
    root = isqrt(d << (2 * guard_bits))
    base = 3 * q << guard_bits
    m_lo = q * (base + root)       # scaled denominator, in units of 2**-guard_bits
    m_hi = q * (base + root + 1)
    e = m_hi.bit_length() + guard_bits
    numerator = 1 << (e + guard_bits + 2)
    return numerator // m_hi, -((-numerator) // m_lo), e


def _guard_bits(precision: int) -> int:
    if precision < 1:
        raise ValueError("precision must be a positive digit count")
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

    The points must increase strictly.  One walk serves them all: each
    jump's bounds go to the first point at or right of it (half to that
    point and half to the next where the two coincide), and the points
    take prefix sums.  Every bound is an exact dyadic sum, the enclosure
    width is below 10**-precision, and no table of jumps is kept.
    """
    for x in xs:
        if not 0 <= x <= 1:
            raise ValueError(f"saltus is evaluated on [0, 1]; got {x}")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("saltus sample points must increase strictly")
    guard = _guard_bits(precision)
    slots = [[0, 0, 0] for _ in xs]

    def add(i: int, lo: int, hi: int, e: int) -> None:
        if i < len(slots):
            _dyadic_add(slots[i], lo, hi, e)

    # The seeds add l(1)/2 at every x > 0 and l(2)/2 at x = 1 only.
    lo, hi, e = _length_bounds(1, guard)
    add(bisect_right(xs, 0), lo, hi, e + 1)
    lo, hi, e = _length_bounds(2, guard)
    add(bisect_left(xs, 1), lo, hi, e + 1)
    for (_, _, _, _, _, q), (a1, b1, a2, b2), _ in tree_walk(depth):
        position = Fraction(a1 + a2, b1 + b2)
        i = bisect_left(xs, position)
        if i == len(slots):
            continue
        lo, hi, e = _length_bounds(q, guard)
        if xs[i] == position:
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
