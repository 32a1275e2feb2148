"""Exceptional slopes: the dyadic slope recursion and the slope tests.

The slope function ``epsilon`` maps dyadic rationals to rationals.  It is
fixed on integers (epsilon(n) = n), odd, periodic up to translation
(epsilon(x + n) = epsilon(x) + n), and on the dyadic midpoint of two
adjacent level-n dyadics with values p1/q1 < p2/q2 it takes the value

    1/2 * (p1/q1 + p2/q2 + (q1**-2 - q2**-2) / (p1/q1 - p2/q2 + 3)).

That midpoint value coincides with the tree mediant
(p1*q1 + p2*q2)/(q1**2 + q2**2); the two formulas are implemented
separately here so the coincidence stays a checkable fact rather than a
definition.  The image of [0, 1] dyadics is exactly the [0, 1]-seeded
mediant tree, and a fraction is an exceptional slope precisely when its
translate into [0, 1/2] appears in the reduced tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import DyadicRational, _check_value_bits
from .farey import TurnWord
from .markov import (
    MarkovFraction,
    REDUCED_SEEDS,
    UNIT_SEEDS,
    solve_congruence,
    springborn_mediant,
    _ROOTS,
    _vieta_child,
)

__all__ = [
    "BundleInvariants",
    "EquivalenceReport",
    "SlopeDecision",
    "SlopeNormalization",
    "bundle_invariants",
    "epsilon",
    "identity_check",
    "is_exceptional_slope",
    "normalize_slope",
    "set_equivalence",
]

_MAX_EQUIVALENCE_DEPTH = 12


def _midpoint_value(v1: Fraction, v2: Fraction) -> Fraction:
    """Slope recursion step for adjacent dyadic values v1 < v2.

    The formula is taken over the one integer denominator
    2*q1*q2*d, where d = (v1 - v2 + 3)*q1*q2, so the step reduces once.
    """
    p1, q1 = v1.numerator, v1.denominator
    p2, q2 = v2.numerator, v2.denominator
    d = p1 * q2 - p2 * q1 + 3 * q1 * q2
    if d == 0:
        raise ValueError("slope recursion step is undefined: values differ by 3")
    return Fraction((p1 * q2 + p2 * q1) * d + q2 * q2 - q1 * q1, 2 * q1 * q2 * d)


def _budgeted_midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    """_midpoint_value of adjacent dyadic values, held to the value budget.

    The values are neighbouring tree vertices, so the step's denominator
    is at least 2*q_lo*q_hi: a step whose inputs' bit lengths already sum
    past the budget is refused before it is taken.
    """
    _check_value_bits(lo.denominator.bit_length() + hi.denominator.bit_length(), "epsilon(x)")
    mid = _midpoint_value(lo, hi)
    _check_value_bits(mid.denominator.bit_length(), "epsilon(x)")
    return mid


def epsilon(x: DyadicRational | Fraction | int) -> Fraction:
    """Slope of a dyadic rational anywhere on the line.

    For m/2**n in lowest terms, translation splits off the whole part
    m >> n.  The fractional part is reached from the values (0, 1) at 0 and
    1 by n midpoint steps: bits n - 1, ..., 1 of m choose the lower or upper
    half, and the last step lands on the fractional part itself.  The
    denominators are held to the value budget digit by digit.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        x = DyadicRational.from_fraction(x)
    m, n = x.m, x.n
    if n == 0:
        return Fraction(m)
    # Each step at least doubles the denominator, so the slope has more
    # than n bits: refuse a long n before the first step.
    _check_value_bits(n + 1, "epsilon(x)")
    lo, hi = Fraction(0), Fraction(1)
    for i in range(n - 1, 0, -1):
        mid = _budgeted_midpoint(lo, hi)
        if m >> i & 1:
            lo = mid
        else:
            hi = mid
    return (m >> n) + _budgeted_midpoint(lo, hi)


def identity_check(f1: Fraction, f2: Fraction) -> bool:
    """Does the midpoint formula on (f1, f2) equal their tree mediant?

    Both sides are evaluated independently and exactly; requires f1 < f2.
    """
    return _midpoint_value(f1, f2) == springborn_mediant(f1, f2)


@dataclass(frozen=True)
class EquivalenceReport:
    """Level-by-level comparison of the slope image with the mediant tree."""

    depth: int
    level_sizes: tuple[int, ...]
    levels_equal: tuple[bool, ...]

    @property
    def equal(self) -> bool:
        return all(self.levels_equal)


def set_equivalence(depth: int) -> EquivalenceReport:
    """Compare slope values of level-n dyadics with the [0, 1]-seeded tree.

    Level n holds the 2**n + 1 dyadics m/2**n; the tree side interleaves
    mediants the same way the dyadic side interleaves midpoints, so equal
    levels mean the image of epsilon is exactly the tree, vertex by vertex.
    """
    if not 0 <= depth <= _MAX_EQUIVALENCE_DEPTH:
        raise ValueError(f"depth must lie in [0, {_MAX_EQUIVALENCE_DEPTH}]")
    eps_level = [Fraction(0), Fraction(1)]
    tree_level = list(UNIT_SEEDS)
    sizes = [len(eps_level)]
    equal = [eps_level == tree_level]
    for _ in range(depth):
        next_eps = []
        next_tree = []
        for i in range(len(eps_level) - 1):
            next_eps += [eps_level[i], _midpoint_value(eps_level[i], eps_level[i + 1])]
            next_tree += [tree_level[i], springborn_mediant(tree_level[i], tree_level[i + 1])]
        next_eps.append(eps_level[-1])
        next_tree.append(tree_level[-1])
        eps_level, tree_level = next_eps, next_tree
        sizes.append(len(eps_level))
        equal.append(eps_level == tree_level)
    return EquivalenceReport(depth, tuple(sizes), tuple(equal))


@dataclass(frozen=True)
class SlopeNormalization:
    """x written as n + sign*r with r in [0, 1/2]."""

    n: int
    sign: int
    reduced: Fraction

    @property
    def original(self) -> Fraction:
        return self.n + self.sign * self.reduced


def normalize_slope(x: Fraction) -> SlopeNormalization:
    """Translate and reflect a rational into the fundamental domain [0, 1/2].

    The representation is unique with the convention sign == +1 whenever
    the fractional part is at most 1/2, so the map is idempotent on
    already-reduced slopes.
    """
    n = x.numerator // x.denominator
    frac = x - n
    if 2 * frac <= 1:
        return SlopeNormalization(n, 1, frac)
    return SlopeNormalization(n + 1, -1, 1 - frac)


@dataclass(frozen=True)
class SlopeDecision:
    """Outcome of the exceptional-slope membership test.

    For accepted slopes ``witness`` is the turn word of the reduced value
    in the tree (None for the seeds 0/1 and 1/2).  For rejected slopes
    ``stopped_at_denominator`` records the vertex denominator that first
    exceeded the target's: denominators grow strictly along branches, so
    no deeper vertex can match.
    """

    accepted: bool
    normalization: SlopeNormalization
    witness: TurnWord | None = None
    stopped_at_denominator: int | None = None

    @property
    def reduced(self) -> Fraction:
        return self.normalization.reduced

    def markov_fraction(self) -> MarkovFraction:
        if not self.accepted:
            raise ValueError(f"{self.normalization.original} is not an exceptional slope")
        word = self.witness
        return MarkovFraction(self.reduced, len(word) if word else 0, word)


def is_exceptional_slope(x: Fraction) -> SlopeDecision:
    """Decide whether x is a slope of the tree, i.e. a translate of a Markov fraction.

    After normalization into [0, 1/2] the reduced tree is searched by its
    ordering; the search stops, rejecting, as soon as the current vertex
    denominator exceeds the target's.
    """
    norm = normalize_slope(x)
    r = norm.reduced
    if r == 0 or 2 * r == 1:
        return SlopeDecision(True, norm)
    rp, rq = r.numerator, r.denominator
    v = _ROOTS[REDUCED_SEEDS]
    letters: list[str] = []
    while True:
        p3, q3 = v[4], v[5]
        if p3 == rp and q3 == rq:
            return SlopeDecision(True, norm, witness="".join(letters))
        if q3 > rq:
            return SlopeDecision(False, norm, stopped_at_denominator=q3)
        letter = "L" if rp * q3 < p3 * rq else "R"
        letters.append(letter)
        v = _vieta_child(v, letter)


@dataclass(frozen=True)
class BundleInvariants:
    """Numerical invariants attached to an exceptional slope p/q in [0, 1/2].

    ``s`` is the cofactor (p**2 + 1)/q; the associated quadratic form
    q*X**2 + (3q - 2p)*X*Y + (s - 3p)*Y**2 has discriminant 9*q**2 - 4.
    """

    rank: int
    c1: int
    s: int
    c2: int
    form: tuple[int, int, int]

    @property
    def form_discriminant(self) -> int:
        a, b, c = self.form
        return b * b - 4 * a * c

    @property
    def form_content(self) -> int:
        # gcd of the coefficients; reported, not asserted to be 1.
        a, b, c = self.form
        return gcd(gcd(abs(a), abs(b)), abs(c))

    def congruence_solutions(self) -> list[int]:
        """All residues solving x**2 + 1 == 0 mod rank; c1 is always one of them."""
        return solve_congruence(self.rank)


def bundle_invariants(x: Fraction) -> BundleInvariants:
    """Invariants of the exceptional slope x, computed on its reduced form.

    Raises ValueError when x is not an exceptional slope.  With p/q the
    reduced slope: rank q, first invariant p, cofactor s = (p**2 + 1)/q,
    second invariant c2 = (q - 1)(s + 1)/2.
    """
    decision = is_exceptional_slope(x)
    if not decision.accepted:
        raise ValueError(f"{x} is not an exceptional slope")
    p, q = decision.reduced.numerator, decision.reduced.denominator
    s = (p * p + 1) // q
    c2 = (q - 1) * (s + 1) // 2
    return BundleInvariants(rank=q, c1=p, s=s, c2=c2, form=(q, 3 * q - 2 * p, s - 3 * p))
