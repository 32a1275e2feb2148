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
translate into [0, 1/2] appears in the reduced tree.  ``epsilon`` therefore
descends that tree at the binary digits of its argument, one matrix power
per run of equal digits; the recursion itself stays as its oracle,
``_epsilon_by_midpoints``.
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
    Vertex,
    solve_congruence,
    springborn_mediant,
    _ROOTS,
    _descend,
    _mediant_terms,
    _run_step,
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
#: Integer roots of the two trees, looked up once: a lookup hashes the seeds.
_REDUCED_ROOT, _UNIT_ROOT = _ROOTS[REDUCED_SEEDS], _ROOTS[UNIT_SEEDS]


def _midpoint_terms(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """Unreduced terms of the midpoint formula on the values p1/q1 and p2/q2.

    The formula is taken over the one integer denominator
    2*q1*q2*d, where d = (p1/q1 - p2/q2 + 3)*q1*q2.
    """
    d = p1 * q2 - p2 * q1 + 3 * q1 * q2
    if d == 0:
        raise ValueError("slope recursion step is undefined: values differ by 3")
    return (p1 * q2 + p2 * q1) * d + q2 * q2 - q1 * q1, 2 * q1 * q2 * d


def _midpoint_value(v1: Fraction, v2: Fraction) -> Fraction:
    """Slope recursion step for adjacent dyadic values v1 < v2, reduced once."""
    return Fraction(*_midpoint_terms(v1.numerator, v1.denominator, v2.numerator, v2.denominator))


def _epsilon_by_midpoints(x: DyadicRational | Fraction | int) -> Fraction:
    """epsilon by its definition: one midpoint step per binary digit.

    From the values (0, 1) at 0 and 1, bits n - 1, ..., 1 of m choose the
    lower or upper half, and the last step lands on the fractional part
    itself.  It shares no step with the tree descent of ``epsilon``, which
    it checks in the tests.  Its cost is cubic in n and no budget bounds
    it, so it is meant for short dyadics only.  ``verify`` does not call
    it: its ``slope_transport`` suite takes the same last step, one
    _midpoint_value per dyadic, from the values it has kept for the two
    neighbours, and the tests check that memo against this oracle.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        x = DyadicRational.from_fraction(x)
    m, n = x.m, x.n
    if n == 0:
        return Fraction(m)
    lo, hi = Fraction(0), Fraction(1)
    for i in range(n - 1, 0, -1):
        mid = _midpoint_value(lo, hi)
        if m >> i & 1:
            lo = mid
        else:
            hi = mid
    return (m >> n) + _midpoint_value(lo, hi)


_BITS_TO_TURNS = str.maketrans("01", "LR")


def epsilon(x: DyadicRational | Fraction | int) -> Fraction:
    """Slope of a dyadic rational anywhere on the line.

    For m/2**n in lowest terms, translation splits off the whole part
    m >> n.  Midpoints of adjacent dyadics go to tree mediants of their
    values, so the fractional part goes to the vertex of the [0, 1]-seeded
    tree whose turn word is bits n - 1, ..., 1 of m, read 0 -> L and
    1 -> R.  That vertex is one run-length descent: a matrix power per run
    of equal digits, held to the value budget.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        x = DyadicRational.from_fraction(x)
    m, n = x.m, x.n
    if n == 0:
        return Fraction(m)
    # Each letter at least doubles the denominator, so the slope has more
    # than n bits: refuse a long n before the word is built.
    _check_value_bits(n + 1, "epsilon(x)")
    word = format(m & ((1 << n) - 1), f"0{n}b")[:-1].translate(_BITS_TO_TURNS)
    return (m >> n) + _descend(word, _UNIT_ROOT, "epsilon(x)")


def identity_check(f1: Fraction, f2: Fraction) -> bool:
    """Does the midpoint formula on (f1, f2) equal their tree mediant?

    Both sides are evaluated independently and exactly; requires f1 < f2.
    """
    if not f1 < f2:
        raise ValueError(f"arguments must be ordered: expected {f1} < {f2}")
    return _identity_holds(f1.numerator, f1.denominator, f2.numerator, f2.denominator)


def _identity_holds(p1: int, q1: int, p2: int, q2: int) -> bool:
    """identity_check on the values p1/q1 < p2/q2, given in lowest terms.

    The unreduced terms of the two sides are compared by cross-multiplying,
    so neither side takes a gcd.
    """
    num, den = _midpoint_terms(p1, q1, p2, q2)
    m_num, m_den = _mediant_terms(p1, q1, p2, q2)
    return num * m_den == m_num * den


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
    q = x.denominator
    n, rem = divmod(x.numerator, q)
    if 2 * rem <= q:
        return SlopeNormalization(n, 1, Fraction(rem, q))
    return SlopeNormalization(n + 1, -1, Fraction(q - rem, q))


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

    def bundle_invariants(self) -> BundleInvariants:
        """Invariants of the accepted slope, computed on its reduced form.

        With p/q the reduced slope: rank q, first invariant p, cofactor
        s = (p**2 + 1)/q, second invariant c2 = (q - 1)(s + 1)/2.
        """
        if not self.accepted:
            raise ValueError(f"{self.normalization.original} is not an exceptional slope")
        p, q = self.reduced.numerator, self.reduced.denominator
        s = (p * p + 1) // q
        c2 = (q - 1) * (s + 1) // 2
        return BundleInvariants(rank=q, c1=p, s=s, c2=c2, form=(q, 3 * q - 2 * p, s - 3 * p))


#: Letters of a run that the membership search takes one Vieta step at a
#: time before it searches the rest of the run.  A search probe costs
#: several single steps, so runs this short cost what they did letter by
#: letter: every run of a depth-10 word, and 95% of the runs in the words
#: of the tree fractions below 10**45.
_SINGLE_STEPS = 16


def _run_end(v: Vertex, letter: str, rp: int, rq: int) -> tuple[int, Vertex]:
    """Where the search for rp/rq leaves the run of ``letter`` that it follows at v.

    Returns (j, v_j) for the least j >= 1 at which the vertex v_j is the
    target, has passed the target's denominator, or has the target on the
    other side.  Along a run the vertices move monotonically toward the
    kept neighbour and their denominators grow, so the search goes on past
    v_j exactly for j below that index: the stride doubles from 1 while it
    does (an exponential search), then halves down to the index (a binary
    search), each probe one run step.
    """
    side = -1 if letter == "L" else 1

    def goes_on(w: Vertex) -> bool:
        return w[5] <= rq and side * (rp * w[5] - w[4] * rq) > 0

    taken, stride = 0, 1
    while goes_on(w := _run_step(v, letter, stride)):
        v, taken, stride = w, taken + stride, 2 * stride
    # The search goes on past v and stops at w, stride letters further.
    while stride > 1:
        half = stride // 2
        mid = _run_step(v, letter, half)
        if goes_on(mid):
            v, taken, stride = mid, taken + half, stride - half
        else:
            w, stride = mid, half
    return taken + 1, w


def is_exceptional_slope(x: Fraction) -> SlopeDecision:
    """Decide whether x is a slope of the tree, i.e. a translate of a Markov fraction.

    After normalization into [0, 1/2] the reduced tree is searched by its
    ordering; the search stops, rejecting, as soon as the current vertex
    denominator exceeds the target's.  A run of equal turns takes single
    Vieta steps for its first _SINGLE_STEPS letters and is then searched
    for its end (see _run_end), so a long run costs O(log) matrix powers.
    The input's denominator is held to the value budget.
    """
    _check_value_bits(x.denominator.bit_length(), "the slope x")
    norm = normalize_slope(x)
    rp, rq = norm.reduced.numerator, norm.reduced.denominator
    if rp == 0 or 2 * rp == rq:
        return SlopeDecision(True, norm)
    v = _REDUCED_ROOT
    word: list[str] = []
    last, run = "", 0
    while True:
        p3, q3 = v[4], v[5]
        if p3 == rp and q3 == rq:
            return SlopeDecision(True, norm, witness="".join(word))
        if q3 > rq:
            return SlopeDecision(False, norm, stopped_at_denominator=q3)
        letter = "L" if rp * q3 < p3 * rq else "R"
        run = run + 1 if letter == last else 1
        last = letter
        if run <= _SINGLE_STEPS:
            word.append(letter)
            v = _vieta_child(v, letter)
        else:
            length, v = _run_end(v, letter, rp, rq)
            word.append(letter * length)


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
    """Invariants of the exceptional slope x; see SlopeDecision.bundle_invariants.

    Raises ValueError when x is not an exceptional slope.
    """
    return is_exceptional_slope(x).bundle_invariants()
