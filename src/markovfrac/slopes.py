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
``_epsilon_by_midpoints``.  ``set_equivalence`` checks the image level by
level, one midpoint step per vertex of the streamed [0, 1] tree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import DyadicRational, _Value, _check_value_bits, _coprime_fraction
from .farey import TurnWord
from .markov import (
    MarkovFraction,
    UNIT_SEEDS,
    Vertex,
    enumerate_tree,
    solve_congruence,
    _REDUCED_ROOT,
    _UNIT_ROOT,
    _check_scan_depth,
    _descend,
    _mediant_terms,
    _run_step,
    _vieta_child,
    _word_runs,
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
    v = _descend(_word_runs(word), _UNIT_ROOT, "epsilon(x)")
    # The translate (p + s*q)/q of the vertex p/q is in lowest terms as p/q is.
    return _coprime_fraction((m >> n) * v[5] + v[4], v[5])


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


class EquivalenceReport(_Value):
    """Level-by-level comparison of the slope image with the mediant tree."""

    __slots__ = ("depth", "level_sizes", "levels_equal")

    @property
    def equal(self) -> bool:
        return all(self.levels_equal)


def set_equivalence(depth: int) -> EquivalenceReport:
    """Compare slope values of level-n dyadics with the [0, 1]-seeded tree.

    Level n holds the 2**n + 1 dyadics m/2**n.  It adds the midpoints, and
    the tree the mediants, of the neighbour pairs of level n - 1: those of
    the tree vertices whose words have n - 1 letters.  So, by induction,
    level n is equal iff level n - 1 is and the midpoint formula gives the
    mediant on those pairs, and an unequal level makes every later one
    unequal.  Equal levels mean the image of epsilon is exactly the tree.
    One pass over enumerate_tree(depth - 1, UNIT_SEEDS) decides them all,
    holding one path; the depth is held to the vertex budget of the scans.
    """
    _check_scan_depth(depth)
    first_unequal = depth + 1
    for word, t in enumerate_tree(depth - 1, UNIT_SEEDS) if depth else ():
        level = len(word) + 1
        if level < first_unequal and _midpoint_value(t.f1, t.f2) != t.f3:
            first_unequal = level
    return EquivalenceReport(depth, tuple((1 << n) + 1 for n in range(depth + 1)),
                             tuple(n < first_unequal for n in range(depth + 1)))


class SlopeNormalization(_Value):
    """x written as n + sign*r with r in [0, 1/2]."""

    __slots__ = ("n", "sign", "reduced")

    @property
    def original(self) -> Fraction:
        return self.n + self.sign * self.reduced


def normalize_slope(x: Fraction) -> SlopeNormalization:
    """Translate and reflect a rational into the fundamental domain [0, 1/2].

    The representation is unique with the convention sign == +1 whenever
    the fractional part is at most 1/2, so the map is idempotent on
    already-reduced slopes.  The remainder rem of the numerator modulo q,
    and q - rem, are coprime to q as the numerator is, so both fractions
    are built without a gcd.
    """
    q = x.denominator
    n, rem = divmod(x.numerator, q)
    if 2 * rem <= q:
        return SlopeNormalization(n, 1, _coprime_fraction(rem, q))
    return SlopeNormalization(n + 1, -1, _coprime_fraction(q - rem, q))


class SlopeDecision(_Value):
    """Outcome of the exceptional-slope membership test.

    For accepted slopes ``witness`` is the turn word of the reduced value
    in the tree (None for the seeds 0/1 and 1/2).  For rejected slopes
    ``stopped_at_denominator`` records the vertex denominator that first
    exceeded the target's: denominators grow strictly along branches, so
    no deeper vertex can match.
    """

    __slots__ = ("accepted", "normalization", "witness", "stopped_at_denominator")

    def __init__(self, accepted: bool, normalization: SlopeNormalization,
                 witness: TurnWord | None = None,
                 stopped_at_denominator: int | None = None) -> None:
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "normalization", normalization)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "stopped_at_denominator", stopped_at_denominator)

    @property
    def reduced(self) -> Fraction:
        return self.normalization.reduced

    def markov_fraction(self) -> MarkovFraction:
        if not self.accepted:
            raise ValueError(f"{self.normalization.original} is not an exceptional slope")
        return MarkovFraction._of_vertex(self.reduced, self.witness)

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
        return BundleInvariants(q, p, s, c2, (q, 3 * q - 2 * p, s - 3 * p))


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


class BundleInvariants(_Value):
    """Numerical invariants attached to an exceptional slope p/q in [0, 1/2].

    ``s`` is the cofactor (p**2 + 1)/q; the associated quadratic form
    q*X**2 + (3q - 2p)*X*Y + (s - 3p)*Y**2 has discriminant 9*q**2 - 4.
    """

    __slots__ = ("rank", "c1", "s", "c2", "form")

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
