"""Farey tree of [0, 1], turn-word addresses, and the question mark function.

A vertex of the Farey tree is addressed by a word over {L, R}: starting at
the root 1/2 (parents 0/1 and 1/1), an L step moves toward smaller values
and an R step toward larger ones.  The empty word addresses the root.

The question mark function is computed by three independent routes that
must agree: the mediant-to-midpoint recursion on the tree, the alternating
binary series over continued fraction quotients, and the binary digits of
the turn word itself.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import cycle
from operator import mul

from .exact import DyadicRational, _Value, _check_value_bits, farey_mediant, to_continued_fraction

__all__ = [
    "FareyNode",
    "TurnWord",
    "check_word",
    "farey_node_at",
    "farey_path_to",
    "question_mark_farey",
    "question_mark_of_word",
    "question_mark_salem",
]

# Finite sequence over {L, R}; plain strings keep addresses printable.
TurnWord = str

_ZERO = Fraction(0)
_ONE = Fraction(1)
_WORD = re.compile(r"[LR]*")


def check_word(word: TurnWord) -> None:
    if not _WORD.fullmatch(word):
        raise ValueError(f"turn word may only contain 'L' and 'R': {word!r}")


class FareyNode(_Value):
    """A Farey tree vertex: its value and the two parents it is the mediant of."""

    __slots__ = ("value", "left_parent", "right_parent")

    def __init__(self, value: Fraction, left_parent: Fraction, right_parent: Fraction) -> None:
        lp, rp = left_parent, right_parent
        if value != farey_mediant(lp, rp):
            raise ValueError("value is not the mediant of the parents")
        if not lp < value < rp:
            raise ValueError("parents must bracket the value")
        det = (rp.numerator * lp.denominator - lp.numerator * rp.denominator)
        if det != 1:
            raise ValueError("parents are not Farey neighbours")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "left_parent", lp)
        object.__setattr__(self, "right_parent", rp)


def farey_node_at(word: TurnWord) -> FareyNode:
    """Vertex of the Farey tree addressed by a turn word ('' is the root 1/2)."""
    check_word(word)
    lp, rp = _ZERO, _ONE
    for ch in word:
        value = farey_mediant(lp, rp)
        if ch == "L":
            rp = value
        else:
            lp = value
    return FareyNode(farey_mediant(lp, rp), lp, rp)


def _turn_runs(p: int, q: int) -> list[int]:
    """Run lengths of the turn word of p/q, for 0 < p < q, alternating from L.

    With p/q = [0; a1, ..., an] the word is L^(a1 - 1) R^a2 L^a3 ..., the
    last run one letter shorter, so the first run may be empty.  The
    quotients come from one Euclidean pass on the two integers.  The word
    spells ?(p/q) in binary, whose denominator 2**(a1 + ... + an - 1) is
    held to the value budget, as in the question mark routes.
    """
    runs = []
    while p:
        runs.append(q // p)
        p, q = q % p, p
    _check_value_bits(sum(runs), "the turn word of x")
    runs[0] -= 1
    runs[-1] -= 1
    return runs


def _spell(runs: list[int]) -> TurnWord:
    """The turn word with the given run lengths, alternating from L."""
    return "".join(map(mul, cycle("LR"), runs))


def farey_path_to(x: Fraction) -> TurnWord:
    """Turn word of the vertex with value x; requires 0 < x < 1.

    The word is spelled from its runs, which one Euclidean pass reads off
    the continued fraction of x (see _turn_runs); its length is held to
    the value budget.
    """
    p, q = x.numerator, x.denominator
    if not 0 < p < q:
        raise ValueError(f"no Farey tree vertex carries {x}; need 0 < x < 1")
    return _spell(_turn_runs(p, q))


def question_mark_farey(x: Fraction) -> DyadicRational:
    """Question mark function via the tree: mediants of parents map to midpoints.

    One letter per step: the Farey parents a1/b1 < a2/b2 stay integer
    pairs, and the image of their mediant is the midpoint m/2**n of the
    image interval, so each step is one cross-multiplied comparison and
    m -> 2*m - 1 or 2*m + 1.  This route does not read the continued
    fraction, which only sets the budget check.
    """
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"question mark is evaluated on [0, 1]; got {x}")
    if p == 0:
        return DyadicRational(0, 0)
    if p == q:
        return DyadicRational(1, 0)
    _check_value_bits(sum(to_continued_fraction(x).quotients), "?(x)")
    a1, b1, a2, b2 = 0, 1, 1, 1
    m, n = 1, 1
    while True:
        a, b = a1 + a2, b1 + b2
        if a == p and b == q:
            return DyadicRational(m, n)
        if p * b < a * q:
            a2, b2, m = a, b, 2 * m - 1
        else:
            a1, b1, m = a, b, 2 * m + 1
        n += 1


def question_mark_salem(x: Fraction) -> DyadicRational:
    """Question mark via the alternating series a0 + 2^(1-a1) - 2^(1-a1-a2) + ...

    The exponents accumulate the continued fraction quotients of
    x = [a0; a1, ..., an].  Over the common denominator 2**(a1 + ... + an)
    the series is one integer, summed by Horner's rule: m -> m*2**a +- 2
    per quotient, with no rational addition and no gcd.
    """
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError(f"question mark is evaluated on [0, 1]; got {x}")
    a0, *quotients = to_continued_fraction(x).quotients
    bits = a0 + sum(quotients)
    _check_value_bits(bits, "?(x)")
    m, term = a0, 2
    for a in quotients:
        m = (m << a) + term
        term = -term
    return DyadicRational(m, bits - a0)


def question_mark_of_word(word: TurnWord) -> DyadicRational:
    """Question mark of the vertex at a turn word, read off as binary digits.

    L contributes digit 0, R digit 1, and a single terminating digit 1
    closes the expansion, so the root '' gives 0.1b = 1/2 and 'L' gives
    0.01b = 1/4.
    """
    check_word(word)
    _check_value_bits(len(word) + 2, "the question mark of the word")
    bits = word.replace("L", "0").replace("R", "1") + "1"
    return DyadicRational(int(bits, 2), len(bits))
