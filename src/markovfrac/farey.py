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
from dataclasses import dataclass
from fractions import Fraction

from .exact import DyadicRational, _check_value_bits, farey_mediant, to_continued_fraction

__all__ = [
    "FareyNode",
    "TurnWord",
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


@dataclass(frozen=True)
class FareyNode:
    """A Farey tree vertex: its value and the two parents it is the mediant of."""

    value: Fraction
    left_parent: Fraction
    right_parent: Fraction

    def __post_init__(self) -> None:
        lp, rp = self.left_parent, self.right_parent
        if self.value != farey_mediant(lp, rp):
            raise ValueError("value is not the mediant of the parents")
        if not lp < self.value < rp:
            raise ValueError("parents must bracket the value")
        det = (rp.numerator * lp.denominator - lp.numerator * rp.denominator)
        if det != 1:
            raise ValueError("parents are not Farey neighbours")


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


def farey_path_to(x: Fraction) -> TurnWord:
    """Turn word of the vertex with value x; requires 0 < x < 1.

    The word is read off the continued fraction x = [0; a1, ..., an] in
    runs: L^(a1 - 1) R^a2 L^a3 ..., with the last run one letter shorter.
    The word spells ?(x) in binary, whose denominator 2**(a1 + ... + an - 1)
    is held to the value budget, as in the question mark routes.
    """
    if not _ZERO < x < _ONE:
        raise ValueError(f"no Farey tree vertex carries {x}; need 0 < x < 1")
    runs = list(to_continued_fraction(x).quotients[1:])
    _check_value_bits(sum(runs), "the turn word of x")
    runs[0] -= 1
    runs[-1] -= 1
    return "".join(("R" if i % 2 else "L") * r for i, r in enumerate(runs))


def question_mark_farey(x: Fraction) -> DyadicRational:
    """Question mark function via the tree: mediants of parents map to midpoints.

    One letter per step: the Farey parents a1/b1 < a2/b2 stay integer
    pairs, and the image of their mediant is the midpoint m/2**n of the
    image interval, so each step is one cross-multiplied comparison and
    m -> 2*m - 1 or 2*m + 1.  This route does not read the continued
    fraction, which only sets the budget check.
    """
    if not _ZERO <= x <= _ONE:
        raise ValueError(f"question mark is evaluated on [0, 1]; got {x}")
    if x == 0:
        return DyadicRational(0, 0)
    if x == 1:
        return DyadicRational(1, 0)
    _check_value_bits(sum(to_continued_fraction(x).quotients), "?(x)")
    p, q = x.numerator, x.denominator
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
    """Question mark via the alternating series 2^(1-a1) - 2^(1-a1-a2) + ...

    The exponents accumulate the continued fraction quotients of x.
    """
    if not _ZERO <= x <= _ONE:
        raise ValueError(f"question mark is evaluated on [0, 1]; got {x}")
    quotients = to_continued_fraction(x).quotients
    _check_value_bits(sum(quotients), "?(x)")
    total = Fraction(quotients[0])
    run = 0
    for i, a in enumerate(quotients[1:]):
        run += a
        term = Fraction(1, 1 << (run - 1))
        total += term if i % 2 == 0 else -term
    return DyadicRational.from_fraction(total)


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
