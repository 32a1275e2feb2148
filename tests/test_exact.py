"""Exact number types: fractions, dyadics, continued fractions, quadratic surds.

Surd comparisons and enclosures are cross-checked against sympy, which
decides signs of quadratic irrationalities by independent symbolic means.
"""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from markovfrac import (
    ContinuedFraction,
    DyadicRational,
    QuadraticSurd,
    farey_mediant,
    from_continued_fraction,
    surd_compare,
    surd_enclose,
    to_continued_fraction,
)
from markovfrac import exact
from markovfrac.exact import _decimal_digits

_NONSQUARES = [2, 3, 5, 6, 7, 8, 10, 12, 13, 17, 21, 32, 48, 101, 221, 9996]

surds = st.builds(
    QuadraticSurd,
    a=st.integers(-60, 60),
    b=st.integers(-25, 25),
    c=st.integers(1, 40),
    d=st.sampled_from(_NONSQUARES),
)
small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=50)


def _sympy_value(x: QuadraticSurd):
    return (sympy.Integer(x.a) + sympy.Integer(x.b) * sympy.sqrt(x.d)) / sympy.Integer(x.c)


def _sympy_sign(expr) -> int:
    s = sympy.simplify(expr)
    if s == 0:
        return 0
    return 1 if s > 0 else -1


# -- farey mediant --------------------------------------------------------


def test_farey_mediant_examples():
    assert farey_mediant(F(0, 1), F(1, 1)) == F(1, 2)
    assert farey_mediant(F(1, 2), F(1, 1)) == F(2, 3)
    assert farey_mediant(F(1, 3), F(1, 2)) == F(2, 5)


@given(small_fractions, small_fractions)
def test_farey_mediant_between(f1, f2):
    lo, hi = min(f1, f2), max(f1, f2)
    m = farey_mediant(lo, hi)
    if lo != hi:
        assert lo < m < hi
    else:
        assert m == lo


# -- continued fractions --------------------------------------------------


def test_continued_fraction_examples():
    assert to_continued_fraction(F(2, 5)).quotients == (0, 2, 2)
    assert to_continued_fraction(F(1, 3)).quotients == (0, 3)
    assert from_continued_fraction(ContinuedFraction((0, 2, 2))) == F(2, 5)


def test_continued_fraction_rejects_negative():
    with pytest.raises(ValueError):
        to_continued_fraction(F(-1, 2))


def test_continued_fraction_checks_the_quotients(monkeypatch):
    # Negative control: the quotients go through the constructor's checks,
    # so a pass that ended in a quotient 1 would be refused, not stored.
    monkeypatch.setattr(exact, "_quotients", lambda p, q: [0, 2, 1])
    with pytest.raises(ValueError, match="final quotient"):
        to_continued_fraction(F(2, 5))


def test_quotients_are_the_euclidean_quotients():
    assert exact._quotients(2, 5) == [0, 2, 2]
    assert exact._quotients(5, 2) == [2, 2]
    assert exact._quotients(7, 1) == [7]
    assert exact._quotients(0, 3) == [0]


def test_continued_fraction_rejects_noncanonical():
    with pytest.raises(ValueError):
        ContinuedFraction((0, 2, 1))  # trailing 1 is the ambiguous form
    with pytest.raises(ValueError):
        ContinuedFraction((-1, 2))
    with pytest.raises(ValueError):
        ContinuedFraction(())


@given(st.fractions(min_value=0, max_value=30, max_denominator=500))
def test_continued_fraction_roundtrip(f):
    cf = to_continued_fraction(f)
    assert from_continued_fraction(cf) == f
    # Built by the checking constructor, the result passes its checks.
    assert ContinuedFraction(cf.quotients) == cf
    if len(cf) > 1:
        assert cf.quotients[-1] >= 2


@given(st.lists(st.integers(1, 9), min_size=0, max_size=7), st.integers(0, 9))
def test_continued_fraction_roundtrip_from_quotients(tail, head):
    # build a canonical quotient sequence, then round-trip through the value
    quotients = [head] + tail
    if len(quotients) > 1 and quotients[-1] < 2:
        quotients[-1] += 1
    cf = ContinuedFraction(tuple(quotients))
    assert to_continued_fraction(from_continued_fraction(cf)) == cf


# -- dyadic rationals -----------------------------------------------------


def test_dyadic_canonicalization():
    d = DyadicRational(4, 3)  # 4/8 -> 1/2
    assert (d.m, d.n) == (1, 1)
    assert DyadicRational(6, 0).m == 6  # integers keep their factor of 2
    assert str(DyadicRational(3, 3)) == "3/2^3"
    assert str(DyadicRational(5, 0)) == "5"
    for m in range(-64, 65):
        for n in range(8):
            d = DyadicRational(m, n)
            assert d.value == F(m, 2**n)
            assert d.n == 0 or d.m % 2 == 1
    # exponents far too large to strip one factor of 2 at a time
    for (m, n), want in [((0, 10**20), (0, 0)), ((3 << 100, 10**20), (3, 10**20 - 100)),
                         ((-5 << 7, 3), (-5 << 4, 0))]:
        d = DyadicRational(m, n)
        assert (d.m, d.n) == want


def test_dyadic_from_fraction():
    assert DyadicRational.from_fraction(F(3, 8)) == DyadicRational(3, 3)
    assert DyadicRational.from_fraction(F(7)) == DyadicRational(7, 0)
    with pytest.raises(ValueError):
        DyadicRational.from_fraction(F(1, 3))


def test_dyadic_rejects_negative_exponent():
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


@given(st.integers(-10**6, 10**6), st.integers(0, 40))
def test_dyadic_value_roundtrip(m, n):
    d = DyadicRational(m, n)
    assert DyadicRational.from_fraction(d.value) == d
    assert d.m % 2 == 1 or d.n == 0


# -- quadratic surds ------------------------------------------------------


def test_surd_compare_known_values():
    # (sqrt(221) - 11)/10 = 0.3866... < 2/5
    assert surd_compare(QuadraticSurd(-11, 1, 10, 221), F(2, 5)) == -1
    # 3 - sqrt(5) = 0.7639... > 3/4
    assert surd_compare(QuadraticSurd(3, -1, 1, 5), F(3, 4)) == 1
    assert surd_compare(QuadraticSurd(0, 0, 1, 5), F(0, 1)) == 0


def test_surd_normalization():
    s = QuadraticSurd(2, 2, 2, 8)  # (2 + 2*sqrt(8))/2 = 1 + 2*sqrt(2)
    assert (s.a, s.b, s.c, s.d) == (1, 2, 1, 2)
    t = QuadraticSurd(1, 3, 1, 4)  # perfect square folds into the rational part
    assert t.is_rational and t.as_fraction() == 7
    u = QuadraticSurd(-1, 1, -2, 5)  # sign moves out of the denominator
    assert (u.a, u.b, u.c) == (1, -1, 2)


def test_surd_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 0, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1, -2)
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 1, 2).as_fraction()


def test_surd_arithmetic_same_radicand():
    root5 = QuadraticSurd(0, 1, 1, 5)
    s = QuadraticSurd(3, -1, 2, 5)  # (3 - sqrt(5))/2
    assert s + s == QuadraticSurd(3, -1, 1, 5)
    assert F(3, 2) - s == root5 * F(1, 2)
    assert (s - F(3, 2)) == -(root5 * F(1, 2))
    with pytest.raises(ValueError):
        root5 + QuadraticSurd(0, 1, 1, 2)


def _fields(x: QuadraticSurd) -> tuple[int, int, int, int]:
    return x.a, x.b, x.c, x.d


def _public_sum(x: QuadraticSurd, y) -> tuple[int, int, int, int]:
    """Fields of x + y through the public constructor, which normalizes fully."""
    if not isinstance(y, QuadraticSurd):
        y = QuadraticSurd.from_fraction(F(y))
    return _fields(QuadraticSurd(x.a * y.c + y.a * x.c, x.b * y.c + y.b * x.c,
                                 x.c * y.c, max(x.d, y.d)))


def _public_product(x: QuadraticSurd, f) -> tuple[int, int, int, int]:
    f = F(f)
    return _fields(QuadraticSurd(x.a * f.numerator, x.b * f.numerator, x.c * f.denominator, x.d))


@st.composite
def _surd_pairs(draw):
    """Two surds on one radicand; b may be 0, and 8, 12, 32, 48, 9996 lose a square factor."""
    d = draw(st.sampled_from(_NONSQUARES))
    pair = [QuadraticSurd(draw(st.integers(-60, 60)), draw(st.integers(-25, 25)),
                          draw(st.integers(-40, 40).filter(bool)), d) for _ in range(2)]
    return tuple(pair)


_operands = st.one_of(small_fractions, st.integers(-9, 9))


@settings(max_examples=150, deadline=None)
@given(_surd_pairs(), _operands)
def test_surd_arithmetic_matches_the_public_constructor(pair, f):
    x, y = pair
    cases = [
        (x + y, _public_sum(x, y)),
        (x - y, _public_sum(x, -y)),
        (x + f, _public_sum(x, f)),
        (f + x, _public_sum(x, f)),
        (x - f, _public_sum(x, -f)),
        (f - x, _public_sum(-x, f)),
        (-x, _fields(QuadraticSurd(-x.a, -x.b, x.c, x.d))),
        (x * f, _public_product(x, f)),
        (f * x, _public_product(x, f)),
    ]
    for got, expected in cases:
        assert type(got) is QuadraticSurd
        assert _fields(got) == expected


def test_surd_arithmetic_edge_cases_match_the_public_constructor():
    s = QuadraticSurd(3, -1, 2, 5)
    assert _fields(s - s) == (0, 0, 1, 0)  # b cancels, so d goes to 0
    assert _fields(s + (-s)) == (0, 0, 1, 0)
    assert _fields(s * 0) == _fields(s * F(0)) == (0, 0, 1, 0)
    assert _fields(s * F(-4, 3)) == _public_product(s, F(-4, 3)) == (-6, 2, 3, 5)
    rational = QuadraticSurd(6, 0, 4, 0)
    assert _fields(rational + F(1, 6)) == _public_sum(rational, F(1, 6)) == (5, 0, 3, 0)
    assert _fields(rational + s) == _public_sum(rational, s) == (6, -1, 2, 5)
    assert _fields(s + rational) == (6, -1, 2, 5)
    # sqrt(48) = 4*sqrt(3): the square factor is pulled out once, by the public constructor.
    t = QuadraticSurd(1, 1, 2, 48)
    assert _fields(t) == (1, 4, 2, 3)
    assert _fields(t * F(1, 2)) == _public_product(t, F(1, 2)) == (1, 4, 4, 3)
    assert _fields(t + t) == _public_sum(t, t) == (1, 4, 1, 3)
    assert _fields(F(1, 2) - t) == _public_sum(-t, F(1, 2)) == (0, -2, 1, 3)
    # The private constructor also moves a sign out of the denominator.
    assert _fields(QuadraticSurd._from_canonical_radicand(2, -4, -6, 5)) == (-1, 2, 3, 5)


@settings(max_examples=60, deadline=None)
@given(surds, small_fractions)
def test_surd_vs_fraction_matches_sympy(x, f):
    expected = _sympy_sign(_sympy_value(x) - sympy.Rational(f.numerator, f.denominator))
    assert surd_compare(x, f) == expected


@settings(max_examples=60, deadline=None)
@given(surds, surds)
def test_surd_vs_surd_matches_sympy(x, y):
    expected = _sympy_sign(_sympy_value(x) - _sympy_value(y))
    assert surd_compare(x, y) == expected


@settings(max_examples=40)
@given(surds, surds, surds)
def test_surd_order_transitive(x, y, z):
    if surd_compare(x, y) <= 0 and surd_compare(y, z) <= 0:
        assert surd_compare(x, z) <= 0


def test_surd_enclose_examples():
    x = QuadraticSurd(3, -1, 1, 5)
    lo, hi = surd_enclose(x, 3)
    assert hi - lo < F(1, 10**3)
    assert lo <= F(7639320225, 10**10) <= hi  # 3 - sqrt(5) = 0.7639320225...

    rational = QuadraticSurd(1, 0, 1, 2)
    assert surd_enclose(rational, 5) == (F(1), F(1))

    y = QuadraticSurd(-11, 1, 10, 221)
    lo, hi = surd_enclose(y, 6)
    assert hi - lo < F(1, 10**6)
    assert lo <= F(3866068747, 10**10) <= hi  # 0.3866068747...


def test_surd_enclose_with_a_coefficient_past_the_str_limit():
    # b has 5001 digits, past the interpreter's 4300-digit int-to-str limit.
    b = 10 ** 5000 + 1
    x = QuadraticSurd(0, b, 1, 2)
    scale = 10 ** (5 + 5001 + 1)
    t = math.isqrt(2 * scale * scale)
    assert surd_enclose(x, 5) == (F(b * t, scale), F(b * (t + 1), scale))
    lo, hi = surd_enclose(x, 5)
    assert lo <= x <= hi and hi - lo < F(1, 10 ** 5)
    assert float(QuadraticSurd(0, b, 10 ** 5000, 2)) == math.sqrt(2)
    with pytest.raises(OverflowError):  # about 1.4e5000 has no float
        float(x)


@settings(max_examples=200)
@given(st.one_of(st.integers(1, 10 ** 4000),
                 st.tuples(st.integers(1, 4000), st.integers(-1, 1)).map(lambda t: 10 ** t[0] + t[1])))
def test_decimal_digits_matches_str(n):
    assert _decimal_digits(n) == len(str(n))


def test_decimal_digits_on_sampled_bit_lengths():
    rng = random.Random(16)
    for bits in list(range(1, 200)) + [rng.randrange(200, 14_000) for _ in range(300)]:
        for n in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
            assert _decimal_digits(n) == len(str(n))
    for n in (10 ** 5000 - 1, 10 ** 5000, 10 ** 20000 + 1):
        digits = _decimal_digits(n)
        assert 10 ** (digits - 1) <= n < 10 ** digits


def test_surd_enclose_rejects_zero_precision():
    with pytest.raises(ValueError):
        surd_enclose(QuadraticSurd(0, 1, 1, 2), 0)


@settings(max_examples=60)
@given(surds, st.integers(1, 10))
def test_surd_enclose_contains_and_shrinks(x, precision):
    lo, hi = surd_enclose(x, precision)
    assert hi - lo < F(1, 10**precision)
    assert surd_compare(x, lo) >= 0
    assert surd_compare(x, hi) <= 0
    lo2, hi2 = surd_enclose(x, precision + 3)
    assert lo <= lo2 and hi2 <= hi  # nested as precision grows


@settings(max_examples=40, deadline=None)
@given(surds, st.integers(1, 8))
def test_surd_enclose_matches_sympy(x, precision):
    lo, hi = surd_enclose(x, precision)
    v = _sympy_value(x)
    assert _sympy_sign(v - sympy.Rational(lo.numerator, lo.denominator)) >= 0
    assert _sympy_sign(sympy.Rational(hi.numerator, hi.denominator) - v) >= 0


@settings(max_examples=60)
@given(surds)
def test_surd_canonical_invariants(x):
    import math

    assert x.c > 0
    assert math.gcd(math.gcd(abs(x.a), abs(x.b)), x.c) == 1
    assert (x.b == 0) == (x.d == 0)
