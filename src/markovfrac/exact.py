"""Exact arithmetic primitives shared by every other module.

Rationals are stdlib :class:`fractions.Fraction` values, which are always
reduced and carry a positive denominator.  On top of those this module adds
the Farey mediant, dyadic rationals, canonical continued fractions, and
quadratic surds ``(a + b*sqrt(d))/c``.  Every ordering decision on surds is
made by sign analysis of integer expressions, never through floating point,
so comparisons stay correct no matter how close two values are.

Values that are canonical by construction skip re-normalization.  A tree
vertex is reduced because the relations checked at its root carry to every
vertex below, so :func:`_coprime_fraction` builds it without the gcd of
``Fraction(p, q)``, which is quadratic in the operand size and the largest
cost of a deep descent.  A sum or multiple of canonical surds keeps their
radicand, so :meth:`QuadraticSurd._from_canonical_radicand` skips the
integer square root and the trial square divisions of the public
constructor.  Outside input always goes through the public constructors.

All types are immutable; functions are pure and safe to call concurrently.
The value types of every module derive from :class:`_Value`, a slotted
immutable record that compares, hashes, prints and pickles by its fields.
Defining one imports nothing and generates no code, which keeps the
package's start-up short.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter

__all__ = [
    "ContinuedFraction",
    "DyadicRational",
    "Fraction",
    "MAX_VALUE_BITS",
    "QuadraticSurd",
    "farey_mediant",
    "from_continued_fraction",
    "surd_compare",
    "surd_enclose",
    "to_continued_fraction",
]


#: Bit budget of the point queries.  mu/descend_value, epsilon and the three
#: question mark routes raise ValueError rather than build a value whose
#: denominator has more bits than this; farey_path_to holds turn words to
#: the same number of letters.  2**18 bits admit mu(1/100000), whose
#: denominator has 138,848 bits.
MAX_VALUE_BITS = 1 << 18


def _check_value_bits(bits: int, what: str) -> None:
    """Raise ValueError when a denominator of the given bit length is over budget."""
    if bits > MAX_VALUE_BITS:
        raise ValueError(f"{what} exceeds the {MAX_VALUE_BITS}-bit value budget")


def _coprime_fraction(p: int, q: int) -> Fraction:
    """p/q as a Fraction, without the gcd that Fraction(p, q) takes.

    Precondition: gcd(p, q) == 1 and q > 0.  Nothing is checked, and a pair
    that breaks it makes a Fraction that compares and hashes wrongly.  The
    two slots are set as ``Fraction._from_coprime_ints`` sets them on
    Python 3.12 and later; that method is private and absent before 3.12.
    """
    f = object.__new__(Fraction)
    f._numerator = p
    f._denominator = q
    return f


def _restore(cls: type, values: tuple) -> "_Value":
    """Unpickle a _Value: store its fields as pickled, without the constructor's checks."""
    x = object.__new__(cls)
    _Value.__init__(x, *values)
    return x


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The fields of cls in slot order, from positional and keyword arguments.

    Raises TypeError for a surplus positional argument, an unknown field,
    a field given twice and a missing field.
    """
    names, name = cls.__slots__, cls.__qualname__
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} fields but {len(args)} were given")
    for field in kwargs:
        if field not in names:
            raise TypeError(f"{name}() got an unexpected field {field!r}")
        if names.index(field) < len(args):
            raise TypeError(f"{name}() got multiple values for field {field!r}")
    missing = [field for field in names[len(args):] if field not in kwargs]
    if missing:
        raise TypeError(f"{name}() is missing fields: {', '.join(missing)}")
    return args + tuple(kwargs[field] for field in names[len(args):])


class _Value:
    """Base of the value types: an immutable record of the fields in ``__slots__``.

    A subclass lists its fields in ``__slots__`` in constructor order.  One
    with no invariant to check and no default defines no constructor: this
    ``__init__`` takes the fields positionally or by name and stores them
    as given.  A subclass that checks, normalizes or defaults its fields
    defines its own ``__init__``, which takes them in the same order and
    stores them with ``object.__setattr__``.  Instances compare equal when
    they have the same class and equal fields, and hash, print as
    ``Name(field=value, ...)`` and pickle by those fields.  ``_key`` gets
    the compared fields; a subclass that compares on fewer sets its own.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _restore, (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def _replace(self, **changes: object) -> "_Value":
        """A copy with the given fields changed, built and checked by the constructor."""
        return type(self)(**({name: getattr(self, name) for name in self.__slots__} | changes))


def farey_mediant(f1: Fraction, f2: Fraction) -> Fraction:
    """Mediant (p1 + p2)/(q1 + q2); for Farey neighbours it lands strictly between them."""
    return Fraction(f1.numerator + f2.numerator, f1.denominator + f2.denominator)


class ContinuedFraction(_Value):
    """Finite continued fraction [a0; a1, ..., ak].

    Canonical form: a0 >= 0, every later quotient >= 1, and the last
    quotient >= 2 whenever there is more than one.  That makes the
    representation of each nonnegative rational unique.
    """

    __slots__ = ("quotients",)

    def __init__(self, quotients: tuple[int, ...]) -> None:
        q = quotients
        if not q:
            raise ValueError("empty quotient sequence")
        if q[0] < 0:
            raise ValueError("leading quotient must be nonnegative")
        if any(a < 1 for a in q[1:]):
            raise ValueError("partial quotients after the first must be >= 1")
        if len(q) > 1 and q[-1] < 2:
            raise ValueError("canonical form requires the final quotient >= 2")
        object.__setattr__(self, "quotients", quotients)

    def __iter__(self):
        return iter(self.quotients)

    def __len__(self) -> int:
        return len(self.quotients)


def to_continued_fraction(f: Fraction) -> ContinuedFraction:
    """Canonical continued fraction of a nonnegative rational.

    The Euclidean algorithm emits a0 >= 0, later quotients >= 1 and never a
    trailing quotient of 1 (a trailing 1 would have been absorbed into the
    previous step), so its quotients are canonical as they come and the
    result is stored without the constructor's checks.
    """
    p, q = f.numerator, f.denominator
    if p < 0:
        raise ValueError("continued fractions are only produced for f >= 0")
    quotients = []
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    cf = object.__new__(ContinuedFraction)
    object.__setattr__(cf, "quotients", tuple(quotients))
    return cf


def from_continued_fraction(cf: ContinuedFraction) -> Fraction:
    """Value of a continued fraction; inverse of :func:`to_continued_fraction`."""
    quotients = cf.quotients
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        value = a + 1 / value
    return value


class DyadicRational(_Value):
    """m / 2**n in lowest terms: m odd unless n == 0."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        # Strip the common factors of 2 in one shift: n may be far too
        # large to loop over (0/2^n has no factor to stop at).
        k = min(n, (m & -m).bit_length() - 1) if m else n
        object.__setattr__(self, "m", m >> k)
        object.__setattr__(self, "n", n - k)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "DyadicRational":
        den = f.denominator
        n = den.bit_length() - 1
        if 1 << n != den:
            raise ValueError(f"{f} is not a dyadic rational")
        return cls(f.numerator, n)

    @property
    def value(self) -> Fraction:
        # m is odd or n == 0, so m/2**n is already in lowest terms.
        return _coprime_fraction(self.m, 1 << self.n)

    def __str__(self) -> str:
        return str(self.m) if self.n == 0 else f"{self.m}/2^{self.n}"


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_pair(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integer a, b and d >= 0."""
    if d == 0 or b == 0:
        return _sgn(a)
    if a >= 0 and b >= 0:
        return _sgn(a + b)
    if a <= 0 and b <= 0:
        return -_sgn(-a - b)
    # Opposite signs: squaring decides.
    t = a * a - b * b * d
    return _sgn(t) if a > 0 else -_sgn(t)


def _sign_two_radicals(a: int, b: int, d1: int, c: int, d2: int) -> int:
    """Sign of s = a + b*sqrt(d1) + c*sqrt(d2) for d1, d2 >= 0.

    Uses the conjugate s' = a + b*sqrt(d1) - c*sqrt(d2): the signs of
    s + s' and s*s' (both of the form E + F*sqrt(d1)) determine sign(s).
    """
    if d1 == d2:
        return _sign_pair(a, b + c, d1)
    if b == 0 or d1 == 0:
        return _sign_pair(a, c, d2)
    if c == 0 or d2 == 0:
        return _sign_pair(a, b, d1)
    half_sum = _sign_pair(a, b, d1)
    product = _sign_pair(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    if product > 0:
        return half_sum
    if product < 0:
        # s and s' straddle zero, and |s - s'| > |s + s'|, so the
        # c*sqrt(d2) term dominates.
        return _sgn(c)
    # s*s' == 0: either s' == 0 (then s = s + s') or s == 0 exactly.
    if half_sum == 0:
        return _sgn(c)
    return 0 if half_sum == -_sgn(c) else half_sum


# Primes used to pull small square factors out of the radicand.  Full
# squarefree reduction would require factoring radicands that reach
# thousands of digits in deep tree computations, so extraction is a
# normalization convenience only; comparison never relies on it.
_SQUARE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                  47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class QuadraticSurd(_Value):
    """Exact value (a + b*sqrt(d))/c.

    Canonical form: c > 0, gcd(a, b, c) == 1, and d == 0 exactly when the
    value is rational (b == 0).  Perfect-square radicands are folded into
    the rational part; square factors below 100**2 are pulled into b.
    Surds compare by value, also with Fraction and int, so they are not
    hashable.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if c == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if b != 0:
            r = isqrt(d)
            if r * r == d:
                a += b * r
                b = 0
            else:
                for p in _SQUARE_PRIMES:
                    pp = p * p
                    if pp > d:
                        break
                    while d % pp == 0:
                        d //= pp
                        b *= p
        self._set_canonical(a, b, c, d)

    def _set_canonical(self, a: int, b: int, c: int, d: int) -> None:
        """Store (a + b*sqrt(d))/c with c > 0, d = 0 when b == 0, and gcd(a, b, c) divided out."""
        if c < 0:
            a, b, c = -a, -b, -c
        if b == 0:
            d = 0
        g = gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _from_canonical_radicand(cls, a: int, b: int, c: int, d: int) -> "QuadraticSurd":
        """(a + b*sqrt(d))/c whose radicand is already canonical.

        Precondition: c != 0 and, when b != 0, d is the radicand of a
        canonical irrational surd: positive, not a square, and free of the
        square factors the public constructor pulls out.  Sums and rational
        multiples of canonical surds keep such a radicand, so this skips the
        radicand's square root and square-factor scan and only stores the
        surd as _set_canonical does.
        """
        x = object.__new__(cls)
        x._set_canonical(a, b, c, d)
        return x

    @classmethod
    def from_fraction(cls, f: Fraction) -> "QuadraticSurd":
        return cls(f.numerator, 0, f.denominator, 0)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a, self.c)

    # -- comparison ------------------------------------------------------

    def compare(self, other: "QuadraticSurd | Fraction | int") -> int:
        """-1, 0 or 1 as self <, ==, > other.  Exact: integer sign analysis only."""
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return _sign_pair(
                self.a * other.denominator - other.numerator * self.c,
                self.b * other.denominator,
                self.d,
            )
        if not isinstance(other, QuadraticSurd):
            raise TypeError(f"cannot compare QuadraticSurd with {type(other).__name__}")
        return _sign_two_radicals(
            self.a * other.c - other.a * self.c,
            self.b * other.c,
            self.d,
            -other.b * self.c,
            other.d,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (QuadraticSurd, Fraction, int)):
            return self.compare(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- arithmetic ------------------------------------------------------
    # Only closed operations are provided: sums of surds with distinct
    # radicands have no exact representation here and raise.

    def _components(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self.d
        if isinstance(other, QuadraticSurd):
            if other.b == 0:
                return other.a, 0, other.c, self.d
            if self.b == 0:
                return other.a, other.b, other.c, other.d
            if other.d != self.d:
                raise ValueError("cannot add surds with different radicands exactly")
            return other.a, other.b, other.c, self.d
        return None

    def __add__(self, other):
        parts = self._components(other)
        if parts is None:
            return NotImplemented
        a2, b2, c2, d = parts
        return QuadraticSurd._from_canonical_radicand(self.a * c2 + a2 * self.c,
                                                      self.b * c2 + b2 * self.c,
                                                      self.c * c2, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._from_canonical_radicand(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        result = self.__add__(-other if isinstance(other, (QuadraticSurd, Fraction, int)) else other)
        return result

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if not isinstance(other, Fraction):
            return NotImplemented
        return QuadraticSurd._from_canonical_radicand(self.a * other.numerator,
                                                      self.b * other.numerator,
                                                      self.c * other.denominator, self.d)

    __rmul__ = __mul__

    def __float__(self) -> float:
        lo, hi = surd_enclose(self, 30)
        return float((lo + hi) / 2)

    def __str__(self) -> str:
        if self.b == 0:
            return str(Fraction(self.a, self.c))
        sign = "+" if self.b > 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}*sqrt({self.d}))/{self.c}"

    __repr__ = __str__


def surd_compare(x: QuadraticSurd, y: "QuadraticSurd | Fraction | int") -> int:
    """Exact three-way comparison: -1, 0, or 1 as x <, ==, > y."""
    return x.compare(y)


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of n > 0, counted without str(n).

    With 2**(k-1) <= n < 2**k, floor((k - 1)*log10(2)) + 1 digits is a
    lower bound on the count, and the rational below lies just under
    log10(2), so the estimate never overshoots.  The loop adds the digits
    it is short by: one comparison with a power of ten, or two when the
    estimate is one short.
    """
    digits = (n.bit_length() - 1) * 3010299956639811952 // 10 ** 19 + 1
    while n >= 10 ** digits:
        digits += 1
    return digits


def surd_enclose(x: QuadraticSurd, precision: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo <= x <= hi with hi - lo < 10**-precision.

    Bounds come from the integer square root of the scaled radicand, so
    they are guaranteed, and for a fixed surd they are nested as the
    precision grows.  Rational surds are returned exactly.
    """
    if precision < 1:
        raise ValueError("precision must be a positive digit count")
    if x.b == 0:
        v = Fraction(x.a, x.c)
        return v, v
    k = precision + _decimal_digits(abs(x.b)) + 1
    scale = 10 ** k
    t = isqrt(x.d * scale * scale)
    if x.b > 0:
        lo_num, hi_num = x.a * scale + x.b * t, x.a * scale + x.b * (t + 1)
    else:
        lo_num, hi_num = x.a * scale + x.b * (t + 1), x.a * scale + x.b * t
    return Fraction(lo_num, x.c * scale), Fraction(hi_num, x.c * scale)
