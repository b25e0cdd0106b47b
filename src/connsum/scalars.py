"""Exact Gaussian-rational arithmetic with a single projective infinity.

Every variable that the rewriting machinery manipulates lives here: values are
a + b*i with a, b rational (stored in lowest terms), plus one unsigned point
at infinity obeying 1/inf = 0 and inv(0) = inf.  All geometric predicates the
transport conditions need (disk membership, Re <= 1/2, |z| = 1, the reciprocal
ball test) are decided exactly in rational arithmetic.

The fields stay ``re``/``im`` as lowest-terms ``Fraction``s plus ``is_inf``,
but the arithmetic runs on integers.  Each finite value holds its primitive
integer form (a, b, d): the value is (a + b*i)/d with d > 0 the lcm of the two
denominators.  ``+``, ``-``, ``*``, ``inv``, ``/``, ``abs_sq`` and ``mobius``
are integer sums and products fed to one constructor, ``_make``, which reduces
each part with one gcd and sets the ``Fraction`` slots without re-normalising
them; a real product or a sum over a shared d costs one product and one gcd.
The disk and identity predicates compare integers (a^2 + b^2 against d^2,
numerators against 0) and build no ``Fraction``.  A loop that only combines
values (the exact oracles in numeric) sums and multiplies the triples
themselves (``_g_add``, ``_g_mul``) and builds one Scalar for its result.

A Scalar is immutable, so what is derived from it (hash, |z|^2, 1/z, the
Mobius image, sort key) is computed on first use and kept on the instance by
_computed_once; equality, the hash, the fields and the printed form see only
re, im and is_inf.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import DomainError, UndefinedArithmetic

RationalLike = Union[int, Fraction, str]


def _computed_once(method):
    """Cache a no-argument method of an immutable value in the instance
    ``__dict__``, which a frozen dataclass leaves writable.  The lookup is a
    dict ``get``, so a value that calls the method once pays one failed
    lookup and one store."""
    slot = "_" + method.__name__.strip("_")

    @functools.wraps(method)
    def cached(self):
        out = self.__dict__.get(slot)
        if out is None:
            out = self.__dict__[slot] = method(self)
        return out
    return cached


_new = object.__new__


def _coprime(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without re-normalising:
    each kernel result has just been reduced by its own gcd."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


_F0 = Fraction(0)


def _frac(x: RationalLike) -> Fraction:
    if type(x) is int:
        return _coprime(x, 1)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, float)):
        raise DomainError(f"{x!r} is not an exact rational")
    return Fraction(x)


def _raw(re: Fraction, im: Fraction, g: tuple[int, int, int]) -> "Scalar":
    """A finite Scalar from lowest-terms parts and their integer form ``g``,
    past ``__init__`` and its coercion."""
    s = _new(Scalar)
    slots = s.__dict__
    slots["re"] = re
    slots["im"] = im
    slots["is_inf"] = False
    slots["_g"] = g
    return s


def _make(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d for ints a, b and d > 0: one gcd reduces each
    part, and a third (of two divisors of d) gives the primitive form."""
    if b:
        g1 = gcd(a, d)
        g2 = gcd(b, d)
        re = _coprime(a // g1, d // g1)
        im = _coprime(b // g2, d // g2)
        g = gcd(g1, g2)
        if g != 1:
            a //= g
            b //= g
            d //= g
    else:
        g = gcd(a, d)
        if g != 1:
            a //= g
            d //= g
        re, im = _coprime(a, d), _F0
    return _raw(re, im, (a, b, d))


# Integer-form kernels for loops that only combine values and convert the
# result once (the exact oracles in numeric): each takes and returns
# primitive triples (a, b, d), gcd(a, b, d) = 1 and d > 0, so two equal
# values have equal triples, and _make turns a triple into a Scalar.

def _primitive(a: int, b: int, d: int) -> tuple[int, int, int]:
    """(a, b, d) for d > 0 divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return a // g, b // g, d // g
    return a, b, d


def _g_add(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return _primitive(a1 + a2, b1 + b2, d1)
    g = gcd(d1, d2)
    e1, e2 = d1 // g, d2 // g
    return _primitive(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1, e1 * d2)


def _g_mul(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if not b1:
        return _primitive(a1 * a2, a1 * b2, d1 * d2)
    if not b2:
        return _primitive(a1 * a2, b1 * a2, d1 * d2)
    return _primitive(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational, or the projective point at infinity.

    The infinite value is the singleton ``INF``; its re/im slots are zero and
    must never be inspected.  0**0 is 1 throughout.

    A finite value also holds its primitive integer form ``_g = (a, b, d)``:
    the value is (a + b*i)/d with d > 0 the lcm of the two denominators, so
    gcd(a, b, d) = 1.  The arithmetic and the predicates work on it.
    """

    re: Fraction = _F0
    im: Fraction = _F0
    is_inf: bool = False

    def __post_init__(self):
        re, im = self.re, self.im
        if type(re) is not Fraction:
            re = _frac(re)
            object.__setattr__(self, "re", re)
        if type(im) is not Fraction:
            im = _frac(im)
            object.__setattr__(self, "im", im)
        if self.is_inf:
            return
        nr, dr = re._numerator, re._denominator
        ni, di = im._numerator, im._denominator
        if dr == di:
            g = (nr, ni, dr)
        elif di == 1:
            g = (nr, ni * dr, dr)
        else:
            d = dr // gcd(dr, di) * di
            g = (nr * (d // dr), ni * (d // di), d)
        object.__setattr__(self, "_g", g)

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "Scalar":
        return Scalar(re, im)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.is_inf and self._g == (0, 0, 1)

    def is_one(self) -> bool:
        return not self.is_inf and self._g == (1, 0, 1)

    def is_real(self) -> bool:
        return not self.is_inf and self._g[1] == 0

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.is_inf or other.is_inf:
            if self.is_inf and other.is_inf:
                raise UndefinedArithmetic("inf + inf")
            return INF
        a1, b1, d1 = self._g
        a2, b2, d2 = other._g
        if d1 == d2:
            return _make(a1 + a2, b1 + b2, d1)
        g = gcd(d1, d2)
        e1, e2 = d1 // g, d2 // g
        return _make(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1, e1 * d2)

    def __neg__(self) -> "Scalar":
        if self.is_inf:
            return INF
        a, b, d = self._g
        re, im = self.re, self.im
        return _raw(_coprime(-re._numerator, re._denominator),
                    _coprime(-im._numerator, im._denominator) if b else _F0, (-a, -b, d))

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.is_inf or other.is_inf:
            if self.is_inf and other.is_inf:
                raise UndefinedArithmetic("inf - inf")
            return INF
        a1, b1, d1 = self._g
        a2, b2, d2 = other._g
        if d1 == d2:
            return _make(a1 - a2, b1 - b2, d1)
        g = gcd(d1, d2)
        e1, e2 = d1 // g, d2 // g
        return _make(a1 * e2 - a2 * e1, b1 * e2 - b2 * e1, e1 * d2)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.is_inf or other.is_inf:
            if self.is_zero() or other.is_zero():
                raise UndefinedArithmetic("0 * inf")
            return INF
        a1, b1, d1 = self._g
        a2, b2, d2 = other._g
        if not b1:
            return _make(a1 * a2, a1 * b2, d1 * d2)
        if not b2:
            return _make(a1 * a2, b1 * a2, d1 * d2)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    @_computed_once
    def inv(self) -> "Scalar":
        if self.is_inf:
            return ZERO
        a, b, d = self._g
        if b:
            return _make(a * d, -b * d, a * a + b * b)
        if a > 0:
            return _raw(_coprime(d, a), _F0, (d, 0, a))
        if a < 0:
            return _raw(_coprime(-d, -a), _F0, (-d, 0, -a))
        return INF

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if self.is_inf and other.is_inf:
            raise UndefinedArithmetic("inf / inf")
        if self.is_zero() and other.is_zero():
            raise UndefinedArithmetic("0 / 0")
        return self * other.inv()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        if self.is_inf:
            if n == 0:
                raise UndefinedArithmetic("inf ** 0")
            return INF
        out = ONE  # 0**0 == 1 by convention
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conj(self) -> "Scalar":
        if self.is_inf:
            return INF
        a, b, d = self._g
        im = self.im
        return _raw(self.re, _coprime(-im._numerator, im._denominator) if b else _F0,
                    (a, -b, d))

    # -- exact geometric predicates -----------------------------------------

    @_computed_once
    def abs_sq(self) -> Fraction:
        """|z|^2 as an exact rational; infinity is rejected."""
        if self.is_inf:
            raise DomainError("abs_sq(inf)")
        a, b, d = self._g
        if not b:
            return _coprime(a * a, d * d)
        n, dd = a * a + b * b, d * d
        g = gcd(n, dd)
        return _coprime(n // g, dd // g)

    def in_closed_disk(self) -> bool:
        if self.is_inf:
            return False
        a, b, d = self._g
        return a * a + b * b <= d * d

    def in_open_disk(self) -> bool:
        if self.is_inf:
            return False
        a, b, d = self._g
        return a * a + b * b < d * d

    def re_leq_half(self) -> bool:
        if self.is_inf:
            raise DomainError("re_leq_half(inf)")
        return 2 * self._g[0] <= self._g[2]

    def re_lt_half(self) -> bool:
        if self.is_inf:
            raise DomainError("re_lt_half(inf)")
        return 2 * self._g[0] < self._g[2]

    def re_eq_half(self) -> bool:
        if self.is_inf:
            raise DomainError("re_eq_half(inf)")
        return 2 * self._g[0] == self._g[2]

    def abs_eq_one(self) -> bool:
        if self.is_inf:
            return False
        a, b, d = self._g
        return a * a + b * b == d * d

    @_computed_once
    def mobius(self) -> "Scalar":
        """z / (z - 1); needs a finite z != 1.  Involutive on its domain."""
        if self.is_inf:
            raise DomainError("mobius(inf)")
        a, b, d = self._g
        c = a - d  # z - 1 = (c + b*i)/d
        if b:
            return _make(a * c + b * b, -b * d, c * c + b * b)
        if c > 0:
            return _raw(_coprime(a, c), _F0, (a, 0, c))
        if c < 0:
            return _raw(_coprime(-a, -c), _F0, (-a, 0, -c))
        raise DomainError("mobius(1)")

    # -- conversions ---------------------------------------------------------

    def __complex__(self) -> complex:
        if self.is_inf:
            raise DomainError("complex(inf)")
        return complex(float(self.re), float(self.im))

    @_computed_once
    def sort_key(self):
        if self.is_inf:
            return (1, 0, 1, 0, 1)
        return (0, self.re.numerator, self.re.denominator, self.im.numerator, self.im.denominator)

    @_computed_once
    def __hash__(self) -> int:
        # the value the dataclass would compute, so set order is unchanged
        return hash((self.re, self.im, self.is_inf))

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    __repr__ = __str__


ZERO = Scalar()
ONE = Scalar(Fraction(1))
MINUS_ONE = Scalar(Fraction(-1))
INF = Scalar(is_inf=True)


def sc(re: RationalLike, im: RationalLike = 0) -> Scalar:
    """Shorthand constructor used pervasively in tests and examples."""
    return Scalar.of(re, im)


def in_reciprocal_ball(vs: Sequence[Scalar], t: Scalar) -> bool:
    """Whether (v_1, ..., v_m) has sum of reciprocals equal to t or >= 1 away.

    Every v_i must be a nonzero point of the closed unit disk or infinity and
    t must be finite with |t| <= 1, else DomainError.
    """
    if t.is_inf or not t.in_closed_disk():
        raise DomainError(f"ball target {t} must be finite with |t| <= 1")
    total = ZERO
    for v in vs:
        if v.is_zero() or (not v.is_inf and not v.in_closed_disk()):
            raise DomainError(f"arrow value {v} outside (closed disk - 0) + inf")
        total = total + v.inv()
    if total == t:
        return True
    return (t - total).abs_sq() >= 1


def reciprocal_sum(vs: Iterable[Scalar]) -> Scalar:
    total = ZERO
    for v in vs:
        total = total + v.inv()
    return total
