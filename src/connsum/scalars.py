"""Exact Gaussian-rational arithmetic with a single projective infinity.

Every variable that the rewriting machinery manipulates lives here: values are
a + b*i with a, b rational (stored in lowest terms), plus one unsigned point
at infinity obeying 1/inf = 0 and inv(0) = inf.  All geometric predicates the
transport conditions need (disk membership, Re <= 1/2, |z| = 1, the reciprocal
ball test) are decided exactly in rational arithmetic.

A Scalar is immutable, so what is derived from it (hash, |z|^2, 1/z, the
Mobius image, sort key) is computed on first use and kept on the instance by
_computed_once; equality, the fields and the printed form see only re, im
and is_inf.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
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


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational, or the projective point at infinity.

    The infinite value is the singleton ``INF``; its re/im slots are zero and
    must never be inspected.  0**0 is 1 throughout.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)
    is_inf: bool = False

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "Scalar":
        return Scalar(_frac(re), _frac(im))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.is_inf and self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return not self.is_inf and self.re == 1 and self.im == 0

    def is_real(self) -> bool:
        return not self.is_inf and self.im == 0

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.is_inf and other.is_inf:
            raise UndefinedArithmetic("inf + inf")
        if self.is_inf or other.is_inf:
            return INF
        return Scalar(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "Scalar":
        if self.is_inf:
            return INF
        return Scalar(-self.re, -self.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.is_inf or other.is_inf:
            if self.is_zero() or other.is_zero():
                raise UndefinedArithmetic("0 * inf")
            return INF
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    @_computed_once
    def inv(self) -> "Scalar":
        if self.is_inf:
            return ZERO
        if self.is_zero():
            return INF
        d = self.abs_sq()
        return Scalar(self.re / d, -self.im / d)

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
        return Scalar(self.re, -self.im)

    # -- exact geometric predicates -----------------------------------------

    @_computed_once
    def abs_sq(self) -> Fraction:
        """|z|^2 as an exact rational; infinity is rejected."""
        if self.is_inf:
            raise DomainError("abs_sq(inf)")
        return self.re * self.re + self.im * self.im

    def in_closed_disk(self) -> bool:
        return not self.is_inf and self.abs_sq() <= 1

    def in_open_disk(self) -> bool:
        return not self.is_inf and self.abs_sq() < 1

    def re_leq_half(self) -> bool:
        if self.is_inf:
            raise DomainError("re_leq_half(inf)")
        return self.re <= Fraction(1, 2)

    def re_lt_half(self) -> bool:
        if self.is_inf:
            raise DomainError("re_lt_half(inf)")
        return self.re < Fraction(1, 2)

    def re_eq_half(self) -> bool:
        if self.is_inf:
            raise DomainError("re_eq_half(inf)")
        return self.re == Fraction(1, 2)

    def abs_eq_one(self) -> bool:
        return not self.is_inf and self.abs_sq() == 1

    @_computed_once
    def mobius(self) -> "Scalar":
        """z / (z - 1); needs a finite z != 1.  Involutive on its domain."""
        if self.is_inf:
            raise DomainError("mobius(inf)")
        if self.is_one():
            raise DomainError("mobius(1)")
        return self / (self - ONE)

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
