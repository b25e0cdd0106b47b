"""Exact Gaussian-rational arithmetic with a single projective infinity.

Every variable that the rewriting machinery manipulates lives here: values are
a + b*i with a, b rational, plus one unsigned point at infinity obeying
1/inf = 0 and inv(0) = inf.  All geometric predicates the transport
conditions need (disk membership, Re <= 1/2, |z| = 1, the reciprocal ball
test) are decided exactly in integer arithmetic.

A finite Scalar stores one thing, its primitive integer form ``_g = (a, b,
d)``: the value is (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, so two equal
values have equal triples; the point at infinity stores ``_g = None``.  The
fields ``re`` and ``im`` are read-only lowest-terms ``Fraction``s reduced from
the triple with one gcd each.  One set of integer kernels does the
arithmetic: ``_primitive`` divides a triple by its gcd, ``_g_add`` and
``_g_mul`` sum and multiply primitive triples, and ``_make`` is the one
constructor, which returns the Scalar of a primitive triple.  ``+``, ``-`` and
``*`` are those kernels; negation, the conjugate, ``inv`` and ``mobius``
build their triples directly; the disk predicates compare integers (a^2 +
b^2 against d^2), and ``is_zero``/``is_one`` compare objects (one value is
one object, below).  A loop that only
combines values (the exact oracles in exact) runs the same kernels on the
triples themselves and builds one Scalar for its result.

A Scalar is immutable and keeps nothing but ``_g`` (``__slots__``): what is
derived from it (|z|^2, 1/z, the Mobius image, sort key) is computed on each
call, except that normalization (``MplExpr.of``, ``ZExpr.of``) computes each
distinct sort key once per call, in a memo that dies with the call.  The
printed form is that of (re, im).

One value is one object.  ``_make`` hash-conses: it looks the triple up in
the module table ``_TABLE`` and builds a Scalar only for a triple it has not
seen, and INF is the one Scalar with ``_g = None``.  So ``==`` and ``hash``
are object identity and its hash, both run in C: a dict or tuple keyed on
Scalars (a Pair, a word letter, a term key) never calls back into Python to
hash or compare them.  Pickling and copying rebuild through the constructor
and so return the same object.  The table is a plain dict that lives as long
as the process: it only grows, by one entry (a Scalar, its triple and the
triple's integers) per distinct value ever made.  Three benchmark corpora of
the symbolic workload make 736 values (120 KiB), and the whole test suite
about 45,000 (11 MB, most of it the integers of exact oracle results of
thousands of bits and of the tests' references for them).  A weak-valued
table measured slower on the symbolic workload.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import DomainError, UndefinedArithmetic

RationalLike = Union[int, Fraction, str]


_new = object.__new__


def _lowest(n: int, d: int) -> Fraction:
    """The Fraction n/d for d > 0: one gcd, without Fraction's normalising
    constructor."""
    g = gcd(n, d)
    f = _new(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


_F0 = Fraction(0)


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(n, d), d > 0, in lowest terms of an int, a Fraction or a rational string."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        if isinstance(x, (bool, float)):
            raise DomainError(f"{x!r} is not an exact rational")
        try:
            x = Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{x!r} is not an exact rational: {exc}") from None
    return x.numerator, x.denominator


# Integer-form kernels: each takes and returns primitive triples (a, b, d),
# gcd(a, b, d) = 1 and d > 0.  Scalar arithmetic and the exact oracles in
# exact both run on them.

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


# every finite Scalar ever built, keyed by its triple; entries live as long
# as the process (see the module docstring)
_TABLE: dict[tuple[int, int, int], "Scalar"] = {}


def _make(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d for a primitive triple (a, b, d); every Scalar
    is built here, once per value.  ``setdefault`` keeps the first of two
    threads that miss together, so both return the same object."""
    g = (a, b, d)
    s = _TABLE.get(g)
    if s is None:
        s = _new(Scalar)
        s._g = g
        s = _TABLE.setdefault(g, s)
    return s


class Scalar:
    """A Gaussian rational, or the projective point at infinity.

    ``Scalar(re, im)`` takes ints, Fractions or strings; ``Scalar(is_inf=True)``
    is the singleton ``INF``, whose re/im read zero and must never be
    inspected.  0**0 is 1 throughout.
    """

    __slots__ = ("_g",)

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0, is_inf: bool = False):
        if is_inf:
            return INF
        nr, dr = _ratio(re)
        ni, di = _ratio(im)
        if dr == di:
            return _make(nr, ni, dr)
        d = dr // gcd(dr, di) * di  # the lcm: no prime divides d and both parts
        return _make(nr * (d // dr), ni * (d // di), d)

    def __reduce__(self):
        # rebuilt through the constructor, so a copy or an unpickled value
        # is the interned object of its value
        return Scalar, (self.re, self.im, self._g is None)

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "Scalar":
        return Scalar(re, im)

    # -- fields --------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        g = self._g
        return _F0 if g is None else _lowest(g[0], g[2])

    @property
    def im(self) -> Fraction:
        g = self._g
        return _F0 if g is None or not g[1] else _lowest(g[1], g[2])

    @property
    def is_inf(self) -> bool:
        return self._g is None

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return self is ZERO

    def is_one(self) -> bool:
        return self is ONE

    def is_real(self) -> bool:
        g = self._g
        return g is not None and g[1] == 0

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        x, y = self._g, other._g
        if x is None or y is None:
            if x is y:
                raise UndefinedArithmetic("inf + inf")
            return INF
        return _make(*_g_add(x, y))

    def __neg__(self) -> "Scalar":
        g = self._g
        if g is None:
            return INF
        a, b, d = g
        return _make(-a, -b, d)

    def __sub__(self, other: "Scalar") -> "Scalar":
        x, y = self._g, other._g
        if x is None or y is None:
            if x is y:
                raise UndefinedArithmetic("inf - inf")
            return INF
        a, b, d = y
        return _make(*_g_add(x, (-a, -b, d)))

    def __mul__(self, other: "Scalar") -> "Scalar":
        x, y = self._g, other._g
        if x is None or y is None:
            if x == (0, 0, 1) or y == (0, 0, 1):
                raise UndefinedArithmetic("0 * inf")
            return INF
        return _make(*_g_mul(x, y))

    def inv(self) -> "Scalar":
        g = self._g
        if g is None:
            return ZERO
        a, b, d = g
        n = a * a + b * b  # d/(a + b*i) = d (a - b*i)/n
        return _make(*_primitive(a * d, -b * d, n)) if n else INF

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if self._g is None and other._g is None:
            raise UndefinedArithmetic("inf / inf")
        if self.is_zero() and other.is_zero():
            raise UndefinedArithmetic("0 / 0")
        return self * other.inv()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        if self._g is None:
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
        g = self._g
        if g is None:
            return INF
        a, b, d = g
        return _make(a, -b, d)

    # -- exact geometric predicates -----------------------------------------

    def abs_sq(self) -> Fraction:
        """|z|^2 as an exact rational; infinity is rejected."""
        if self._g is None:
            raise DomainError("abs_sq(inf)")
        a, b, d = self._g
        return _lowest(a * a + b * b, d * d)

    def in_closed_disk(self) -> bool:
        if self._g is None:
            return False
        a, b, d = self._g
        return a * a + b * b <= d * d

    def in_open_disk(self) -> bool:
        if self._g is None:
            return False
        a, b, d = self._g
        return a * a + b * b < d * d

    def re_leq_half(self) -> bool:
        if self._g is None:
            raise DomainError("re_leq_half(inf)")
        return 2 * self._g[0] <= self._g[2]

    def re_lt_half(self) -> bool:
        if self._g is None:
            raise DomainError("re_lt_half(inf)")
        return 2 * self._g[0] < self._g[2]

    def re_eq_half(self) -> bool:
        if self._g is None:
            raise DomainError("re_eq_half(inf)")
        return 2 * self._g[0] == self._g[2]

    def abs_eq_one(self) -> bool:
        if self._g is None:
            return False
        a, b, d = self._g
        return a * a + b * b == d * d

    def abs_geq_one(self) -> bool:
        """|z| >= 1, as a^2 + b^2 >= d^2 on the triple; infinity is rejected, as by abs_sq."""
        if self._g is None:
            raise DomainError("abs_geq_one(inf)")
        a, b, d = self._g
        return a * a + b * b >= d * d

    def in_unit_interval(self) -> bool:
        """z real with 0 < z <= 1; false at infinity."""
        g = self._g
        return g is not None and g[1] == 0 and 0 < g[0] <= g[2]

    def mobius(self) -> "Scalar":
        """z / (z - 1); needs a finite z != 1.  Involutive on its domain."""
        if self._g is None:
            raise DomainError("mobius(inf)")
        a, b, d = self._g
        c = a - d  # z - 1 = (c + b*i)/d
        n = c * c + b * b
        if not n:
            raise DomainError("mobius(1)")
        return _make(*_primitive(a * c + b * b, -b * d, n))

    # -- conversions ---------------------------------------------------------

    def __complex__(self) -> complex:
        if self._g is None:
            raise DomainError("complex(inf)")
        a, b, d = self._g  # int / int rounds correctly, as float(Fraction) does
        return complex(a / d, b / d)

    def sort_key(self):
        if self._g is None:
            return (1, 0, 1, 0, 1)
        a, b, d = self._g
        ga, gb = gcd(a, d), gcd(b, d)
        return (0, a // ga, d // ga, b // gb, d // gb)

    def __str__(self) -> str:
        if self._g is None:
            return "inf"
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    __repr__ = __str__


INF = _new(Scalar)
INF._g = None
ZERO = Scalar()
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)


def sc(re: RationalLike, im: RationalLike = 0) -> Scalar:
    """Shorthand constructor used pervasively in tests and examples."""
    return Scalar.of(re, im)


def reciprocal_sum(vs: Iterable[Scalar]) -> Scalar:
    total = ZERO
    for v in vs:
        total = total + v.inv()
    return total


def in_reciprocal_ball(vs: Sequence[Scalar], t: Scalar) -> bool:
    """Whether (v_1, ..., v_m) has sum of reciprocals equal to t or >= 1 away.

    Every v_i must be a nonzero point of the closed unit disk or infinity and
    t must be finite with |t| <= 1, else DomainError.
    """
    if not t.in_closed_disk():
        raise DomainError(f"ball target {t} must be finite with |t| <= 1")
    for v in vs:
        if v.is_zero() or not (v.is_inf or v.in_closed_disk()):
            raise DomainError(f"arrow value {v} outside (closed disk - 0) + inf")
    total = reciprocal_sum(vs)
    return total == t or (t - total).abs_geq_one()
