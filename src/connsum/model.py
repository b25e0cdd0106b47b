"""Core vocabulary: indices, decorated pairs, connected-sum terms, expressions.

An index is a plain tuple of positive integers.  A Pair decorates an index
with same-length unit-disk variables.  A ZTerm is one rational-coefficient
connected-sum value with n >= 1 components and one bar slot; an MplTerm is
one polylogarithm, stored in its shuffle form.  ZExpr / MplExpr are
normalized linear combinations, and a Relation equates two of them.  All
values are immutable.

A coefficient (``Coef``) has one form: an ``int`` when it is integral, else
a ``Fraction`` with denominator > 1, so the integer coefficients of transport
and of Ohno's relations run on C ints.  Every sum and product of
coefficients is brought back to that form by ``_coef``.

Pair, ZTerm and MplTerm are each the tuple of their fields, so their ``==``
and ``hash`` are the tuple's.  Each has two constructors: calling the class
(and so ``_make`` and ``_replace``) coerces and checks its arguments, and
``_tuple_new(cls, fields)`` trusts them, for a rewrite's outputs, whose parts
come from valid values.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from typing import Any, Iterable, Literal, NamedTuple, Sequence

from .errors import (
    DomainError,
    EmptyArrowOnInfinity,
    NoEmptyComponent,
    NotPeelable,
)
from .scalars import INF, ONE, ZERO, Scalar, _lowest, _ratio, sc

Index = tuple[int, ...]
Coef = int | Fraction


def weight(k: Index) -> int:
    return sum(k)


def depth(k: Index) -> int:
    return len(k)


def is_admissible(k: Index) -> bool:
    """Empty, or last entry >= 2."""
    return len(k) == 0 or k[-1] >= 2


def _integer(x, least: int, error: type[Exception], message: str) -> int:
    """x as an int, if it is an integer (a numpy one too) of at least least;
    else error(message + " " + repr(x)).  A float, bool or string is never
    truncated or parsed, whatever its value."""
    if type(x) is bool or not isinstance(x, Integral) or x < least:
        raise error(f"{message} {x!r}")
    return int(x)


def _as_index(entries: Iterable[int]) -> Index:
    try:  # caught, not tested for, so that valid input pays nothing
        return tuple(e if type(e) is int and e >= 1 else
                     _integer(e, 1, DomainError, "index entries must be positive integers:")
                     for e in entries)
    except TypeError:
        raise DomainError(f"an index must be a sequence, got {entries!r}") from None


_tuple_new = tuple.__new__


def _value_tuple(name: str, fields: tuple[str, ...]):
    """A namedtuple base whose _make, and so _replace, validates through the
    subclass's constructor."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


def _as_scalar(z) -> Scalar:
    if isinstance(z, Scalar):
        return z
    return sc(z)


def _as_tuple(xs: Iterable, what: str, convert=None) -> tuple:
    """xs as a tuple, each entry through convert if one is given."""
    try:  # caught, not tested for, as in _as_index
        return tuple(xs if convert is None else map(convert, xs))
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {xs!r}") from None


class Pair(_value_tuple("Pair", ("k", "z"))):
    """An index decorated with variables, one per entry.

    Variables must be finite and lie in the closed unit disk.  The empty pair
    is allowed and is its own vertical-arrow image.  A Pair is the tuple
    (k, z) itself, so its equality and hash are the tuple's, computed in C
    over ints and interned Scalars.  Pairs are not interned: a table of
    them would keep thousands of objects alive for the garbage collector to
    scan on every collection.
    """

    __slots__ = ()

    def __new__(cls, k: Iterable[int] = (), z: Iterable = ()):
        k = _as_index(k)
        z = _as_tuple(z, "pair variables", _as_scalar)
        if len(k) != len(z):
            raise DomainError(f"index/variable length mismatch: {k} vs {z}")
        for v in z:
            if v.is_inf or not v.in_closed_disk():
                raise DomainError(f"pair variable {v} outside the closed unit disk")
        return _tuple_new(cls, (k, z))

    @staticmethod
    def ones(k: Iterable[int]) -> "Pair":
        """All-ones decoration of an index."""
        kk = _as_index(k)
        return Pair(kk, (ONE,) * len(kk))

    def is_empty(self) -> bool:
        return len(self.k) == 0

    @property
    def wt(self) -> int:
        return weight(self.k)

    @property
    def dep(self) -> int:
        return depth(self.k)

    def letters(self) -> tuple[tuple[Scalar, int], ...]:
        return tuple(zip(self.z, self.k))

    @staticmethod
    def from_letters(letters: Sequence[tuple[Scalar, int]]) -> "Pair":
        return Pair(tuple(e for _, e in letters), tuple(v for v, _ in letters))

    def sort_key(self):
        return (self.k, tuple(v.sort_key() for v in self.z))

    def has_zero_variable(self) -> bool:
        return ZERO in self.z

    def __str__(self) -> str:
        if self.is_empty():
            return "()"
        ks = ",".join(str(e) for e in self.k)
        zs = ",".join(str(v) for v in self.z)
        return f"({zs} / {ks})"


EMPTY_PAIR = Pair()


class SignedPair(NamedTuple):
    """Arrow images carry a sign: the infinity arrow negates."""

    sign: int
    pair: Pair


def arrow(p: Pair, v: Scalar) -> SignedPair:
    """Append the arrow decorated by v.

    Finite nonzero v appends the letter (v, 1); v = 0 increments the last
    exponent (empty pair unchanged); v = inf does the same with sign -1.
    """
    if v.is_inf:
        if p.is_empty():
            raise EmptyArrowOnInfinity("infinity arrow on the empty pair")
        return SignedPair(-1, _tuple_new(Pair, (p.k[:-1] + (p.k[-1] + 1,), p.z)))
    if not v.in_closed_disk():
        raise DomainError(f"arrow value {v} outside the closed unit disk")
    if v.is_zero():
        if p.is_empty():
            return SignedPair(1, p)
        return SignedPair(1, _tuple_new(Pair, (p.k[:-1] + (p.k[-1] + 1,), p.z)))
    return SignedPair(1, _tuple_new(Pair, (p.k + (1,), p.z + (v,))))


Slot = Literal["component", "bar"]


def peel(p: Pair, slot: Slot) -> tuple[Scalar, Pair, int]:
    """Invert the arrow notation: return (value, base, sign).

    A trailing exponent 1 peels horizontally to its own variable.  A trailing
    exponent >= 2 peels vertically; in a component slot the vertical arrow is
    the infinity arrow (sign -1), in the bar slot it is the 0 arrow (sign +1).
    """
    if p.is_empty():
        raise NotPeelable("cannot peel the empty pair")
    last_v, last_e = p.z[-1], p.k[-1]
    if last_e == 1:
        if last_v.is_zero():
            raise NotPeelable("trailing (0, 1) letter has no arrow preimage")
        return last_v, _tuple_new(Pair, (p.k[:-1], p.z[:-1])), 1
    base = _tuple_new(Pair, (p.k[:-1] + (last_e - 1,), p.z))
    if slot == "component":
        return INF, base, -1
    return ZERO, base, 1


def _coef(c) -> Coef:
    """A coefficient in its one form, an int or a non-integral Fraction, from
    an int, a Fraction or a rational string by Scalar's rule, so a float, a
    bool or a non-number is a DomainError."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    n, d = _ratio(c)
    return n if d == 1 else _lowest(n, d)


class ZTerm(_value_tuple("ZTerm", ("coef", "components", "bar"))):
    """coef * Z_n(components | bar), the tuple (coef, components, bar)."""

    __slots__ = ()

    def __new__(cls, coef, components: Iterable[Pair], bar: Pair):
        coef = _coef(coef)
        components = _as_tuple(components, "term components")
        if len(components) < 1:
            raise DomainError("a connected-sum term needs at least one component")
        for p in components + (bar,):
            if not isinstance(p, Pair):
                raise DomainError(f"a term's components and bar must be Pairs, got {p!r}")
        return _tuple_new(cls, (coef, components, bar))

    @property
    def arity(self) -> int:
        return len(self.components)

    def key(self):
        return (self.components, self.bar)

    def is_structurally_zero(self) -> bool:
        """Zero by convention: empty bar, a 0 variable at a strict slot, or all
        components empty (the bar chain then has no admissible top)."""
        bar = self.bar
        if bar.is_empty() or bar.z[0].is_zero():
            return True
        if all(p.is_empty() for p in self.components):
            return True
        return any(p.has_zero_variable() for p in self.components)

    def scaled(self, c) -> "ZTerm":
        return _tuple_new(ZTerm, (_coef(self.coef * _coef(c)), self.components, self.bar))

    def with_coef(self, c) -> "ZTerm":
        return _tuple_new(ZTerm, (_coef(c), self.components, self.bar))

    def transport_measure(self) -> int:
        """Total weight outside the receiving slot; drops by 1 per rewrite."""
        return sum(p.wt for p in self.components[:-1]) + self.bar.wt

    def sort_key(self, pair_key=Pair.sort_key):
        """The order of a ZExpr's terms; pair_key is Pair.sort_key or a memo
        of it."""
        return (len(self.components), tuple(map(pair_key, self.components)),
                pair_key(self.bar))

    def __str__(self) -> str:
        comps = "; ".join(str(p) for p in self.components)
        c = "" if self.coef == 1 else f"{self.coef}*"
        return f"{c}Z{len(self.components)}({comps} | {self.bar})"


def zterm(components: Sequence[Pair], bar: Pair | None = None, coef=1) -> ZTerm:
    """Build a term; a missing bar means the conventional (1 / 1) slot."""
    if bar is None:
        bar = Pair.ones((1,))
    return ZTerm(coef, components, bar)


def _suffix_products(z: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """(z_1 z_2 ... z_r, z_2 ... z_r, ..., z_r): the variables of the shuffle
    form of a harmonic term with variables z, term by term the same series."""
    return tuple(itertools.accumulate(reversed(z), operator.mul))[::-1]


class MplTerm(_value_tuple("MplTerm", ("k", "z"))):
    """A polylogarithm, the tuple (k, z) of its shuffle form: variables enter
    through consecutive differences of the summation indices.  The harmonic
    spelling MplTerm("harmonic", k, x), each x_j raised to its own index,
    stores the shuffle form of that series, z = _suffix_products(x).
    """

    __slots__ = ()

    def __new__(cls, kind: Literal["shuffle", "harmonic"], k: Iterable[int], z: Iterable):
        k = _as_index(k)
        z = _as_tuple(z, "polylog variables", _as_scalar)
        if len(k) != len(z):
            raise DomainError("index/variable length mismatch")
        if kind not in ("shuffle", "harmonic"):
            raise DomainError(f"unknown polylog kind {kind!r}")
        if INF in z:  # a Scalar's == is identity
            raise DomainError("polylog variables must be finite, got inf")
        return _tuple_new(cls, (k, z if kind == "shuffle" else _suffix_products(z)))

    # the stored fields are the shuffle spelling's
    _make = classmethod(lambda cls, fields: cls("shuffle", *fields))

    def __getnewargs__(self):
        return ("shuffle", *self)

    @property
    def dep(self) -> int:
        return len(self.k)

    @property
    def wt(self) -> int:
        return weight(self.k)

    def guard_ok(self) -> bool:
        """Absolute-convergence guard: every variable in the closed disk, and
        the last in the open disk when k ends in 1."""
        return (all(v.in_closed_disk() for v in self.z)
                and (is_admissible(self.k) or self.z[-1].in_open_disk()))

    def key(self):
        return self

    def sort_key(self, scalar_key=Scalar.sort_key):
        """The order of an MplExpr's terms; scalar_key is Scalar.sort_key or
        a memo of it."""
        return (self.k, tuple(map(scalar_key, self.z)))

    def __str__(self) -> str:
        ks = ",".join(str(e) for e in self.k)
        zs = ", ".join(str(v) for v in self.z)
        return f"Li[{ks}]({zs})"


class _Memo(dict):
    """f(x) for each distinct x, computed on the first lookup ``memo[x]`` and
    kept as long as the memo: made inside a call, it dies with the call."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        out = self[x] = self.f(x)
        return out


def _normalize(items, zero_term_pred, term_sort, part_key):
    """The (coef, term) items merged by key, zeros dropped, sorted by
    term_sort(term, key), where key is part_key computed once per distinct
    part of the terms in this call."""
    acc: dict = {}
    for coef, term in items:
        coef = _coef(coef)
        if coef == 0 or zero_term_pred(term):
            continue
        key = term.key()
        prev = acc.get(key)
        acc[key] = (coef if prev is None else _coef(prev[0] + coef), term)
    out = [(c, t) for c, t in acc.values() if c != 0]
    key = _Memo(part_key).__getitem__
    out.sort(key=lambda ct: term_sort(ct[1], key))
    return tuple(out)


@dataclass(frozen=True)
class ZExpr:
    """Normalized linear combination of connected-sum terms, each of which
    carries its own coefficient."""

    terms: tuple[ZTerm, ...] = ()

    @staticmethod
    def of(terms: Iterable[ZTerm]) -> "ZExpr":
        """Merge equal terms by summing coefficients, drop zeros, sort; a term
        whose coefficient survives the merge is kept as it is."""
        return ZExpr(tuple(
            t if c == t.coef else t.with_coef(c)
            for c, t in _normalize(((t.coef, t) for t in terms),
                                   ZTerm.is_structurally_zero, ZTerm.sort_key,
                                   Pair.sort_key)))

    def as_terms(self) -> list[ZTerm]:
        return list(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class MplExpr:
    """Normalized linear combination of polylogarithm terms."""

    terms: tuple[tuple[Coef, MplTerm], ...] = ()

    @staticmethod
    def of(items: Iterable[tuple[Coef, MplTerm]]) -> "MplExpr":
        return MplExpr(_normalize(items, lambda t: False, MplTerm.sort_key,
                                  Scalar.sort_key))

    @staticmethod
    def single(term: MplTerm, coef=1) -> "MplExpr":
        return MplExpr.of([(_coef(coef), term)])

    @staticmethod
    def zero() -> "MplExpr":
        return MplExpr()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MplExpr") -> "MplExpr":
        return MplExpr.of(list(self.terms) + list(other.terms))

    def __sub__(self, other: "MplExpr") -> "MplExpr":
        return self + other.scaled(-1)

    def scaled(self, c) -> "MplExpr":
        c = _coef(c)
        return MplExpr.of([(co * c, t) for co, t in self.terms])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, t in self.terms:
            parts.append(f"{c}*{t}" if c != 1 else str(t))
        return " + ".join(parts)


@dataclass(frozen=True)
class Relation:
    """A two-sided identity; each side a linear combination of term values."""

    lhs: ZExpr | MplExpr
    rhs: ZExpr | MplExpr
    provenance: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


def swap_components(t: ZTerm, perm: Sequence[int]) -> ZTerm:
    """Reorder components by perm (a permutation of range(n)); value-preserving."""
    n = t.arity
    perm = [_integer(i, 0, DomainError, "not a component slot:") for i in perm]
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{perm} is not a permutation of 0..{n - 1}")
    return _tuple_new(ZTerm, (t.coef, tuple(t.components[i] for i in perm), t.bar))


def drop_empty_component(t: ZTerm) -> ZTerm:
    """Remove one empty component (arity must stay >= 1); value-preserving."""
    if t.arity <= 1:
        raise NoEmptyComponent("arity floor: cannot drop below one component")
    for i, p in enumerate(t.components):
        if p.is_empty():
            comps = t.components[:i] + t.components[i + 1:]
            return _tuple_new(ZTerm, (t.coef, comps, t.bar))
    raise NoEmptyComponent("no empty component to drop")


def drop_all_empty_components(t: ZTerm) -> ZTerm:
    """Repeatedly drop empty components while more than one component remains."""
    while t.arity > 1 and any(p.is_empty() for p in t.components):
        t = drop_empty_component(t)
    return t


def is_convergent(t: ZTerm) -> bool:
    """Absolute-convergence guard.

    Arity >= 2 requires all components non-empty.  Arity 1 requires, when both
    the component index and the bar index end in 1, that one of the trailing
    variables lies strictly inside the disk.  Structurally-zero terms pass.
    """
    if t.is_structurally_zero():
        return True
    if t.arity >= 2:
        return all(not p.is_empty() for p in t.components)
    p = t.components[0]
    if p.is_empty() or t.bar.is_empty():
        return True
    if not is_admissible(p.k) and not is_admissible(t.bar.k):
        return p.z[-1].in_open_disk() or t.bar.z[-1].in_open_disk()
    return True
