"""Word algebra over letters {x, e_z} with truncated t-power series.

Words encode polylog arguments: e_{z_1} x^{k_1-1} ... e_{z_r} x^{k_r-1}
corresponds to the pair (z, k).  A series is one sparse map from
(degree, word) to a nonzero rational coefficient, truncated at its order.
Two automorphisms and two anti-automorphisms act on the series ring by
geometric-series substitution on letters; composing them turns the
transport/boundary machinery into lift-by-h relations, checked both through
the series route and through a direct combinatorial expansion.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .boundary import boundary_reduce_all
from .duality import _dagger, dual_condition, in_ball_at_one, iota
from .errors import (
    AlphabetViolation,
    DualConditionViolated,
    GuardViolation,
    NotA0,
    PreconditionViolated,
    TruncationTooSmall,
)
from .model import (
    Coef,
    MplExpr,
    MplTerm,
    Pair,
    Relation,
    _as_scalar,
    _as_tuple,
    _coef,
    _integer,
    zterm,
)
from .scalars import ONE, Scalar, reciprocal_sum
from .transport import reduce_to_z1


class _XLetter:
    """The weight letter; singleton."""

    _instance: Optional["_XLetter"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "x"


X = _XLetter()
Letter = Union[_XLetter, Scalar]
Word = tuple[Letter, ...]


def _check_word(w: Word) -> Word:
    """w as a tuple whose letters are each x or an alphabet variable."""
    w = _as_tuple(w, "a word")
    for letter in w:
        if letter is not X and not (isinstance(letter, Scalar) and in_ball_at_one(letter)):
            raise AlphabetViolation(f"letter {letter!r} is neither x nor an alphabet variable")
    return w


def in_a1(w: Word) -> bool:
    return len(w) == 0 or isinstance(w[0], Scalar)


def in_a0(w: Word) -> bool:
    """Convergent words: start with e_z, Re(z) != 1/2; end with x, or with
    e_z' of modulus != 1 (a single letter must satisfy both)."""
    if len(w) == 0:
        return True
    head = w[0]
    if not isinstance(head, Scalar) or head.re_eq_half():
        return False
    tail = w[-1]
    if isinstance(tail, Scalar):
        return not tail.abs_eq_one()
    return True


def word_of_pair(p: Pair) -> Word:
    out: list[Letter] = []
    for v, e in p.letters():
        if not in_ball_at_one(v):
            raise AlphabetViolation(f"pair variable {v} outside the alphabet")
        out.append(v)
        out.extend([X] * (e - 1))
    return tuple(out)


def pair_of_word(w: Word) -> Pair:
    w = _check_word(w)
    if not in_a1(w):
        raise AlphabetViolation("word must be empty or start with a variable letter")
    letters: list[tuple[Scalar, int]] = []
    for letter in w:
        if isinstance(letter, Scalar):
            letters.append((letter, 1))
        else:
            letters[-1] = (letters[-1][0], letters[-1][1] + 1)
    return Pair.from_letters(letters)


Poly = dict[Word, Coef]


@dataclass(frozen=True)
class HSeries:
    """Truncated formal t-power series with word-combination coefficients.

    terms maps (degree, word) to its coefficient.  Every degree is at most
    order and no coefficient is zero, so == is series equality.
    """

    order: int
    terms: dict[tuple[int, Word], Coef]

    @staticmethod
    def make(order: int, items: Iterable[tuple[tuple[int, Word], Coef]]) -> "HSeries":
        """Sum the items, dropping degrees past order and zero coefficients."""
        if type(order) is not int or order < 0:
            order = _integer(order, 0, TruncationTooSmall,
                             "truncation order must be an integer >= 0, got")
        terms: dict[tuple[int, Word], Coef] = {}
        for key, c in items:
            if key[0] <= order:
                terms[key] = terms.get(key, 0) + c
        return HSeries(order, {key: _coef(c) for key, c in terms.items() if c != 0})

    @staticmethod
    def from_word(w: Word, order: int) -> "HSeries":
        return HSeries.make(order, [((0, _check_word(w)), 1)])

    def __add__(self, other: "HSeries") -> "HSeries":
        return HSeries.make(self.order, itertools.chain(self.terms.items(), other.terms.items()))

    def scaled(self, c) -> "HSeries":
        c = _coef(c)
        return HSeries.make(self.order, ((key, co * c) for key, co in self.terms.items()))

    def __mul__(self, other: "HSeries") -> "HSeries":
        return HSeries.make(self.order, (
            ((d1 + d2, w1 + w2), c1 * c2)
            for (d1, w1), c1 in self.terms.items()
            for (d2, w2), c2 in other.terms.items()
            if d1 + d2 <= self.order
        ))

    def degree_words(self, deg: int) -> Poly:
        return {w: c for (d, w), c in self.terms.items() if d == deg}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (deg, w), c in sorted(self.terms.items(),
                                  key=lambda kc: (kc[0][0], len(kc[0][1]), repr(kc[0][1]))):
            word = "".join(repr(l) if isinstance(l, _XLetter) else f"e[{l}]" for l in w) or "1"
            chunks.append(f"{c}*{word}*t^{deg}" if deg else f"{c}*{word}")
        return " + ".join(chunks)


def _geometric(letter: Letter, order: int, sign: int, outer: Letter) -> HSeries:
    """outer * (1 - sign * letter * t)^(-1) truncated: sum sign^j outer letter^j t^j."""
    return HSeries.make(order, [((j, (outer,) + (letter,) * j), sign ** j)
                                for j in range(order + 1)])


def _image(name: str, letter: Letter, order: int) -> HSeries:
    """Image of one letter under a map of MAP_NAMES, truncated at order."""
    if letter is X:
        if name == "tau":
            return HSeries.from_word((ONE,), order)
        if name == "tau_prime":
            return _geometric(ONE, order, -1, ONE)
        return HSeries.from_word((X,), order)
    z = letter
    _check_word((z,))
    if name == "sigma":
        return _geometric(X, order, 1, z)
    if name == "sigma_inv":
        return HSeries.make(order, [((0, (z,)), 1), ((1, (z, X)), -1)])
    if name == "rho":
        return _geometric(z, order, 1, z)
    if name == "rho_inv":
        return _geometric(z, order, -1, z)
    # tau and tau_prime: the anti-automorphisms, through z -> z/(z-1) off z = 1
    if z.is_one():
        return HSeries.from_word((X,), order) if name == "tau" else _geometric(X, order, 1, X)
    zz = z.mobius()
    return _geometric(zz, order, 1 if name == "tau" else -1, zz).scaled(-1)


_ANTI = {"tau", "tau_prime"}
MAP_NAMES = ("sigma", "rho", "tau", "tau_prime", "sigma_inv", "rho_inv")


def apply_map(name: str, s: HSeries) -> HSeries:
    """Extend the named (anti-)automorphism from letters to a whole series.

    Each term c t^deg w becomes c t^deg times the product of its letters'
    images (reversed for the anti-automorphisms); one make sums them all.
    """
    if name not in MAP_NAMES:
        raise AlphabetViolation(f"unknown map {name!r}")
    order = s.order
    cache: dict[Letter, HSeries] = {}
    items: list[tuple[tuple[int, Word], Coef]] = []
    for (deg, w), c in s.terms.items():
        prod = HSeries.make(order, [((deg, ()), c)])
        for letter in (reversed(w) if name in _ANTI else w):
            if letter not in cache:
                cache[letter] = _image(name, letter, order)
            prod = prod * cache[letter]
        items.extend(prod.terms.items())
    return HSeries.make(order, items)


def words_to_mpl(poly: Poly) -> MplExpr:
    """Interpret a word combination through the polylog evaluation map."""
    items = []
    for w, c in poly.items():
        if not in_a0(w):
            raise NotA0(f"word {w!r} is outside the convergent subalgebra")
        p = pair_of_word(w)
        items.append((c, MplTerm("shuffle", p.k, p.z)))
    return MplExpr.of(items)


def boundary_series(w: Word, order: int) -> list[MplExpr]:
    """Degree-h coefficients of the lifted boundary identity.

    Entry h is the polylog expansion of the arity-2 sum with empty mate and
    all-ones bar of length h+1, obtained by the composed substitution
    sigma(rho(word)).
    """
    if not in_a0(w):
        raise NotA0(f"word {w!r} is outside the convergent subalgebra")
    s = apply_map("sigma", apply_map("rho", HSeries.from_word(w, order)))
    return [words_to_mpl(s.degree_words(h)) for h in range(order + 1)]


# ---------------------------------------------------------------------------
# lift-by-h relations


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        out = []
        prev = -1
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def lift_sum(p: Pair, h: int) -> MplExpr:
    """Sum of shuffle polylogs over all exponent lifts of total h >= 0."""
    _integer(h, 0, PreconditionViolated, "h must be a non-negative integer, got")
    if p.is_empty():
        return MplExpr.single(MplTerm("shuffle", (), ())) if h == 0 else MplExpr.zero()
    if p.k[-1] == 1 and p.z[-1].abs_eq_one():
        raise GuardViolation("lift needs |last variable| != 1 when the last exponent is 1")
    items = []
    for comp in _compositions(h, p.dep):
        k = tuple(e + c for e, c in zip(p.k, comp))
        items.append((1, MplTerm("shuffle", k, p.z)))
    return MplExpr.of(items)


def insert_lift(p: Pair, bs: Sequence[int]) -> Pair:
    """Insert b_i depth-1 copies of the i-th variable other than 1 before its letter."""
    try:
        count = len(bs)
    except TypeError:
        raise PreconditionViolated(f"insertion counts must be a sequence, got {bs!r}") from None
    if count != iota(p.z):
        raise PreconditionViolated(f"need {iota(p.z)} insertion counts, got {count}")
    for b in bs:
        _integer(b, 0, PreconditionViolated, "insertion counts must be non-negative integers:")
    counts = iter(bs)
    letters: list[tuple[Scalar, int]] = []
    for v, e in p.letters():
        if not v.is_one():
            letters.extend([(v, 1)] * next(counts))
        letters.append((v, e))
    return Pair.from_letters(letters)


def ohno_relation(p: Pair, h: int) -> Relation:
    """Lift-by-h relation: lift_sum(p, h) against the signed dual expansion."""
    if not dual_condition(p):
        raise DualConditionViolated(f"{p} fails the dual condition")
    lhs = lift_sum(p, h)
    d = iota(p.z)
    sign, dual = _dagger(p)
    rhs = MplExpr.of(
        (sign * c, term)
        for i in range(h + 1)
        for bs in _compositions(i, d)
        for c, term in lift_sum(insert_lift(dual, bs), h - i).terms
    )
    return Relation(lhs=lhs, rhs=rhs, provenance={
        "route": "ohno",
        "pair": str(p),
        "h": h,
        "sign": sign,
    })


def thm_sides(w: Word, order: int) -> list[tuple[MplExpr, MplExpr]]:
    """Degree-wise sides of the series identity L(sigma(w)) = L(sigma(tau(w)))."""
    if not in_a0(w):
        raise NotA0(f"word {w!r} is outside the convergent subalgebra")
    lhs_series = apply_map("sigma", HSeries.from_word(w, order))
    rhs_series = apply_map("sigma", apply_map("tau", HSeries.from_word(w, order)))
    return [
        (words_to_mpl(lhs_series.degree_words(hh)), words_to_mpl(rhs_series.degree_words(hh)))
        for hh in range(order + 1)
    ]


def algebraic_ohno_check(w: Word, order: int, tol: float = 1e-6) -> bool:
    """Check the series route numerically and against the combinatorial route.

    Returns True when both emission paths produce identical normalized
    expressions for every degree <= order and the relations verify
    numerically.  Both sides are polylogarithm expressions, so no
    truncation bound enters.
    """
    from .numeric import verify_relation

    sides = thm_sides(w, order)
    p = pair_of_word(w)
    for hh, (lhs, rhs) in enumerate(sides):
        rel = ohno_relation(p, hh)
        if rel.lhs.terms != lhs.terms or rel.rhs.terms != rhs.terms:
            return False
        report = verify_relation(Relation(lhs=lhs, rhs=rhs, provenance={}), tol=tol)
        if not report.ok:
            return False
    return True


# ---------------------------------------------------------------------------
# cyclic multi-term relations from the reciprocal-sum identity


def _g(a: Scalar, b: Scalar) -> Scalar:
    return (a * b) / (a * b - a - b)


def multi_term_relations(zs: Sequence[Scalar]) -> Relation:
    """Three-term (n = 3) or eight-term (n = 4) relation for depth-(n-1) polylogs.

    The inputs must be nonzero, strictly inside the disk, have Re < 1/2, and
    reciprocal sum exactly 1; the four-variable case also needs the cyclic
    pair values g(a, b) = ab/(ab-a-b) inside the closed disk.
    """
    zs = _as_tuple(zs, "the variables", _as_scalar)
    n = len(zs)
    if n not in (3, 4):
        raise PreconditionViolated("need exactly 3 or 4 variables")
    for i, z in enumerate(zs):
        if z.is_zero() or z.is_inf:
            raise PreconditionViolated(f"z{i + 1} must be finite nonzero")
        if not z.in_open_disk():
            raise PreconditionViolated(f"|z{i + 1}| < 1 fails")
        if not z.re_lt_half():
            raise PreconditionViolated(f"Re(z{i + 1}) < 1/2 fails")
    if reciprocal_sum(zs) != ONE:
        raise PreconditionViolated("sum of reciprocals must equal 1")
    if n == 4:
        for i in range(4):
            a, b = zs[i], zs[(i + 1) % 4]
            if not _g(a, b).in_closed_disk():
                raise PreconditionViolated(f"|g(z{i + 1}, z{(i + 1) % 4 + 1})| <= 1 fails")

    windows = []
    z1_terms = []
    for i in range(n):
        if n == 3:
            window = (zs[(i + 1) % 3], zs[i])
        else:
            window = (zs[i], zs[(i + 1) % 4], zs[(i + 2) % 4])
        windows.append([str(v) for v in window])
        term = zterm([Pair((1,), (v,)) for v in window])
        z1_terms.extend(reduce_to_z1(term, j=n - 2).as_terms())
    total = boundary_reduce_all(z1_terms)
    if total.terms and total.terms[0][0] < 0:
        total = total.scaled(-1)
    return Relation(lhs=total, rhs=MplExpr.zero(), provenance={
        "route": "reciprocal-cycle",
        "variables": [str(z) for z in zs],
        "windows": windows,
    })
