"""Exact partial-sum oracles and the finite telescoping identity.

An identity is certified by evaluating both sides in floats (eval_zterm,
eval_mpl_auto, verify_relation); the oracles here compute the same sums
exactly, as Gaussian rationals, up to a truncation, and check the finite
rearrangement identity behind the reduction.  They mean something only
while they share no code with the float evaluators they check, so this
module needs errors, model and scalars alone, and no numpy: a test holds its
import graph to that.  Every sum runs on the integer-triple kernels of
scalars (_g_add, _g_mul, _primitive), and one Scalar is built per returned
value.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, HypothesisViolated
from .model import MplTerm, ZTerm, _integer
from .scalars import ZERO, Scalar, _g_add, _g_mul, _make, _primitive, reciprocal_sum


def connector(a: Sequence[int]) -> Fraction:
    """Inverse multinomial weight a_1! ... a_n! / (a_1 + ... + a_n)!; an
    entry that is not a non-negative integer is a DomainError."""
    for x in a:
        _integer(x, 0, DomainError, "connector entries must be non-negative integers, got")
    num, _, den = _connector_form(a, _factorials(sum(a)))
    return Fraction(num, den)


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!]."""
    return list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))


def _connector_form(a: Sequence[int], fact: Sequence[int]) -> tuple[int, int, int]:
    """connector(a) as a primitive integer triple (num, 0, den), read from a
    factorial list fact that reaches sum(a): the exact oracles build the
    list once per call and multiply the triple into their sums."""
    num = 1
    for x in a:
        num *= fact[x]
    return _primitive(num, 0, fact[sum(a)])


# ---------------------------------------------------------------------------
# exact partial sums (oracles)


def _exact_chain(letters, bound: int, kind: str = "strict") -> dict[int, tuple[int, int, int]]:
    """Exact chain mass by top index: entry m sums, over the chains of the
    letters whose top index is m <= bound, the slot weights v^gap / m^e.
    Each entry is the primitive integer form (a, b, d) of its value
    (a + b i)/d (scalars._make turns it into a Scalar), and a zero entry is
    left out.

    kind "strict": indices strictly increase; "weak": every slot after the
    first may repeat the index below it (the bar chain); "harmonic": indices
    strictly increase and each variable is raised to its own index instead of
    the gap.  Each letter is one pass over m with a running accumulator;
    entry m of the new layer is acc_m / m^e, with `layer` the one below:

        strict:    acc_m = v (acc_{m-1} + layer_{m-1}),  acc_0 = 0;
        weak:      acc_m = v acc_{m-1} + layer_m,        acc_0 = 0;
        harmonic:  acc_m = v^m (layer_0 + ... + layer_{m-1}), a prefix sum
                   times a running power;

    so a chain costs O(bound * depth) sums and products of integer triples
    (scalars._g_add, _g_mul), each reduced by one gcd, and builds no Scalar.
    This is the exact twin of the float path's _scan, but shares no code
    with it.
    """
    layer: dict[int, tuple[int, int, int]] = {0: (1, 0, 1)}
    for i, (v, e) in enumerate(letters):
        vg = v._g
        weak = kind == "weak" and i > 0  # so layer has no entry at 0
        nxt: dict[int, tuple[int, int, int]] = {}
        acc = (0, 0, 1)
        vpow = (1, 0, 1)  # v^m, harmonic only
        for m in range(1, bound + 1):
            if kind == "harmonic":
                low = layer.get(m - 1)
                if low is not None:
                    acc = _g_add(acc, low)
                vpow = _g_mul(vpow, vg)
                val = _g_mul(acc, vpow)
            elif weak:
                acc = _g_mul(vg, acc)
                low = layer.get(m)
                if low is not None:
                    acc = _g_add(acc, low)
                val = acc
            else:
                low = layer.get(m - 1)
                if low is not None:
                    acc = _g_add(acc, low)
                acc = _g_mul(vg, acc)
                val = acc
            a, b, d = val
            if a or b:
                nxt[m] = _primitive(a, b, d * m ** e)
        layer = nxt
    return layer


def eval_zterm_partial_exact(t: ZTerm, bound: int) -> Scalar:
    """Exact rational-complex partial sum over component tops <= bound."""
    _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    if t.is_structurally_zero():
        return ZERO
    comp_layers = [_exact_chain(p.letters(), bound) for p in t.components]

    totals: dict[int, tuple[int, int, int]] = {}
    fact = _factorials(sum(max(layer, default=0) for layer in comp_layers))

    def _combine(idx: int, acc: tuple[int, int, int], tops: list[int]) -> None:
        if idx == len(comp_layers):
            tot = sum(tops)
            val = _g_mul(acc, _connector_form(tops, fact))
            prev = totals.get(tot)
            totals[tot] = val if prev is None else _g_add(prev, val)
            return
        # an empty component keeps its base entry {0: 1} and contributes a
        # zero top, matching the arity-reduction identity
        for m, val in comp_layers[idx].items():
            _combine(idx + 1, _g_mul(acc, val), tops + [m])

    _combine(0, (1, 0, 1), [])
    if not totals:
        return ZERO

    bar_layer = _exact_chain(t.bar.letters(), max(totals), "weak")
    out = (0, 0, 1)
    for tot, val in totals.items():
        wq = bar_layer.get(tot)
        if wq is not None:
            out = _g_add(out, _g_mul(_g_mul(val, wq), (tot, 0, 1)))
    return _make(*_g_mul(out, (t.coef.numerator, 0, t.coef.denominator)))


def eval_mpl_partial_exact(m: MplTerm, bound: int) -> Scalar:
    """Exact rational-complex partial sum with outer index <= bound."""
    _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    kind = "harmonic" if m.kind == "harmonic" else "strict"
    out = (0, 0, 1)
    for val in _exact_chain(zip(m.z, m.k), bound, kind).values():
        out = _g_add(out, val)
    return _make(*out)


# ---------------------------------------------------------------------------
# the finite telescoping identity


def telescoping_check(d: int, n: int, m_minus: Sequence[int], m_plus: Sequence[int],
                      q: int, vs: Sequence[Scalar], t: Scalar, bound: int) -> bool:
    """Exact check of the finite-truncation rearrangement identity.

    In exact arithmetic, the two capped double sums must differ by precisely
    the explicit boundary shell at total = bound (0**0 counted as 1).  A
    float or bool d, n, q, bound or m-/m+ entry is a HypothesisViolated.
    """
    d = _integer(d, 1, HypothesisViolated, "d must be an integer >= 1, got")
    n = _integer(n, d, HypothesisViolated, "n must be an integer >= d, got")
    if len(m_minus) != d or len(m_plus) != n - d:
        raise HypothesisViolated("parameter lengths do not match d, n")
    m_minus = [_integer(x, 0, HypothesisViolated, "m- entries must be integers >= 0:")
               for x in m_minus]
    m_plus = [_integer(x, 1, HypothesisViolated, "m+ entries must be integers >= 1:")
              for x in m_plus]
    q = _integer(q, 0, HypothesisViolated, "q must be an integer >= 0, got")
    bound = _integer(bound, 1, HypothesisViolated, "bound must be an integer >= 1, got")
    if len(vs) != d:
        raise HypothesisViolated("need one v per horizontal slot")
    for v in vs:
        if v.is_inf or v.is_zero() or not v.in_closed_disk():
            raise HypothesisViolated(f"v = {v} outside the punctured closed disk")
    if reciprocal_sum(vs) != t:
        raise HypothesisViolated("reciprocal sum of vs must equal t")
    if t.is_inf or not t.in_closed_disk():
        raise HypothesisViolated("|t| <= 1 required")
    if bound <= q or bound <= sum(m_minus) + d + sum(m_plus):
        raise HypothesisViolated("bound too small for a non-degenerate check")

    mp_total = sum(m_plus)

    def tuples(lows: Sequence[int], room: int) -> Iterable[tuple[int, ...]]:
        """Every tuple a with a_k >= lows[k] and a_1 + ... + a_d <= room."""
        if not lows:
            yield ()
            return
        for x in range(lows[0], room - sum(lows[1:]) + 1):
            for rest in tuples(lows[1:], room - x):
                yield (x,) + rest

    def powers(x: Scalar) -> list[tuple[int, int, int]]:
        """The integer forms of x^0 .. x^bound, with 0**0 = 1."""
        out = [(1, 0, 1)]
        for _ in range(bound):
            out.append(_g_mul(out[-1], x._g))
        return out

    # every exponent and tuple total below lies in 0..bound
    t_pow = powers(t)
    v_pow = [powers(v) for v in vs]
    fact = _factorials(bound)

    # one pass over the tuples with every a_k >= m-_k and total <= bound: a
    # tuple with exactly one slot at m- is a term of that slot's face, one
    # with every slot above m- a term of the inner sum (q <= total < bound),
    # of the low shell (total = q) or of the top shell (total = bound).  The
    # sums run on primitive integer forms (scalars._g_add, _g_mul), which are
    # unique, so the two sides are equal exactly when their forms are
    faces = inner = low = top = (0, 0, 1)
    for a in tuples(m_minus, bound - mp_total):
        total = sum(a) + mp_total
        at = [kk for kk in range(d) if a[kk] == m_minus[kk]]
        if len(at) > 1 or total < q:
            continue
        term = _connector_form(a + tuple(m_plus), fact)
        for kk in range(d):
            if kk not in at:
                term = _g_mul(_g_mul(term, v_pow[kk][a[kk] - m_minus[kk]]), (1, 0, a[kk]))
        weighted = _g_mul(term, t_pow[total - q])
        if at:
            if total < bound:
                faces = _g_add(faces, weighted)
            continue
        if total < bound:
            inner = _g_add(inner, weighted)
        if total == q:
            low = _g_add(low, _g_mul(term, (q, 0, 1)))
        if total == bound:
            top = _g_add(top, weighted)

    # faces - mp_total inner = bound top - low; both sides carry the factor
    # 1/(m+_1 ... m+_(n-d)), which cancels
    return _g_add(faces, low) == \
        _g_add(_g_mul(top, (bound, 0, 1)), _g_mul(inner, (mp_total, 0, 1)))
