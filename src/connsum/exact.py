"""Exact partial-sum oracles and the finite telescoping identity.

An identity is certified by evaluating both sides in floats (eval_zterm,
eval_mpl_auto, verify_relation); the oracles here compute the same sums
exactly, as Gaussian rationals, up to a truncation, and check the finite
rearrangement identity behind the reduction.  They mean something only
while they share no code with the float evaluators they check, so this
module needs errors, model and scalars alone, and no numpy: a test holds its
import graph to that.

The partial-sum oracles keep every chain entry as a Gaussian-integer
numerator over one common denominator, den = Q^bound (bound!)^E (see
_exact_chain).  The denominator of every partial value divides den: its
variable powers have exponents summing to at most the bound, and its index
powers m_j^(e_j) divide a power of m!, m <= bound.  So a chain step is
integer sums, products and exact divisions with no gcd, and each oracle
reduces once, with one _primitive, and builds one Scalar.
telescoping_check sums on the integer-triple kernels of scalars (_g_add,
_g_mul), which reduce every result.
"""
from __future__ import annotations

import itertools
import math
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


def _exact_chain(letters, bound: int, kind: str = "strict") -> tuple[dict[int, tuple[int, int]], int]:
    """Exact chain mass by top index, as (numerators, den): entry m sums,
    over the chains of the letters whose top index is m <= bound, the slot
    weights v^gap / m^e.  Its value is (a + b i)/den for the Gaussian
    integer numerators[m] = (a, b), every entry shares

        den = Q^bound * (bound!)^E,

    Q the product of the letters' denominators and E their largest exponent
    (kind "weak": the sum of their exponents), and a zero entry is left out.
    No letters give ({0: (1, 0)}, 1).

    kind "strict": indices strictly increase; "weak": every slot after the
    first may repeat the index below it (the bar chain); "harmonic": indices
    strictly increase and each variable is raised to its own index instead of
    the gap.  Each letter v = (p + r i)/q is one pass over m with a running
    accumulator; entry m of the new layer is acc_m / m^e, with `layer` the
    one below:

        strict:    acc_m = v (acc_{m-1} + layer_{m-1}),  acc_0 = 0;
        weak:      acc_m = v acc_{m-1} + layer_m,        acc_0 = 0;
        harmonic:  acc_m = v^m (layer_0 + ... + layer_{m-1}), a prefix sum
                   times a running power.

    Every value the passes form, the accumulators included, is a sum of
    chain terms prod_j v_j^(g_j) / m_j^(e_j) over indices m_1, m_2, ... up to
    some m <= bound, and den times each term is a Gaussian integer:
    - v_j^(g_j) has denominator q_j^(g_j); the exponents g_j are the gaps,
      which sum to at most m (harmonic: the indices, each at most bound),
      so their product divides Q^bound;
    - the m_j are distinct (strict, harmonic), so prod m_j^(e_j) divides
      (prod m_j)^E, which divides (m!)^E; where they may repeat (weak),
      each m_j^(e_j) divides (m!)^(e_j), so the product divides (m!)^E with
      E the sum.
    So every numerator is a Gaussian integer, and each `//` by q (harmonic:
    q^m) and by m^e divides a multiple of the divisor exactly.  A pass costs
    O(bound) integer sums, products by p + r i and exact divisions, with no
    gcd; the callers reduce once.  This is the exact twin of the float
    path's _scan, but shares no code with it.
    """
    letters = [(v._g, e) for v, e in letters]
    exps = [e for _, e in letters]
    q_all = 1
    for (_, _, q), _ in letters:
        q_all *= q
    den = q_all ** bound * math.factorial(bound) ** (sum(exps) if kind == "weak"
                                                     else max(exps, default=0))
    layer: dict[int, tuple[int, int]] = {0: (den, 0)}
    for i, ((p, r, q), e) in enumerate(letters):
        nxt: dict[int, tuple[int, int]] = {}
        acc_a = acc_b = 0
        if kind == "harmonic":
            pow_a, pow_b, pow_q = 1, 0, 1  # (p + r i)^m and q^m
            for m in range(1, bound + 1):
                low = layer.get(m - 1)
                if low is not None:
                    acc_a += low[0]
                    acc_b += low[1]
                pow_a, pow_b = p * pow_a - r * pow_b, p * pow_b + r * pow_a
                pow_q *= q
                w = pow_q * m ** e
                a, b = (pow_a * acc_a - pow_b * acc_b) // w, (pow_a * acc_b + pow_b * acc_a) // w
                if a or b:
                    nxt[m] = (a, b)
        else:
            weak = kind == "weak" and i > 0  # so layer has no entry at 0
            for m in range(1, bound + 1):
                low = layer.get(m if weak else m - 1)
                if not weak and low is not None:
                    acc_a += low[0]
                    acc_b += low[1]
                acc_a, acc_b = (p * acc_a - r * acc_b) // q, (p * acc_b + r * acc_a) // q
                if weak and low is not None:
                    acc_a += low[0]
                    acc_b += low[1]
                if acc_a or acc_b:
                    w = m ** e
                    nxt[m] = (acc_a // w, acc_b // w)
        layer = nxt
    return layer, den


def eval_zterm_partial_exact(t: ZTerm, bound: int) -> Scalar:
    """Exact rational-complex partial sum over component tops <= bound.

    The components' chains combine by a running convolution: with entry m
    of each chain weighted by m!, the product of the chains has at total T
    the sum over tops with sum T of the product of their entries times
    m_1! m_2! ... , which is T! times the connector-weighted sum.  Scaling
    total T by top!/T! puts every total over one denominator; each is then
    multiplied by the bar chain's entry and by T, and the sum is reduced
    once."""
    bound = _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    if t.is_structurally_zero():
        return ZERO
    chains = [_exact_chain(p.letters(), bound) for p in t.components]
    fact = _factorials(sum(max(nums, default=0) for nums, _ in chains))

    # an empty component keeps its base entry {0: 1} and contributes a zero
    # top, matching the arity-reduction identity
    totals: dict[int, tuple[int, int]] = {0: (1, 0)}
    den = 1
    for nums, d in chains:
        den *= d
        nxt: dict[int, tuple[int, int]] = {}
        for m, (a, b) in nums.items():
            a, b = a * fact[m], b * fact[m]
            for s, (x, y) in totals.items():
                prev = nxt.get(s + m)
                if prev is None:
                    nxt[s + m] = (a * x - b * y, a * y + b * x)
                else:
                    nxt[s + m] = (prev[0] + a * x - b * y, prev[1] + a * y + b * x)
        totals = nxt
    if not totals:
        return ZERO

    top = max(totals)
    bar, bar_den = _exact_chain(t.bar.letters(), top, "weak")
    out_a = out_b = 0
    for tot, (a, b) in totals.items():
        w = bar.get(tot)
        if w is not None:
            scale = tot * (fact[top] // fact[tot])
            out_a += (a * w[0] - b * w[1]) * scale
            out_b += (a * w[1] + b * w[0]) * scale
    c = t.coef
    return _make(*_primitive(out_a * c.numerator, out_b * c.numerator,
                             den * fact[top] * bar_den * c.denominator))


def eval_mpl_partial_exact(m: MplTerm, bound: int) -> Scalar:
    """Exact rational-complex partial sum with outer index <= bound."""
    bound = _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    kind = "harmonic" if m.kind == "harmonic" else "strict"
    nums, den = _exact_chain(zip(m.z, m.k), bound, kind)
    return _make(*_primitive(sum(a for a, _ in nums.values()),
                             sum(b for _, b in nums.values()), den))


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
