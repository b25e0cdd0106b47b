"""Truncated numerical evaluation and verification, in floats.  The exact
oracles that check these evaluators are in exact, which imports nothing
from this module.

An arity-1 connected sum is evaluated through its boundary expansion into
polylogarithms (boundary_reduce), each by eval_mpl_auto below.  A sum of
arity n >= 2 is summed by dynamic programming over per-component top values
(each capped at the bound), combined through a banded connector convolution
and closed with the bar-chain weight.  The single-escape rows past the cap
of a top letter on the unit circle are one recursion in r per distinct top
letter, in closed form or over a window with a telescoped remainder, folded
into the value and their residuals into the tail.  The bar chain runs past
the capped totals only for a window, and the rows weigh the product of the
other components, one convolution per distinct tuple of them.  The
convolution keeps only the connector weights 1/C(T, j) near its two edges
(rows j <= B), and each row only up to the total where its weight falls to
1/C(2B+2, B+1), the weight of the first split with both parts past the
band.  The weights are running products (no factorial, no log-gamma),
cached in blocks of totals from 0, each one matrix-vector product per edge;
a block is computed whole and then cut, so a convolution cut to any size is
the head of the full one, bit for bit.  Each split it drops weighs at most that much; the mass it
drops, and that of the rows no escape correction covers (two tops past the
cap, or one past it while the others total more than the escape cut-off),
enter the tail through proved bounds.

Every chain above, and every polylogarithm, comes from one kernel, _chain:
one first-order recurrence per letter (_scan, with a proved rounding bound
on each of its three paths), in float64 when every variable is real and
complex128 otherwise; a chain of at most _LOOP_MAX entries in Python lists,
a longer one in numpy arrays.  The module needs numpy alone: reciprocal
binomials come from running products.  The one float polylogarithm
evaluator, eval_mpl_auto, is a Hölder convolution.  With the letters
(z_i, k_i) of the term's shuffle form innermost first, the value is
(-1)^r G(b; 1) for the word b = (0^(k_r-1), 1/z_r, ..., 0^(k_1-1), 1/z_1), and

  G(b; 1) = sum_j (-1)^j G(1-b_j, ..., 1-b_1; 1-lam) G(b_(j+1), ..., b_w; lam).

lam = d0/(d0+d1), with d0 = min |b| over b != 0 and d1 = min |1-b| over
b != 1, gives every piece a ratio of at most 1/(d0+d1) < 1.  The pieces at
lam are the suffixes of b, and those at 1-lam the suffixes of the reversed
reflected word, so each is an inner layer of its side's chain: one value
chain per side, and one absolute chain where a letter is negative or
complex (for the others it is the value chain), give every piece (_side).
A side's chain runs to one cut N, the least at which every piece's proved
remainder is within tol / (4 (w+1)), found by a search over the integers
(_cut).  Each piece carries a proved rounding bound from the absolute
chain; one that would need more than 2^21 terms sums nothing and is bounded
as a whole.  A verify_relation call evaluates each distinct side once.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Any, Optional, Sequence

import numpy as np

from . import serialize
from .boundary import boundary_reduce
from .errors import DivergentInput, DomainError, NotConverged
from .model import (
    MplTerm,
    Pair,
    Relation,
    ZExpr,
    ZTerm,
    _Memo,
    _integer,
    drop_all_empty_components,
    is_convergent,
)
from .scalars import ONE, ZERO, Scalar

_KERNEL_WINDOW = 20_000  # escape-row window before the telescoped remainder
# connector weights kept at each edge of a convolution (its band rows)
_BAND = 60
_EDGE = 2 * _BAND + 2  # the least total with a split whose parts both exceed the band
# the largest weight the band drops: 1/C(2B+2, B+1), 2.61e-36; bounded in the tail
_DELTA = 1 / math.comb(_EDGE, _BAND + 1)
_CORNER = 256  # the width of the first weight block, [0, 256)
_BLOCK = 1024  # the width of the weight blocks past 1024 totals
_BLOCKS_MAX = 32  # weight blocks kept per process: totals below 30,720
_CAP = 1 << 21  # outer index past which no Hölder piece is summed
_U = 2.0 ** -53  # unit roundoff of float64
_LOOP_MAX = 128  # longest chain kept in Python lists, one loop per letter; numpy wins past it
# the Hölder sides of the open verify_relation or eval_zterm call, by
# (word, y, target): a memo made inside the call that dies with it
_SIDES: contextvars.ContextVar[Optional[_Memo]] = contextvars.ContextVar("sides", default=None)


def _scan(x: list | np.ndarray, z, weak: bool) -> list | np.ndarray:
    """The first-order recurrence over x: y[m] = z y[m-1] + x[m] (weak) or
    y[m] = z (y[m-1] + x[m-1]) (strict), from y[-1] = x[-1] = 0.  So
    y[m] = sum_j z^j x[m-j], over j >= 0 (weak) or j >= 1 (strict).  float64
    when x and z are real, complex128 otherwise.

    Three paths, by x and z (n the length of x):

    - x a list (a layer of at most _LOOP_MAX entries, from _chain): a Python
      loop, each strict step z*y + z*x in that order, returning a list;
    - z = 1: the running sum of the array x, shifted by one index when strict;
    - otherwise doubling: y starts as x (weak) or z x[m-1] (strict), and pass
      k = 1, 2, 4, ... < n adds z^k y[m-k] to y[m], z^k by squaring (it stops
      early once z^k is 0).

    Rounding, to first order in u with no underflow or overflow: the error
    in y[m] is at most u sum_j c |z|^j |x[m-j]| over the same j, with

    - z = 1: c = j + 1.  Term x[m-j] meets at most j + 1 sums;
    - loop: c = (1 + sqrt 5)(j + 1).  A step errs by at most (1 + sqrt 5) u
      of the absolute chain through it (a product within sqrt 5 u, a sum
      within u), and that error decays like z^i through the next i steps;
    - doubling: c = L + sqrt 5 j, L the number of passes.  Weak term j of
      y[m] meets at most L sums and, for each bit 2^s of j, one product
      within sqrt 5 u by z^(2^s), which errs by at most (2^s - 1) sqrt 5 u:
      2^s sqrt 5 u per bit.  Strict term j is weak term j - 1 of the start
      z x[m-1], whose product adds sqrt 5 u.

    For real x and z each sqrt 5 above is 1.  At z = 1 the loop's products
    are exact, so it errs as the running sum does.
    """
    if isinstance(x, list):  # Python floats or complexes in and out, no array
        acc = 0.0
        if weak:
            return [acc := v + z * acc for v in x]
        return [acc := z * acc + z * v for v in [0.0, *x[:-1]]]
    n = x.size
    dtype = np.result_type(x, z)
    if z == 1:
        y = np.cumsum(x, dtype=dtype)
        if not weak:
            y[1:] = y[:-1]
            y[:1] = 0.0
        return y
    if weak:
        y = x.astype(dtype)
    else:
        y = np.empty(n, dtype)
        y[0] = 0.0
        np.multiply(x[:-1], z, out=y[1:])
    buf = np.empty(n - 1, dtype)  # one product buffer for every pass
    k, p = 1, z
    while k < n and p != 0:
        t = buf[:n - k]
        np.multiply(y[:-k], p, out=t)
        y[k:] += t
        k, p = 2 * k, p * p
    return y


def _chain(letters, bound: int, weak: bool = False, sums: bool = False):
    """Chain mass by top index 0..bound: (last layer, the layer below it).

    layer[m] sums the chains of the letters so far whose top index is m, each
    slot weighted by v^gap / m^e.  Indices strictly increase; weak lets every
    slot after the first repeat the index below it (the bar chain).  Each
    letter is one _scan of the layer below, then one division by m^e.

    With sums, it returns instead one list per layer: the sums over m of the
    layer's scan divided by m^t, t = 1..e.  Entry t is the total of the same
    chain with the outermost exponent t in place of e.

    One loop runs over the letters; _LOOP_MAX chooses how the layer starts,
    divides and sums.  A chain of at most _LOOP_MAX entries holds each layer
    as a Python list (_scan's loop path), divides by the exact integer m^t
    rounded once to float64 (inf past its range), within 2u, and sums by
    math.fsum, of the real and imaginary parts apart, within u of the sum of
    the absolute layer.  A longer one holds numpy arrays, divides by ms ** t
    (inf past float64's range, without numpy's overflow warning), the last
    cut in place, and sums by np.sum.  Without sums the two layers return
    as arrays.
    """
    letters = list(letters)
    zs = [complex(v) for v, _ in letters]
    exps = [e for _, e in letters]
    real = not any(z.imag for z in zs)
    if real:
        zs = [z.real for z in zs]
    if bound + 1 <= _LOOP_MAX:
        layer = [1.0] + [0.0] * bound  # index 0 holds the empty chain

        def divide(x, t, last):
            return [v / p for v, p in zip(x, _powers(t))]

        total = math.fsum if real else lambda xs: complex(
            math.fsum([v.real for v in xs]), math.fsum([v.imag for v in xs]))
    else:
        zs = np.array(zs)
        layer = np.zeros(bound + 1, dtype=zs.dtype)
        ms = np.arange(bound + 1, dtype=np.float64)
        layer[0] = ms[0] = 1.0  # index 0 holds the empty chain; every later layer is 0 there
        with np.errstate(over="ignore"):  # an m^t past float64's range is inf and divides to 0
            pows = [None, ms] + [ms ** t for t in range(2, max(exps, default=0) + 1)]

        def divide(x, t, last):  # the last cut in place: no further full-length array
            return np.divide(x, pows[t], out=x if last else None)

        total = np.sum
    totals = []
    below = layer
    for i, (z, e) in enumerate(zip(zs, exps)):
        below = layer
        layer = _scan(below, z, weak and i > 0)
        if sums:
            totals.append([total(divide(layer, t, False)) for t in range(1, e)])
        layer = divide(layer, e, True)
        if sums:
            totals[-1].append(total(layer))
    if sums:
        return totals
    dtype = np.float64 if real else np.complex128
    return np.asarray(layer, dtype), np.asarray(below, dtype)


@functools.cache
def _powers(t: int) -> tuple[float, ...]:
    """m^t for m < _LOOP_MAX, 1 at m = 0: each the exact integer rounded once
    to float64, inf past its range.  Kept for every exponent t in use."""
    out = [1.0]
    for m in range(1, _LOOP_MAX):
        try:
            out.append(float(m ** t))
        except OverflowError:  # and so does every larger m
            out += [math.inf] * (_LOOP_MAX - m)
            break
    return tuple(out)


def _least(holds, lo: int, hi: int) -> int:
    """The least n in [lo, hi] with holds(n), for a predicate that stays true
    once it holds, or hi where none does: steps of 1, 2, 4, ... up from lo,
    then bisection below the first n that holds."""
    below, n, step = lo - 1, lo, 1  # holds(below) is false, or below < lo
    while not holds(n):
        if n >= hi:
            return hi
        below, n, step = n, min(n + step, hi), 2 * step
    while n - below > 1:
        mid = (below + n) // 2
        if holds(mid):
            n = mid
        else:
            below = mid
    return n


def _row_end(j: int) -> int:
    """T_end(j): the least T >= 2B+2 with C(T, j) >= C(2B+2, B+1), so that
    1/C(T, j) <= _DELTA from T_end(j) on (C(T, j) grows with T).  Exact, on
    integers; C(need, j) >= need bounds the search."""
    need = math.comb(_EDGE, _BAND + 1)
    return _least(lambda t: math.comb(t, j) >= need, _EDGE, need)


# T_end(j) for rows j = 1..B (entry 0 unused).  It falls with j, since
# C(T, j) < C(T, j+1) for T >= 2B+2: rows 1-5 end past 3.4e7, row 12 at 4,889,
# row 20 at 509, row 30 at 200 and rows 55-60 at 123
_ROW_END = [0] + [_row_end(j) for j in range(1, _BAND + 1)]


@functools.lru_cache(maxsize=_BLOCKS_MAX)
def _weight_block(lo: int) -> np.ndarray:
    """Read-only weights of the totals T in [lo, lo + width), width = lo
    clamped to [_CORNER, _BLOCK], for the rows j that run past lo:
    [j-1, T-lo] is 1/C(T, j), the running product of the factors
    j/(T-j+1) from 1, within about 2j u; 1 where T < j (the window is 0
    there), and exactly 0 from T_end(j) on."""
    width = min(max(lo, _CORNER), _BLOCK)
    rows = sum(end > lo for end in _ROW_END[1:])  # a prefix: the ends fall with j
    block, w = np.empty((rows, width)), np.ones(width)
    for j in range(1, rows + 1):
        t0 = max(j - lo, 0)  # the first column with T >= j
        w[t0:] *= j / np.arange(lo + t0 + 1.0 - j, lo + width + 1.0 - j)  # T-j+1
        block[j - 1] = w
        block[j - 1, min(_ROW_END[j], lo + width) - lo:] = 0.0
    block.flags.writeable = False  # shared by every call
    return block


def _window(pad: np.ndarray, lo: int, rows: int, width: int) -> np.ndarray:
    """The view [j-1, t] = x[lo + t - j], j <= rows, t < width, of pad = B zeros + x."""
    s = pad.itemsize
    return np.ndarray((rows, width), pad.dtype, pad, (_BAND + lo - 1) * s, (-s, s))


def _binom_conv(g: np.ndarray, a: np.ndarray, cap: int,
                size: Optional[int] = None) -> tuple[np.ndarray, float]:
    """Banded out[T] = sum_m g[T-m] a[m] / C(T, m), m = 1..cap, T < size.

    Only the edge splits are summed: row j = 1..B (B = _BAND) holds the
    splits m = j and T-m = j, which both weigh 1/C(T, j), and it runs only
    for T < T_end(j) (_ROW_END).  Each edge of a block of totals is one
    elementwise product of its weights with a window (_window) over a
    zero-padded copy of g or a, then one matrix-vector product with the
    other's entries 1..B.  The blocks (_weight_block) start at total 0 and
    each is computed whole and then cut, so out[:size] is the head of the
    full convolution, bit for bit, at every size.  a has cap+1 entries.
    Returns (out, k), out real when g and a are.

    Dropped mass.  Every split left out at T weighs at most _DELTA =
    1/C(2B+2, B+1), and none is left out below 2B+2: a split with both parts
    above B needs T >= 2B+2 and weighs 1/C(T, m) <= 1/C(T, B+1) <=
    1/C(2B+2, B+1); a split of row j past its end weighs 1/C(T, j) <=
    1/C(T_end(j), j) <= _DELTA.  Let j0 be the least row that ends below
    size (B+1 if none does).  Both parts of a left-out split are at least
    j0: a row-j split past the end has j >= j0 and other part
    T - j >= T_end(j) - B > B.  Each m is in one split at T, so the mass
    left out at T is at most k _DELTA, k = max_{s>=j0} |g[s]| *
    sum_{m>=j0} |a[m]|.
    """
    n_out = g.size + cap if size is None else min(size, g.size + cap)
    out = np.empty(n_out, dtype=np.result_type(g, a, np.float64))
    blocks, end = [], 0  # (start, weights) of each block below n_out
    while end < n_out:
        blocks.append((end, _weight_block(end)))
        end += blocks[-1][1].shape[1]
    # x[i] at pad[B + i] for 0 < i < n_out, zero elsewhere, to the last block's end
    gp, ap = (np.zeros(_BAND + end, x.dtype) for x in (g, a))
    for x, pad in ((g, gp), (a, ap)):
        pad[_BAND + 1:_BAND + min(x.size, n_out)] = x[1:n_out]
    g_row, a_row = gp[_BAND + 1:2 * _BAND + 1], ap[_BAND + 1:2 * _BAND + 1].copy()  # x[1..B]
    ap[_BAND + 1:2 * _BAND + 1] = 0.0  # a split with T-m <= B is row T-m of the first edge
    # each edge's elementwise product goes to one buffer, allocated once per call
    buf = np.empty(max((b.size for _, b in blocks), default=0), out.dtype)
    for lo, block in blocks:
        rows, width = block.shape
        prod = buf[:block.size].reshape(rows, width)
        part = a_row[:rows] @ np.multiply(block, _window(gp, lo, rows, width), out=prod)
        part += g_row[:rows] @ np.multiply(block, _window(ap, lo, rows, width), out=prod)
        out[lo:lo + width] = part[:n_out - lo]
    j0 = 1 + sum(hi >= n_out for hi in _ROW_END[1:])  # the rows that run to n_out come first
    k = float(np.max(np.abs(g[j0:]), initial=0.0)) * float(np.sum(np.abs(a[j0:cap + 1])))
    return out, k


def _connect(tops: Sequence[np.ndarray], cap: int,
             size: Optional[int] = None) -> tuple[np.ndarray, float]:
    """Connector-weighted convolution of the component arrays, T < size.

    Returns (out, k): out[T] is off by at most k _DELTA for T >= 2B+2 and
    exact (to rounding) below.  That flat form survives chaining: through
    the next convolution an input error of at most k _DELTA meets weights
    of at most 1, so it adds at most k _DELTA sum|a| to that _binom_conv's
    own drop.
    """
    out, k = tops[0][:size], 0.0
    for a in tops[1:]:
        out, drop = _binom_conv(out, a, cap, size)
        k = k * float(np.sum(np.abs(a))) + drop
    return out, k


def _closed_form_rows(bar: Pair, k_top: int, z: complex) -> bool:
    """Whether the escape rows of top letter (z, k_top) under bar have an exact
    closed form, which reads W only up to cap + 1 + r_max: z = 1, k = 1 and
    the all-ones bar (1) or (1,1)."""
    return z == 1 and k_top == 1 and bar.k in ((1,), (1, 1)) and all(v.is_one() for v in bar.z)


def _escape_rows(bar: Pair, w: np.ndarray, cap: int, r_max: int, k_top: int,
                 z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(value, residual bound) at r = 1..r_max (entry r-1) of sum_{m>cap}
    P_r(m) z^m W(m+r)/m^(k-1), P_r(m) = r! (m-1)!/(m+r)!, by one recursion in
    r, P_r(m) = P_(r-1)(m) r/(m+r) from 1/m, each row one dot with W.

    The cases of _closed_form_rows are exact; every other case is a
    phase-carrying window plus a frozen-W telescoped remainder (added to the
    value only when z = 1, where the remainder terms share one sign), with
    sum_{m>c} P_r(m) = (r-1)! c!/(c+r)!.
    """
    rs = np.arange(1, r_max + 1)

    def past(c: int) -> np.ndarray:  # A_r(c): 1/(c+1) at r = 1, then times (r-1)/(c+r)
        return np.cumprod(np.maximum(rs - 1, 1) / (c + rs))

    if _closed_form_rows(bar, k_top, z):
        if bar.k == (1,):
            return past(cap), np.zeros(r_max)
        h = w[cap + 1 + rs]  # W[T] = H_T for this bar
        return past(cap) * h + past(cap + 1) / rs, np.zeros(r_max)
    b = cap + _KERNEL_WINDOW
    m = np.arange(cap + 1, b + 1, dtype=np.float64)
    f = 1.0 / m ** k_top  # P_0(m) / m^(k-1)
    if z != 1:
        f = f * np.power(z, m)
    value = np.zeros(r_max, dtype=np.result_type(f, w))
    for r in rs:
        f *= r / (m + r)
        value[r - 1] = f @ w[cap + 1 + r:b + 1 + r]
    w_end = w[np.minimum(b + rs, w.size - 1)]
    w_probe = w[np.minimum(2 * b // 3 + rs, w.size - 1)]
    rem = past(b) * w_end / float(b) ** (k_top - 1)
    resid = past(b) * (np.abs(w_end - w_probe) + np.abs(w_end) / b)
    if z == 1:
        return value + rem, resid
    return value, resid + np.abs(rem)


def _uncovered_bound(t: ZTerm, cap: int, r_cut: int) -> float:
    """Bound on the rows that neither the capped sum nor the escape rows cover:
    (a) two or more component tops past cap, (b) one past it while the
    others, each at most cap, total more than r_cut.  Such a row T splits
    into parts s, T - s >= J = min(cap, r_cut) + 1, so T >= lo = cap + J + 1
    and its connector weight is at most 1/C(T, s) <= 1/C(T, J).

    With every variable in the closed disk and every exponent >= 1, a top of
    depth d at m <= T is at most H_T^(d-1) / m and the bar weight |W[T]| at
    most T^(1-e) H_T^(d-1) (e, d the bar's top exponent and depth).  As
    1/(m_1...m_n) = (m_1+...+m_n)/(T m_1...m_n), row T is at most
    n (1 + ln T)^q / T, q = D + d - 2 (D the sum of the depths), which falls
    once ln T >= q - 1.  With x = max(lo, e^(q-1)) and
    sum_{T>=lo} 1/C(T, J) = J/((J-1) C(lo-1, J-1)), the bound is

      C(n+1, 2) n (1 + ln x)^q / x * J / ((J-1) C(lo-1, J-1)),

    one row bound per pair of (a) and per top of (b) where one would do.
    That margin of 3 or more covers the rounding: a correctly rounded
    quotient of exact integers (or one below float64's normal range, far
    under eval_zterm's rounding term) and a few float operations, (2q + 8) u.
    """
    n, j = t.arity, min(cap, r_cut) + 1
    q = sum(p.dep for p in t.components) + t.bar.dep - 2
    weights = j / ((j - 1) * math.comb(cap + j, j - 1))  # sum_{T>=lo} 1/C(T, J)
    try:  # exp and float ** int raise where e^(q-1) or the power passes float64
        x = max(cap + j + 1, math.exp(q - 1))
        power = (1.0 + math.log(x)) ** q
    except OverflowError:
        return math.inf
    return math.comb(n + 1, 2) * n * power / x * weights


def _merge_zero_bar_letters(t: ZTerm) -> ZTerm:
    """The term with each bar letter (0, l) merged into the letter below it:
    0^gap vanishes unless the weak chain holds their indices equal.  (A zero
    first letter makes the term structurally zero.)"""
    letters: list[tuple[Scalar, int]] = []
    for v, e in t.bar.letters():
        if v.is_zero():
            v, e0 = letters.pop()
            e += e0
        letters.append((v, e))
    return ZTerm(t.coef, t.components, Pair.from_letters(letters))


def _check_tol(tol: float) -> None:
    """A tolerance must be a finite positive real, not a bool: no tail can meet
    one that is not, and a NaN one fails every comparison, so it reads as a failure."""
    if type(tol) is bool or not isinstance(tol, Real) or not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be a finite positive real, got {tol!r}")


@dataclass(frozen=True)
class EvalReport:
    """Result of a truncated numerical evaluation.

    truncation is the bound argument; an arity-1 term, evaluated through its
    boundary expansion, does not use it.  tail_estimate is proved for an
    arity-1 term; at arity >= 2 the escape rows' remainder and drift and a
    constant rounding term are heuristic.  converged means the estimate is
    below the caller tolerance.
    """

    value: complex
    truncation: int
    tail_estimate: float
    converged: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "value": serialize.complex_to_json(self.value),
            "truncation": self.truncation,
            "tail_estimate": serialize.float_to_json(self.tail_estimate),
            "converged": self.converged,
        }


def eval_zterm(t: ZTerm, bound: int, tol: float = 1e-6) -> EvalReport:
    """Evaluate a connected-sum term with every component top capped at bound.

    An arity-1 term is the sum of its boundary expansion (boundary_reduce),
    each polylogarithm by eval_mpl_auto within tol / (4 max(terms, sum |coef|)),
    so its tail is proved and bound is checked but not used.  Otherwise the
    bar chain runs up to the full component total and the single-escape rows
    are summed past the cap.
    """
    _check_tol(tol)
    bound = _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    if t.is_structurally_zero():
        return EvalReport(0j, bound, 0.0, True)
    t = drop_all_empty_components(t)  # arity reduction, value-preserving
    depth = max(p.dep for p in t.components)
    if bound < depth:
        raise DomainError(f"truncation bound {bound} is below the component depth {depth}")
    if not is_convergent(t):
        raise DivergentInput(f"{t} does not converge absolutely")
    if t.arity == 1:
        expansion = boundary_reduce(_merge_zero_bar_letters(t))
        with _shared_sides():
            value, tail, _ = _sum_terms(expansion.terms, tol, eval_mpl_auto)
        return EvalReport(value, bound, tail, tail <= tol)
    coef = complex(float(t.coef))
    n = t.arity
    cap = bound
    r_cut = max(2, int(45.0 / max(math.log(cap), 1.0))) + n
    reach = n * cap + 1  # the capped sum's totals
    # W[T] = T * (bar-chain mass ending exactly at T).  The capped sum reads it
    # up to reach, and so do the closed-form escape rows (up to cap + 1 + r,
    # r <= (n-1) cap); the other escape rows of a top letter on the unit
    # circle read it past reach, through their window.  A closed form's
    # all-ones bar chain is bitwise the head of a longer one
    z_tops = [complex(p.z[-1]) for p in t.components]
    on_circle = [abs(z) >= 1.0 - 1e-12 for z in z_tops]
    window = any(c and not _closed_form_rows(t.bar, p.k[-1], z)
                 for c, p, z in zip(on_circle, t.components, z_tops))
    t_ext = reach + _KERNEL_WINDOW + r_cut + 1 if window else reach
    w = _chain(t.bar.letters(), t_ext, weak=True)[0]
    w = w * np.arange(w.size, dtype=np.float64)

    chains = [_chain(p.letters(), cap) for p in t.components]
    tops = [c[0] for c in chains]
    g, k = _connect(tops, cap)
    value = complex(np.sum(g * w[:g.size]))
    tail = k * _DELTA * float(np.sum(np.abs(w[_EDGE:g.size])))
    tail += _uncovered_bound(t, cap, r_cut)
    # escape rows by top letter (k, z), the others' product by the tuple of the
    # other components: the components with equal keys share them
    rows, others = {}, {}
    for j, p in enumerate(t.components):
        z_top, k_top = p.z[-1], p.k[-1]
        az = z_tops[j]
        if not on_circle[j]:
            tail += abs(az) ** cap
            continue
        inner = chains[j][1]
        zpow = np.power(np.conj(az), np.arange(cap, dtype=np.float64))
        ghat = complex(np.sum(inner[:cap] * zpow))
        ghat_half = complex(np.sum(inner[:cap // 2] * zpow[:cap // 2]))
        drift = abs(ghat - ghat_half)
        # the escape rows read the others' product (0 below n-1) only up to r_cut
        rest = t.components[:j] + t.components[j + 1:]
        if rest not in others:
            others[rest] = _connect(tops[:j] + tops[j + 1:], cap, r_cut + 1)
        o, k_o = others[rest]
        if (k_top, z_top) not in rows:
            rows[k_top, z_top] = _escape_rows(t.bar, w, cap, o.size - 1, k_top, az)
        kv, kr = rows[k_top, z_top]
        rowsum = complex(np.sum(o[1:] * kv))
        value += ghat * rowsum
        o_err = k_o * _DELTA * float(np.sum(np.abs(kv[_EDGE - 1:])))  # o[r] off from r = 2B+2
        tail += abs(ghat) * (float(np.sum(np.abs(o[1:]) * kr)) + o_err) + drift * abs(rowsum)

    report_tail = abs(coef) * float(tail + 1e-13 * (1.0 + abs(value)))
    return EvalReport(complex(coef * value), bound, report_tail, report_tail <= tol)


# ---------------------------------------------------------------------------
# polylogarithm evaluation


def _remainder(q: int, rho: float, n: int) -> float:
    """Proved bound on sum_{m>n} C(m-1, q-1) rho^m, infinite where it has none.

    Past n the ratio of consecutive terms is at most r = rho (n+1)/(n+2-q),
    which falls with n, so once r < 1 the sum is at most
    C(n, q-1) rho^(n+1) / (1 - r), which falls with n too.
    """
    if rho == 0.0:
        return 0.0
    r = rho * (n + 1) / (n + 2 - q)
    if r >= 1.0:
        return math.inf
    return _exp(math.lgamma(n + 1) - math.lgamma(q) - math.lgamma(n + 2 - q) +
                (n + 1) * math.log(rho)) / (1.0 - r)


def _exp(x: float) -> float:
    """e^x, infinite where float64 overflows (math.exp raises there)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _cut(q: int, rho: float, target: float) -> tuple[int, float]:
    """(N, R): the least N >= max(1, q-1) with R = _remainder(q, rho, N) <=
    target, or (_CAP, its R) if N would pass _CAP.  _remainder is infinite
    while r >= 1 and falls after, so the search is monotone."""
    n = _least(lambda n: _remainder(q, rho, n) <= target, max(1, q - 1), _CAP)
    return n, _remainder(q, rho, n)


def _side(word: Sequence[complex], y: float, target: float) -> list[tuple[complex, float]]:
    """(value, error bound) of G(word[j:]; y) for j = 0..len(word), a word
    whose last letter is not 0.

    G(0^(s_1-1), c_1, ..., 0^(s_q-1), c_q; y) is (-1)^q times the chain over
    (y/c_q, s_q), ..., (y/c_1, s_1), whose entries at outer index n are at most
    C(n-1, q-1) rho^n (rho the largest |y/c|).  A suffix with i letters c is
    layer i of that chain, with its outermost exponent cut to t when the suffix
    starts t-1 zeros before its first c: _chain's sums give them all.  The
    chain runs to one N, at which every layer's remainder is within target;
    the top layer, with the largest q and rho, sets N unless a lower one
    needs more.  A layer whose own cut would pass _CAP, and every layer above
    it, sums nothing: its pieces return 0 with the bound
    sum_(n>=1) C(n-1, q-1) rho^n = (rho / (1 - rho))^q on all of them, or an
    infinite one for rho >= 1.  A pure function of its arguments, so
    eval_mpl_auto shares it by key.

    The rounding bounds come from the absolute chain over the letters |y/c|.
    When every letter is real and nonnegative that is the value chain itself
    (abs returns those floats unchanged), so the side runs one chain.
    Every letter has |a| < 1, so _scan runs its loop on Python lists or, for
    N + 1 > _LOOP_MAX, its doubling path on arrays.  In the loop each
    recurrence step errs by at most 12u of the absolute chain through it
    (the letter's rounding and division, two products, one sum), decaying
    like the letter's powers: letter a adds 12u/(1 - |a|) of the absolute
    chain's total.  Doubling in L passes (L the bit length of N) errs by
    (L + sqrt(5) j)u on term j of a layer, where the loop errs by
    (1 + sqrt(5))(j + 1)u (_scan), and the letter's rounding adds the same
    to both: the 12u per step covers all but L u, so each letter adds L u
    more of the total.  Each division by m^e adds 3u (on lists, the exact
    integer m^e rounded once and one quotient: 2u).  Each sum is budgeted
    (log2 N + 19)u, what numpy's blocked pairwise sum needs on arrays;
    math.fsum on lists errs by at most u.  An unbounded piece whose bound
    passes float64's range is infinite.
    """
    zs: list[complex] = []
    exps: list[int] = []
    shape = [(0, 0)]  # (letters c, outermost exponent t) of each suffix, reversed below
    for c in reversed(word):
        if c != 0:
            zs.append(y / c)
            exps.append(0)
        exps[-1] += 1
        shape.append((len(zs), exps[-1]))
    shape.reverse()
    moduli = [abs(v) for v in zs]
    # rho of each layer, widened to cover the rounding of its letters
    rhos = [a * (1.0 + 4.0 * _U) for a in itertools.accumulate(moduli, max)]
    live = len(zs)
    while live:
        n, rem = _cut(live, rhos[live - 1], target)
        if rem <= target:
            break
        live -= 1
    if live:
        trunc = [_remainder(i, rhos[i - 1], n) for i in range(1, live + 1)]
        if max(trunc) > target:  # C(n, i-1) > C(n, live-1) for n < i + live - 2
            n = max(_cut(i, rhos[i - 1], target)[0]
                    for i in range(1, live + 1) if trunc[i - 1] > target)
            trunc = [_remainder(i, rhos[i - 1], n) for i in range(1, live + 1)]
        totals = _chain(zip(zs[:live], exps), n, sums=True)
        if all(not z.imag and z.real >= 0 for z in zs[:live]):
            masses = totals  # abs leaves these letters as they are: the same chain
        else:
            masses = _chain(zip(moduli[:live], exps), n, sums=True)
        passes = n.bit_length() if n + 1 > _LOOP_MAX else 0  # _scan's doubling passes
        steps = list(itertools.accumulate(12.0 / (1.0 - a) + 3.0 + passes
                                          for a in moduli[:live]))
        rounding = math.log2(n + 1) + 19.0
    out = []
    for q, t in shape:
        if q == 0:
            out.append((1 + 0j, 0.0))
        elif q > live:  # no partial sum can meet the target
            rho = rhos[q - 1]
            out.append((0j, _exp(q * math.log(rho / (1.0 - rho))) if rho < 1.0 else math.inf))
        else:
            mass = float(masses[q - 1][t - 1])
            out.append(((-1) ** q * complex(totals[q - 1][t - 1]),
                        trunc[q - 1] + (steps[q - 1] + rounding) * _U * mass))
    return out


def _side_of(key: tuple) -> list[tuple[complex, float]]:
    return _side(*key)


@contextlib.contextmanager
def _shared_sides():
    """Within the block every _side call of eval_mpl_auto goes through one
    memo, the one already open or one made here that dies with the block."""
    memo = _SIDES.get()
    token = _SIDES.set(_Memo(_side_of) if memo is None else memo)
    try:
        yield
    finally:
        _SIDES.reset(token)


def eval_mpl_auto(m: MplTerm, tol: float) -> tuple[complex, float]:
    """(value, proved error bound) by the Hölder convolution of the module
    docstring.  _side is a pure function of (word, y, target), so each
    distinct side is computed once within the open verify_relation or
    eval_zterm call (_SIDES), or within this call when none is open."""
    _check_tol(tol)
    if not m.guard_ok():
        raise DivergentInput(f"{m} violates its convergence guard")
    if ZERO in m.z:  # every gap power of a zero variable is 0
        return 0j, 0.0
    exact: list[Scalar] = []
    for v, e in zip(reversed(m.z), reversed(m.k)):
        exact += [ZERO] * (e - 1) + [v.inv()]
    # both letter lists are rounded from exact values, so 1 - b never cancels
    word = [complex(b) for b in exact]
    reflected = [complex(ONE - b) for b in exact]
    d0 = min((abs(b) for b in word if b != 0), default=1.0)  # the empty word is 1
    d1 = min((abs(b) for b in reflected if b != 0), default=1.0)
    lam = round(d0 / (d0 + d1) * 2 ** 52) / 2 ** 52  # so 1 - lam is exact too
    target = tol / (4.0 * (len(word) + 1))
    # at j: G(1-b_j, ..., 1-b_1; 1-lam), the suffixes of the reversed reflected
    # word, and G(b_(j+1), ..., b_w; lam), the suffixes of the word
    sides = _SIDES.get()
    if sides is None:  # a call of its own: a memo for its two sides
        sides = _Memo(_side_of)
    left = sides[tuple(reflected[::-1]), 1.0 - lam, target][::-1]
    right = sides[tuple(word), lam, target]
    value, tail, scale = 0j, 0.0, 0.0
    for j, ((a, e_a), (b, e_b)) in enumerate(zip(left, right)):
        value += (-1) ** j * a * b
        tail += e_a * abs(b) + (abs(a) + e_a) * e_b
        scale += (abs(a) + e_a) * (abs(b) + e_b)
    # the products and their alternating sum: sqrt(5) u and w u of each |a b|;
    # an unbounded piece times an exact zero leaves no bound either
    tail += (len(word) + 4) * _U * scale
    return (-1) ** m.dep * value, math.inf if math.isnan(tail) else tail


# ---------------------------------------------------------------------------
# relation verification


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking |lhs - rhs| <= tol for a relation."""

    ok: bool
    lhs_value: complex
    rhs_value: complex
    difference: float
    tol: float
    tail_total: float
    per_term: tuple[tuple[str, complex], ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "lhs": serialize.complex_to_json(self.lhs_value),
            "rhs": serialize.complex_to_json(self.rhs_value),
            "difference": serialize.float_to_json(self.difference),
            "tol": serialize.float_to_json(self.tol),
            "tail_total": serialize.float_to_json(self.tail_total),
            "terms": [[name, serialize.complex_to_json(v)] for name, v in self.per_term],
        }


def _sum_terms(items, tol: float, evaluate) -> tuple[complex, float, list[complex]]:
    """(value, tail, per-term values) of sum coef * term over (coef, term)
    items, each term by evaluate(term, budget) -> (value, tail).  The budget
    is tol / (4 max(count, sum |coef|)), so tails within it total at most
    tol/4 however large the coefficients."""
    mass = sum(abs(float(coef)) for coef, _ in items)
    budget = tol / (4.0 * max(len(items), mass, 1))
    val, tails, values = 0j, 0.0, []
    for coef, term in items:
        v, e = evaluate(term, budget)
        val += complex(float(coef)) * v
        tails += abs(float(coef)) * e
        values.append(v)
    return val, tails, values


def _eval_side(side, bound: int, tol: float) -> tuple[complex, float, list]:
    if isinstance(side, ZExpr):
        items = [(t.coef, t) for t in side.as_terms()]

        def evaluate(term, budget):
            rep = eval_zterm(term.with_coef(1), bound, budget)
            return rep.value, rep.tail_estimate
    else:
        items, evaluate = side.terms, eval_mpl_auto
    val, tails, values = _sum_terms(items, tol, evaluate)
    return val, tails, [(str(t), v) for (_, t), v in zip(items, values)]


def verify_relation(rel: Relation, bound: int = 400, tol: float = 1e-6) -> VerifyReport:
    """Numerically certify |lhs - rhs| <= tol; NotConverged if tails exceed tol.
    bound must be >= 1 even when neither side has a connected-sum term."""
    _check_tol(tol)
    _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    with _shared_sides():
        lv, lt, lp = _eval_side(rel.lhs, bound, tol)
        rv, rt, rp = _eval_side(rel.rhs, bound, tol)
    tail_total = lt + rt
    diff = abs(lv - rv)
    if tail_total > tol:
        raise NotConverged(f"tail estimate {tail_total:.3e} exceeds tolerance {tol:.3e}")
    return VerifyReport(
        ok=bool(diff <= tol),
        lhs_value=complex(lv),
        rhs_value=complex(rv),
        difference=float(diff),
        tol=tol,
        tail_total=float(tail_total),
        per_term=tuple(lp + rp),
    )
