import ast
import functools
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import types
import warnings
from bisect import bisect_left
from fractions import Fraction as F

import numpy as np
import pytest

from connsum import exact, numeric, scalars
from connsum.boundary import harmonic_to_shuffle
from connsum.errors import DivergentInput, DomainError, HypothesisViolated, NotConverged
from connsum.exact import (
    connector,
    eval_mpl_partial_exact,
    eval_zterm_partial_exact,
    telescoping_check,
)
from connsum.model import MplExpr, MplTerm, Pair, Relation, ZTerm, zterm
from connsum.numeric import eval_mpl_auto, eval_zterm, verify_relation
from connsum.recipe import RecipeData, recipe_relation
from connsum.scalars import ONE, ZERO, Scalar, sc
from connsum.transport import reduce_to_mpl, transportable_pick

random.seed(51)

Z3 = 1.2020569031595942854
PI = math.pi


def test_connector_examples():
    assert connector((1, 1)) == F(1, 2)
    assert connector((2, 3)) == F(1, 10)
    assert connector((1, 1, 1)) == F(1, 6)
    assert connector((0, 5)) == 1
    assert connector(()) == 1
    for bad in ((-1,), (3, -1), (1.5, 2), (True, 1), (np.True_, 1)):
        with pytest.raises(DomainError, match="connector entries"):
            connector(bad)
    assert connector((np.int64(2), np.uint8(3))) == F(1, 10)


def test_connector_symmetry_and_bound():
    for _ in range(100):
        a = [random.randint(0, 8) for _ in range(random.randint(2, 4))]
        b = a[:]
        random.shuffle(b)
        assert connector(a) == connector(b)
        if all(x >= 1 for x in a):
            prod = 1
            for x in a:
                prod *= x
            assert connector(a) <= F(1, prod)


def test_eval_cloitre():
    rep = eval_zterm(zterm([Pair.ones((1,)), Pair.ones((1,))]), 400, tol=1e-4)
    assert abs(rep.value.real - PI ** 2 / 6) < 1e-10
    assert rep.converged


def test_eval_oloa():
    rep = eval_zterm(zterm([Pair.ones((1,)), Pair.ones((1,))], Pair.ones((1, 1))), 400)
    assert abs(rep.value.real - 3 * Z3) < 1e-10


def test_eval_zeta4():
    rep = eval_zterm(zterm([Pair.ones((1,)), Pair.ones((1,))], Pair.ones((2, 1))), 400)
    assert abs(rep.value.real - F(17, 8) * PI ** 4 / 90) < 1e-7


def _capped_sum(t, bound):
    """The raw capped sum eval_zterm starts from at arity >= 2, built from the
    pieces it runs: every component top at most bound, no escape rows."""
    tops = [numeric._chain(p.letters(), bound)[0] for p in t.components]
    g, _ = numeric._connect(tops, bound)
    w = numeric._chain(t.bar.letters(), g.size - 1, weak=True)[0] * np.arange(g.size)
    return complex(float(t.coef)) * complex(np.sum(g * w))


def _direct_sum(m, bound):
    """A polylogarithm summed directly to outer index bound by _chain, through
    its shuffle form, whose gap powers stay bounded in the closed disk."""
    if m.kind == "harmonic":
        m = harmonic_to_shuffle(m)
    return complex(np.sum(numeric._chain(zip(m.z, m.k), bound)[0]))


def test_eval_against_exact_partial():
    # float and exact paths agree to 1e-12 on the raw truncated sum
    from connsum.model import is_convergent

    pool = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 3), F(1, 3))]
    done = 0
    while done < 8:
        n = random.randint(1, 2)
        comps = []
        for _ in range(n):
            r = random.randint(1, 2)
            comps.append(Pair(tuple(random.randint(1, 2) for _ in range(r)),
                              tuple(random.choice(pool) for _ in range(r))))
        bar = Pair.ones((random.randint(1, 2),))
        t = zterm(comps, bar)
        if not is_convergent(t):
            continue
        exact = eval_zterm_partial_exact(t, 60)
        assert abs(complex(exact) - _capped_sum(t, 60)) < 1e-12
        done += 1


def test_eval_mpl_values():
    _covered(MplTerm("shuffle", (2,), (ONE,)), PI ** 2 / 6)
    _covered(MplTerm("shuffle", (2,), (sc(-1),)), -PI ** 2 / 12)
    # the empty word is 1; its tail is the rounding bound of one product
    value, tail = eval_mpl_auto(MplTerm("shuffle", (), ()), 1e-12)
    assert value == 1 and tail <= 4 * 2.0 ** -53


def test_eval_mpl_partial_exact_example():
    li = eval_mpl_partial_exact(MplTerm("shuffle", (1,), (sc(F(1, 2)),)), 3)
    assert li == sc(F(1, 2) + F(1, 8) + F(1, 24))


def test_exact_partial_frozen_value():
    # brute-forced by hand: all (m, n) in {1, 2}^2 shells of the plain sum
    t = zterm([Pair.ones((1,)), Pair.ones((1,))])
    assert eval_zterm_partial_exact(t, 2) == sc(F(7, 8))


def test_eval_mpl_auto_all_ones():
    v, e = eval_mpl_auto(MplTerm("shuffle", (1, 2), (ONE, ONE)), 1e-9)
    assert abs(v.real - Z3) < 5e-9  # classical depth-2 value
    v, e = eval_mpl_auto(MplTerm("shuffle", (2, 2), (ONE, ONE)), 1e-9)
    assert abs(v.real - PI ** 4 / 120) < 5e-9
    v, e = eval_mpl_auto(MplTerm("shuffle", (1, 1, 2), (ONE, ONE, ONE)), 1e-5)
    assert abs(v.real - PI ** 4 / 90) < 2e-5


def _covered(term, ref, tol=1e-12):
    value, tail = eval_mpl_auto(term, tol)
    assert abs(value - ref) <= tail, (str(term), abs(value - ref), tail)
    return tail


def test_chain_matches_nested_sum():
    # _chain computes in float64 for real variables and complex128 otherwise,
    # and agrees with a brute-force nested sum over every index tuple
    real = ((ONE, 2), (sc(-1), 1), (sc(F(1, 2)), 3))
    cplx = ((sc(0, 1), 1), (sc(F(3, 5), F(4, 5)), 2), (ONE, 2))
    for letters, dtype in ((real, np.float64), (cplx, np.complex128)):
        for weak in (False, True):
            top, below = numeric._chain(letters, 999, weak)
            assert top.dtype == below.dtype == dtype
            assert top.shape == below.shape == (1000,)
    rng = random.Random(707)
    pool = [sc(-1), sc(0, 1), sc(F(3, 5), F(4, 5)), ONE, sc(F(1, 2)), sc(F(-1, 3), F(1, 3))]
    for kind in ("strict", "weak"):
        for depth in (1, 2, 3):
            for _ in range(4):
                letters = [(rng.choice(pool), rng.randint(1, 3)) for _ in range(depth)]
                bound = rng.randint(1, 8)
                top = numeric._chain(letters, bound, kind == "weak")[0]
                want = _nested_sum(letters, bound, kind)
                for m in range(bound + 1):
                    ref = complex(want.get(m, sc(0)))
                    assert abs(top[m] - ref) <= 1e-14 * (1 + abs(ref)), (kind, letters, m)


def test_eval_mpl_auto_work_bound(monkeypatch):
    # the Hölder pieces converge geometrically: far fewer elements are scanned
    # than direct summation needs, which for zeta(1,1,1,1,2) took about 1.7e8
    # elements and still missed zeta(6) by 3e-5
    hurwitz_zeta = pytest.importorskip("scipy.special").zeta
    term = MplTerm("shuffle", (1, 2), (sc(F(1, 2)), sc(-1)))
    tol = 1e-9
    ref = eval_mpl_auto(term, 1e-14)[0]
    n = 4096
    while abs(_direct_sum(term, n) - ref) > tol / 2:
        n <<= 1
    assert n >= 1 << 15
    counted = [0]
    scan = numeric._scan

    def counting_scan(x, z, weak):
        counted[0] += np.size(x)
        return scan(x, z, weak)

    monkeypatch.setattr(numeric, "_scan", counting_scan)
    eval_mpl_auto(term, tol)
    assert counted[0] <= (n + 1) * term.dep + 4096 * term.dep, (counted[0], n)
    counted[0] = 0
    _covered(MplTerm("shuffle", (1, 1, 1, 1, 2), (ONE,) * 5), float(hurwitz_zeta(6, 1)))
    assert counted[0] <= 10 ** 5, counted[0]


def test_zeta_11112_is_zeta6_in_one_scan_per_letter(monkeypatch):
    # README's figure: at tol 1e-12, zeta(1,1,1,1,2) runs its two sides to
    # N = 45 and N = 65, one _scan call per letter c of each side's two
    # chains, 12 calls over 752 elements, and matches pi^6/945 within its
    # tail.  Both cuts are below _LOOP_MAX, so the chains stay Python lists
    # from the first letter to the sums: no numpy attribute is read
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} read on a short chain")

    scanned, scan = [], numeric._scan

    def recording_scan(x, z, weak):
        scanned.append(len(x))
        return scan(x, z, weak)

    monkeypatch.setattr(numeric, "_scan", recording_scan)
    monkeypatch.setattr(numeric, "np", NoNumpy())
    value, tail = eval_mpl_auto(MplTerm("shuffle", (1, 1, 1, 1, 2), (ONE,) * 5), 1e-12)
    assert sorted(scanned) == [45 + 1] * 2 + [65 + 1] * 10 and sum(scanned) == 752
    assert abs(value - PI ** 6 / 945) <= tail <= 1e-12, (value, tail)


def test_divergent_inputs_rejected():
    with pytest.raises(DivergentInput):
        eval_zterm(zterm([Pair.ones((1, 1))], Pair.ones((1, 1))), 50)
    with pytest.raises(DivergentInput):
        eval_mpl_auto(MplTerm("shuffle", (1,), (ONE,)), 1e-6)


def test_bound_below_one_rejected():
    t = zterm([Pair.ones((1,)), Pair.ones((1,))])
    rel = _single(MplTerm("shuffle", (2,), (ONE,)))
    # so is one that is not an integer: a float bound was a bare TypeError,
    # a bool one a numpy broadcast error
    for bound in (0, -1, 10.5, 400.0, True):
        with pytest.raises(DomainError, match="integer >= 1"):
            eval_zterm(t, bound)
        with pytest.raises(DomainError, match="integer >= 1"):
            verify_relation(rel, bound=bound)
        # the exact oracles too: a bool bound read as 1, a float one was a bare TypeError
        with pytest.raises(DomainError, match="integer >= 1"):
            eval_zterm_partial_exact(t, bound)
        with pytest.raises(DomainError, match="integer >= 1"):
            eval_mpl_partial_exact(MplTerm("shuffle", (2,), (ONE,)), bound)
    assert eval_zterm(t, np.int64(10)).value == eval_zterm(t, 10).value
    # the report carries a Python int, which JSON can write
    assert type(eval_zterm(t, np.int64(10)).truncation) is int
    assert eval_zterm_partial_exact(t, np.int64(10)) == eval_zterm_partial_exact(t, 10)
    # the common denominator is a power with the bound as its exponent; read
    # as an np.int64 it overflowed silently, so the oracles use the int
    # that _integer returns
    for kind in ("shuffle", "harmonic"):
        term = MplTerm(kind, (2, 1), (sc(F(1, 3)), sc(F(-1, 2), F(1, 2))))
        assert eval_mpl_partial_exact(term, np.int64(40)) == eval_mpl_partial_exact(term, 40)
    # a component deeper than the bound leaves no index chain: Z1((1,1)|(2)),
    # which is zeta(3), would read 0
    with pytest.raises(DomainError):
        eval_zterm(zterm([Pair.ones((1, 1))], Pair.ones((2,))), 1)


def _nested_sum(letters, bound, kind):
    """Brute-force chain mass by top index, one index tuple at a time."""
    depth = len(letters)
    tuples = (itertools.combinations_with_replacement if kind == "weak"
              else itertools.combinations)(range(1, bound + 1), depth)
    out = {}
    for idx in tuples:
        val, prev = ONE, 0
        for (v, e), m in zip(letters, idx):
            val = val * v ** (m if kind == "harmonic" else m - prev) * sc(F(1, m ** e))
            prev = m
        out[idx[-1]] = out.get(idx[-1], sc(0)) + val
    return {m: val for m, val in out.items() if not val.is_zero()}


def _entries(nums, den):
    """An exact chain's (numerators, den) as Scalars by top index."""
    return {m: scalars._make(*scalars._primitive(a, b, den)) for m, (a, b) in nums.items()}


def test_exact_chain_matches_nested_sum():
    rng = random.Random(808)
    pool = [sc(-1), sc(0, 1), sc(F(3, 5), F(4, 5)), ONE, sc(F(1, 2)), sc(F(-1, 3), F(1, 3))]
    for weak in (False, True):
        for depth in (1, 2, 3):
            for _ in range(4):
                letters = [(rng.choice(pool), rng.randint(1, 2)) for _ in range(depth)]
                bound = rng.randint(depth, 8)
                # the reference sums Scalars; the chain sums integer numerators
                chain = _entries(*exact._exact_chain(letters, bound, weak))
                kind = "weak" if weak else "strict"
                assert chain == _nested_sum(letters, bound, kind), (kind, letters, bound)


def test_harmonic_oracle_matches_nested_sum():
    # a harmonic term enters the exact oracle as the strict chain of its
    # suffix products; term by term that is the harmonic series, so each
    # partial sum equals the brute-force one exactly, for variables outside
    # the disk too
    rng = random.Random(3103)
    pool = [sc(3), sc(F(-5, 2), 1), sc(-1), sc(0, 1), sc(F(1, 2)), sc(F(-1, 3), F(2, 3)),
            sc(F(3, 5), F(4, 5)), ONE, ZERO]
    for _ in range(60):
        depth = rng.randint(1, 3)
        letters = [(rng.choice(pool), rng.randint(1, 3)) for _ in range(depth)]
        bound = rng.randint(depth, 9)
        term = MplTerm("harmonic", [e for _, e in letters], [v for v, _ in letters])
        ref = sum(_nested_sum(letters, bound, "harmonic").values(), ZERO)
        assert eval_mpl_partial_exact(term, bound) == ref, (str(term), bound)


def _running_chain(letters, bound, weak):
    """The recurrences of exact._exact_chain summed in Scalar operators, each
    value reduced as it is formed: no common denominator, no integer
    division."""
    layer = {0: ONE}
    for i, (v, e) in enumerate(letters):
        nxt, acc = {}, ZERO
        for m in range(1, bound + 1):
            if weak and i > 0:
                acc = v * acc + layer.get(m, ZERO)
            else:
                acc = v * (acc + layer.get(m - 1, ZERO))
            val = acc * sc(F(1, m ** e))
            if not val.is_zero():
                nxt[m] = val
        layer = nxt
    return layer


def test_exact_chain_divisions_are_exact():
    # every // of the chain divides a numerator that the common denominator
    # makes a multiple of the divisor; were that argument wrong, some //
    # would round down and its entry differ from the Scalar reference
    rng = random.Random(3101)

    def letter():
        q = rng.randint(1, 5)
        while True:
            a = rng.randint(-q, q)
            b = rng.randint(-q, q) if rng.random() < 0.5 else 0
            if a or b:
                return sc(F(a, q), F(b, q))

    for weak in (False, True):
        # below a bound of q, bound! holds no factor q to hide a short power
        # of the denominators
        for depth, bound in ((1, rng.randint(1, 6)), (2, rng.randint(2, 6)), (3, rng.randint(3, 6)),
                             (1, rng.randint(1, 200)), (2, rng.randint(2, 200)), (3, 200)):
            letters = [(letter(), rng.randint(1, 3)) for _ in range(depth)]
            chain = _entries(*exact._exact_chain(letters, bound, weak))
            assert chain == _running_chain(letters, bound, weak), (weak, letters, bound)


def test_zterm_oracle_matches_tuple_enumeration():
    # the running convolution over the components against the definition:
    # every tuple of component tops, its connector weight, and the bar
    # chain at their total, summed in Scalars
    rng = random.Random(3102)
    pool = [sc(F(1, 2)), sc(-1), sc(F(-1, 3), F(2, 3)), ONE, sc(0, 1), sc(F(3, 5), F(4, 5))]

    def pair(least):
        r = rng.randint(least, 2)
        return Pair(tuple(rng.randint(1, 3) for _ in range(r)),
                    tuple(rng.choice(pool) for _ in range(r)))

    bound = 6
    for _ in range(5):
        t = ZTerm(F(rng.randint(-3, 3) or 1, rng.randint(1, 4)),
                  [pair(0), pair(1), pair(1)], pair(1))
        layers = [_nested_sum(p.letters(), bound, "strict") if p.k else {0: ONE}
                  for p in t.components]
        bar = _nested_sum(t.bar.letters(), sum(max(layer) for layer in layers), "weak")
        ref = ZERO
        for tops in itertools.product(*(layer.items() for layer in layers)):
            total = sum(m for m, _ in tops)
            if total in bar:
                val = sc(connector([m for m, _ in tops]) * total * t.coef) * bar[total]
                for _, x in tops:
                    val = val * x
                ref = ref + val
        assert eval_zterm_partial_exact(t, bound) == ref, t


def test_exact_chain_linear_in_bound(monkeypatch):
    # the chains keep integer numerators over one common denominator and
    # reduce nothing: whatever the bound, each oracle calls _primitive once,
    # on its result, and builds one Scalar
    reduced, built = [0], [0]
    primitive, make = exact._primitive, scalars._make

    def counting_primitive(*args):
        reduced[0] += 1
        return primitive(*args)

    def counting_make(*args):
        built[0] += 1
        return make(*args)

    monkeypatch.setattr(exact, "_primitive", counting_primitive)
    # every Scalar is built by the one constructor, wherever it is called from
    monkeypatch.setattr(scalars, "_make", counting_make)
    monkeypatch.setattr(exact, "_make", counting_make)
    mpl = MplTerm("shuffle", (1, 2, 1), (sc(F(1, 2)), sc(-1), sc(F(3, 5), F(4, 5))))
    z = zterm([Pair((1, 2), (sc(F(1, 2)), sc(0, 1))), Pair.ones((1,))], Pair.ones((1, 1)))
    for oracle, term in ((eval_mpl_partial_exact, mpl), (eval_zterm_partial_exact, z)):
        for bound in (30, 60):
            reduced[0] = built[0] = 0
            oracle(term, bound)
            assert (reduced[0], built[0]) == (1, 1), (oracle.__name__, bound)


def _binom_conv_reference(g, a, cap):
    """The full per-T loop: out[T] = sum_m g[T-m] a[m] / C(T, m), m = 1..cap,
    each weight correctly rounded from the exact integer C(T, m)."""
    out = np.zeros(g.size + cap, dtype=np.complex128)
    for t in range(2, out.size):
        m = np.arange(max(1, t - g.size + 1), min(cap, t - 1) + 1)
        weights = np.array([1 / math.comb(t, int(x)) for x in m])
        out[t] = np.sum(g[t - m] * a[m] * weights)
    return out


def test_binom_conv_matches_full_loop():
    rng = np.random.default_rng(404)
    band = numeric._BAND
    seen_drop = False
    for g_size, cap, middle in [(2 * band + 2, 2 * band + 1, False), (3 * band, band + 7, False),
                                (band - 3, 2 * band + 2, False), (2 * band + 5, band - 5, False),
                                (band - 1, band - 2, False), (3 * band, 2 * band, True)]:
        g = rng.normal(size=g_size) + 1j * rng.normal(size=g_size)
        a = rng.normal(size=cap + 1) + 1j * rng.normal(size=cap + 1)
        g[0] = a[0] = 0
        if middle:  # only splits with both parts above the band: all dropped
            g[:band + 1] = 0
            a[:band + 1] = 0
        out, k = numeric._binom_conv(g, a, cap)
        ref = _binom_conv_reference(g, a, cap)
        scale = np.abs(_binom_conv_reference(np.abs(g), np.abs(a), cap))
        drop = k * numeric._DELTA * (np.arange(out.size) >= 2 * band + 2)
        assert out.size == ref.size
        assert np.all(drop[:2 * band + 2] == 0)
        assert np.all(np.abs(out - ref) <= drop + 1e-13 * scale), (g_size, cap)
        seen_drop |= bool(np.any(np.abs(ref) > 1e-13 * scale + 1e-300) and middle)
        # real inputs stay real, and give the real part of the same sums
        real, _ = numeric._binom_conv(g.real, a.real, cap)
        assert real.dtype == np.float64
        # a cut output is the head of the full one, bit for bit, at every size
        for gg, aa, full in ((g, a, out), (g.real, a.real, real)):
            for size in range(1, full.size + 1):
                assert np.array_equal(numeric._binom_conv(gg, aa, cap, size)[0], full[:size]), size
        assert np.all(np.abs(real - _binom_conv_reference(g.real, a.real, cap).real)
                      <= drop + 1e-13 * scale), (g_size, cap)
    assert seen_drop


def test_row_ends_exact():
    # row j of the band ends at the least T >= 2B+2 with 1/C(T, j) at most
    # 1/C(2B+2, B+1), the weight of the first split it drops in the middle;
    # rows 1-5 end past 3.4e7
    band = numeric._BAND
    need = math.comb(2 * band + 2, band + 1)
    assert numeric._DELTA == 1 / need and f"{numeric._DELTA:.3g}" == "2.61e-36"
    ends = numeric._ROW_END
    assert len(ends) == band + 1
    for j in range(1, band + 1):
        assert ends[j] > 2 * band + 2
        assert math.comb(ends[j], j) >= need > math.comb(ends[j] - 1, j), j
        assert j == 1 or ends[j] <= ends[j - 1]
    assert min(ends[1:6]) > 34_000_000 and max(ends[6:]) < 3_000_000
    assert (ends[12], ends[20], ends[30], set(ends[55:])) == (4_889, 509, 200, {123})
    # the first block's weights are the rows' running products, each within
    # 2j roundings of 1/C(T, j) (1 where T < j) up to the row's end, and 0
    # from there; its windows read x[T-j] over the padded copy, 0 where T-j < 0
    block = numeric._weight_block(0)
    corner = numeric._CORNER
    assert block.shape == (band, corner)
    pad = np.concatenate((np.zeros(band), np.arange(1.0, corner)))  # x[i] = i + 1
    s = numeric._window(pad, 0, band, corner)
    for t in range(corner):
        for j in range(1, band + 1):
            exact = 1 / math.comb(t, j) if t >= j else 1.0
            if t >= ends[j]:
                assert block[j - 1, t] == 0.0, (t, j)
            else:
                assert abs(block[j - 1, t] - exact) <= 2.01 * j * 2.0 ** -53 * exact, (t, j)
            assert s[j - 1, t] == max(t - j + 1, 0)
    # a split with an empty part weighs nothing: g[0] and a[0] are never read
    rng = np.random.default_rng(316)
    g, a = rng.normal(size=300), rng.normal(size=301)
    out, _ = numeric._binom_conv(g, a, 300)
    g[0], a[0] = np.inf, np.nan
    assert np.array_equal(numeric._binom_conv(g, a, 300)[0], out)


def _binom_conv_at(g, a, cap, t, weights):
    """out[t] of the full convolution, every split m = 1..cap included, each
    weight correctly rounded from the exact integer C(t, m); weights caches
    the weight rows by t."""
    lo, hi = max(1, t - g.size + 1), min(cap, t - 1)
    if lo > hi:
        return 0.0
    if t not in weights:
        row, c = [], math.comb(t, lo)
        for m in range(lo, hi + 1):
            row.append(1 / c)
            c = c * (t - m) // (m + 1)
        weights[t] = np.array(row)
    ms = np.arange(lo, hi + 1)
    return np.sum(g[t - ms] * a[ms] * weights[t])


def test_binom_conv_clipped_rows_match_exact_sums():
    # where rows end inside the output, the kernel is within its own drop
    # bound of the full sum: at the edge of the dense block, on both sides
    # of every row end that falls inside and at the last total
    rng = np.random.default_rng(1717)
    band, ends = numeric._BAND, numeric._ROW_END
    for g_size, cap in [(4801, 1600), (1201, 400), (200, 1600)]:
        n_out = g_size + cap
        ts = {255, 256, n_out - 1}
        ts |= {e + d for e in ends[1:] if e < n_out - 1 for d in (-1, 0, 1)}
        # the last total of each row's edges, g[g.size - 1] a[j] and g[j] a[cap]
        ts |= {t for j in range(1, band + 1) for t in (g_size - 1 + j, cap + j) if t < n_out}
        assert any(e < n_out for e in ends[1:])  # some row is clipped
        weights = {}
        g = rng.normal(size=g_size) + 1j * rng.normal(size=g_size)
        a = rng.normal(size=cap + 1) + 1j * rng.normal(size=cap + 1)
        g[0] = a[0] = 0
        for gg, aa in ((g, a), (g.real.copy(), a.real.copy())):
            out, k = numeric._binom_conv(gg, aa, cap)
            assert out.size == n_out and out.dtype == np.result_type(gg, aa)
            for t in sorted(ts):
                ref = _binom_conv_at(gg, aa, cap, t, weights)
                scale = abs(_binom_conv_at(np.abs(gg), np.abs(aa), cap, t, weights))
                drop = k * numeric._DELTA if t >= 2 * band + 2 else 0.0
                assert abs(out[t] - ref) <= drop + 1e-13 * scale, (g_size, cap, t)


def test_binom_conv_rows_end_where_their_weight_does():
    # a single row j on either edge: its split is summed at T_end(j) - 1 and
    # left out from T_end(j) on, where the drop bound covers it, inside the
    # first block too.  Row 11 is the least row that ends below the output
    # size here, so k must count it
    band, ends = numeric._BAND, numeric._ROW_END
    long, short = 9000, 200
    wide = np.zeros(long + 1)
    wide[band + 1:] = 1.0
    probed = []
    for j in range(1, band + 1):
        end = ends[j]
        if end > long + j:  # the split's other part would pass the input
            continue
        unit = np.zeros(short + 1)
        unit[j] = 1.0
        for g, a, cap in ((wide, unit, short), (unit, wide, long)):  # m = j, then T - m = j
            out, k = numeric._binom_conv(g, a, cap)
            kept = 1 / math.comb(end - 1, j)
            assert abs(out[end - 1] - kept) <= 1e-13 * kept, (j, end)
            assert np.all(out[end:] == 0.0), j
            gone = 1 / math.comb(end, j)
            assert 0 < gone <= k * numeric._DELTA, (j, k)
        probed.append(j)
    assert probed == list(range(11, band + 1))


def test_connector_convolution_linear_in_bound(monkeypatch):
    # the full convolution multiplies one weight per (T, m) pair, so its cost
    # grows with the square of the cap; the banded one multiplies at most B
    # weights per total and edge and grows linearly.  The work is counted as
    # the window entries the kernel multiplies by its weights
    counted = [0]
    window = numeric._window

    def counting_window(*args):
        out = window(*args)
        counted[0] += out.size
        return out

    monkeypatch.setattr(numeric, "_window", counting_window)
    term = zterm([Pair.ones((1,))] * 3, Pair.ones((1, 1)))
    counts = []
    for bound in (400, 1600):
        counted[0] = 0
        eval_zterm(term, bound)
        counts.append(counted[0])
    assert counts[0] > 0 and counts[1] <= 4.5 * counts[0], counts


def test_binom_conv_blocks_are_the_row_products():
    # the weights are cached blocks: [0, 256), [256, 512), [512, 1024), then
    # _BLOCK totals wide.  Each holds the rows that run past its start; an
    # entry is the row loop's running product, bit for bit (1 where T < j),
    # up to the row's end and exactly 0 from there.  The blocks are
    # read-only, and at most _BLOCKS_MAX blocks are kept
    band, ends, corner = numeric._BAND, numeric._ROW_END, numeric._CORNER
    numeric._weight_block.cache_clear()
    lo, starts = 0, []
    while len(starts) < numeric._BLOCKS_MAX + 4:
        starts.append(lo)
        lo += min(max(lo, corner), numeric._BLOCK)
    assert starts[:5] == [0, 256, 512, 1024, 2048] and starts[-1] == 1024 * (len(starts) - 3)
    for lo in starts:
        block = numeric._weight_block(lo)
        hi = lo + min(max(lo, corner), numeric._BLOCK)
        rows = sum(e > lo for e in ends[1:])
        assert block.shape == (rows, hi - lo) and not block.flags.writeable
        assert all(e > lo for e in ends[1:rows + 1]) and all(e <= lo for e in ends[rows + 1:])
        ts = np.arange(lo, hi, dtype=np.float64)
        w = np.ones(hi - lo)
        for j in range(1, rows + 1):
            w[ts >= j] *= j / (ts[ts >= j] - j + 1)
            stop = min(ends[j], hi) - lo
            assert np.array_equal(block[j - 1, :stop], w[:stop]), (lo, j)
            assert np.all(block[j - 1, stop:] == 0.0), (lo, j)
    info = numeric._weight_block.cache_info()
    assert info.maxsize == numeric._BLOCKS_MAX == 32 and info.currsize == info.maxsize
    # a convolution past the last cached total only recycles blocks
    g = np.zeros(starts[-1] + 10)
    g[1] = 1.0
    out, _ = numeric._binom_conv(g, np.array([0.0, 1.0]), 1)
    assert out.size == g.size + 1 and out[2] == 0.5
    assert numeric._weight_block.cache_info().currsize == numeric._BLOCKS_MAX
    # each block is computed whole, so a cut output is the head of the full
    # one, bit for bit, at every size and across every block edge, for real
    # and complex inputs alike.  In the seed-404 real case, cutting the totals
    # below 256 to size changes the head from size 14 on
    rng = np.random.default_rng(404)
    g, a = rng.normal(size=400), rng.normal(size=301)
    cases = [(g, a, 300), (g + 1j * rng.normal(size=400), a + 1j * rng.normal(size=301), 300)]
    rng = np.random.default_rng(2323)
    g = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    a = rng.normal(size=701) + 1j * rng.normal(size=701)
    cases += [(g, a, 700), (g.real.copy(), a.real.copy(), 700)]
    for gg, aa, cap in cases:
        full, _ = numeric._binom_conv(gg, aa, cap)
        assert full.size == gg.size + cap
        for size in range(1, full.size + 1):
            assert np.array_equal(numeric._binom_conv(gg, aa, cap, size)[0], full[:size]), size


def _escape_ratios(cap, r_max):
    """r!/(m (m+1) ... (m+r)) = r! (m-1)!/(m+r)! over the escape window in
    row r = 1..r_max (row 0 unused), each correctly rounded from exact integers."""
    b = cap + numeric._KERNEL_WINDOW
    ratios = np.zeros((r_max + 1, b - cap))
    for i, m in enumerate(range(cap + 1, b + 1)):
        den = m
        for r in range(1, r_max + 1):
            den *= m + r
            ratios[r, i] = math.factorial(r) / den
    return ratios


def _escape_rows_reference(w, ratios, cap, k_top, z):
    """The escape rows one r at a time: the window sum over the exact ratios,
    then the frozen-W remainder and residual, with (r-1)! b!/(b+r)! exact too.
    Returns (value, residual, scale), scale the sum of the moduli."""
    b = cap + numeric._KERNEL_WINDOW
    ms = np.arange(cap + 1, b + 1)
    phase = np.power(z, ms.astype(np.float64)) / ms.astype(np.float64) ** (k_top - 1)
    value, resid, scale = [], [], []
    for r in range(1, ratios.shape[0]):
        terms = ratios[r] * phase * w[ms + r]
        past = math.factorial(r - 1) / math.prod(range(b + 1, b + r + 1))
        w_end = w[min(b + r, w.size - 1)]
        w_probe = w[min(2 * b // 3 + r, w.size - 1)]
        rem = past * w_end / float(b) ** (k_top - 1)
        value.append(complex(np.sum(terms)) + (rem if z == 1 else 0))
        resid.append(past * (abs(w_end - w_probe) + abs(w_end) / b) + (0 if z == 1 else abs(rem)))
        scale.append(float(np.sum(np.abs(terms))) + abs(rem))
    return np.array(value), np.array(resid), np.array(scale)


def test_escape_rows_match_per_row_sums():
    # the one-pass rows of a top letter on the unit circle, z in {1, -1, i,
    # (3+4i)/5}, k in {1, 2}, over bars with and without phases, against the
    # rows summed one r at a time.  The all-ones bars (1) and (1,1) under a
    # top (1, 1) take their exact closed forms
    cap, r_max = 20, 8
    phased = {(1,): (sc(-1),), (1, 1): (sc(0, 1), ONE), (2, 1): (sc(F(3, 5), F(4, 5)), sc(-1)),
              (1, 2): (ONE, sc(0, -1))}
    bars = [Pair.ones(k) for k in phased] + [Pair(k, v) for k, v in phased.items()]
    size = cap + numeric._KERNEL_WINDOW + r_max + 1
    ratios = _escape_ratios(cap, r_max)
    for bar in bars:
        w = numeric._chain(bar.letters(), size, weak=True)[0] * np.arange(size + 1)
        for z in (1, -1, 1j, 0.6 + 0.8j):
            for k_top in (1, 2):
                value, resid = numeric._escape_rows(bar, w, cap, r_max, k_top, z)
                assert value.shape == resid.shape == (r_max,)
                if z == 1 and k_top == 1 and bar in (Pair.ones((1,)), Pair.ones((1, 1))):
                    continue
                ref, ref_resid, scale = _escape_rows_reference(w, ratios, cap, k_top, z)
                where = (str(bar), z, k_top)
                assert np.all(np.abs(value - ref) <= 1e-12 * scale), where
                assert np.all(np.abs(resid - ref_resid) <= 1e-12 * ref_resid), where
    # closed forms: sum_{m>c} P_r(m) = (r-1)! c!/(c+r)! =: A_r(c) under the
    # bar (1), and A_r(c) H_(c+r+1) + A_r(c+1)/r under the bar (1,1)
    def past(c, r):
        return F(math.factorial(r - 1), math.prod(range(c + 1, c + r + 1)))

    for bar in (Pair.ones((1,)), Pair.ones((1, 1))):
        w = numeric._chain(bar.letters(), size, weak=True)[0] * np.arange(size + 1)
        value, resid = numeric._escape_rows(bar, w, cap, r_max, 1, 1)
        assert np.all(resid == 0)
        for r in range(1, r_max + 1):
            want = past(cap, r)
            if bar.k == (1, 1):
                want = want * sum(F(1, i) for i in range(1, cap + r + 2)) + past(cap + 1, r) / r
            assert abs(value[r - 1] - float(want)) <= 1e-14 * float(want), (str(bar), r)


def test_escape_rows_once_per_top_letter(monkeypatch):
    # components that share a top letter share one window
    calls = []
    rows = numeric._escape_rows

    def counting_rows(bar, w, cap, r_max, k_top, z):
        calls.append((k_top, z))
        return rows(bar, w, cap, r_max, k_top, z)

    monkeypatch.setattr(numeric, "_escape_rows", counting_rows)
    for comps, letters in (([Pair.ones((2,))] * 4, 1),
                           ([Pair.ones((2,)), Pair.ones((1, 2)), Pair.ones((1,)),
                             Pair((1,), (sc(-1),)), Pair((1,), (sc(F(1, 2)),))], 3)):
        calls.clear()
        eval_zterm(zterm(comps, Pair.ones((2, 1))), 100)
        assert len(calls) == len(set(calls)) == letters, calls


def _uncovered_masses(tops, w, caps):
    """(cap, r_cut, mass) for each cap: the rows eval_zterm neither sums nor
    escapes, summed directly in magnitudes over every top tuple below
    len(tops[0]).  Those are two or more tops past cap, or one past it while
    the others total more than r_cut.  Each split weighs
    |a_1[m_1]| ... |a_n[m_n]| |W[T]| m_1! ... m_n! / T!, the factorials
    from lgamma."""
    grid = np.ix_(*[np.arange(tops[0].size)] * len(tops))
    total = sum(grid)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(total.max() + 1)])
    mass = np.exp(sum(log_fact[m] for m in grid) - log_fact[total]) * np.abs(w[total])
    for a, m in zip(tops, grid):
        mass = mass * np.abs(a[m])
    for cap in caps:
        r_cut = max(2, int(45.0 / max(math.log(cap), 1.0))) + len(tops)
        past = sum(m > cap for m in grid)
        low = sum(m * (m <= cap) for m in grid)  # the total of the tops at most cap
        yield cap, r_cut, float(np.sum(mass, where=(past >= 2) | ((past == 1) & (low > r_cut))))


def test_uncovered_bound_covers_the_uncovered_rows():
    # the closed form bounds the rows left out of both the capped sum and
    # the escape rows, summed directly: arity 2 over tops below 1,000 and
    # arity 3 below 100, all-ones and phased tops of depth <= 2, the bars
    # (1), (1,1) and (2,1)
    ones, ones2 = Pair.ones((1,)), Pair.ones((1, 1))
    minus = Pair((1,), (sc(-1),))
    phased2 = Pair((1, 1), (sc(0, 1), sc(F(3, 5), F(-4, 5))))
    for comps, size, caps in (([ones, ones], 1000, (2, 3, 4, 6, 9, 12, 16, 20, 32, 50, 64, 100)),
                              ([ones2, ones], 1000, (2, 3, 5, 8, 12, 20, 40, 100)),
                              ([minus, phased2], 1000, (2, 3, 5, 8, 12, 20, 40, 100)),
                              ([ones, ones, ones], 100, range(2, 13)),
                              ([ones2, minus, phased2], 100, (2, 3, 5, 8, 11, 12))):
        tops = [numeric._chain(p.letters(), size - 1)[0] for p in comps]
        for bar in ((1,), (1, 1), (2, 1)):
            t = zterm(comps, Pair.ones(bar))
            total = len(comps) * (size - 1)
            w = numeric._chain(t.bar.letters(), total, weak=True)[0] * np.arange(total + 1)
            for cap, r_cut, mass in _uncovered_masses(tops, w, caps):
                assert 0 < mass <= numeric._uncovered_bound(t, cap, r_cut), (str(t), cap)


def test_uncovered_bound_past_float64_is_infinite():
    # at q = 149, (1 + ln x)^q passes float64: the bound is inf, where it
    # raised OverflowError; at q = 139 it is finite
    deep = Pair.ones((1,) * 74 + (2,))
    rep = eval_zterm(zterm([deep, deep]), 100)
    assert rep.tail_estimate == math.inf and rep.converged is False
    shallow = Pair.ones((1,) * 69 + (2,))
    assert math.isfinite(eval_zterm(zterm([shallow, shallow]), 100).tail_estimate)
    # at q = 711, e^(q-1) passes float64 before the power is taken
    deeper = Pair.ones((1,) * 355 + (2,))
    assert numeric._uncovered_bound(zterm([deeper, deeper]), 400, 12) == math.inf


def test_bar_weight_covers_every_read(monkeypatch):
    # with no component top on the unit circle no escape row reads the bar
    # weight W, so it ends where the capped sum's totals end, at n * cap; a W
    # 10,000 entries longer must leave every report bit-identical
    pool = [Pair((1,), (sc(F(1, 2)),)), Pair((1, 1), (sc(-1), sc(F(-1, 3)))),
            Pair((2,), (sc(0, F(1, 2)),)), Pair((1,), (sc(F(3, 5), F(-2, 5)),))]
    terms = [zterm([pool[i % 4] for i in range(n)], Pair.ones(bar))
             for n in range(2, 6) for bar in ((1,), (1, 1), (2, 1))]
    bounds = [*range(2, 41), 64, 100, 200, 400]
    before = [[eval_zterm(t, b) for b in bounds] for t in terms]
    chain, asked = numeric._chain, []

    def longer(letters, bound, weak=False, sums=False):
        if weak:
            asked.append(bound)
            bound += 10_000
        return chain(letters, bound, weak, sums)

    monkeypatch.setattr(numeric, "_chain", longer)
    for t, reports in zip(terms, before):
        for b, rep in zip(bounds, reports):
            assert eval_zterm(t, b) == rep, (str(t), b)
    # one bar chain per report, each short of the escape rows' window
    windows = [t.arity * b + numeric._KERNEL_WINDOW for t in terms for b in bounds]
    assert len(asked) == len(windows)
    assert all(a < end for a, end in zip(asked, windows)), asked


def test_zterm_tail_covers_the_error():
    # rows with two tops above the cap, or one above it and the others past
    # r_cut, are left out of the value and must be bounded in the tail
    comps = [Pair.ones((1,)), Pair.ones((1,))]
    for bar in ((1,), (1, 1), (2, 1)):
        t = zterm(comps, Pair.ones(bar))
        ref = PI ** 2 / 6 if bar == (1,) else eval_zterm(t, 1600).value
        for bound in range(1, 61):
            rep = eval_zterm(t, bound)
            assert abs(rep.value - ref) <= rep.tail_estimate, (bar, bound)


def _sweep_terms(seed=1, count=12):
    """Seeded arity 2-3 terms over the all-ones bars (1), (1,1) and (2,1),
    each component of depth <= 2 with entries 1 or 2 and its top variable on
    the unit circle; a draw with no transportable slot is left out."""
    tops = (ONE, sc(-1), sc(0, 1), sc(F(3, 5), F(4, 5)))
    inner = (ONE, sc(-1), sc(F(1, 2)), sc(F(-1, 2)))
    rng, out = random.Random(seed), []
    while len(out) < count:
        comps = []
        for _ in range(rng.choice((2, 3))):
            d = rng.choice((1, 2))
            z = tuple(rng.choice(inner) for _ in range(d - 1)) + (rng.choice(tops),)
            comps.append(Pair(tuple(rng.choice((1, 2)) for _ in range(d)), z))
        t = zterm(comps, Pair.ones(rng.choice(((1,), (1, 1), (2, 1)))))
        if transportable_pick(t) is not None:
            out.append(t)
    return out


# the drawn terms at bounds 100 and 400, then the three offenders known
# before the sweep and two that other draws of its shape turned up
_SWEEP = [(t, bound) for t in _sweep_terms() for bound in (100, 400)] + [
    (zterm([Pair((1,), (sc(-1),)), Pair.ones((1, 1))]), 400),
    (zterm([Pair.ones((1, 1)), Pair.ones((1,))], Pair.ones((1, 1))), 1600),
    (zterm([Pair((1,), (sc(-1),)), Pair((1, 1, 1), (sc(F(-1, 2)), ONE, ONE))]), 400),
    *[(zterm([Pair((2,), (ONE,)), Pair((1, 2), (ONE, sc(-1))), Pair((2,), (sc(-1),))]), bound)
      for bound in (100, 400)],
    (zterm([Pair((1, 2), (ONE, sc(-1))), Pair((1, 2), (ONE, sc(F(3, 5), F(4, 5))))],
           Pair.ones((1, 1))), 100),
]
# (term, bound) of the cases whose error exceeds their tail, with their
# error/tail ratio
_SWEEP_FAILS = {
    ("Z2((1,3/5+4/5i / 2,1); (-1/2,1i / 2,2) | (1 / 1))", 100),  # 1.43
    ("Z3((1,-1 / 1,1); (1i / 1); (1 / 1) | (1,1 / 1,1))", 100),  # 41.1
    ("Z3((1,-1 / 1,1); (1i / 1); (1 / 1) | (1,1 / 1,1))", 400),  # 1.96
    ("Z2((-1 / 1); (1,1 / 1,1) | (1 / 1))", 400),  # 1.44
    ("Z2((1,1 / 1,1); (1 / 1) | (1,1 / 1,1))", 1600),  # 1.60
    ("Z2((-1 / 1); (-1/2,1,1 / 1,1,1) | (1 / 1))", 400),  # 1.44
    ("Z3((1 / 2); (1,-1 / 1,2); (-1 / 2) | (1 / 1))", 100),  # 50.3
    ("Z3((1 / 2); (1,-1 / 1,2); (-1 / 2) | (1 / 1))", 400),  # 23.4
    ("Z2((1,-1 / 1,2); (1,3/5+4/5i / 1,2) | (1,1 / 1,1))", 100),  # 6.83
}


@functools.lru_cache(maxsize=None)
def _sweep_reference(t):
    """The term reduced to polylogarithms, each summed by eval_mpl_auto with
    a proved tail; once per term, for its two bounds."""
    return numeric._sum_terms(reduce_to_mpl(t).terms, 1e-13, eval_mpl_auto)[0]


@pytest.mark.parametrize("t, bound", [
    pytest.param(t, bound, id=f"{t}@{bound}", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1") if (str(t), bound) in _SWEEP_FAILS else ())
    for t, bound in _SWEEP])
def test_zterm_tail_sweep(t, bound):
    # an arity >= 2 value lies within its tail of the reference
    rep = eval_zterm(t, bound)
    assert abs(rep.value - _sweep_reference(t)) <= rep.tail_estimate


def test_arity_one_tail_covers_the_error():
    # an arity-1 term is its boundary expansion with proved polylog tails, so
    # it certifies at every bound: over decaying bars (2) and (3), over the
    # alternating bar (-1) (Z1((2)|(-1)) = -zeta(2)/2) and with an inner sum
    # below the top (Z1((1,1)|(2)) = zeta(3)).  A bar letter (0, l) merges
    # into the one below it: Z1((1/2 / 2) | (1,0 / 1,1)) = Li3(1/2)
    li3_half = 0.53721319360804020
    for comp, bar, ref in ((Pair.ones((1,)), Pair.ones((2,)), PI ** 2 / 6),
                           (Pair.ones((1,)), Pair.ones((3,)), Z3),
                           (Pair.ones((2,)), Pair((1,), (sc(-1),)), -PI ** 2 / 12),
                           (Pair.ones((1, 1)), Pair.ones((2,)), Z3),
                           (Pair((2,), (sc(F(1, 2)),)), Pair((1, 1), (ONE, sc(0))), li3_half)):
        t = zterm([comp], bar)
        for bound in [*range(comp.dep, 101), 400]:
            rep = eval_zterm(t, bound, tol=1e-6)
            assert rep.converged and rep.truncation == bound, (str(t), bound)
            assert abs(rep.value - ref) <= rep.tail_estimate, (str(t), bound)


def _reached(fn):
    """(name, object) for every global name in fn's code, following the
    connsum functions it names transitively."""
    found, seen = [], set()
    todo = [(fn.__code__, fn.__globals__)]
    while todo:
        code, glb = todo.pop()
        todo.extend((c, glb) for c in code.co_consts if isinstance(c, types.CodeType))
        for name in code.co_names:
            if name not in glb:
                continue
            obj = glb[name]
            found.append((name, obj))
            if inspect.isfunction(obj) and obj.__module__.startswith("connsum") \
                    and obj not in seen:
                seen.add(obj)
                todo.append((obj.__code__, obj.__globals__))
    return found


def _float_code(reached):
    out = []
    for name, obj in reached:
        origin = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
        if name in ("np", "_scan", "scipy") or obj is numeric._chain \
                or str(origin).split(".")[0] in ("numpy", "scipy"):
            out.append(name)
    return out


def test_exact_oracles_share_no_float_code():
    # a certificate means something only while the exact oracles stay
    # independent of the float evaluators they check
    for fn in (eval_zterm_partial_exact, eval_mpl_partial_exact, exact._exact_chain,
               telescoping_check):
        assert _float_code(_reached(fn)) == [], fn.__name__
    for fn in (eval_zterm_partial_exact, eval_mpl_partial_exact):
        assert any(obj is exact._exact_chain for _, obj in _reached(fn))
    assert "_scan" in _float_code(_reached(eval_mpl_auto))


def _imported_and_named(module):
    """(the dotted parts of every module and name module imports, every name
    and attribute its code reads), function bodies included."""
    imported, named = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            imported |= {p for name in parts for p in name.split(".")}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return imported, named


def test_exact_module_names_no_float_module():
    # the separation is in the source: exact imports no numpy and names
    # nothing of numeric, and numeric imports nothing from exact
    imported, named = _imported_and_named(exact)
    assert not imported & {"numpy", "numeric"}, imported
    assert not named & {"np", "numpy", "numeric"}, named
    assert "exact" not in _imported_and_named(numeric)[0]


def test_exact_module_loads_without_numpy():
    # in a fresh interpreter where numpy cannot be imported, and with the
    # package's __init__ not run, importing exact loads errors, model and
    # scalars and no other connsum module
    code = ("import sys, types; sys.modules['numpy'] = None; "
            "bare = types.ModuleType('connsum'); bare.__path__ = [sys.argv[1]]; "
            "sys.modules['connsum'] = bare; import connsum.exact; "
            "print(*sorted(m for m in sys.modules if m.startswith('connsum.')))")
    run = subprocess.run([sys.executable, "-c", code, os.path.dirname(exact.__file__)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["connsum.errors", "connsum.exact", "connsum.model",
                                  "connsum.scalars"], run.stdout


def test_one_float_kernel():
    # every float chain, and so every polylogarithm, runs through _chain
    def names(code):
        out = set(code.co_names)
        for const in code.co_consts:
            if inspect.iscode(const):
                out |= names(const)
        return out

    users = [name for name, obj in vars(numeric).items()
             if inspect.isfunction(obj) and obj.__module__ == numeric.__name__
             and "_scan" in names(obj.__code__)]
    assert users == ["_chain"], users


def test_monotone_refinement_brackets():
    t = zterm([Pair.ones((1,)), Pair.ones((1,))])
    raw1 = _capped_sum(t, 100).real
    raw2 = _capped_sum(t, 200).real
    certified = eval_zterm(t, 400).value.real
    assert raw1 < raw2 < certified <= PI ** 2 / 6 + 1e-9


def test_connector_shell_bound():
    # N^2 * sum_{|a| = N} C(a)/prod(a) stays bounded (empirical)
    for n in (2, 3, 4):
        f = [F(0)] * 201
        f[0] = F(1)  # convolution power of g(a) = (a-1)!
        for _ in range(n):
            g = [F(0)] * 201
            for tot in range(n, 201):
                for a in range(1, tot + 1):
                    if f[tot - a] != 0:
                        g[tot] += f[tot - a] * math.factorial(a - 1)
            f = g
        for bigN in (50, 100, 200):
            shell = F(f[bigN], math.factorial(bigN))
            assert bigN ** 2 * shell < 10


def test_telescoping_spec_instance():
    assert telescoping_check(1, 2, [0], [1], 0, [sc(1)], sc(1), 10)


def test_telescoping_zero_target():
    # vanishing reciprocal sum exercises the 0^0 = 1 convention
    assert telescoping_check(2, 2, [0, 0], [], 1, [sc(1), sc(-1)], sc(0), 9)


def test_telescoping_hypotheses():
    with pytest.raises(HypothesisViolated):
        telescoping_check(1, 2, [0], [1], 0, [sc(1)], sc(F(1, 2)), 10)
    with pytest.raises(HypothesisViolated):
        telescoping_check(1, 2, [0], [0], 0, [sc(1)], sc(1), 10)
    with pytest.raises(HypothesisViolated):
        telescoping_check(1, 2, [0], [1], 0, [sc(2)], sc(F(1, 2)), 10)
    with pytest.raises(HypothesisViolated):
        telescoping_check(1, 2, [0], [1], 20, [sc(1)], sc(1), 10)
    # integer parameters are integers: no float or bool passes, whatever its value
    good = dict(d=1, n=2, m_minus=[0], m_plus=[1], q=0, vs=[sc(1)], t=sc(1), bound=10)
    assert telescoping_check(**good)
    for name, bad in (("bound", 10.5), ("bound", 10.0), ("m_minus", [0.5]), ("m_minus", [0.0]),
                      ("d", True), ("m_plus", [True]), ("n", 2.0), ("q", False)):
        with pytest.raises(HypothesisViolated):
            telescoping_check(**{**good, name: bad})


def test_telescoping_random_instances():
    pool = [sc(1), sc(-1), sc(F(1, 2), F(1, 2)), sc(F(-1, 2)), sc(0, 1)]
    checked = 0
    while checked < 20:
        d = random.randint(1, 2)
        n = random.randint(d, d + 2)
        vs = [random.choice(pool) for _ in range(d)]
        t = Scalar.of(0)
        for v in vs:
            t = t + v.inv()
        if t.is_inf or not t.in_closed_disk():
            continue
        m_minus = [random.randint(0, 2) for _ in range(d)]
        m_plus = [random.randint(1, 2) for _ in range(n - d)]
        q = random.randint(0, 3)
        bound = random.randint(1 + max(q, sum(m_minus) + d + sum(m_plus)), 14)
        assert telescoping_check(d, n, m_minus, m_plus, q, vs, t, bound)
        checked += 1


def test_telescoping_detects_a_wrong_weight(monkeypatch):
    # the check compares two independently summed sides: a connector weight
    # doubled at odd totals must break it, so it is not a tautology
    form = exact._connector_form
    monkeypatch.setattr(exact, "_connector_form", lambda a, fact:
                        exact._g_mul(form(a, fact), (2 if sum(a) % 2 else 1, 0, 1)))
    assert not telescoping_check(1, 2, [0], [1], 0, [sc(1)], sc(1), 10)
    assert not telescoping_check(1, 3, [2], [1, 1], 1, [sc(0, 1)], sc(0, -1), 11)
    vs = [sc(-1), sc(F(1, 2), F(1, 2))]  # reciprocal sum -i
    assert not telescoping_check(2, 3, [1, 0], [2], 2, vs, sc(0, -1), 12)


def test_verify_relation_reports():
    rel = Relation(
        lhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))),
        rhs=MplExpr.single(MplTerm("shuffle", (2,), (sc(-1),)), F(-2)),
        provenance={},
    )
    report = verify_relation(rel, tol=1e-8)
    assert report.ok  # zeta(2) = 2 * eta(2)
    bad = Relation(
        lhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))),
        rhs=MplExpr.single(MplTerm("shuffle", (3,), (ONE,))),
        provenance={},
    )
    report = verify_relation(bad, tol=1e-6)
    assert not report.ok


def _single(term, rhs=None):
    return Relation(lhs=MplExpr.single(term),
                    rhs=MplExpr.zero() if rhs is None else MplExpr.single(rhs), provenance={})


def _deep_ones_term(depth):
    """The depth-d shuffle term with every exponent 1 but the outer 2 and
    every variable 999999/1000000."""
    return MplTerm("shuffle", (1,) * (depth - 1) + (2,), (sc(F(999999, 1000000)),) * depth)


def test_unbounded_piece_past_float_range_is_not_converged():
    # a piece that sums nothing is bounded by (rho / (1 - rho))^q, which
    # passes float64's range at depth 60 (it raised OverflowError); it is
    # infinite, so the relation is not converged
    assert math.isfinite(eval_mpl_auto(_deep_ones_term(40), 1e-6)[1])
    assert eval_mpl_auto(_deep_ones_term(60), 1e-6)[1] == math.inf
    with pytest.raises(NotConverged):
        verify_relation(_single(_deep_ones_term(60)), tol=1e-6)
    assert numeric._remainder(400, 0.999, 1 << 21) == math.inf


def test_not_converged_raised(monkeypatch):
    # 1e-18 is below the rounding bound of zeta(1,1,1,2); Li2(z) with z on the
    # unit circle within 1e-6 of 1 needs more than 2^21 terms per piece
    with pytest.raises(NotConverged):
        verify_relation(_single(MplTerm("shuffle", (1, 1, 1, 2), (ONE,) * 4)), tol=1e-18)
    s = F(1, 2_000_000)
    z = sc((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))
    assert z.abs_eq_one() and abs(complex(z) - 1) < 1e-6
    # a piece that cannot meet its target sums nothing; summing its chain
    # and the absolute one to 2^21 would scan about 1.7e7 elements
    counted = [0]
    scan = numeric._scan

    def counting_scan(x, z, weak):
        counted[0] += np.size(x)
        return scan(x, z, weak)

    monkeypatch.setattr(numeric, "_scan", counting_scan)
    with pytest.raises(NotConverged):
        verify_relation(_single(MplTerm("shuffle", (2,), (z,))), tol=1e-12)
    assert counted[0] <= 10 ** 4, counted[0]


def test_zeta_1112_certifies_zeta5():
    rel = _single(MplTerm("shuffle", (1, 1, 1, 2), (ONE,) * 4), MplTerm("shuffle", (5,), (ONE,)))
    report = verify_relation(rel, tol=1e-12)
    assert report.ok and report.tail_total <= 1e-12


def test_heavy_coefficient_side_certifies():
    # each term's budget shrinks with the side's coefficient mass: with
    # tol / (4 terms), 24 Li[1,1,1,2](1, 1/2, 1/3, 1/4) against itself had
    # tails past tol (1.6e-9 at 1e-9) and raised NotConverged
    term = MplTerm("shuffle", (1, 1, 1, 2), (ONE, sc(F(1, 2)), sc(F(1, 3)), sc(F(1, 4))))
    side = MplExpr.single(term, 24)
    for tol in (1e-9, 1e-10, 1e-12):
        report = verify_relation(Relation(lhs=side, rhs=side, provenance={}), tol=tol)
        assert report.ok and report.tail_total <= tol / 2, (tol, report.tail_total)


def test_eval_mpl_auto_error_within_tail():
    # zeta({1}^(k-2), 2) = zeta(k) by duality; every tail certifies at 1e-12
    hurwitz_zeta = pytest.importorskip("scipy.special").zeta
    for k in range(2, 9):
        term = MplTerm("shuffle", (1,) * (k - 2) + (2,), (ONE,) * (k - 1))
        assert _covered(term, float(hurwitz_zeta(k, 1))) <= 1e-12, k
    assert _covered(MplTerm("shuffle", (1, 2), (ONE, ONE)), Z3) <= 1e-12
    assert _covered(MplTerm("shuffle", (2, 2), (ONE, ONE)), PI ** 4 / 120) <= 1e-12
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    li2 = complex(mpmath.polylog(2, mpmath.mpc("0.6", "0.8")))
    assert _covered(MplTerm("shuffle", (2,), (sc(F(3, 5), F(4, 5)),)), li2) <= 1e-12


def test_eval_mpl_auto_matches_direct_summation():
    # with every |z| <= 1/2 direct summation to 200 is exact to rounding
    rng = random.Random(1212)
    pool = [sc(F(1, 2)), sc(F(-1, 2)), sc(F(1, 3), F(1, 3)), sc(0, F(-1, 2)),
            sc(F(-1, 5), F(2, 5)), sc(F(1, 7))]
    for _ in range(50):
        depth = rng.randint(1, 4)
        term = MplTerm(rng.choice(("shuffle", "harmonic")),
                       tuple(rng.randint(1, 3) for _ in range(depth)),
                       tuple(rng.choice(pool) for _ in range(depth)))
        _covered(term, _direct_sum(term, 200), tol=rng.choice((1e-6, 1e-9, 1e-12)))


def test_weight_four_recipe_relation_certifies():
    # its term zeta(1,1,2) stopped short of 1e-6 under direct summation
    rel = recipe_relation(RecipeData((Pair.ones((2,)),), Pair.ones((1, 1, 1))))
    assert verify_relation(rel, tol=1e-6).ok


def test_bad_tol_rejected():
    # no tail can meet a tolerance that is not finite and positive, and a NaN
    # one fails every comparison: Li2(1) summed each piece to 2^21 against it
    li2 = MplTerm("shuffle", (2,), (ONE,))
    t = zterm([Pair.ones((1,)), Pair.ones((1,))])
    # a bool is not read as 1.0, nor a string or None fed to math.isfinite
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1e-3", None):
        with pytest.raises(DomainError):
            eval_mpl_auto(li2, tol)
        with pytest.raises(DomainError):
            eval_zterm(t, 100, tol)
        with pytest.raises(DomainError):
            verify_relation(_single(li2), tol=tol)
    value, err = eval_mpl_auto(li2, np.float64(1e-3))
    assert abs(value - math.pi ** 2 / 6) <= err <= 1e-3


def _bisect_cut(q, rho, target):
    """The cut as a bisection over every N up to _CAP, the reference for the
    closed form."""
    def remainder(n):
        r = rho * (n + 1) / (n + 2 - q)
        if r >= 1.0:
            return math.inf
        return math.exp(math.lgamma(n + 1) - math.lgamma(q) - math.lgamma(n + 2 - q) +
                        (n + 1) * math.log(rho)) / (1.0 - r)

    ns = range(max(1, q - 1), numeric._CAP + 1)
    n = ns[min(bisect_left(ns, True, key=lambda n: remainder(n) <= target), len(ns) - 1)]
    return n, remainder(n)


def test_cut_matches_bisection():
    rng = random.Random(1111)
    rhos = [1 - 1e-7, 1 - 1e-5, 0.999, 0.5, 1e-9] + \
        [rng.random() for _ in range(12)] + [1 - 10 ** -rng.uniform(1, 7) for _ in range(12)]
    capped = 0
    for q in range(1, 9):
        for rho in rhos:
            for target in [10.0 ** -k for k in range(3, 17)] + [10 ** -rng.uniform(3, 16)]:
                n, rem = numeric._cut(q, rho, target)
                n_ref, rem_ref = _bisect_cut(q, rho, target)
                assert (rem > target) == (rem_ref > target), (q, rho, target)
                assert rem == numeric._remainder(q, rho, n)
                if numeric._remainder(q, rho, numeric._CAP) > target:
                    capped += 1
                    assert n == n_ref == numeric._CAP
                else:
                    # the least n >= max(1, q-1) with _remainder(q, rho, n) <= target
                    assert rem <= target
                    assert n == max(1, q - 1) or numeric._remainder(q, rho, n - 1) > target
                    assert n == n_ref, (q, rho, target, n, n_ref)
    assert capped > 0


def _piece_ref(word, y, target):
    """One Hölder piece on its own: its value and absolute chains summed to
    its own cut."""
    letters, s = [], 1
    for c in word:
        if c == 0:
            s += 1
        else:
            letters.append((y / c, s))
            s = 1
    if not letters:
        return 1 + 0j, 0.0
    letters.reverse()
    moduli = [abs(v) for v, _ in letters]
    rho = max(moduli) * (1.0 + 4.0 * numeric._U)
    q = len(letters)
    n, trunc = _bisect_cut(q, rho, target)
    if trunc > target:
        return 0j, (rho / (1.0 - rho)) ** q if rho < 1.0 else math.inf
    value = (-1) ** q * complex(np.sum(numeric._chain(letters, n)[0]))
    mass = float(np.sum(numeric._chain(zip(moduli, (e for _, e in letters)), n)[0]))
    passes = n.bit_length() if n + 1 > numeric._LOOP_MAX else 0
    steps = sum(12.0 / (1.0 - a) + 3.0 + passes for a in moduli) + math.log2(n + 1) + 19.0
    return value, trunc + steps * numeric._U * mass


def _mpl_ref(m, tol):
    """eval_mpl_auto with each of its 2(w+1) pieces summed on its own."""
    if m.kind == "harmonic":
        m = harmonic_to_shuffle(m)
    exact = []
    for v, e in zip(reversed(m.z), reversed(m.k)):
        exact += [ZERO] * (e - 1) + [v.inv()]
    word = [complex(b) for b in exact]
    reflected = [complex(ONE - b) for b in exact]
    d0 = min(abs(b) for b in word if b != 0)
    d1 = min(abs(b) for b in reflected if b != 0)
    lam = round(d0 / (d0 + d1) * 2 ** 52) / 2 ** 52
    target = tol / (4.0 * (len(word) + 1))
    value, tail, scale = 0j, 0.0, 0.0
    for j in range(len(word) + 1):
        a, e_a = _piece_ref(reflected[j - 1::-1] if j else (), 1.0 - lam, target)
        b, e_b = _piece_ref(word[j:], lam, target)
        value += (-1) ** j * a * b
        tail += e_a * abs(b) + (abs(a) + e_a) * e_b
        scale += (abs(a) + e_a) * (abs(b) + e_b)
    tail += (len(word) + 4) * numeric._U * scale
    return (-1) ** m.dep * value, math.inf if math.isnan(tail) else tail


_SWEEP_POOL = [ONE, sc(-1), sc(0, 1), sc(0, -1), sc(F(3, 5), F(4, 5)), sc(F(1, 2)),
               sc(F(1, 3), F(1, 3))]


def _seeded_terms(seed, count, max_depth, max_exp):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        depth = rng.randint(1, max_depth)
        term = MplTerm(rng.choice(("shuffle", "harmonic")),
                       tuple(rng.randint(1, max_exp) for _ in range(depth)),
                       tuple(rng.choice(_SWEEP_POOL) for _ in range(depth)))
        if term.guard_ok() and (term.kind == "shuffle" or harmonic_to_shuffle(term).guard_ok()):
            out.append(term)
    return out


def test_shared_pass_agrees_with_separate_pieces():
    # the shared chain pass sums each piece to the side's common cut, past its
    # own: the values may move, but only within the two proved tails
    rng = random.Random(2222)
    certified = 0
    for term in _seeded_terms(2222, 100, 4, 3):
        tol = rng.choice((1e-6, 1e-9, 1e-12))
        value, tail = eval_mpl_auto(term, tol)
        ref, ref_tail = _mpl_ref(term, tol)
        assert abs(value - ref) <= tail + ref_tail, (str(term), abs(value - ref), tail, ref_tail)
        certified += tail <= tol and ref_tail <= tol
    assert certified >= 50, certified


def test_side_pieces_meet_their_target():
    # every suffix of the word, also one starting inside a zero run, agrees
    # with the piece summed on its own.  At N = 3 the top layer of four
    # letters 0.1 meets the target, but its layers 2 and 3 (C(3, 1) = C(3, 2)
    # = 3 > C(3, 3)) need a larger N: the side runs to that
    for word, y, target in (([1, 1, 1, 1], 0.1, 2e-4),
                            ([0, 2 + 1j, 0, 0, -1, 3j, 0, 4], 0.5, 1e-10)):
        word = [complex(c) for c in word]
        for j, (value, err) in enumerate(numeric._side(word, y, target)):
            ref, ref_err = _piece_ref(word[j:], y, target)
            assert err <= target * (1 + 1e-9), (word, j, err)
            assert abs(value - ref) <= err + ref_err, (word, j)


def _side_within_its_bound(word, y, target, far):
    # every piece of _side within its bound of the exact chain of the same
    # letters y/c (each exact in float64), summed to far, where its remainder
    # is negligible
    pieces = numeric._side([complex(c) for c in word], y, target)
    for j, (value, err) in enumerate(pieces):
        letters, s = [], 1
        for c in word[j:]:
            if c == 0:
                s += 1
            else:
                letters.append((sc(F(y)) / sc(F(c.real), F(c.imag)), s))
                s = 1
        if not letters:
            assert (value, err) == (1, 0.0)
            continue
        letters.reverse()
        ref = sum(complex(x) for x in _entries(*exact._exact_chain(letters, far)).values())
        q = len(letters)
        assert abs(value - (-1) ** q * ref) <= err + numeric._remainder(q, y, far), (j, err)


def test_side_past_the_loop_threshold_within_its_bound():
    # a cut N past _LOOP_MAX runs _side's chains on _scan's doubling path
    y, target = 0.875, 1e-13
    assert numeric._cut(4, y * (1 + 4 * numeric._U), target)[0] + 1 > numeric._LOOP_MAX
    _side_within_its_bound([1, 0, -1, 1j, 0, 0, 2], y, target, 400)


def test_side_below_the_loop_threshold_within_its_bound(monkeypatch):
    # a cut N + 1 <= _LOOP_MAX runs _side's chains on lists from the first
    # letter to the sums, here with complex letters
    scanned, scan = [], numeric._scan

    def recording_scan(x, z, weak):
        scanned.append(x)
        return scan(x, z, weak)

    monkeypatch.setattr(numeric, "_scan", recording_scan)
    _side_within_its_bound([1 + 1j, 0, -1, 2j, 0, 0, 1 - 1j], 0.5, 1e-13, 200)
    assert scanned and all(isinstance(x, list) and len(x) <= numeric._LOOP_MAX
                           for x in scanned)


def test_split_at_one_is_not_converged():
    # d1 = 2^-60 rounds lam to 1: the reflected side sums at y = 0, where each
    # piece is exactly 0 (a log(0) in the remainder raised ValueError), and
    # the side at lam has rho above 1 - 2^-52, so nothing certifies
    term = MplTerm("shuffle", (1,), (sc(1 - F(1, 2 ** 60)),))
    assert eval_mpl_auto(term, 1e-6)[1] == math.inf
    with pytest.raises(NotConverged):
        verify_relation(_single(term), tol=1e-6)


def _exact_scan(xs, z, weak):
    """numeric._scan's recurrence on the exact values of its float inputs, as
    (real, imaginary) Fraction pairs."""
    zr, zi = F(complex(z).real), F(complex(z).imag)
    out, (ar, ai), (pr, pi) = [], (F(0), F(0)), (F(0), F(0))
    for x in xs:
        xr, xi = F(complex(x).real), F(complex(x).imag)
        if weak:
            ar, ai = zr * ar - zi * ai + xr, zr * ai + zi * ar + xi
        else:
            sr, si = ar + pr, ai + pi
            ar, ai = zr * sr - zi * si, zr * si + zi * sr
            pr, pi = xr, xi
        out.append((ar, ai))
    return out


def _scan_bound(x, z, weak, path):
    """The rounding bound of numeric._scan's docstring, u sum_j c |z|^j |x[m-j]|."""
    n, s5 = x.size, math.sqrt(5) if np.iscomplexobj(x) or np.iscomplexobj(z) else 1.0
    js = np.arange(n, dtype=np.float64)
    out = np.zeros(n)
    for m in range(n):
        j = js[:m + 1] if weak else js[1:m + 1]
        if path == "loop":
            c = (1 + s5) * (j + 1)
        elif path == "doubling":
            c = (n - 1).bit_length() + s5 * j
        else:
            c = j + 1
        out[m] = np.sum(c * abs(z) ** j * np.abs(x[m - j.astype(int)]))
    return numeric._U * out


def test_scan_within_its_rounding_bound():
    # every path of the one float kernel against the exact chain of its
    # inputs, weak and strict: the running sum at z = 1, short and long, and
    # the loop there, as a short chain runs it; the loop and the doubling
    # scan at z = -1, i and (3+4i)/5; and short and long |z| < 1, real and
    # complex.  Each loop case passes a list, as _chain does below
    # _LOOP_MAX entries
    rng = np.random.default_rng(1616)
    short, long_ = numeric._LOOP_MAX, numeric._LOOP_MAX + 172
    cases = [(0.6, short, "loop"), (-0.3 + 0.7j, short - 40, "loop"),
             (1.0, short, "sum"), (1.0, long_, "sum"), (1.0, short, "loop"),
             (-1.0, short, "loop"), (-1.0, long_, "doubling"),
             (1j, 60, "loop"), (1j, long_, "doubling"),
             (0.6 + 0.8j, 60, "loop"), (0.6 + 0.8j, long_, "doubling"),
             (1 - 2.0 ** -7, long_, "doubling"), (-0.625, long_, "doubling"),
             (0.96875 - 0.1875j, long_, "doubling")]
    for z, n, path in cases:
        assert (z == 1) == (path == "sum") or path == "loop", z
        assert (n <= numeric._LOOP_MAX) == (path == "loop") or z == 1, (z, n)
        for weak in (False, True):
            x = rng.uniform(-1, 1, n)
            if isinstance(z, complex):
                x = x + 1j * rng.uniform(-1, 1, n)
            got = numeric._scan(x.tolist() if path == "loop" else x, z, weak)
            assert isinstance(got, list) == (path == "loop"), (z, n)
            got = np.asarray(got)
            assert got.dtype == (np.complex128 if isinstance(z, complex) else np.float64)
            bound = _scan_bound(x, z, weak, path)
            for m, ((er, ei), v) in enumerate(zip(_exact_scan(x, z, weak), got.tolist())):
                v = complex(v)
                err = math.hypot(float(F(v.real) - er), float(F(v.imag) - ei))
                assert err <= bound[m], (z, n, weak, m, err, bound[m])


def test_chain_sums_are_inner_layers():
    # layer i of a chain, its outermost exponent cut to t, is the chain of its
    # first i letters with that exponent: on lists at bounds 50 and
    # _LOOP_MAX - 1, on arrays at _LOOP_MAX, one entry past the threshold.
    # m^150 passes float64's range from m = 114 on, where it divides as inf
    # on lists and on arrays, with no warning on either
    letters = [(sc(F(1, 2)), 2), (sc(F(3, 5), F(4, 5)), 1), (sc(-1), 3), (sc(F(1, 3)), 150)]
    for bound in (50, numeric._LOOP_MAX - 1, numeric._LOOP_MAX):
        sums = numeric._chain(letters, bound, sums=True)
        refs = [[np.sum(numeric._chain(letters[:i] + [(letters[i][0], t)], bound)[0])
                 for t in range(1, letters[i][1] + 1)] for i in range(len(letters))]
        assert [len(row) for row in sums] == [2, 1, 3, 150]
        for i, (row, ref_row) in enumerate(zip(sums, refs)):
            for t, (total, ref) in enumerate(zip(row, ref_row), 1):
                assert abs(total - ref) <= 1e-15 * (1 + abs(ref)), (bound, i, t)


def test_long_chain_powers_overflow_silently():
    # a component chain past _LOOP_MAX whose exponent's powers pass float64's
    # range divides by inf, to 0, as the list path does, without numpy's
    # overflow warning; raised as an error, it failed the call
    t = zterm([Pair((200,), (sc(F(1, 2)),)), Pair((2,), (sc(F(1, 2)),))], Pair.ones((1,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = eval_zterm(t, 300)
    assert math.isfinite(report.value.real) and report.converged


def test_two_chain_passes_per_side(monkeypatch):
    # one value and one absolute pass per side of the convolution, one _scan
    # call per letter c in each: at most 4 passes and 2 (q_word + q_reflected)
    # _scan calls, where summing each piece on its own took up to 4 (w+1)
    passes, filtered = [0], [0]
    chain, scan = numeric._chain, numeric._scan

    def counting_chain(*args, **kwargs):
        passes[0] += 1
        return chain(*args, **kwargs)

    def counting_scan(*args, **kwargs):
        filtered[0] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(numeric, "_chain", counting_chain)
    monkeypatch.setattr(numeric, "_scan", counting_scan)
    terms = _seeded_terms(3333, 60, 4, 3) + [
        MplTerm("shuffle", (1,) * (k - 2) + (2,), (ONE,) * (k - 1)) for k in range(2, 9)]
    weights = set()
    for term in terms:
        shuffle = harmonic_to_shuffle(term) if term.kind == "harmonic" else term
        letters = [v.inv() for v in shuffle.z]
        q_word = len(letters)
        q_reflected = sum(1 for b in letters if not b.is_one()) + \
            sum(e - 1 for e in shuffle.k)
        passes[0] = filtered[0] = 0
        eval_mpl_auto(term, 1e-9)
        assert passes[0] <= 4, (str(term), passes[0])
        assert filtered[0] <= 2 * (q_word + q_reflected), (str(term), filtered[0])
        weights.add(sum(term.k))
    assert weights >= set(range(1, 9))
