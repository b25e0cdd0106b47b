"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""
import math
import random
import time
from fractions import Fraction as F

from connsum.duality import dagger, dual_condition, duality_relation
from connsum.model import Pair, ZTerm, is_convergent, zterm
from connsum.exact import eval_mpl_partial_exact, eval_zterm_partial_exact, telescoping_check
from connsum.numeric import eval_zterm, verify_relation
from connsum.boundary import boundary_reduce
from connsum.named_examples import run_example
from connsum.ohno import (
    HSeries,
    X,
    apply_map,
    ohno_relation,
    thm_sides,
    word_of_pair,
)
from connsum.duality import normalize_to_dual_basis
from connsum.scalars import ONE, Scalar, sc
from connsum.transport import reduce_duality, reduce_to_mpl

ZETA3 = 1.2020569031595942854


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_cloitre():
    start = time.time()
    rep = eval_zterm(zterm([Pair.ones((1,)), Pair.ones((1,))]), 400, tol=1e-4)
    elapsed = time.time() - start
    diff = abs(rep.value.real - math.pi ** 2 / 6)
    _report(1, diff <= 1e-4 and elapsed < 1.0,
            f"Z2(1;1)@400 vs pi^2/6: diff={diff:.2e}, {elapsed:.2f}s")


def test_criterion_2_oloa():
    rep = eval_zterm(zterm([Pair.ones((1,)), Pair.ones((1,))], Pair.ones((1, 1))),
                     400, tol=1e-4)
    diff = abs(rep.value.real / 3 - ZETA3)
    symbolic = run_example("oloa").ok
    _report(2, diff <= 1e-4 and symbolic,
            f"Z2(1;1|1,1)/3 vs zeta(3): diff={diff:.2e}, symbolic split exact: {symbolic}")


def test_criterion_3_zeta4():
    res = run_example("zeta4", bound=400, tol=1e-4)
    diff = abs(res.report.lhs_value.real - 17 / 8 * math.pi ** 4 / 90)
    _report(3, res.ok and diff <= 1e-4,
            f"Z2(1;1|2,1) vs 17/8 zeta(4): diff={diff:.2e}, 3-term split exact")


def test_criterion_4_amtagpa():
    oks, details = [], []
    for n in (2, 3, 4):
        res = run_example(f"amtagpa:{n}", bound=200, tol=1e-3)
        oks.append(res.ok)
        details.append(f"n={n} diff={res.report.difference:.2e}")
    _report(4, all(oks), "; ".join(details))


def _rand_height5_scalar(rng, allow_zero_im=True):
    vals = [F(a, b) for a in range(-5, 6) for b in range(1, 6) if abs(F(a, b)) <= 1]
    while True:
        re = rng.choice(vals)
        im = rng.choice(vals) if rng.random() < 0.4 or not allow_zero_im else F(0)
        if re * re + im * im <= 1 and (re, im) != (0, 0):
            return sc(re, im)


def test_criterion_5_boundary_exactness():
    rng = random.Random(505)
    start = time.time()
    done = 0
    while done < 200:
        r, s = rng.randint(1, 3), rng.randint(1, 2)
        zs = tuple(_rand_height5_scalar(rng) for _ in range(r))
        ws = tuple(_rand_height5_scalar(rng) for _ in range(s))
        t = ZTerm(F(1), (Pair(tuple(rng.randint(1, 2) for _ in range(r)), zs),),
                  Pair(tuple(rng.randint(1, 2) for _ in range(s)), ws))
        if not is_convergent(t):
            continue
        lhs = eval_zterm_partial_exact(t, 30)
        rhs = Scalar.of(0)
        for c, term in boundary_reduce(t).terms:
            rhs = rhs + sc(c) * eval_mpl_partial_exact(term, 30)
        assert lhs == rhs, (t, lhs, rhs)
        done += 1
    elapsed = time.time() - start
    _report(5, elapsed < 60.0,
            f"200 random terms, exact partial-sum equality at N=30, {elapsed:.1f}s")


def test_criterion_6_telescoping():
    rng = random.Random(606)
    pool = [sc(1), sc(-1), sc(F(1, 2), F(1, 2)), sc(F(-1, 2)), sc(0, 1), sc(0, -1),
            sc(F(3, 5), F(4, 5))]
    done = zero_cases = 0
    while done < 100:
        d = rng.randint(1, 2) if done % 5 else 2
        if done % 5 == 0:
            v = rng.choice(pool)
            vs = [v, -v]  # reciprocal sum 0: exercises 0^0 = 1
        else:
            vs = [rng.choice(pool) for _ in range(d)]
        d = len(vs)
        t = Scalar.of(0)
        for v in vs:
            t = t + v.inv()
        if t.is_inf or not t.in_closed_disk():
            continue
        n = rng.randint(d, d + 2)
        m_minus = [rng.randint(0, 2) for _ in range(d)]
        m_plus = [rng.randint(1, 2) for _ in range(n - d)]
        q = rng.randint(0, 3)
        lo = 1 + max(q, sum(m_minus) + d + sum(m_plus))
        bound = rng.randint(lo, max(lo + 1, 20))
        assert telescoping_check(d, n, m_minus, m_plus, q, vs, t, bound)
        if t.is_zero():
            zero_cases += 1
        done += 1
    _report(6, zero_cases >= 10,
            f"100 random finite identities exact (N <= 20), {zero_cases} with t = 0")


_DUAL_POOL = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2)), sc(F(1, 3)), sc(0, 1),
              sc(F(-3, 5), F(4, 5)), sc(F(1, 3), F(-1, 3)), sc(F(-2, 5), F(1, 5)),
              sc(F(-1, 2), F(1, 2)), sc(F(2, 5))]


def test_criterion_7_duality():
    rng = random.Random(707)
    done = 0
    while done < 500:
        r = rng.randint(0, 4)
        p = Pair(tuple(rng.randint(1, 3) for _ in range(r)),
                 tuple(rng.choice(_DUAL_POOL) for _ in range(r)))
        if not dual_condition(p):
            continue
        sign, d = dagger(p)
        sign2, back = dagger(d)
        assert (sign2, back) == (sign, p), f"involution fails at {p}"
        assert reduce_duality(p) == (sign, d), f"chain disagrees at {p}"
        done += 1

    small = [v for v in _DUAL_POOL if not v.is_inf and v.abs_sq() <= F(1, 4)]
    inner = [v for v in _DUAL_POOL if not v.is_one()]
    done = 0
    worst = 0.0
    while done < 50:
        r = rng.randint(1, 3)
        zs = tuple(rng.choice(inner) for _ in range(r - 1)) + (rng.choice(small),)
        p = Pair(tuple(rng.randint(1, 2) for _ in range(r)), zs)
        if not dual_condition(p):
            continue
        report = verify_relation(duality_relation(p), tol=1e-6)
        assert report.ok, (p, report)
        worst = max(worst, report.difference)
        done += 1
    _report(7, True,
            f"500 involution+chain agreements; 50 numeric dualities, worst diff {worst:.2e}")


def test_criterion_8_ohno():
    # symbolic commutation on generators and random words at order 3
    rng = random.Random(808)
    gens = [X, ONE, sc(-1), sc(F(1, 3)), sc(F(-2, 5), F(1, 5))]
    for letter in gens:
        s = HSeries.from_word((letter,), 3)
        assert apply_map("rho", apply_map("tau_prime", s)) == \
            apply_map("tau", apply_map("rho", s))
    for _ in range(100):
        n = rng.randint(1, 5)
        w = tuple(rng.choice(gens[1:]) if i == 0 or rng.random() < 0.5 else X
                  for i in range(n))
        s = HSeries.from_word(w, 3)
        assert apply_map("rho", apply_map("tau_prime", s)) == \
            apply_map("tau", apply_map("rho", s))

    worst = 0.0
    for h in range(4):
        rep = verify_relation(ohno_relation(Pair.ones((3,)), h), tol=1e-6)
        assert rep.ok, (h, rep)
        worst = max(worst, rep.difference)
    for z in (sc(F(1, 3)), sc(F(-1, 2)), sc(F(1, 5), F(2, 5))):
        for h in range(5):
            rep = verify_relation(ohno_relation(Pair((1,), (z,)), h), tol=1e-6)
            assert rep.ok, (z, h, rep)
            worst = max(worst, rep.difference)

    done = 0
    while done < 50:
        r = rng.randint(1, 4)
        p = Pair(tuple(rng.randint(1, 3) for _ in range(r)),
                 tuple(rng.choice(_DUAL_POOL) for _ in range(r)))
        if not dual_condition(p) or p.z[0].re_eq_half():
            continue
        try:
            w = word_of_pair(p)
        except Exception:
            continue
        h = rng.randint(0, 3)
        rel = ohno_relation(p, h)
        lhs, rhs = thm_sides(w, h)[h]
        assert rel.lhs == lhs and rel.rhs == rhs, (p, h)
        done += 1
    _report(8, True,
            f"commutation exact at order 3; lift relations verified (worst {worst:.2e}); "
            f"50 emission-path agreements")


def test_criterion_9_dilcher():
    details = []
    ok = True
    for k in range(2, 7):
        res = run_example(f"dilcher:{k}")
        ok = ok and res.ok
        details.append(f"k={k} diff={res.report.difference:.2e}")
    _report(9, ok, "; ".join(details) + " (k=3 includes zeta(3)=8zeta(1,bar2) at 1e-6)")


def test_criterion_10_integral_reduction_shape():
    rng = random.Random(1010)

    def rand_index(maxw):
        w = rng.randint(1, maxw)
        out = []
        while w > 0:
            e = rng.randint(1, w)
            out.append(e)
            w -= e
        return tuple(out)

    for _ in range(30):
        n = rng.randint(2, 3)
        while True:
            ks = [rand_index(2) for _ in range(n)]
            bar_k = rand_index(2)
            total = sum(map(sum, ks)) + sum(bar_k)
            if total <= 6:
                break
        t = zterm([Pair.ones(k) for k in ks], Pair.ones(bar_k))
        out = normalize_to_dual_basis(reduce_to_mpl(t))
        allowed = {F(1)} | {F(1, j) for j in range(2, n + 1)}
        for coef, term in out.terms:
            assert term.k and term.k[-1] >= 2, (t, term)
            assert term.wt == total - 1, (t, term)
            assert term.z[0].is_one(), (t, term)
            assert all(v.is_real() and v.re in allowed for v in term.z), (t, term)
            assert term.dep <= total - 2
    _report(10, True,
            "30 integral reductions land in the admissible weight-(k-1) basis "
            "with leading variable 1 and variables in {1, 1/2, ..., 1/n}")
