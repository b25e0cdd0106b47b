"""Seeded corpora, the calls they make into connsum, and their golden checks.

Every workload is a list of item classes.  A class owns a generator that
copies the logic of the matching acceptance criterion (with that criterion's
seed) and takes a prefix of its stream, so its pool of inputs is fixed; the
golden file under ``golden/`` holds the seed commit's output for every pool
item plus the time it took.  A run's ``--seed`` draws the corpus from the
pools (run.build_corpus): a fixed class runs whole, and so do the twelve
costliest items of the other classes; the rest are sorted by recorded time,
cut into groups of up to ``pick`` neighbours of nearly equal cost, and one
item of each group is taken.  Every seed thus runs the same mix of cheap and
costly items, so medians and tails hardly depend on the seed while the
inputs still vary.

connsum is looked up through its package namespace at call time, so the
traced run sees the wrappers it installs.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

import connsum as C
from connsum import serialize as S

# numeric tolerances the golden check pins: an eval_zterm value may move by
# this much relative to 1 + |golden|; a verified relation's sides may move by
# at most the relation's own tolerance
EVAL_REL_TOL = 1e-10


def canon(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canon(obj).encode()).hexdigest()


def cplx(z: complex) -> list[float]:
    return [z.real, z.imag]


@dataclass
class ItemClass:
    """One kind of corpus item.

    gen(rng) yields the pool inputs in order; encode gives their JSON form
    (hashed, to catch a generator that drifted from the golden file); call
    runs connsum on one input; record turns the output into the golden
    record; check(input, output, golden record) returns a failure text, or
    None when the output is right.
    """

    name: str
    seed: int
    gen: Callable[[random.Random], list]
    encode: Callable[[Any], Any]
    call: Callable[[Any], Any]
    record: Callable[[Any], dict]
    check: Callable[[Any, Any, dict], str | None]
    max_cost_s: float | None = None  # pool items slower than this are left out
    diff_ratio: Callable[[Any], float] | None = None  # difference / tol, if verified
    fixed: bool = False  # every pool item runs, whatever the seed

    def pool(self) -> list:
        return self.gen(random.Random(self.seed))


# ---------------------------------------------------------------------------
# certify: named identities and numeric duality checks (criterion 7)

EXAMPLE_NAMES = (
    "cloitre", "oloa", "triple", "amtagpa:2", "amtagpa:3", "amtagpa:4",
    "zeta4", "dilcher:2", "dilcher:3", "dilcher:4", "dilcher:5", "dilcher:6",
    "dilog", "kummer-newman", "eight-term",
)

_DUAL_POOL = [C.sc(1), C.sc(-1), C.sc(F(1, 2)), C.sc(F(-1, 2)), C.sc(F(1, 3)), C.sc(0, 1),
              C.sc(F(-3, 5), F(4, 5)), C.sc(F(1, 3), F(-1, 3)), C.sc(F(-2, 5), F(1, 5)),
              C.sc(F(-1, 2), F(1, 2)), C.sc(F(2, 5))]


def _gen_named(rng):
    return list(EXAMPLE_NAMES)


def _dual_chain_pairs(rng, count=500):
    """Criterion 7, first loop: random dual-condition pairs."""
    out = []
    while len(out) < count:
        r = rng.randint(0, 4)
        p = C.Pair(tuple(rng.randint(1, 3) for _ in range(r)),
                   tuple(rng.choice(_DUAL_POOL) for _ in range(r)))
        if C.dual_condition(p):
            out.append(p)
    return out


def _gen_duality(rng, count=20):
    """Criterion 7, second loop (after the first has consumed its draws)."""
    _dual_chain_pairs(rng)
    small = [v for v in _DUAL_POOL if not v.is_inf and v.abs_sq() <= F(1, 4)]
    inner = [v for v in _DUAL_POOL if not v.is_one()]
    out = []
    while len(out) < count:
        r = rng.randint(1, 3)
        zs = tuple(rng.choice(inner) for _ in range(r - 1)) + (rng.choice(small),)
        p = C.Pair(tuple(rng.randint(1, 2) for _ in range(r)), zs)
        if C.dual_condition(p):
            out.append(p)
    return out


def _record_verified(rel, rep) -> dict:
    return {
        "relation": digest(S.relation_to_json(rel)),
        "lhs": cplx(rep.lhs_value), "rhs": cplx(rep.rhs_value),
        "difference": rep.difference, "tol": rep.tol,
    }


def _check_verified(rel, rep, expect) -> str | None:
    if not rep.ok:
        return f"not certified: difference {rep.difference:.3e} > tol {rep.tol:.1e}"
    if digest(S.relation_to_json(rel)) != expect["relation"]:
        return "relation differs from the golden one"
    for side, got in (("lhs", rep.lhs_value), ("rhs", rep.rhs_value)):
        want = complex(*expect[side])
        if abs(got - want) > expect["tol"]:
            return f"{side} {got} moved from golden {want} by more than {expect['tol']}"
    return None


def _check_named(name, res, expect):
    if not res.ok:
        return f"example failed: {res.notes}"
    return _check_verified(res.relation, res.report, expect)


def _call_duality(p):
    rel = C.duality_relation(p)
    return rel, C.verify_relation(rel, tol=1e-6)


CERTIFY = [
    ItemClass("named", 0, _gen_named, lambda name: name,
              lambda name: C.run_example(name),
              lambda res: _record_verified(res.relation, res.report), _check_named,
              diff_ratio=lambda res: res.report.difference / res.report.tol, fixed=True),
    ItemClass("duality", 707, _gen_duality, S.pair_to_json, _call_duality,
              lambda out: _record_verified(*out),
              lambda p, out, e: _check_verified(out[0], out[1], e),
              diff_ratio=lambda out: out[1].difference / out[1].tol),
]


# ---------------------------------------------------------------------------
# eval: eval_zterm requests over a grid of arity, bound and variable kind

_OPEN_DISK = [C.sc(F(1, 2)), C.sc(F(-1, 2)), C.sc(F(1, 3)), C.sc(F(-1, 3)), C.sc(0, F(1, 2)),
              C.sc(0, F(-1, 2)), C.sc(F(1, 3), F(1, 3)), C.sc(F(1, 3), F(-1, 3)),
              C.sc(F(2, 5)), C.sc(F(-2, 5), F(1, 5))]
_BARS = ((1,), (1, 1), (2, 1))


def _rand_index(rng, maxw):
    w = rng.randint(1, maxw)
    out = []
    while w > 0:
        e = rng.randint(1, w)
        out.append(e)
        w -= e
    return tuple(out)


def _eval_gen(arity, bound, kind, count):
    def gen(rng):
        out = []
        for _ in range(count):
            comps = []
            for _ in range(arity):
                k = _rand_index(rng, 2)
                if kind == "ones":
                    comps.append(C.Pair.ones(k))
                else:
                    comps.append(C.Pair(k, tuple(rng.choice(_OPEN_DISK) for _ in k)))
            bar = C.Pair.ones(rng.choice(_BARS))
            out.append((C.zterm(comps, bar), bound))
        return out
    return gen


def _check_eval(item, rep, expect):
    want = complex(*expect["value"])
    if abs(rep.value - want) > EVAL_REL_TOL * (1.0 + abs(want)):
        return f"value {rep.value} moved from golden {want}"
    return None


# (arity, bound, kind, pool size): more of the cheap requests than of the dear
_EVAL_GRID = [
    (2, 400, "ones", 12), (2, 400, "disk", 12), (2, 1600, "ones", 4), (2, 1600, "disk", 4),
    (3, 400, "ones", 4), (3, 400, "disk", 4), (3, 1600, "ones", 2), (3, 1600, "disk", 2),
    (4, 400, "ones", 2), (4, 400, "disk", 2), (4, 1600, "ones", 1), (4, 1600, "disk", 1),
]

EVAL = [
    ItemClass(f"zterm-n{n}-b{bound}-{kind}", 404 + i, _eval_gen(n, bound, kind, count),
              lambda item: [S.zterm_to_json(item[0]), item[1]],
              lambda item: C.eval_zterm(item[0], item[1]),
              lambda rep: {"value": cplx(rep.value), "tail": rep.tail_estimate},
              _check_eval)
    for i, (n, bound, kind, count) in enumerate(_EVAL_GRID)
]


# ---------------------------------------------------------------------------
# exact: boundary oracles (criterion 5) and finite telescoping (criterion 6)

_HEIGHT5 = [F(a, b) for a in range(-5, 6) for b in range(1, 6) if abs(F(a, b)) <= 1]


def _rand_height5_scalar(rng):
    while True:
        re = rng.choice(_HEIGHT5)
        im = rng.choice(_HEIGHT5) if rng.random() < 0.4 else F(0)
        if re * re + im * im <= 1 and (re, im) != (0, 0):
            return C.sc(re, im)


def _gen_oracle(rng, count=30):
    out = []
    while len(out) < count:
        r, s = rng.randint(1, 3), rng.randint(1, 2)
        zs = tuple(_rand_height5_scalar(rng) for _ in range(r))
        ws = tuple(_rand_height5_scalar(rng) for _ in range(s))
        t = C.ZTerm(F(1), (C.Pair(tuple(rng.randint(1, 2) for _ in range(r)), zs),),
                    C.Pair(tuple(rng.randint(1, 2) for _ in range(s)), ws))
        if C.is_convergent(t):
            out.append(t)
    return out


def _call_oracle(t):
    lhs = C.eval_zterm_partial_exact(t, 30)
    rhs = C.Scalar.of(0)
    for c, term in C.boundary_reduce(t).terms:
        rhs = rhs + C.sc(c) * C.eval_mpl_partial_exact(term, 30)
    return lhs, rhs


def _check_oracle(t, out, expect):
    lhs, rhs = out
    if lhs != rhs:
        return f"oracles disagree: {lhs} != {rhs}"
    if S.scalar_to_json(lhs) != expect["value"]:
        return f"partial sum {lhs} differs from the golden one"
    return None


def _gen_telescoping(rng, count=60):
    pool = [C.sc(1), C.sc(-1), C.sc(F(1, 2), F(1, 2)), C.sc(F(-1, 2)), C.sc(0, 1),
            C.sc(0, -1), C.sc(F(3, 5), F(4, 5))]
    out = []
    while len(out) < count:
        done = len(out)
        d = rng.randint(1, 2) if done % 5 else 2
        if done % 5 == 0:
            v = rng.choice(pool)
            vs = [v, -v]
        else:
            vs = [rng.choice(pool) for _ in range(d)]
        d = len(vs)
        t = C.Scalar.of(0)
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
        out.append((d, n, m_minus, m_plus, q, vs, t, bound))
    return out


def _encode_telescoping(args):
    d, n, m_minus, m_plus, q, vs, t, bound = args
    return [d, n, m_minus, m_plus, q, [S.scalar_to_json(v) for v in vs],
            S.scalar_to_json(t), bound]


EXACT = [
    ItemClass("oracle", 505, _gen_oracle, S.zterm_to_json, _call_oracle,
              lambda out: {"value": S.scalar_to_json(out[0])}, _check_oracle),
    ItemClass("telescoping", 606, _gen_telescoping, _encode_telescoping,
              lambda args: C.telescoping_check(*args),
              lambda ok: {"holds": ok},
              lambda args, ok, e: None if ok is True and e["holds"] is True
              else "finite identity does not hold"),
]


# ---------------------------------------------------------------------------
# symbolic: traced reductions, duality chains (criterion 7), word-algebra
# commutation and lift-relation emission (criterion 8)

_REDUCE_VARS = [C.sc(1), C.sc(-1), C.sc(F(1, 2)), C.sc(F(-1, 2)), C.sc(F(1, 3)), C.sc(0, 1),
                C.sc(0, -1), C.sc(F(-3, 5), F(4, 5)), C.sc(F(1, 3), F(-1, 3)),
                C.sc(F(-1, 2), F(1, 2)), C.sc(F(2, 5))]


def _gen_reduce(rng, count=60, max_weight=9):
    """Arity 2-5 terms, all-ones or disk variables, that have a receiving slot."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        integral = rng.random() < 0.5

        def pair():
            k = _rand_index(rng, 2)
            if integral:
                return C.Pair.ones(k)
            return C.Pair(k, tuple(rng.choice(_REDUCE_VARS) for _ in k))

        comps = [pair() for _ in range(n)]
        bar = pair()
        if sum(p.wt for p in comps) + bar.wt > max_weight:
            continue
        t = C.zterm(comps, bar)
        if C.transportable_pick(t) is not None:
            out.append(t)
    return out


def _call_reduce(t):
    trace: list = []
    mpl = C.reduce_to_mpl(t, trace=trace)
    return mpl, trace, C.normalize_to_dual_basis(mpl)


def _record_reduce(out) -> dict:
    mpl, trace, dual = out
    return {"digest": digest({"mpl": S.mplexpr_to_json(mpl), "trace": trace,
                              "dual": S.mplexpr_to_json(dual)}),
            "trace_records": len(trace)}


def _call_chain(p):
    sign, d = C.dagger(p)
    return (sign, d), C.dagger(d), C.reduce_duality(p)


def _check_chain(p, out, expect):
    (sign, d), back, chain = out
    if back != (sign, p):
        return "dagger is not an involution here"
    if chain != (sign, d):
        return "duality chain disagrees with the dagger"
    if digest([sign, S.pair_to_json(d)]) != expect["digest"]:
        return "dual differs from the golden one"
    return None


def _gen_words(rng, count=100):
    gens = [C.X, C.ONE, C.sc(-1), C.sc(F(1, 3)), C.sc(F(-2, 5), F(1, 5))]
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        out.append(tuple(rng.choice(gens[1:]) if i == 0 or rng.random() < 0.5 else C.X
                         for i in range(n)))
    return out


def _encode_word(w):
    return ["x" if letter is C.X else S.scalar_to_json(letter) for letter in w]


def _series_json(s) -> list:
    rows = []
    for deg in range(s.order + 1):
        row = sorted(([_encode_word(w), S.frac_to_json(c)]
                      for w, c in s.degree_words(deg).items() if c != 0), key=canon)
        if row:
            rows.append([deg, row])
    return rows


def _call_commute(w):
    s = C.HSeries.from_word(w, 3)
    return (C.apply_map("rho", C.apply_map("tau_prime", s)),
            C.apply_map("tau", C.apply_map("rho", s)))


def _check_commute(w, out, expect):
    a, b = out
    if a != b:
        return "rho o tau' != tau o rho"
    if digest(_series_json(a)) != expect["digest"]:
        return "series differs from the golden one"
    return None


def _gen_emission(rng, count=24):
    """Criterion 8, third loop; the rng has first drawn the 100 words."""
    _gen_words(rng)
    out = []
    while len(out) < count:
        r = rng.randint(1, 4)
        p = C.Pair(tuple(rng.randint(1, 3) for _ in range(r)),
                   tuple(rng.choice(_DUAL_POOL) for _ in range(r)))
        if not C.dual_condition(p) or p.z[0].re_eq_half():
            continue
        try:
            C.word_of_pair(p)
        except C.errors.ConnsumError:
            continue
        out.append((p, rng.randint(0, 3)))
    return out


def _call_emission(item):
    p, h = item
    rel = C.ohno_relation(p, h)
    return rel, C.ohno.thm_sides(C.word_of_pair(p), h)[h]


def _check_emission(item, out, expect):
    rel, (lhs, rhs) = out
    if rel.lhs != lhs or rel.rhs != rhs:
        return "ohno_relation and thm_sides emit different relations"
    if digest(S.relation_to_json(rel)) != expect["digest"]:
        return "relation differs from the golden one"
    return None


SYMBOLIC = [
    ItemClass("reduce", 1010, _gen_reduce, S.zterm_to_json, _call_reduce,
              _record_reduce,
              lambda t, out, e: None if _record_reduce(out)["digest"] == e["digest"]
              else "reduction, trace or dual basis differs from the golden one"),
    ItemClass("chain", 707, lambda rng: _dual_chain_pairs(rng)[:100], S.pair_to_json, _call_chain,
              lambda out: {"digest": digest([out[0][0], S.pair_to_json(out[0][1])])},
              _check_chain),
    ItemClass("commute", 808, lambda rng: _gen_words(rng)[:24], _encode_word, _call_commute,
              lambda out: {"digest": digest(_series_json(out[0]))}, _check_commute),
    ItemClass("emission", 808, _gen_emission,
              lambda item: [S.pair_to_json(item[0]), item[1]], _call_emission,
              lambda out: {"digest": digest(S.relation_to_json(out[0]))}, _check_emission,
              max_cost_s=2.0),
]

# workload -> (item classes, pick: one item out of every `pick` cost neighbours)
WORKLOADS = {"certify": (CERTIFY, 2), "eval": (EVAL, 2), "exact": (EXACT, 3),
             "symbolic": (SYMBOLIC, 3)}
