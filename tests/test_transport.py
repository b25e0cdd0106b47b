import ast
import hashlib
import inspect
import itertools
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import canonical_coef

from connsum import boundary, duality, model, scalars, serialize, transport
from connsum.errors import (
    BudgetExceeded,
    DivergentInput,
    DomainError,
    NotPeelable,
    NotTransportable,
    NotTransportableStep,
    PreconditionViolated,
)
from connsum.model import (
    EMPTY_PAIR,
    MplExpr,
    MplTerm,
    Pair,
    ZExpr,
    ZTerm,
    drop_all_empty_components,
    is_convergent,
    swap_components,
    zterm,
)
from connsum.duality import dagger, dual_condition, duality_relation, normalize_to_dual_basis
from connsum.numeric import eval_mpl_auto, eval_zterm
from connsum.recipe import RecipeData, recipe_relation
from connsum.named_examples import EXAMPLE_NAMES, run_example
from connsum.ohno import MAP_NAMES, HSeries, X, apply_map, multi_term_relations, ohno_relation
from connsum.serialize import relation_to_json, zterm_from_json
from connsum.transport import (
    condition_violation,
    is_transportable,
    reduce_duality,
    reduce_to_mpl,
    reduce_to_z1,
    transport_step,
    transportable_pick,
)
from connsum.scalars import ONE, ZERO, Scalar, sc

ONES1 = Pair.ones((1,))


def zt(comps, bar=None, coef=1):
    return zterm(comps, bar, coef)


def test_step_example_5_3_chain():
    # the non-trivial middle of the zeta(2) transport chain
    start = zt([Pair.ones((2,)), EMPTY_PAIR])
    out = transport_step(start)
    assert out == ZExpr.of([zt([ONES1, ONES1])])
    nxt = transport_step(zt([ONES1, ONES1]))
    assert nxt == ZExpr.of([zt([EMPTY_PAIR, Pair.ones((2,))])])


def test_reduce_example_5_3():
    t = zt([ONES1, ONES1], Pair.ones((1, 1)))
    expected = ZExpr.of([
        zt([Pair.ones((2,))], Pair.ones((1, 1))),
        zt([Pair.ones((3,))], Pair.ones((1,))),
    ])
    assert reduce_to_z1(t) == expected


def test_reduce_example_5_4():
    t = zt([ONES1, ONES1], Pair.ones((2, 1)))
    m1 = sc(-1)
    expected = ZExpr.of([
        zt([Pair.ones((2,))], Pair.ones((2, 1))),
        zt([Pair((2, 1), (ONE, m1))], Pair.ones((2,)), coef=-1),
        zt([Pair((2, 2), (ONE, m1))], Pair.ones((1,)), coef=-1),
    ])
    assert reduce_to_z1(t) == expected


def test_step_example_5_5_shape():
    # arity r+1 all-ones collapses to -r times the arity-r term
    for r in (2, 3):
        recv = Pair((2,), (sc(F(1, 2)),))
        t = zt([ONES1] * r + [recv])
        out = transport_step(t).as_terms()
        merged = ZExpr.of([drop_all_empty_components(u) for u in out]).as_terms()
        assert len(merged) == 1
        u = merged[0]
        assert u.coef == -r and u.arity == r
        v = sc(F(1, 1 - r))
        assert u.components[-1] == Pair((2, 1), (sc(F(1, 2)), v))


def test_step_example_3_3():
    # three components, receiving slot decorated by -1
    eps = Pair((2,), (sc(-1),))
    t = zt([Pair.ones((1, 1)), Pair.ones((2, 1)), eps])
    out = transport_step(t)
    grown = Pair((2, 1), (sc(-1), sc(-1)))
    expected = ZExpr.of([
        zt([Pair.ones((1,)), Pair.ones((2, 1)), grown], coef=-1),
        zt([Pair.ones((1, 1)), Pair.ones((2,)), grown], coef=-1),
    ])
    assert out == expected


def test_step_vertical_bar_pattern():
    # bar peels vertically (t = 0), receiver gains the negated reciprocal
    t = zt([Pair((1,), (sc(F(1, 2)),)), ONES1], Pair.ones((2,)))
    out = transport_step(t).as_terms()
    # v2 = -1/2 appended to the receiver on all surviving branches
    for u in out:
        assert u.components[-1] == Pair((1, 1), (ONE, sc(F(-1, 2))))


def test_step_preconditions():
    with pytest.raises(NotTransportableStep):
        transport_step(zt([ONES1]))
    # received value strictly inside the punctured disk: |1 - 1/v| < 1
    bad = zt([Pair((1,), (sc(F(3, 5), F(4, 5)),)), ONES1])
    with pytest.raises(NotTransportableStep):
        transport_step(bad)
    # empty receiver must not receive an infinity arrow
    with pytest.raises(NotTransportableStep):
        transport_step(zt([ONES1, EMPTY_PAIR]))
    # n = 2 with bar value 1: Z2((1/2 / 1); (1 / 1) | (1 / 1)) empties slot 1
    # with |1 - 1/v| = |1 - 2| = 1, and Z2((-1 / 1); () | (1 / 1)) sends
    # 1/v = 2 into an empty slot with |v| = 1
    emptying = zt([Pair((1,), (sc(F(1, 2)),)), ONES1], ONES1)
    with pytest.raises(NotTransportableStep, match="^emptying slot with .bar value. = 1"):
        transport_step(emptying)
    with pytest.raises(NotTransportableStep, match="^empty receiving slot with .bar value. = 1"):
        transport_step(zt([Pair((1,), (sc(-1),)), EMPTY_PAIR], ONES1))
    # the transportability bullet |w - 1/z| = 1 refuses the first up front
    with pytest.raises(NotTransportable, match="does not qualify"):
        reduce_to_z1(emptying, j=1)


@pytest.mark.parametrize("t, slot", [
    (zt([EMPTY_PAIR, Pair.ones((2,))]), "component 1"),
    (zt([ONES1, ONES1], EMPTY_PAIR), "the bar"),
    (zt([ONES1, Pair((1,), (ZERO,)), ONES1]), "component 2"),
], ids=["empty-component", "empty-bar", "trailing-zero-letter"])
def test_step_unpeelable_slot_is_named(t, slot):
    with pytest.raises(NotTransportableStep, match=f"^{slot} cannot be peeled") as info:
        transport_step(t)
    assert isinstance(info.value.__cause__, NotPeelable)


def test_weight_measure_decreases():
    random.seed(10)
    pool = [sc(1), sc(-1), sc(F(-1, 2))]
    checked = 0
    while checked < 25:
        n = random.randint(2, 3)
        comps = []
        for _ in range(n):
            k = tuple(random.randint(1, 2) for _ in range(random.randint(1, 2)))
            comps.append(Pair(k, tuple(random.choice(pool) for _ in k)))
        bar = Pair.ones((random.randint(1, 2),))
        t = zt(comps, bar)
        if transportable_pick(t) is None:
            continue
        j = transportable_pick(t)
        t2 = swap_components(t, [x for x in range(n) if x != j] + [j])
        try:
            out = transport_step(t2)
        except NotTransportableStep:
            continue
        for u in out.as_terms():
            assert u.transport_measure() == t2.transport_measure() - 1
        checked += 1


def test_transportable_examples():
    all_ones = zt([Pair.ones((1, 2)), Pair.ones((2,))], Pair.ones((1, 1)))
    assert all(is_transportable(all_ones, j) for j in range(2))
    t = zt([ONES1, ONES1], Pair.ones((1,)))
    assert is_transportable(t, 1)
    # |1 - 1/z| < 1 with the reciprocal sum off-target: rejected
    edge = zt([Pair((1,), (sc(F(3, 5), F(4, 5)),)), ONES1], Pair.ones((1,)))
    assert not is_transportable(edge, 1)
    # a slot is an integer (a numpy one too), never a bool, float or string;
    # an integer out of range is a slot that does not qualify
    assert is_transportable(t, np.int64(1))
    assert reduce_to_z1(t, j=np.int64(0)) == reduce_to_z1(t, j=0)
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(DomainError, match="receiving slot must be an integer"):
            is_transportable(t, bad)
        with pytest.raises(DomainError, match="receiving slot must be an integer"):
            reduce_to_z1(t, j=bad)
    for out_of_range in (-1, 2):
        assert not is_transportable(t, out_of_range)
        with pytest.raises(NotTransportable):
            reduce_to_z1(t, j=out_of_range)


def test_transportable_vertical_closure():
    # a vertical move can face the bar value 1/2 strictly inside the disk:
    # the variable condition alone would accept, the closure must reject
    t = zt([Pair((2,), (sc(-1),)), ONES1], Pair((1,), (sc(F(1, 2)),)))
    assert not is_transportable(t, 1)
    with pytest.raises(NotTransportable):
        reduce_to_z1(t)


def test_reduce_rejects_divergent():
    with pytest.raises(DivergentInput):
        reduce_to_z1(zt([Pair.ones((1, 1))], Pair.ones((1, 1))))


def test_reduce_outputs_convergent_z1():
    random.seed(6)
    pool = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2))]
    checked = 0
    while checked < 20:
        n = random.randint(2, 3)
        comps = []
        for _ in range(n):
            r = random.randint(1, 2)
            comps.append(Pair(tuple(random.randint(1, 2) for _ in range(r)),
                              tuple(random.choice(pool) for _ in range(r))))
        bk = tuple(random.randint(1, 2) for _ in range(random.randint(1, 2)))
        bar = Pair(bk, tuple(random.choice([sc(1), sc(-1)]) for _ in bk))
        t = zt(comps, bar)
        if transportable_pick(t) is None or not is_convergent(t):
            continue
        out = reduce_to_z1(t)
        for u in out.as_terms():
            assert u.arity == 1
            assert is_convergent(u)
        checked += 1


def test_step_value_preservation_numeric():
    random.seed(3)
    pool = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2))]
    checked = 0
    while checked < 10:
        n = random.randint(2, 3)
        comps = []
        for _ in range(n):
            r = random.randint(1, 2)
            comps.append(Pair(tuple(random.randint(1, 2) for _ in range(r)),
                              tuple(random.choice(pool) for _ in range(r))))
        bk = tuple(random.randint(1, 2) for _ in range(random.randint(1, 2)))
        bar = Pair(bk, tuple(random.choice([sc(1), sc(-1)]) for _ in bk))
        t = zt(comps, bar)
        j = transportable_pick(t)
        if j is None or not is_convergent(t):
            continue
        t2 = swap_components(t, [x for x in range(n) if x != j] + [j])
        step = transport_step(t2)
        lhs = eval_zterm(t2, 150, tol=1.0)
        rv, rtail = 0j, 0.0
        for u in step.as_terms():
            rep = eval_zterm(u.with_coef(F(1)), 150, tol=1.0)
            rv += complex(float(u.coef)) * rep.value
            rtail += rep.tail_estimate
        assert abs(lhs.value - rv) <= 1e-6 + lhs.tail_estimate + rtail
        checked += 1


def test_full_reduction_value_preservation():
    random.seed(8)
    pool = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2))]
    checked = 0
    while checked < 6:
        n = random.randint(2, 3)
        comps = []
        for _ in range(n):
            r = random.randint(1, 2)
            comps.append(Pair(tuple(random.randint(1, 2) for _ in range(r)),
                              tuple(random.choice(pool) for _ in range(r))))
        bar = Pair.ones((random.randint(1, 2),))
        t = zt(comps, bar)
        if transportable_pick(t) is None or not is_convergent(t):
            continue
        mpl = reduce_to_mpl(t)
        lhs = eval_zterm(t, 200, tol=1.0)
        rv, rtail = 0j, 0.0
        for c, term in mpl.terms:
            v, e = eval_mpl_auto(term, 1e-8)
            rv += complex(float(c)) * v
            rtail += abs(float(c)) * e
        assert abs(lhs.value - rv) <= 1e-6 + lhs.tail_estimate + rtail
        checked += 1


def test_reduce_duality_matches_dagger():
    random.seed(12)
    pool = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2)), sc(F(1, 3)),
            sc(0, 1), sc(F(-3, 5), F(4, 5)), sc(F(1, 3), F(-1, 3))]
    checked = 0
    while checked < 100:
        r = random.randint(0, 4)
        p = Pair(tuple(random.randint(1, 3) for _ in range(r)),
                 tuple(random.choice(pool) for _ in range(r)))
        from connsum.duality import dual_condition

        if not dual_condition(p):
            continue
        assert reduce_duality(p) == dagger(p)
        checked += 1


def test_trace_replay():
    trace = []
    t = zt([ONES1, ONES1], Pair.ones((2, 1)))
    reduce_to_z1(t, trace=trace)
    assert trace
    for record in trace:
        premise = zterm_from_json(record["premise"])
        if record["rule"] == "transport-step":
            got = transport_step(premise)
            expect = ZExpr.of([zterm_from_json(c) for c in record["conclusions"]])
            assert got == expect
        elif record["rule"] == "drop-empty":
            got = drop_all_empty_components(premise)
            assert got == zterm_from_json(record["conclusions"][0])


def test_step_sign_table_arity2():
    """The four horizontal/vertical patterns of the arity-2 rewrite."""
    half = sc(F(-1, 2))
    base1 = Pair((2,), (half,))
    p2 = Pair((1,), (sc(F(1, 3)),))
    bar_base = Pair((2,), (ONE,))

    # (1) horizontal component, horizontal bar: v2 = 1/(t - 1/v1)
    p1 = Pair((2, 1), (half, sc(-1)))          # base1 with arrow v1 = -1
    bar = Pair((2, 1), (ONE, ONE))             # bar_base with arrow t = 1
    v2 = (sc(1) - sc(-1).inv()).inv()          # = 1/2
    grown = Pair((1, 1), (sc(F(1, 3)), v2))
    out = transport_step(zterm([p1, p2], bar))
    assert out == ZExpr.of([
        zterm([base1, grown], bar, coef=-1),
        zterm([p1, grown], bar_base, coef=-1),
    ])

    # (2) vertical component, horizontal bar: v2 = 1/t, signs flip once
    p1v = Pair((3,), (half,))                  # base1 with the vertical arrow
    grown = Pair((1, 1), (sc(F(1, 3)), ONE))   # arrow by 1/t = 1
    out = transport_step(zterm([p1v, p2], bar))
    assert out == ZExpr.of([
        zterm([base1, grown], bar, coef=1),
        zterm([p1v, grown], bar_base, coef=-1),
    ])

    # (3) horizontal component, vertical bar: v2 = -v1
    barv = Pair((3,), (ONE,))                  # bar_base with the vertical arrow
    grown = Pair((1, 1), (sc(F(1, 3)), sc(1)))
    out = transport_step(zterm([p1, p2], barv))
    assert out == ZExpr.of([
        zterm([base1, grown], barv, coef=-1),
        zterm([p1, grown], bar_base, coef=-1),
    ])

    # (4) vertical component, vertical bar: the receiver moves vertically too
    grown = Pair((2,), (sc(F(1, 3)),))
    out = transport_step(zterm([p1v, p2], barv))
    assert out == ZExpr.of([
        zterm([base1, grown], barv, coef=-1),
        zterm([p1v, grown], bar_base, coef=1),
    ])


_TRACE_VARS = (sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2)), sc(F(1, 3)), sc(0, 1), sc(0, -1),
               sc(F(-3, 5), F(4, 5)), sc(F(1, 3), F(-1, 3)), sc(F(2, 5)))


def _seeded_reductions(count=40, max_weight=8):
    """Arity 3-5 terms (in turn), all-ones or with disk variables, that have
    a receiving slot; the same list on every run."""
    rng = random.Random(20211)
    out = []
    while len(out) < count:
        ones = rng.random() < 0.5

        def pair():
            k = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
            if ones:
                return Pair.ones(k)
            return Pair(k, tuple(rng.choice(_TRACE_VARS) for _ in k))

        comps = [pair() for _ in range(3 + len(out) % 3)]
        bar = pair()
        if sum(p.wt for p in comps) + bar.wt > max_weight:
            continue
        t = zt(comps, bar)
        if transportable_pick(t) is not None:
            out.append(t)
    return out


def _json_containers(obj, seen):
    """Ids of every dict and list reachable from obj, each visited once."""
    if isinstance(obj, (dict, list)) and id(obj) not in seen:
        seen.add(id(obj))
        for child in obj.values() if isinstance(obj, dict) else obj:
            _json_containers(child, seen)
    return seen


def test_trace_bytes_pinned():
    """The traces of a seeded set of reductions serialize to the same bytes
    as before records began sharing the JSON of repeated pairs."""
    traces = []
    for t in _seeded_reductions():
        trace = []
        reduce_to_z1(t, trace=trace)
        traces.append(trace)
    assert sum(len(tr) for tr in traces) == 3716
    text = json.dumps(traces, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "70a1ec94f5292a57dd1c5b8129a1dbc5a58ea6e05ead97cbabecdc0ea43a5347"
    )


def _outputs_keyed_on_scalars():
    """Outputs built through dicts keyed on Scalars (or on tuples holding
    them), in the order they come out: seeded reductions with their traces,
    a dual-basis rewrite, a dual, a lift relation and a word series."""
    out = []
    for t in _seeded_reductions(count=12):
        trace = []
        out.append(str(reduce_to_mpl(t, trace=trace)))
        out.append(json.dumps(trace))
    ugly = model.MplExpr.of([
        (F(3), MplTerm("shuffle", (1, 1, 2), (ONE, sc(F(-1, 2)), sc(-1)))),
        (F(-1), MplTerm("shuffle", (1, 2), (sc(F(-1, 3)), sc(F(-1, 2))))),
    ])
    out.append(str(normalize_to_dual_basis(ugly)))
    p = Pair((1, 1, 1, 2), (ONE, sc(F(-1, 3)), sc(F(-1, 2)), sc(-1)))
    out.append(str(dagger(p)))
    out.append(json.dumps(relation_to_json(ohno_relation(p, 2))))
    w = (sc(F(1, 3), F(-1, 3)), X, sc(-1), X, sc(F(1, 2)), sc(F(1, 3)))
    out.append(list(apply_map("sigma", HSeries.from_word(w, 3)).terms.items()))
    return out


def test_no_output_depends_on_scalar_hash(monkeypatch):
    """Every dict the rewrites keep is read in insertion order and no set is
    iterated, so values that hash to three buckets give the same outputs."""
    before = _outputs_keyed_on_scalars()
    monkeypatch.setattr(Scalar, "__hash__", lambda z: hash(z._g) % 3)
    assert len({hash(sc(n)) for n in range(-20, 20)}) <= 3
    assert _outputs_keyed_on_scalars() == before


def test_traces_share_no_json_between_calls():
    t = zt([Pair.ones((1, 2)), Pair.ones((2,)), Pair.ones((1,))], Pair.ones((1, 1)))
    first, second = [], []
    reduce_to_z1(t, trace=first)
    reduce_to_z1(t, trace=second)
    assert first == second
    assert not _json_containers(first, set()) & _json_containers(second, set())
    # within one call, a repeated pair or scalar is one dict and a repeated
    # coefficient one list
    terms = [u for rec in first for u in (rec["premise"], *rec["conclusions"])]
    pair_dicts = [p for u in terms for p in (*u["components"], u["bar"])]
    scalar_dicts = [v for p in pair_dicts for v in p["z"]]
    coef_lists = [u["coef"] for u in terms]
    for shared in (pair_dicts, scalar_dicts, coef_lists):
        assert len(shared) > len({json.dumps(x) for x in shared}) > 1
        assert len({id(x) for x in shared}) == len({json.dumps(x) for x in shared})


def _reference_order(items, zero_term, sort_key):
    """The (coef, term) items merged by key with their zeros dropped, sorted
    by sort_key: the order that ZExpr.of and MplExpr.of give."""
    acc = {}
    for c, u in items:
        if c != 0 and not zero_term(u):
            acc[u.key()] = (acc.get(u.key(), (0, u))[0] + c, u)
    return sorted(((c, u) for c, u in acc.values() if c != 0), key=lambda cu: sort_key(cu[1]))


def test_normalized_order_is_the_sort_key_order(monkeypatch):
    """ZExpr.of and MplExpr.of, which compute each pair's or scalar's key
    once per call, order their terms as sorting the merged terms by
    ZTerm.sort_key and MplTerm.sort_key does: on the frontiers of seeded
    reductions and on the polylog expansions of their results, in shuffled
    order, where most pairs and scalars recur."""
    frontiers = []
    rewrite = transport._rewrite

    def collecting_rewrite(t):
        out = rewrite(t)
        frontiers[-1].extend(out)
        return out

    monkeypatch.setattr(transport, "_rewrite", collecting_rewrite)
    expansions = []
    for t in _seeded_reductions():
        frontiers.append([])
        ends = reduce_to_z1(t).terms
        expansions.append([item for u in ends for item in boundary._expansion(u)])
    rng = random.Random(2021)
    pairs = scalars_seen = 0
    for frontier, expansion in zip(frontiers, expansions):
        for items in (frontier, expansion):
            rng.shuffle(items)
        expected = _reference_order(((u.coef, u) for u in frontier),
                                    ZTerm.is_structurally_zero, ZTerm.sort_key)
        assert ZExpr.of(frontier).terms == tuple(u.with_coef(c) for c, u in expected)
        expected = _reference_order(expansion, lambda m: False, MplTerm.sort_key)
        assert MplExpr.of(expansion).terms == tuple(expected)
        pairs += len({p for u in frontier for p in u.components + (u.bar,)})
        scalars_seen += len({v for _, m in expansion for v in m.z})
    occurrences = sum(len(u.components) + 1 for f in frontiers for u in f)
    assert occurrences > 5 * pairs and sum(map(len, expansions)) > 500
    assert sum(len(m.z) for e in expansions for _, m in e) > 10 * scalars_seen


def _reference_branches(t):
    """The (generation, key) of every branch that reduce_to_z1(t) rewrites,
    found with the public one-step rewrite and no sharing, and the number of
    generations."""
    t = drop_all_empty_components(t)
    j = transportable_pick(t)
    t = swap_components(t, [i for i in range(t.arity) if i != j] + [j])
    branches, generation = [], 0
    active = ZExpr.of([t]).as_terms()
    while active:
        generation += 1
        batch = []
        for u in active:
            u = drop_all_empty_components(u)
            if u.is_structurally_zero() or u.arity == 1:
                continue
            branches.append((generation, u.key()))
            batch.extend(transport_step(u).as_terms())
        active = ZExpr.of(batch).as_terms()
    return branches, generation


def test_reduction_rewrites_each_key_once(monkeypatch):
    """One rewrite per distinct (generation, key), one trace record per
    branch, and one normalisation per generation plus the first and last."""
    seeds = _seeded_reductions()
    references = [_reference_branches(t) for t in seeds]
    rewritten, normalized = [], [0]
    rewrite, normalize = transport._rewrite, model._normalize

    def counting_rewrite(t):
        rewritten.append(t.key())
        return rewrite(t)

    def counting_normalize(*args):
        normalized[0] += 1
        return normalize(*args)

    monkeypatch.setattr(transport, "_rewrite", counting_rewrite)
    monkeypatch.setattr(model, "_normalize", counting_normalize)
    replayed = 0
    for t, (branches, generations) in zip(seeds, references):
        rewritten.clear()
        normalized[0] = 0
        trace = []
        reduce_to_z1(t, trace=trace)
        distinct = set(branches)
        assert len(rewritten) == len(distinct)
        assert set(rewritten) == {key for _, key in distinct}
        assert sum(rec["rule"] == "transport-step" for rec in trace) == len(branches)
        assert normalized[0] <= generations + 2
        replayed += len(branches) - len(distinct)
    assert replayed > 0


def _signed_pairs(weight):
    """Every pair of the given weight with variables +-1."""
    out = []
    for mask in range(2 ** (weight - 1)):
        k, run = [], 1
        for i in range(weight - 1):
            if mask >> i & 1:
                k.append(run)
                run = 1
            else:
                run += 1
        k.append(run)
        for signs in itertools.product((sc(1), sc(-1)), repeat=len(k)):
            out.append(Pair(tuple(k), signs))
    return out


def _two_component_recipes(max_weight=5):
    """Two components and a bar, variables +-1, total weight <= max_weight."""
    for w1, w2, w3 in itertools.product(range(1, max_weight - 1), repeat=3):
        if w1 + w2 + w3 <= max_weight:
            for p1, p2, bar in itertools.product(
                    _signed_pairs(w1), _signed_pairs(w2), _signed_pairs(w3)):
                yield RecipeData((p1, p2), bar)


def test_rewrite_outputs_are_valid_pairs(monkeypatch):
    """The pairs, terms and polylogs that rewrites and boundary expansions
    build without validation equal, and hash as, the validated value of the
    same parts, whose checks they pass."""
    terms = []
    expanded = []
    rewrite = transport._rewrite
    expansion = boundary._expansion

    def collecting_rewrite(t):
        out = rewrite(t)
        terms.extend(out)
        return out

    def collecting_expansion(t):
        for c, m in expansion(t):
            expanded.append(m)
            yield c, m

    duals = []  # the argument and output of every _dagger call
    dagger_of = duality._dagger

    def collecting_dagger(p):
        sign, d = dagger_of(p)
        duals.extend((p, d))
        return sign, d

    monkeypatch.setattr(transport, "_rewrite", collecting_rewrite)
    monkeypatch.setattr(boundary, "_expansion", collecting_expansion)
    monkeypatch.setattr(duality, "_dagger", collecting_dagger)
    dual_terms = []
    for t in _seeded_reductions():
        dual_terms.extend(m for _, m in normalize_to_dual_basis(reduce_to_mpl(t)).terms)
    rewritten = len(duals)
    for w in range(1, 6):
        for p in _signed_pairs(w):
            if dual_condition(p):
                dagger(p)
    assert rewritten > 100 and len(duals) > rewritten + 100
    polylogs = []
    relations = 0
    for data in _two_component_recipes():
        try:
            rel = recipe_relation(data)
        except PreconditionViolated:
            continue
        relations += 1
        polylogs.extend(m for side in (rel.lhs, rel.rhs) for _, m in side.terms)
    assert relations == 416
    built = [p for u in terms for p in u.components + (u.bar,)]
    assert len(built) > 10000
    built += duals
    for p in {id(p): p for p in built}.values():
        checked = Pair(p.k, p.z)
        assert checked == p and hash(checked) == hash(p)
        assert all(type(e) is int and e >= 1 for e in p.k)
        assert all(isinstance(v, Scalar) and not v.is_inf and v.in_closed_disk()
                   for v in p.z)
    for m in polylogs:
        assert MplTerm("shuffle", m.k, m.z) == m and m.guard_ok()
    assert len(terms) > 10000 and len(expanded) > 5000
    for u in terms:
        assert ZTerm(*u) == u and hash(ZTerm(*u)) == hash(u) and canonical_coef(u.coef)
    for m in expanded + dual_terms:
        assert MplTerm._make(m) == m and hash(MplTerm._make(m)) == hash(m)


def _coefs(value):
    """The term coefficients of a ZExpr, an MplExpr, a Relation or an HSeries."""
    if hasattr(value, "lhs"):
        return _coefs(value.lhs) + _coefs(value.rhs)
    if isinstance(value, HSeries):
        return list(value.terms.values())
    if isinstance(value, ZExpr):
        return [t.coef for t in value.terms]
    return [c for c, _ in value.terms]


def test_coefficients_are_canonical(monkeypatch):
    """Every coefficient the engine builds is an int when integral and a
    Fraction with denominator > 1 otherwise: never a float, never an
    integral Fraction."""
    seen = []
    rewrite, trace_to_json = transport._rewrite, serialize.trace_to_json

    def collecting_rewrite(t):
        out = rewrite(t)
        seen.extend(u.coef for u in (t, *out))
        return out

    def collecting_trace_to_json(records):
        for _, premise, conclusions in records:
            seen.extend(u.coef for u in (premise, *conclusions))
        return trace_to_json(records)

    # every rewrite, traced or not, and every record of a traced call
    monkeypatch.setattr(transport, "_rewrite", collecting_rewrite)
    monkeypatch.setattr(serialize, "trace_to_json", collecting_trace_to_json)
    for t in _seeded_reductions(count=12):
        for c in (1, "1/2", "-2/3"):
            u = t.scaled(c)
            seen.extend(_coefs(reduce_to_z1(u, trace=[])))
            mpl = reduce_to_mpl(u, trace=[])
            seen.extend(_coefs(mpl) + _coefs(normalize_to_dual_basis(mpl)))
    assert len(seen) > 5000
    pairs = [p for w in range(1, 5) for p in _signed_pairs(w) if dual_condition(p)]
    for p in pairs:
        seen.extend(_coefs(duality_relation(p)))
        for h in range(3):
            seen.extend(_coefs(ohno_relation(p, h)))
    for w in ((ONE, X), (sc(-1), X, ONE), (sc(F(1, 2)), sc(F(1, 3)), X)):
        for name in MAP_NAMES:
            for c in (1, "1/2", F(4, 2)):
                seen.extend(_coefs(apply_map(name, HSeries.from_word(w, 3).scaled(c))))
    for data in itertools.islice(_two_component_recipes(max_weight=4), 0, None, 5):
        try:
            seen.extend(_coefs(recipe_relation(data)))
        except PreconditionViolated:
            continue
    for zs in ((F(-1, 2), F(-1, 3), F(1, 6)), (F(-1, 2), F(-1, 2), F(-1, 3), F(1, 8))):
        seen.extend(_coefs(multi_term_relations(tuple(sc(z) for z in zs))))
    for name in EXAMPLE_NAMES:
        seen.extend(_coefs(run_example(name, bound=20).relation))
    m = MplTerm("shuffle", (2,), (ONE,))
    u = serialize.zterm_from_json({"coef": [6, 2], "components": [serialize.pair_to_json(ONES1)]})
    mpl = serialize.mplexpr_from_json([{**serialize.mplterm_to_json(m), "coef": [6, 2]}])
    half = zt([ONES1], coef="1/2")
    merged = (ZExpr.of([half, half]), MplExpr.single(m, 2).scaled("1/2"))
    assert u.coef == 3 and [_coefs(e) for e in (mpl, *merged)] == [[3], [1], [1]]
    seen.extend([u.coef, *_coefs(mpl), *_coefs(merged[0]), *_coefs(merged[1])])
    bad = [c for c in seen if not canonical_coef(c)]
    assert not bad, bad[:5]
    assert any(type(c) is F for c in seen) and any(type(c) is int for c in seen)


def test_integer_reduction_builds_no_fraction(monkeypatch):
    """An integer-coefficient reduction runs on ints: neither reduce_to_z1
    (traced) nor reduce_to_mpl constructs a Fraction."""
    t = zt([Pair.ones((1, 2)), Pair.ones((2,)), ONES1], Pair.ones((1, 1)))
    new = F.__new__
    built = [0]

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    counts = []
    for run in (lambda: reduce_to_z1(t, trace=[]), lambda: reduce_to_mpl(t)):
        built[0] = 0
        assert not run().is_zero()
        counts.append(built[0])
    F(1, 2)
    assert built[0] == 1  # the wrapper counts
    assert counts == [0, 0]


def test_modulus_and_interval_predicates_build_no_fraction(monkeypatch):
    """transport_step's |1/v| >= 1 test and normalize_to_dual_basis's
    0 < z <= 1 test compare the triples' integers: neither reads a field."""
    built = [0]
    lowest = scalars._lowest

    def counting_lowest(n, d):
        built[0] += 1
        return lowest(n, d)

    monkeypatch.setattr(scalars, "_lowest", counting_lowest)
    t = zt([Pair((1,), (sc(F(1, 2)),)), ONES1], Pair.ones((2,)))  # 1/v = -2
    assert transport_step(t).as_terms()
    kept = MplExpr.single(MplTerm("shuffle", (2, 1), (sc(F(1, 2)), ONE)))
    assert normalize_to_dual_basis(kept) == kept
    assert built[0] == 0
    assert sc(F(1, 2)).re == F(1, 2) and built[0] == 1  # the wrapper counts


def test_frontier_budget(monkeypatch):
    t = zt([Pair.ones((1, 2)), Pair.ones((2,)), ONES1], Pair.ones((1, 1)))
    full, capped = [], []
    expected = reduce_to_z1(t, trace=full)  # its largest generation holds 26 terms
    monkeypatch.setattr(transport, "FRONTIER_CAP", 26)
    assert reduce_to_z1(t) == expected
    monkeypatch.setattr(transport, "FRONTIER_CAP", 25)
    with pytest.raises(BudgetExceeded, match="26 terms"):
        reduce_to_z1(t, trace=capped)
    # the records made before the budget ran out still reach the trace
    assert capped and capped == full[:len(capped)]


def test_traced_reduction_serializes_once(monkeypatch):
    """A traced reduce_to_z1 builds its trace's JSON in one trace_to_json
    call and never through zterm_to_json; an untraced one builds none."""
    t = zt([Pair.ones((1, 2)), Pair.ones((2,)), ONES1], Pair.ones((1, 1)))
    calls = {"zterm_to_json": 0, "trace_to_json": 0}

    def counting(name):
        original = getattr(serialize, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(serialize, name, counting(name))
    trace = []
    reduce_to_z1(t, trace=trace)
    assert len(trace) > 10 and calls == {"zterm_to_json": 0, "trace_to_json": 1}
    reduce_to_z1(t)
    assert calls == {"zterm_to_json": 0, "trace_to_json": 1}


def test_transport_serializes_only_through_trace_to_json():
    """The rewrite engine holds terms: the one thing it asks of serialize
    is trace_to_json, called at the edge of a traced call."""
    tree = ast.parse(inspect.getsource(transport))
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "serialize"]
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "serialize"]
    assert uses
    for node in uses:
        attribute = parent[node]
        assert isinstance(attribute, ast.Attribute) and attribute.attr == "trace_to_json"
        call = parent[attribute]
        assert isinstance(call, ast.Call) and call.func is attribute


def test_ball_tests_budget(monkeypatch):
    # (3 * 3 - 1) coordinate picks of two depth-2 components, at the bar
    # targets 1 and 0
    others = (Pair.ones((1, 1)), Pair((1, 1), (sc(-1), ONE)))
    bar = Pair.ones((2,))
    assert condition_violation(others, bar) is None
    monkeypatch.setattr(transport, "BALL_TESTS_CAP", 16)
    assert condition_violation(others, bar) is None
    monkeypatch.setattr(transport, "BALL_TESTS_CAP", 15)
    with pytest.raises(BudgetExceeded, match="16 reciprocal-ball tests"):
        condition_violation(others, bar)
    with pytest.raises(BudgetExceeded):
        is_transportable(zt(list(others) + [ONES1], bar), 2)
