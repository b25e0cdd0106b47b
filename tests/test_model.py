import copy
import inspect
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from conftest import canonical_coef

import connsum
from connsum import serialize
from connsum.errors import (
    DomainError,
    EmptyArrowOnInfinity,
    NoEmptyComponent,
    NotPeelable,
)
from connsum.exact import eval_zterm_partial_exact
from connsum.model import (
    EMPTY_PAIR,
    MplExpr,
    MplTerm,
    Pair,
    ZExpr,
    ZTerm,
    arrow,
    drop_all_empty_components,
    drop_empty_component,
    is_admissible,
    is_convergent,
    peel,
    swap_components,
    zterm,
)
from connsum.scalars import INF, ONE, ZERO, sc

P1 = Pair.ones((1,))


def test_index_helpers():
    assert is_admissible(())
    assert is_admissible((1, 2))
    assert not is_admissible((2, 1))
    with pytest.raises(DomainError):
        Pair((0,), (ONE,))


def test_pair_invariants():
    with pytest.raises(DomainError):
        Pair((1,), ())
    with pytest.raises(DomainError):
        Pair((1,), (sc(2),))
    with pytest.raises(DomainError):
        Pair((1,), (INF,))
    # an index entry that is not an integer is named, not truncated or parsed
    for bad in (2.7, True, "3"):
        with pytest.raises(DomainError, match=f"integers: {bad!r}"):
            Pair((bad,), (ONE,))
    with pytest.raises(DomainError, match="integers: 2.5"):
        MplTerm("shuffle", (2.5,), (ONE,))
    # an infinite polylog variable is named: the exact oracle met it as a bare
    # TypeError, the suffix products of a harmonic term as 0 * inf
    for kind, z in (("shuffle", (INF,)), ("harmonic", (ZERO, INF))):
        with pytest.raises(DomainError, match="polylog variables must be finite, got inf"):
            MplTerm(kind, (1,) * len(z), z)
        with pytest.raises(DomainError, match="polylog variables must be finite, got inf"):
            serialize.mplterm_from_json({"kind": kind, "k": [1] * len(z),
                                         "z": ["inf" if v.is_inf else 0 for v in z]})
    assert Pair((np.int64(2),), (ONE,)) == Pair.ones((2,))
    assert EMPTY_PAIR.is_empty()


def test_arrow_cases():
    assert arrow(P1, sc(1)) == (1, Pair.ones((1, 1)))
    assert arrow(P1, ZERO) == (1, Pair.ones((2,)))
    assert arrow(P1, INF) == (-1, Pair.ones((2,)))
    assert arrow(EMPTY_PAIR, ZERO) == (1, EMPTY_PAIR)
    assert arrow(EMPTY_PAIR, sc(F(1, 2))) == (1, Pair((1,), (sc(F(1, 2)),)))
    with pytest.raises(EmptyArrowOnInfinity):
        arrow(EMPTY_PAIR, INF)
    with pytest.raises(DomainError):
        arrow(P1, sc(2))


def test_peel_cases():
    assert peel(Pair.ones((1, 1)), "component") == (ONE, P1, 1)
    assert peel(Pair.ones((2,)), "component") == (INF, P1, -1)
    assert peel(Pair.ones((2,)), "bar") == (ZERO, P1, 1)
    with pytest.raises(NotPeelable):
        peel(EMPTY_PAIR, "component")
    with pytest.raises(NotPeelable):
        peel(Pair((2, 1), (ONE, ZERO)), "bar")


def test_arrow_peel_round_trip():
    random.seed(3)
    pool = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 3), F(1, 3))]
    for _ in range(100):
        r = random.randint(1, 4)
        p = Pair(tuple(random.randint(1, 3) for _ in range(r)),
                 tuple(random.choice(pool) for _ in range(r)))
        for slot in ("component", "bar"):
            v, base, sign = peel(p, slot)
            s2, q = arrow(base, v)
            assert q == p and s2 == sign


def test_swap_and_drop():
    t = zterm([Pair.ones((1,)), Pair.ones((2,))], Pair.ones((1,)))
    s = swap_components(t, [1, 0])
    assert s.components == (Pair.ones((2,)), Pair.ones((1,)))
    assert swap_components(t, (np.int64(1), np.int64(0))) == s
    # a permutation's entries are integers: a bool or float is not a slot
    for bad in ((True, False), [1.0, 0], ["1", "0"], [0, 0], [0, 2], [-1, 0]):
        with pytest.raises(DomainError):
            swap_components(t, bad)
    t3 = zterm([P1, EMPTY_PAIR, Pair.ones((2,))])
    assert drop_empty_component(t3).components == (P1, Pair.ones((2,)))
    with pytest.raises(NoEmptyComponent):
        drop_empty_component(zterm([EMPTY_PAIR]))
    with pytest.raises(NoEmptyComponent):
        drop_empty_component(zterm([P1, P1]))


def test_swap_drop_preserve_partial_sums():
    random.seed(4)
    pool = [sc(1), sc(-1), sc(F(1, 2))]
    for _ in range(10):
        comps = []
        for _ in range(3):
            r = random.randint(0, 2)
            comps.append(Pair(tuple(random.randint(1, 2) for _ in range(r)),
                              tuple(random.choice(pool) for _ in range(r))))
        if all(p.is_empty() for p in comps):
            comps[0] = P1
        bar = Pair.ones((random.randint(1, 2),))
        t = zterm(comps, bar)
        perm = list(range(3))
        random.shuffle(perm)
        assert eval_zterm_partial_exact(t, 10) == \
            eval_zterm_partial_exact(swap_components(t, perm), 10)
        if any(p.is_empty() for p in comps):
            assert eval_zterm_partial_exact(t, 10) == \
                eval_zterm_partial_exact(drop_all_empty_components(t), 10)


def test_convergence_guard():
    ok = zterm([Pair.ones((1,)), Pair.ones((1,))], Pair.ones((1, 1)))
    assert is_convergent(ok)
    bad = zterm([Pair.ones((1, 1))], Pair.ones((1, 1)))
    assert not is_convergent(bad)
    assert is_convergent(zterm([Pair.ones((1, 1))], Pair.ones((1, 2))))
    assert is_convergent(zterm([Pair((1, 1), (ONE, sc(F(1, 2))))], Pair.ones((1, 1))))
    assert not is_convergent(zterm([P1, EMPTY_PAIR], Pair.ones((1,))))


def test_structural_zero():
    assert zterm([P1], EMPTY_PAIR).is_structurally_zero()
    # a zero variable in a strict component kills the term
    assert zterm([Pair((1,), (ZERO,))]).is_structurally_zero()
    t = ZTerm(F(1), (Pair((1, 1), (ONE, ZERO)),), Pair.ones((2,)))
    assert t.is_structurally_zero()
    # bar head variable zero kills too; deeper bar zeros do not
    assert ZTerm(F(1), (P1,), Pair((1,), (ZERO,))).is_structurally_zero()
    assert not ZTerm(F(1), (P1,), Pair((1, 2), (ONE, ZERO))).is_structurally_zero()
    assert zterm([EMPTY_PAIR, EMPTY_PAIR]).is_structurally_zero()


def test_zexpr_normalization():
    a = zterm([P1], Pair.ones((2,)), coef=F(1, 2))
    b = zterm([P1], Pair.ones((2,)), coef=F(1, 2))
    c = zterm([P1], Pair.ones((2,)), coef=-1)
    e = ZExpr.of([a, b, c])
    assert e.is_zero()
    e2 = ZExpr.of([a, b])
    assert ZExpr.of(e2.as_terms()) == e2  # idempotent
    dead = zterm([P1], EMPTY_PAIR)
    assert ZExpr.of([dead]).is_zero()


def test_mplexpr_normalization_and_guard():
    t = MplTerm("shuffle", (1, 2), (ONE, ONE))
    e = MplExpr.of([(F(1), t), (F(2), t)])
    assert e.terms[0][0] == 3
    assert t.guard_ok()
    assert not MplTerm("shuffle", (1,), (ONE,)).guard_ok()
    assert MplTerm("harmonic", (1,), (sc(F(1, 2)),)).guard_ok()
    # harmonic suffix-product guard: individual entries may exceed 1
    big_ratio = MplTerm("harmonic", (1, 2), (sc(3), sc(F(1, 4))))
    assert big_ratio.guard_ok()
    assert not MplTerm("harmonic", (2, 1), (sc(F(1, 2)), ONE)).guard_ok()


def test_json_round_trips():
    z = sc(F(-2, 3), F(1, 7))
    assert serialize.scalar_from_json(serialize.scalar_to_json(z)) == z
    assert serialize.scalar_from_json("inf").is_inf
    assert serialize.scalar_from_json(3) == sc(3)
    p = Pair((1, 2), (z, ONE))
    assert serialize.pair_from_json(serialize.pair_to_json(p)) == p
    t = ZTerm(F(-7, 3), (p, P1), Pair.ones((1, 1)))
    assert serialize.zterm_from_json(serialize.zterm_to_json(t)) == t
    e = ZExpr.of([t])
    assert serialize.zexpr_from_json(serialize.zexpr_to_json(e)) == e
    m = MplExpr.of([(F(5), MplTerm("shuffle", (2,), (z,)))])
    assert serialize.mplexpr_from_json(serialize.mplexpr_to_json(m)) == m


def test_json_big_integers_as_strings():
    big = F(2 ** 80 + 1, 3)
    out = serialize.frac_to_json(big)
    assert isinstance(out[0], str)
    assert serialize.frac_from_json(out) == big
    # a string integer is read only in the form written: an optional "-"
    # and ASCII digits, so no underscore, space, "+" or non-ASCII digit
    assert serialize.frac_from_json([str(-2 ** 80), "3"]) == F(-2 ** 80, 3)
    for bad in ("1_0", " 7 ", "+5", "\u0663", "-", "", "--5"):
        for read in (lambda v: serialize.pair_from_json({"k": [v]}),
                     lambda v: serialize.frac_from_json([v, 1])):
            with pytest.raises(DomainError, match="expected an integer"):
                read(bad)


def test_pair_and_key_hash_read_no_fraction(monkeypatch):
    calls = []
    fraction_hash = F.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    p = Pair((1, 2), (sc(F(1, 3), F(-1, 3)), sc(F(-2, 5))))
    t = ZTerm(F(-2, 7), (p, Pair((2,), (sc(F(1, 2)),))), Pair((1,), (sc(F(-1, 3)),)))
    monkeypatch.setattr(F, "__hash__", counting)
    first = (hash(p), hash(t.key()))
    assert not calls  # a Scalar hashes its integer triple
    hash(F(1, 3))
    assert calls  # the patch is live
    monkeypatch.undo()
    assert first[0] == hash((p.k, p.z))
    same = Pair((1, 2), (sc(F(2, 6), F(-1, 3)), sc(F(-4, 10))))
    assert same == p and hash(same) == hash(p)
    assert serialize.pair_from_json(serialize.pair_to_json(p)) == p
    assert p.sort_key() == same.sort_key()
    assert repr(p) == "Pair(k=(1, 2), z=(1/3-1/3i, -2/5))"


def test_pair_is_the_tuple_of_its_fields():
    """Pair, ZTerm and MplTerm are each the tuple of their fields; the
    validating constructor coerces and rejects, and pickle and copies give
    back an equal value."""
    z = (sc(F(1, 3), F(-1, 3)), sc(F(-2, 5)))
    p = Pair((1, 2), z)
    bar = Pair.ones((1, 1))
    t = ZTerm(F(-2, 7), (p, EMPTY_PAIR), bar)
    m = MplTerm("shuffle", (1, 2), z)
    cases = [
        (p, ((1, 2), z), Pair([1, 2], [sc(F(1, 3), F(-1, 3)), "-2/5"]),
         [((1,), (sc(2),)), ((1,), (INF,)), ((1, 2), (ONE,)), ((0,), (ONE,))]),
        (t, (F(-2, 7), (p, EMPTY_PAIR), bar), ZTerm("-4/14", [p, EMPTY_PAIR], bar),
         [(F(1), (), bar), (0.5, (p,), bar), ("x", (p,), bar),
          (1, (((1,), (ONE,)),), bar), (1, (p,), ((1,), (ONE,)))]),
        (m, ((1, 2), z), MplTerm("shuffle", [1, 2], [z[0], "-2/5"]),
         [("shuffle", (1,), ()), ("stuffle", (1,), (ONE,)), ("harmonic", (0,), (ONE,))]),
    ]
    for value, fields, coerced, bad in cases:
        cls = type(value)
        assert isinstance(value, tuple) and tuple(value) == fields
        assert value == fields and hash(value) == hash(fields)
        assert coerced == value and type(coerced) is cls
        for args in bad:
            with pytest.raises(DomainError):
                cls(*args)
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
            assert type(twin) is cls and twin == value and hash(twin) == hash(value)
            if cls is Pair:
                assert all(a is b for a, b in zip(twin.z, p.z))
    with pytest.raises(DomainError, match="components and bar must be Pairs, got None"):
        ZTerm(1, (p,), None)
    # a part that is not a sequence is named, not a bare TypeError from tuple()
    for make, part in ((lambda: Pair(5), "an index"), (lambda: Pair((1,), 5), "pair variables"),
                       (lambda: ZTerm(1, 5, bar), "term components"), (lambda: zterm(5), "term"),
                       (lambda: MplTerm("shuffle", 5, ()), "an index"),
                       (lambda: MplTerm("shuffle", (), 5), "polylog variables")):
        with pytest.raises(DomainError, match=f"{part}.* must be a sequence, got 5"):
            make()
    assert canonical_coef(t.coef) and t.coef == F(-2, 7)
    for c, exact in ((3, 3), (F(6, 2), 3), ("4/2", 2)):
        got = ZTerm(c, (p,), bar).coef
        assert canonical_coef(got) and type(got) is int and got == exact
    assert m.key() is m and t.key() == ((p, EMPTY_PAIR), bar)
    assert str(t) == "-2/7*Z2((1/3-1/3i,-2/5 / 1,2); () | (1,1 / 1,1))"
    assert str(m) == "Li[1,2](1/3-1/3i, -2/5)"
    # "harmonic" spells a term by its per-index variables; the value is the
    # shuffle form, with their suffix products
    assert MplTerm("harmonic", (1, 2), (sc(F(1, 2)), sc(F(1, 3)))) == \
        MplTerm("shuffle", (1, 2), (sc(F(1, 6)), sc(F(1, 3))))
    assert serialize.zterm_from_json(serialize.zterm_to_json(t)) == t
    assert serialize.mplterm_from_json(serialize.mplterm_to_json(m)) == m


def test_one_polylog_shape():
    # a polylogarithm is stored in one shape, its shuffle form; "harmonic" is
    # only a spelling, which MplTerm's constructor alone reads
    assert MplTerm._fields == ("k", "z")

    def readers(code):
        flat = [x for c in code.co_consts
                for x in (c if isinstance(c, (tuple, frozenset)) else (c,))]
        out = {code.co_qualname} if "harmonic" in flat else set()
        for c in code.co_consts:
            if inspect.iscode(c):
                out |= readers(c)
        return out

    found = set()
    for path in Path(connsum.__file__).parent.glob("*.py"):
        found |= readers(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    assert found == {"MplTerm.__new__"}, found
    for name in ("harmonic_to_shuffle", "shuffle_to_harmonic"):
        assert not hasattr(connsum, name) and not hasattr(connsum.boundary, name), name


_M = MplTerm("shuffle", (2,), (ONE,))
_COEF_ENTRY_POINTS = {
    "zterm": lambda c: zterm([Pair.ones((1,))], coef=c).coef,
    "ZTerm": lambda c: ZTerm(c, (Pair.ones((1,)),), Pair.ones((1,))).coef,
    "ZTerm.scaled": lambda c: zterm([Pair.ones((1,))]).scaled(c).coef,
    "ZTerm.with_coef": lambda c: zterm([Pair.ones((1,))]).with_coef(c).coef,
    "MplExpr.single": lambda c: MplExpr.single(_M, c).terms[0][0],
    "MplExpr.scaled": lambda c: MplExpr.single(_M).scaled(c).terms[0][0],
    "MplExpr.of": lambda c: MplExpr.of([(c, _M)]).terms[0][0],
}


@pytest.mark.parametrize("entry", sorted(_COEF_ENTRY_POINTS))
def test_coefficients_follow_the_scalar_rule(entry):
    """A coefficient is an int, a Fraction or a rational string, as a Scalar's
    parts are: a float, a bool or a non-number is a DomainError."""
    coef_of = _COEF_ENTRY_POINTS[entry]
    for bad in (0.1, True, float("nan"), float("inf"), "x"):
        with pytest.raises(DomainError):
            coef_of(bad)
    for good, exact in ((3, 3), ("1/3", F(1, 3)), (F(2, 6), F(1, 3)),
                        (F(6, 2), 3), ("4/2", 2)):
        got = coef_of(good)
        assert canonical_coef(got) and type(got) is type(exact) and got == exact


_T = ZTerm(1, (P1,), P1)
_MAKE_CASES = {
    "Pair": (Pair.ones((1, 2)), ((1, 2), (5,)), {"k": (0,)},
             Pair((2,), ("1/2",)), {"k": [2], "z": ["1/2"]}),
    "ZTerm": (_T, ("1/2", (), P1), {"coef": 0.5, "components": ()},
              ZTerm(3, (P1,), P1), {"coef": F(6, 2)}),
    "MplTerm": (_M, ((2,), (ONE, ONE)), {"z": (INF,)},
                MplTerm("shuffle", (3,), ("-1",)), {"k": [3], "z": ["-1"]}),
}


@pytest.mark.parametrize("name", sorted(_MAKE_CASES))
def test_make_and_replace_validate(name):
    """namedtuple's _make and _replace build through the validating
    constructor: they coerce as the class does and reject what it rejects."""
    value, bad_fields, bad_change, expected, change = _MAKE_CASES[name]
    cls = type(value)
    assert cls._make(tuple(value)) == value and type(cls._make(value)) is cls
    with pytest.raises(DomainError):
        cls._make(bad_fields)
    with pytest.raises(DomainError):
        value._replace(**bad_change)
    got = value._replace(**change)
    assert type(got) is cls and got == expected and tuple(got) == tuple(expected)
    assert all(type(a) is type(b) for a, b in zip(got, expected))
