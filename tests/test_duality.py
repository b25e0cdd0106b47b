import random
from fractions import Fraction as F

import pytest

from connsum.duality import (
    dagger,
    decompose,
    dual_condition,
    duality_relation,
    iota,
    mzv_dual,
    normalize_to_dual_basis,
)
from connsum.errors import DualConditionViolated
from connsum.model import EMPTY_PAIR, MplExpr, MplTerm, Pair
from connsum.numeric import verify_relation
from connsum.scalars import ONE, sc

random.seed(31)

POOL = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2)), sc(F(1, 3)), sc(0, 1),
        sc(F(-3, 5), F(4, 5)), sc(F(1, 3), F(-1, 3)), sc(F(-2, 5), F(1, 5))]


def rand_dual_pair(maxdep=4):
    while True:
        r = random.randint(0, maxdep)
        p = Pair(tuple(random.randint(1, 3) for _ in range(r)),
                 tuple(random.choice(POOL) for _ in range(r)))
        if dual_condition(p):
            return p


def test_dual_condition_examples():
    assert dual_condition(Pair.ones((2,)))
    assert not dual_condition(Pair.ones((1,)))
    assert not dual_condition(Pair((2,), (sc(F(1, 2)),)))  # Re = 1/2 head
    assert not dual_condition(Pair((1,), (sc(0, 1),)))     # |z| = 1 non-admissible
    assert dual_condition(Pair((2,), (sc(0, 1),)))
    assert dual_condition(EMPTY_PAIR)


def test_mzv_dual_examples():
    assert mzv_dual((2,)) == (2,)
    assert mzv_dual((3,)) == (1, 2)
    assert mzv_dual((1, 2)) == (3,)
    assert mzv_dual((1, 1, 2)) == (4,)
    assert mzv_dual((2, 3)) == (1, 2, 2)
    assert mzv_dual(()) == ()


def test_dagger_examples():
    assert dagger(Pair.ones((1, 2))) == (1, Pair.ones((3,)))
    assert dagger(Pair((1, 2), (sc(-1), ONE))) == \
        (-1, Pair((2, 1), (ONE, sc(F(1, 2)))))
    assert dagger(EMPTY_PAIR) == (1, EMPTY_PAIR)
    assert dagger(Pair.ones((2,))) == (1, Pair.ones((2,)))


def test_dagger_all_ones_exponent_one():
    # depth-r all-exponent-one pairs reverse through the half-plane map
    zs = (sc(F(-1, 2)), sc(F(1, 3)), sc(F(-2, 5), F(1, 5)))
    p = Pair((1, 1, 1), zs)
    sign, d = dagger(p)
    assert sign == -1  # three exceptional entries
    assert d.k == (1, 1, 1)
    assert d.z == tuple(v.mobius() for v in reversed(zs))


def test_dagger_requires_dual_condition():
    with pytest.raises(DualConditionViolated):
        dagger(Pair.ones((1,)))
    with pytest.raises(DualConditionViolated):
        decompose(Pair((2,), (sc(F(1, 2)),)))


def test_decompose_reassembles():
    for _ in range(200):
        p = rand_dual_pair()
        blocks = decompose(p)
        assert blocks.reassemble() == p
        assert blocks.d == iota(p.z)


def test_dagger_involution_and_sign():
    for _ in range(200):
        p = rand_dual_pair()
        sign, d = dagger(p)
        assert dual_condition(d)
        assert iota(d.z) == iota(p.z)
        sign2, back = dagger(d)
        assert back == p and sign2 == sign


def test_duality_relation_numeric():
    # pairs with the last variable well inside the disk evaluate quickly
    safe = [sc(F(-1, 2)), sc(F(1, 3)), sc(F(-2, 5), F(1, 5)), sc(F(1, 3), F(-1, 3))]
    checked = 0
    while checked < 10:
        r = random.randint(1, 3)
        p = Pair(tuple(random.randint(1, 2) for _ in range(r)),
                 tuple(random.choice(safe) for _ in range(r)))
        if not dual_condition(p):
            continue
        rel = duality_relation(p)
        report = verify_relation(rel, tol=1e-6)
        assert report.ok, (p, report)
        checked += 1


def test_duality_relation_classical():
    rel = duality_relation(Pair.ones((1, 2)))
    report = verify_relation(rel, tol=1e-8)
    assert report.ok


def test_normalize_to_dual_basis():
    ugly = MplExpr.single(MplTerm("shuffle", (1, 1, 2),
                                  (ONE, sc(F(-1, 2)), sc(-1))), F(3))
    nice = normalize_to_dual_basis(ugly)
    for _, term in nice.terms:
        assert all(v.is_real() and 0 < v.re <= 1 for v in term.z)
    kept = MplExpr.single(MplTerm("shuffle", (2,), (sc(F(1, 2)),)))
    assert normalize_to_dual_basis(kept) == kept
    # a harmonic-spelled term is its shuffle form, and normalizes as it does
    harmonic = MplExpr.single(MplTerm("harmonic", (1, 1, 2), (sc(-2), sc(F(1, 2)), sc(-1))),
                              F(3))
    assert harmonic == ugly and normalize_to_dual_basis(harmonic) == nice


def test_duality_amtagpa_family():
    # ({1}^{n-1}, 2) with variables (1, -1/(n-1), ..., -1) reverses onto
    # (1, 1/2, ..., 1/n) with sign (-1)^(n-1)
    for n in range(2, 6):
        k = (1,) * (n - 1) + (2,)
        zs = (ONE,) + tuple(sc(F(-1, j)) for j in range(n - 1, 0, -1))
        sign, d = dagger(Pair(k, zs))
        assert sign == (-1) ** (n - 1)
        assert d.k == k
        assert d.z == (ONE,) + tuple(sc(F(1, j)) for j in range(2, n + 1))
