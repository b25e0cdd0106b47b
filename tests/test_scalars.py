import dataclasses
import random
from fractions import Fraction as F

import pytest

from connsum import serialize
from connsum.errors import DomainError, UndefinedArithmetic
from connsum.scalars import INF, ONE, ZERO, Scalar, in_reciprocal_ball, sc

random.seed(11)


def rand_scalar(height=9):
    def q():
        return F(random.randint(-height, height), random.randint(1, height))
    return sc(q(), q())


def test_inv_conventions():
    assert INF.inv() == ZERO
    assert ZERO.inv() == INF
    assert sc(F(1, 2)).inv() == sc(2)


def test_gaussian_multiplication():
    assert sc(1, 1) * sc(1, -1) == sc(2)


def test_undefined_forms():
    with pytest.raises(UndefinedArithmetic):
        INF + INF
    with pytest.raises(UndefinedArithmetic):
        ZERO * INF
    with pytest.raises(UndefinedArithmetic):
        ZERO / ZERO
    with pytest.raises(UndefinedArithmetic):
        INF / INF


def test_projective_rules():
    assert INF + sc(3) == INF
    assert sc(2) / ZERO == INF
    assert sc(2) / INF == ZERO
    assert (INF * sc(-2)).is_inf


def test_field_axioms_random():
    for _ in range(200):
        a, b, c = (rand_scalar() for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == ONE
        assert a + (-a) == ZERO


def test_pow_conventions():
    assert ZERO ** 0 == ONE  # 0^0 = 1 throughout
    assert sc(F(1, 2)) ** -2 == sc(4)
    assert sc(0, 1) ** 4 == ONE


def test_disk_predicates():
    assert sc(-1).in_closed_disk()
    assert not sc(F(6, 5)).in_closed_disk()
    z = sc(F(1, 2), F(1, 3))
    assert z.re_leq_half() and z.re_eq_half()
    assert sc(F(3, 5), F(4, 5)).abs_eq_one()
    assert not INF.in_closed_disk()
    assert not INF.abs_eq_one()


def test_reciprocal_ball_examples():
    one = sc(1)
    assert in_reciprocal_ball([one], one)          # equality branch
    assert in_reciprocal_ball([one, one], one)     # |1 - 2| = 1
    assert in_reciprocal_ball([one, one, one], one)  # |1 - 3| = 2
    assert in_reciprocal_ball([INF], one)          # 1/inf = 0, |1 - 0| = 1
    assert not in_reciprocal_ball([sc(F(3, 5), F(4, 5))], one)
    with pytest.raises(DomainError):
        in_reciprocal_ball([ZERO], one)
    with pytest.raises(DomainError):
        in_reciprocal_ball([sc(2)], one)
    with pytest.raises(DomainError):
        in_reciprocal_ball([one], INF)


def test_reciprocal_ball_matches_float_reimplementation():
    pool = [sc(F(a, b), F(c, b)) for b in (1, 2, 3, 4, 5)
            for a in range(-b, b + 1) for c in range(-b, b + 1)
            if (a, c) != (0, 0) and F(a, b) ** 2 + F(c, b) ** 2 <= 1]
    ts = [sc(0), sc(1), sc(F(-1, 2)), sc(F(1, 3), F(1, 3))]
    random.seed(5)
    for _ in range(400):
        vs = [random.choice(pool + [INF]) for _ in range(random.randint(1, 3))]
        t = random.choice(ts)
        total = 0j
        for v in vs:
            total += 0 if v.is_inf else 1 / complex(v)
        dist = abs(complex(t) - total)
        near_boundary = abs(dist - 1.0) < 1e-12 or dist < 1e-12
        if near_boundary:
            continue
        assert in_reciprocal_ball(vs, t) == (dist > 1.0)


def test_mobius_involution():
    random.seed(7)
    for _ in range(100):
        z = rand_scalar()
        if z.is_one():
            continue
        w = z.mobius()
        assert w.mobius() == z
    with pytest.raises(DomainError):
        ONE.mobius()
    with pytest.raises(DomainError):
        INF.mobius()


def test_lowest_terms_invariant():
    z = Scalar(F(2, 4), F(-6, 8))
    assert z.re == F(1, 2) and z.im == F(-3, 4)
    assert z.re.denominator > 0 and z.im.denominator > 0


def test_equal_values_by_different_routes_hash_alike():
    direct = sc(F(1, 3), F(-1, 3))
    hash(direct)  # fill the cache on one side only
    routes = [
        sc(1, -1) * sc(F(1, 3)),
        sc(2, -2) / sc(6),
        sc(F(3, 2), F(3, 2)).inv(),
        Scalar(F(2, 6), F(-3, 9)),
        serialize.scalar_from_json(serialize.scalar_to_json(direct)),
        serialize.scalar_from_json({"re": ["1", "3"], "im": [-2, 6]}),
    ]
    for z in routes:
        assert z == direct
        assert hash(z) == hash(direct)
        assert hash(z) == hash((z.re, z.im, z.is_inf))
    assert len({direct, *routes}) == 1


def test_derived_values_cached_without_changing_the_value():
    z = sc(F(-3, 5), F(4, 5))
    assert z.inv() is z.inv()
    assert z.abs_sq() is z.abs_sq() and z.abs_sq() == 1
    assert z.sort_key() is z.sort_key()
    assert z.mobius() is z.mobius()
    assert [f.name for f in dataclasses.fields(Scalar)] == ["re", "im", "is_inf"]
    assert dataclasses.astuple(z) == (F(-3, 5), F(4, 5), False)
    assert str(z) == repr(z) == "-3/5+4/5i"
    assert z == Scalar(F(-3, 5), F(4, 5))
    assert str(INF) == "inf" and ZERO.inv() is INF and INF.inv() is ZERO
    with pytest.raises(DomainError):
        INF.abs_sq()
