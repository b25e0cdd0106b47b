import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from connsum import scalars, serialize
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
        assert z is direct  # one value, one object: == and hash are identity's
    assert len({direct, *routes}) == 1


def test_one_value_one_object():
    direct = sc(F(1, 3), F(-1, 3))
    assert Scalar(F(2, 6), "-1/3") is direct
    half = sc(F(1, 6), F(-1, 6))
    routes = [
        half + half,
        sc(1) - sc(F(2, 3), F(1, 3)),
        sc(1, -1) * sc(F(1, 3)),
        -sc(F(-1, 3), F(1, 3)),
        sc(F(3, 2), F(3, 2)).inv(),
        direct.mobius().mobius(),
        sc(F(1, 3), F(1, 3)).conj(),
        serialize.scalar_from_json({"re": ["1", "3"], "im": [-2, 6]}),
        pickle.loads(pickle.dumps(direct)),
        copy.deepcopy(direct),
        copy.copy(direct),
    ]
    for z in routes:
        assert z is direct
    assert sc(F(1, 3), F(1, 3)) is not direct
    # == and hash are those of object identity, both run in C
    assert Scalar.__eq__ is object.__eq__ and Scalar.__hash__ is object.__hash__
    for inf in (Scalar(is_inf=True), ZERO.inv(), sc(2) * INF, serialize.scalar_from_json("inf"),
                pickle.loads(pickle.dumps(INF)), copy.deepcopy(INF)):
        assert inf is INF


def test_threads_building_one_value_get_one_object():
    # values no other test makes, built at once by more threads than cores
    # with frequent switches: a lost race in _make would hand out twins
    values = [(F(n, 999_983), F(-n, 999_979)) for n in range(1, 10001)]
    seen = [[] for _ in range(6)]

    def build(out):
        for re, im in values:
            out.append(sc(re, im) + ZERO)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for objects in zip(*seen):
        assert len({id(z) for z in objects}) == 1


def test_derived_values_recomputed_equal_and_only_the_triple_stored():
    z = sc(F(-3, 5), F(4, 5))
    assert z.inv() == z.inv()
    assert z.abs_sq() == z.abs_sq() and z.abs_sq() == 1
    assert z.sort_key() == z.sort_key()
    assert z.mobius() == z.mobius()
    # a value stores only its primitive triple; the fields are read from it
    fresh = sc(F(-1, 5), F(1, 5)) * sc(3, 1)
    assert fresh._g == (-4, 2, 5)
    assert not hasattr(fresh, "__dict__")
    assert (fresh.re, fresh.im, fresh.is_inf) == (F(-4, 5), F(2, 5), False)
    assert str(z) == repr(z) == "-3/5+4/5i"
    assert z == Scalar(F(-3, 5), F(4, 5))
    assert str(INF) == "inf" and ZERO.inv() is INF and INF.inv() is ZERO
    with pytest.raises(DomainError):
        INF.abs_sq()


def test_fields_are_fractions_and_inexact_input_is_refused():
    for z in (Scalar(1), Scalar(1, -2), Scalar("1/3", 0), Scalar.of(3, "2/4"), sc(-2)):
        assert type(z.re) is F and type(z.im) is F
        assert z == Scalar(F(z.re), F(z.im))
    assert Scalar(1) * sc(F(1, 2)) == sc(F(1, 2))
    for bad in (0.5, 1.0, True, False, "1/0", "abc", None):
        with pytest.raises(DomainError):
            Scalar(bad)
        with pytest.raises(DomainError):
            Scalar(F(1), bad)
        with pytest.raises(DomainError):
            sc(bad)
    for bad in ("0.5", "1/2", "abc", {"re": "1/2"}, {"re": ["1", "0.5"]}):
        with pytest.raises(DomainError):
            serialize.scalar_from_json(bad)


# -- the integer kernel against the Fraction formulas it replaced ------------

def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_abs_sq(x):
    return x[0] * x[0] + x[1] * x[1]


def _ref_inv(x):
    d = _ref_abs_sq(x)
    return (x[0] / d, -x[1] / d)


def _ref_div(x, y):
    return _ref_mul(x, _ref_inv(y))


def _ref_mobius(x):
    return _ref_div(x, _ref_sub(x, (F(1), F(0))))


def _check_fields(z):
    for part in (z.re, z.im):
        assert type(part) is F
        n, d = part.numerator, part.denominator
        assert d > 0 and math.gcd(n, d) == 1
        canonical = F(n, d)  # the normalising constructor agrees
        assert (canonical.numerator, canonical.denominator) == (n, d)
        assert part == canonical and hash(part) == hash(canonical)
    assert not z.is_inf
    assert Scalar(z.re, z.im) is z  # the interned object of its value
    # the integer form the kernel reads is the primitive one of the fields
    a, b, d = z._g
    assert d > 0 and math.gcd(math.gcd(a, b), d) == 1
    assert (F(a, d), F(b, d)) == (z.re, z.im)


def _kernel_pool(rng):
    units = [(F(3, 5), F(4, 5)), (F(5, 13), F(-12, 13)), (F(1), F(0)), (F(-1), F(0)),
             (F(0), F(1)), (F(0), F(-1)), (F(-8, 17), F(15, 17))]
    big = 10 ** 30

    def q(height):
        return F(rng.randint(-height, height), rng.randint(1, height))

    def draw():
        kind = rng.randrange(8)
        if kind == 0:
            return (F(0), F(0))
        if kind == 1:
            return (q(rng.choice((9, 1000, big))), F(0))
        if kind == 2:
            return (F(0), q(rng.choice((9, big))))
        if kind == 3:
            return rng.choice(units)
        if kind == 4:  # coprime denominators up to 10^30
            d1 = rng.randint(1, big)
            d2 = rng.randint(1, big)
            while math.gcd(d1, d2) != 1:
                d2 += 1
            return (F(rng.randint(-big, big), d1), F(rng.randint(-big, big), d2))
        if kind == 5:  # one shared denominator
            d = rng.randint(1, 60)
            return (F(rng.randint(-60, 60), d), F(rng.randint(-60, 60), d))
        if kind == 6:
            return (F(1, 2), q(9))
        x = (q(9), q(9))
        return (-x[0], -x[1])
    return draw


def test_kernel_matches_fraction_formulas():
    rng = random.Random(2021)
    draw = _kernel_pool(rng)
    ops = [("+", lambda x, y: x + y, _ref_add), ("-", lambda x, y: x - y, _ref_sub),
           ("*", lambda x, y: x * y, _ref_mul)]
    for _ in range(2000):
        xr, yr = draw(), draw()
        x, y = Scalar(*xr), Scalar(*yr)
        for z in (x, y, -x, x.conj()):
            _check_fields(z)
        assert (-x).re == -xr[0] and (-x).im == -xr[1]
        assert x.conj() == Scalar(xr[0], -xr[1])
        for name, op, ref in ops:
            z = op(x, y)
            _check_fields(z)
            assert (z.re, z.im) == ref(xr, yr), name
            assert z == Scalar(*ref(xr, yr)) and hash(z) == hash(Scalar(*ref(xr, yr)))
        assert x.abs_sq() == _ref_abs_sq(xr)
        assert type(x.abs_sq()) is F and math.gcd(x.abs_sq().numerator,
                                                  x.abs_sq().denominator) == 1
        if not y.is_zero():
            for z, want in ((y.inv(), _ref_inv(yr)), (x / y, _ref_div(xr, yr))):
                _check_fields(z)
                assert (z.re, z.im) == want
        if not x.is_one():
            _check_fields(x.mobius())
            assert (x.mobius().re, x.mobius().im) == _ref_mobius(xr)
        r = _ref_abs_sq(xr)
        assert x.in_closed_disk() == (r <= 1)
        assert x.in_open_disk() == (r < 1)
        assert x.abs_eq_one() == (r == 1)
        assert x.abs_geq_one() == (x.abs_sq() >= 1)
        assert x.in_unit_interval() == (x.is_real() and 0 < x.re <= 1)
        assert x.is_zero() == (xr == (0, 0))
        assert x.is_one() == (xr == (1, 0))
        assert x.is_real() == (xr[1] == 0)
        assert x.re_leq_half() == (xr[0] <= F(1, 2))
        assert x.re_lt_half() == (xr[0] < F(1, 2))
        assert x.re_eq_half() == (xr[0] == F(1, 2))


def _is_primitive(g):
    a, b, d = g
    return type(a) is type(b) is type(d) is int and d > 0 and math.gcd(a, b, d) == 1


def test_triple_kernels_match_scalar_arithmetic():
    # the exact oracles sum and multiply integer forms and convert once; each
    # result must be the primitive form Scalar + and * would hold
    rng = random.Random(1515)
    draw = _kernel_pool(rng)
    pool = [Scalar(*draw()) for _ in range(300)] + [ZERO, ONE, -ONE, sc(0, 1), sc(0, -1)]
    acc_sum, acc_mul, ref_sum, ref_mul = ZERO._g, ONE._g, ZERO, ONE
    for step in range(2000):
        x, y = rng.choice(pool), rng.choice(pool)
        for got, want in ((scalars._g_add(x._g, y._g), x + y),
                          (scalars._g_mul(x._g, y._g), x * y)):
            assert _is_primitive(got) and got == want._g, (x, y)
            assert scalars._make(*got) == want
        k = rng.choice((1, 2, 6, 10 ** 20 + 39))
        assert scalars._primitive(*(k * part for part in x._g)) == x._g
        if step < 200 and not x.is_zero():  # running sums and products stay primitive
            acc_sum = scalars._g_add(acc_sum, x._g)
            acc_mul = scalars._g_mul(acc_mul, x._g)
            ref_sum, ref_mul = ref_sum + x, ref_mul * x
    assert (acc_sum, acc_mul) == (ref_sum._g, ref_mul._g)
    assert _is_primitive(acc_sum) and _is_primitive(acc_mul)
    assert scalars._g_add(sc(F(1, 3), 1)._g, sc(F(-1, 3), -1)._g) == ZERO._g


def test_kernel_undefined_forms_unchanged():
    rng = random.Random(3)
    draw = _kernel_pool(rng)
    finite = [Scalar(*draw()) for _ in range(50)] + [ZERO, ONE]
    for z in finite:
        assert z + INF == INF and INF + z == INF
        assert z - INF == INF and INF - z == INF
        assert z / INF == ZERO
        if z.is_zero():
            for form in (lambda: z * INF, lambda: INF * z, lambda: z / z):
                with pytest.raises(UndefinedArithmetic):
                    form()
        else:
            assert z * INF == INF and INF * z == INF and z / ZERO == INF
    for form in (lambda: INF + INF, lambda: INF - INF, lambda: INF / INF, lambda: INF ** 0):
        with pytest.raises(UndefinedArithmetic):
            form()
    for form in (INF.abs_sq, INF.abs_geq_one, INF.mobius, ONE.mobius, INF.re_leq_half,
                 INF.re_lt_half, INF.re_eq_half, INF.__complex__):
        with pytest.raises(DomainError):
            form()
    assert ZERO.inv() is INF and INF.inv() is ZERO
    assert not (INF.in_closed_disk() or INF.in_open_disk() or INF.abs_eq_one()
                or INF.in_unit_interval())
    assert not (INF.is_zero() or INF.is_one() or INF.is_real())
    assert -INF is INF and INF.conj() is INF


def test_kernel_runs_without_fraction_arithmetic(monkeypatch):
    xs = [sc(F(3, 5), F(4, 5)), sc(F(-7, 3)), sc(0, F(2, 9)), sc(F(1, 6), F(-5, 4)),
          sc(F(10 ** 30 + 1, 7), F(2, 10 ** 29 + 3))]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the Scalar kernel")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__new__"):
        monkeypatch.setattr(F, name, refuse)
    for x in xs:
        for y in xs:
            # each result is fresh, so its cached inv/abs_sq/mobius are computed here
            for z in (x + y, x - y, x * y, x / y, -x):
                z.inv()
                z.abs_sq()
                z.in_closed_disk()
                z.in_open_disk()
                z.abs_eq_one()
                if not z.is_one():
                    z.mobius()
    monkeypatch.undo()
    assert xs[0] * xs[0].inv() == ONE
