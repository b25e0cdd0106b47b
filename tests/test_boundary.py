import itertools
import random
from fractions import Fraction as F

import pytest

from connsum import boundary
from connsum.boundary import boundary_reduce, quasi_shuffle
from connsum.errors import BudgetExceeded, DivergentInput, ZeroVariable
from connsum.exact import eval_mpl_partial_exact, eval_zterm_partial_exact
from connsum.model import MplExpr, MplTerm, Pair, ZTerm, is_convergent, zterm
from connsum.scalars import ONE, Scalar, sc

random.seed(21)


def test_conversion_examples():
    # a harmonic spelling stores the suffix products of its variables
    h = MplTerm("harmonic", (1, 2), (sc(F(1, 2)), sc(F(1, 3))))
    assert h == MplTerm("shuffle", (1, 2), (sc(F(1, 6)), sc(F(1, 3))))


def test_quasi_shuffle_unit_cases():
    a = (sc(F(1, 2)), 1)
    b = (sc(F(1, 3)), 1)
    out = quasi_shuffle((a,), (b,))
    assert len(out) == 3
    assert (a, b) in out and (b, a) in out
    merged = (sc(F(1, 6)), 2)
    assert (merged,) in out
    assert quasi_shuffle((), (b,)) == [(b,)]
    assert quasi_shuffle((a,), ()) == [(a,)]
    assert quasi_shuffle((), ()) == [()]


def _brute_merge_count(p: int, q: int) -> int:
    """Independent enumeration: strict levels for the p chain, weak levels for
    the q chain, values in 1..p+q; count distinct merge patterns."""
    top = p + q
    patterns = set()
    for svals in itertools.combinations(range(1, top + 1), p):
        for wvals in itertools.combinations_with_replacement(range(1, top + 1), q):
            levels = sorted(set(svals) | set(wvals))
            pattern = tuple(
                (tuple(i for i, v in enumerate(svals) if v == lev),
                 tuple(j for j, v in enumerate(wvals) if v == lev))
                for lev in levels
            )
            patterns.add(pattern)
    return len(patterns)


def test_quasi_shuffle_counts_match_brute_force():
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    for p, q in itertools.product(range(0, 4), range(0, 4)):
        strict = tuple((sc(F(1, primes[i])), 1) for i in range(p))
        weak = tuple((sc(F(1, primes[4 + j])), 1) for j in range(q))
        out = quasi_shuffle(strict, weak)
        assert len(out) == len(set(out)), "no duplicate patterns"
        assert len(out) == _brute_merge_count(p, q)


def test_quasi_shuffle_budget(monkeypatch):
    two = ((ONE, 1), (ONE, 1))
    assert len(quasi_shuffle(two, two)) == 18
    monkeypatch.setattr(boundary, "QUASI_SHUFFLE_CAP", 17)
    with pytest.raises(BudgetExceeded, match="18 terms"):
        quasi_shuffle(two, two)
    assert len(quasi_shuffle(two[:1], two)) == 8  # under the cap


def test_boundary_worked_display():
    z1, z2, w1, w2 = sc(F(1, 2)), sc(F(1, 3)), sc(F(1, 5)), sc(F(1, 7))
    t = ZTerm(F(1), (Pair((1, 1), (z1, z2)),), Pair((1, 2), (w1, w2)))
    out = boundary_reduce(t)
    expected = MplExpr.of([
        (F(1), MplTerm("shuffle", (1, 1, 2), (z1 * w1, z2 * w1, z2 * w2))),
        (F(1), MplTerm("shuffle", (1, 1, 2), (z1 * w1, z1 * w2, z2 * w2))),
        (F(1), MplTerm("shuffle", (2, 2), (z1 * w1, z2 * w2))),
        (F(1), MplTerm("shuffle", (1, 3), (z1 * w1, z2 * w1))),
    ])
    assert out == expected


def test_boundary_plain_polylog():
    t = zterm([Pair((2, 3), (sc(F(1, 2)), sc(F(1, 3))))])
    out = boundary_reduce(t)
    assert out == MplExpr.single(MplTerm("shuffle", (2, 3), (sc(F(1, 2)), sc(F(1, 3)))))


def test_boundary_zeta_example():
    t = zterm([Pair.ones((2,))], Pair.ones((1, 1)))
    out = boundary_reduce(t)
    expected = MplExpr.of([
        (F(1), MplTerm("shuffle", (1, 2), (ONE, ONE))),
        (F(1), MplTerm("shuffle", (3,), (ONE,))),
    ])
    assert out == expected


def test_boundary_errors():
    with pytest.raises(ZeroVariable):
        boundary_reduce(ZTerm(F(1), (Pair.ones((1,)),), Pair((1, 1), (ONE, sc(0)))))
    with pytest.raises(DivergentInput):
        boundary_reduce(zterm([Pair.ones((1,))], Pair.ones((1,))))
    assert boundary_reduce(zterm([Pair.ones((1,))], Pair())).is_zero()


_HEIGHTS = [F(a, b) for a in range(-5, 6) for b in range(1, 6)
            if a != 0 and abs(F(a, b)) <= 1]


def _random_z1_term():
    while True:
        r, s = random.randint(1, 3), random.randint(1, 2)
        zs, ws = [], []
        for _ in range(r):
            re = random.choice(_HEIGHTS)
            im = random.choice(_HEIGHTS + [F(0)] * 6)
            if re * re + im * im > 1 or (re == 0 and im == 0):
                continue
            zs.append(sc(re, im))
        for _ in range(s):
            ws.append(sc(random.choice(_HEIGHTS)))
        if len(zs) != r or len(ws) != s:
            continue
        t = ZTerm(F(1), (Pair(tuple(random.randint(1, 2) for _ in range(r)), tuple(zs)),),
                  Pair(tuple(random.randint(1, 2) for _ in range(s)), tuple(ws)))
        if is_convergent(t):
            return t


def test_boundary_exact_partial_oracle():
    for _ in range(25):
        t = _random_z1_term()
        lhs = eval_zterm_partial_exact(t, 25)
        rhs = Scalar.of(0)
        for c, term in boundary_reduce(t).terms:
            rhs = rhs + sc(c) * eval_mpl_partial_exact(term, 25)
        assert lhs == rhs
