import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from connsum.duality import dual_condition, duality_relation
from connsum.errors import (
    AlphabetViolation,
    DomainError,
    DualConditionViolated,
    GuardViolation,
    NotA0,
    PreconditionViolated,
    TruncationTooSmall,
)
from connsum.model import MplExpr, MplTerm, Pair, Relation
from connsum.numeric import eval_zterm, verify_relation
from connsum.ohno import (
    HSeries,
    X,
    algebraic_ohno_check,
    apply_map,
    boundary_series,
    in_a0,
    in_a1,
    insert_lift,
    lift_sum,
    multi_term_relations,
    ohno_relation,
    pair_of_word,
    thm_sides,
    word_of_pair,
    words_to_mpl,
)
from connsum.scalars import ONE, sc
from connsum.model import zterm

random.seed(41)

LETTER_POOL = [sc(1), sc(-1), sc(F(1, 2)), sc(F(-1, 2)), sc(F(1, 3)),
               sc(F(-2, 5), F(1, 5)), sc(F(1, 3), F(-1, 3))]


def rand_word(maxlen=5):
    out = []
    n = random.randint(1, maxlen)
    out.append(random.choice(LETTER_POOL))
    for _ in range(n - 1):
        out.append(X if random.random() < 0.5 else random.choice(LETTER_POOL))
    return tuple(out)


def rand_a0_word(maxlen=5):
    while True:
        w = rand_word(maxlen)
        if in_a0(w):
            return w


def test_word_pair_bijection():
    p = Pair((2,), (ONE,))
    assert word_of_pair(p) == (ONE, X)
    p2 = Pair((1, 2), (sc(-1), ONE))
    assert word_of_pair(p2) == (sc(-1), ONE, X)
    assert word_of_pair(Pair()) == ()
    for _ in range(50):
        w = rand_word()
        if not in_a1(w):
            continue
        assert word_of_pair(pair_of_word(w)) == w


def test_alphabet_violations():
    with pytest.raises(AlphabetViolation):
        word_of_pair(Pair((1,), (sc(F(3, 5), F(4, 5)),)))  # Re > 1/2, not 1
    with pytest.raises(AlphabetViolation):
        pair_of_word((X, ONE))
    # a letter is x or a Scalar: an int is not read as a variable
    for word in ((5,), (X, ONE, "x")):
        with pytest.raises(AlphabetViolation, match="neither x nor"):
            HSeries.from_word(word, 2)
    # so is a word that is not a sequence: it was a bare TypeError
    with pytest.raises(DomainError, match="a word must be a sequence, got 5"):
        HSeries.from_word(5, 2)
    with pytest.raises(DomainError, match="a word must be a sequence, got 5"):
        pair_of_word(5)


def test_membership():
    assert in_a0(())
    assert in_a0((ONE, X))
    assert not in_a0((ONE,))              # single letter needs |z| != 1
    assert in_a0((sc(F(-1, 2)),))
    assert not in_a0((sc(F(1, 2), F(1, 3)), X))  # head on Re = 1/2
    assert in_a1((sc(-1), X)) and not in_a1((X,))


def test_lemma_rho_tauprime_on_generators_and_words():
    for h in (2, 3, 4):
        for letter in [X, ONE, sc(-1), sc(F(1, 3)), sc(F(-2, 5), F(1, 5))]:
            s = HSeries.from_word((letter,), h)
            assert apply_map("rho", apply_map("tau_prime", s)) == \
                apply_map("tau", apply_map("rho", s))
    for _ in range(40):
        s = HSeries.from_word(rand_word(), 3)
        assert apply_map("rho", apply_map("tau_prime", s)) == \
            apply_map("tau", apply_map("rho", s))


def test_map_inverses_and_involutions():
    for _ in range(30):
        s = HSeries.from_word(rand_word(), 3)
        assert apply_map("sigma_inv", apply_map("sigma", s)) == s
        assert apply_map("sigma", apply_map("sigma_inv", s)) == s
        assert apply_map("rho_inv", apply_map("rho", s)) == s
        assert apply_map("tau", apply_map("tau", s)) == s
        assert apply_map("tau_prime", apply_map("tau_prime", s)) == s


def test_negative_order_rejected():
    with pytest.raises(TruncationTooSmall):
        HSeries.from_word((ONE, X), -1)
    # an order that is not an integer is rejected where it enters, whatever
    # its value; a numpy integer is an integer
    for order in (2.5, "2", True, None, np.int64(-1)):
        with pytest.raises(TruncationTooSmall):
            HSeries.from_word((ONE, X), order)
        with pytest.raises(TruncationTooSmall):
            boundary_series((ONE, X), order)
        with pytest.raises(TruncationTooSmall):
            thm_sides((ONE, X), order)
    s = HSeries.from_word((ONE, X), np.int64(2))
    assert type(s.order) is int and s == HSeries.from_word((ONE, X), 2)
    assert apply_map("tau", s) == apply_map("tau", HSeries.from_word((ONE, X), 2))


def _assert_invariant(s):
    assert all(d <= s.order for d, _ in s.terms), s
    assert all(c != 0 for c in s.terms.values()), s


def test_series_invariant_after_cancellation_and_truncation():
    for _ in range(30):
        s = HSeries.from_word(rand_word(), 3)
        # tau is an involution: every intermediate word cancels
        back = apply_map("tau", apply_map("tau", s))
        _assert_invariant(back)
        assert back == s
        sig = apply_map("sigma", s)
        prod = sig * sig  # degrees up to 6 before truncation at order 3
        _assert_invariant(prod)
        assert prod.degree_words(3) and not prod.degree_words(4)
        _assert_invariant(sig + sig.scaled(-1))
        assert (sig + sig.scaled(-1)).terms == {}


def test_hseries_coefficients_follow_the_scalar_rule():
    """A series coefficient is parsed as a term coefficient is: a float, a
    bool or a non-number is a DomainError, and an integral value is an int."""
    w = (ONE,)
    for bad in (0.1, True, float("nan"), "x"):
        with pytest.raises(DomainError):
            HSeries.from_word(w, 2).scaled(bad)
    key = (0, w)
    assert HSeries.from_word(w, 2).scaled("1/3").terms == {key: F(1, 3)}
    for s in (HSeries.from_word(w, 2).scaled(F(6, 2)),
              HSeries.from_word(w, 2).scaled("1/2").scaled(6),
              HSeries.from_word(w, 2).scaled("3/2") + HSeries.from_word(w, 2).scaled("3/2")):
        assert s.terms == {key: 3} and type(s.terms[key]) is int


def test_rho_inv_preserves_a0():
    for _ in range(40):
        w = rand_a0_word()
        out = apply_map("rho_inv", HSeries.from_word(w, 3))
        for deg, word in out.terms:
            assert in_a0(word), (w, word)


def test_sigma_expansion_is_lift():
    # degree-h words of sigma(word) give exactly the exponent lifts
    p = Pair((1, 2), (sc(-1), ONE))
    w = word_of_pair(p)
    s = apply_map("sigma", HSeries.from_word(w, 3))
    for h in range(4):
        assert words_to_mpl(s.degree_words(h)) == lift_sum(p, h)


def test_boundary_series_low_degrees():
    w = (ONE, X)  # the weight-2 single-block word
    series = boundary_series(w, 2)
    assert series[0] == MplExpr.single(MplTerm("shuffle", (2,), (ONE,)))
    expected_h1 = MplExpr.of([
        (F(1), MplTerm("shuffle", (3,), (ONE,))),
        (F(1), MplTerm("shuffle", (1, 2), (ONE, ONE))),
    ])
    assert series[1] == expected_h1
    with pytest.raises(NotA0):
        boundary_series((ONE,), 2)


def test_boundary_series_matches_numeric():
    # degree-h coefficient equals the bar-lengthened sum Z_1(p | ones^(h+1))
    p = Pair((2,), (sc(F(-1, 2)),))
    series = boundary_series(word_of_pair(p), 2)
    for h in range(3):
        direct = eval_zterm(zterm([p], Pair.ones((1,) * (h + 1))), 300, tol=1e-12)
        rel = Relation(lhs=series[h], rhs=MplExpr.zero(), provenance={})
        lhs_val = 0j
        from connsum.numeric import eval_mpl_auto

        for c, term in series[h].terms:
            v, _ = eval_mpl_auto(term, 1e-9)
            lhs_val += complex(float(c)) * v
        assert abs(lhs_val - direct.value) < 1e-6 + direct.tail_estimate


def test_lift_sum_counts():
    p = Pair((1, 1, 2), (sc(-1), ONE, ONE))
    for h in range(4):
        r = p.dep
        assert len(lift_sum(p, h).terms) == math.comb(h + r - 1, r - 1)
    # a negative lift total has no compositions; it is refused, not read as 0
    for q in (Pair.ones((2,)), Pair.ones((2, 2)), Pair()):
        with pytest.raises(PreconditionViolated):
            lift_sum(q, -1)
    # nor is a lift total that is not an integer truncated, or a bool read as 0 or 1
    for h in (1.5, True, 2.0):
        with pytest.raises(PreconditionViolated, match="non-negative integer"):
            lift_sum(p, h)
        with pytest.raises(PreconditionViolated, match="non-negative integer"):
            ohno_relation(Pair.ones((3,)), h)


def test_insert_lift():
    p = Pair((1, 2, 1), (ONE, sc(-1), sc(F(-1, 2))))
    q = insert_lift(p, (2, 1))
    assert q.k == (1, 1, 1, 2, 1, 1)
    assert q.z == (ONE, sc(-1), sc(-1), sc(-1), sc(F(-1, 2)), sc(F(-1, 2)))
    with pytest.raises(PreconditionViolated):
        insert_lift(p, (1,))
    with pytest.raises(PreconditionViolated):
        insert_lift(p, (2, -1))
    with pytest.raises(PreconditionViolated):
        insert_lift(Pair((2,), (sc(-1),)), (-1,))
    # a count that is not an integer is named, and a bool is not read as 0 or 1
    for bad in (1.5, True):
        with pytest.raises(PreconditionViolated, match=f"non-negative integers: {bad!r}"):
            insert_lift(Pair((1, 2), (sc(-1), ONE)), [bad])
    with pytest.raises(PreconditionViolated, match="must be a sequence, got 5"):
        insert_lift(p, 5)


def test_ohno_relation_classical_instance():
    rel = ohno_relation(Pair.ones((3,)), 1)
    assert rel.lhs == MplExpr.single(MplTerm("shuffle", (4,), (ONE,)))
    assert rel.rhs == MplExpr.of([
        (F(1), MplTerm("shuffle", (1, 3), (ONE, ONE))),
        (F(1), MplTerm("shuffle", (2, 2), (ONE, ONE))),
    ])
    report = verify_relation(rel, tol=1e-6)
    assert report.ok


def test_ohno_relation_guards():
    with pytest.raises(DualConditionViolated):
        ohno_relation(Pair.ones((1,)), 1)
    with pytest.raises(PreconditionViolated):
        ohno_relation(Pair.ones((2,)), -1)
    # the dual condition already enforces the lift guard; lifting a bare
    # unit-circle (z, 1) pair is what the guard rejects
    with pytest.raises(GuardViolation):
        lift_sum(Pair((1,), (sc(0, 1),)), 1)


def test_ohno_depth_one_variable_forced():
    z = sc(F(1, 3))
    rel = ohno_relation(Pair((1,), (z,)), 0)
    assert rel.lhs == MplExpr.single(MplTerm("shuffle", (1,), (z,)))
    assert rel.rhs == MplExpr.single(MplTerm("shuffle", (1,), (z.mobius(),)), F(-1))
    report = verify_relation(rel, tol=1e-10)
    assert report.ok


def test_ohno_landen_family_shape():
    # depth-1 pairs lift to all indices of the matching weight on the dual side
    z = sc(F(-1, 2))
    for h in (1, 2, 3):
        rel = ohno_relation(Pair((1,), (z,)), h)
        assert len(rel.lhs.terms) == 1
        assert len(rel.rhs.terms) == 2 ** h  # compositions of weight h+1
        mob = z.mobius()
        for coef, term in rel.rhs.terms:
            assert coef == -1
            assert all(v == mob for v in term.z)
            assert term.wt == h + 1


def test_ohno_h0_degenerates_to_duality():
    for _ in range(20):
        while True:
            r = random.randint(1, 3)
            p = Pair(tuple(random.randint(1, 2) for _ in range(r)),
                     tuple(random.choice(LETTER_POOL) for _ in range(r)))
            if dual_condition(p) and not (p.k[-1] == 1 and p.z[-1].abs_eq_one()):
                break
        rel = ohno_relation(p, 0)
        dual = duality_relation(p)
        assert rel.lhs == dual.lhs and rel.rhs == dual.rhs


def test_emission_paths_agree():
    checked = 0
    while checked < 25:
        w = rand_a0_word(4)
        p = pair_of_word(w)
        h = random.randint(0, 3)
        sides = thm_sides(w, h)
        rel = ohno_relation(p, h)
        assert rel.lhs == sides[h][0]
        assert rel.rhs == sides[h][1]
        checked += 1


def test_algebraic_check_weight_two():
    assert algebraic_ohno_check((ONE, X), 2)


def test_multi_term_preconditions():
    with pytest.raises(PreconditionViolated, match="reciprocals"):
        multi_term_relations((sc(F(-1, 2)), sc(F(-1, 2)), sc(F(1, 6))))
    with pytest.raises(PreconditionViolated, match="Re"):
        multi_term_relations((sc(F(1, 2)), sc(F(-1, 3)), sc(F(1, 6))))
    with pytest.raises(PreconditionViolated, match=r"\|z1\|"):
        multi_term_relations((sc(-2), sc(F(-1, 3)), sc(F(1, 6))))
    with pytest.raises(PreconditionViolated):
        multi_term_relations((sc(F(-1, 2)),))
    # entries are read as a Pair reads its variables: a float is not exact
    with pytest.raises(DomainError, match="0.5 is not an exact rational"):
        multi_term_relations([0.5] * 3)
    with pytest.raises(DomainError, match="the variables must be a sequence"):
        multi_term_relations(5)
    assert multi_term_relations([F(-1, 2), "-1/3", F(1, 6)]) == multi_term_relations(
        (sc(F(-1, 2)), sc(F(-1, 3)), sc(F(1, 6))))


def test_three_term_relation():
    zs = (sc(F(-1, 2)), sc(F(-1, 3)), sc(F(1, 6)))
    rel = multi_term_relations(zs)
    assert len(rel.lhs.terms) == 3
    for coef, term in rel.lhs.terms:
        assert coef == 1 and term.k == (1, 1)
    report = verify_relation(rel, tol=1e-8)
    assert report.ok


def test_eight_term_relation():
    zs = (sc(F(-1, 2)), sc(F(-1, 2)), sc(F(-1, 3)), sc(F(1, 8)))
    rel = multi_term_relations(zs)
    assert all(term.k == (1, 1, 1) for _, term in rel.lhs.terms)
    assert sum(abs(c) for c, _ in rel.lhs.terms) == 8
    report = verify_relation(rel, tol=1e-8)
    assert report.ok


def test_lift_blocks_reassembly():
    # inserting nothing before each variable other than 1 gives the pair back
    from connsum.duality import iota

    for _ in range(60):
        r = random.randint(0, 5)
        p = Pair(tuple(random.randint(1, 3) for _ in range(r)),
                 tuple(random.choice(LETTER_POOL) for _ in range(r)))
        assert insert_lift(p, (0,) * iota(p.z)) == p


def test_boundary_series_word_mass():
    # before merging, degree h of the composed substitution carries one word
    # per (composition of h) x (two-letter choice); total mass C(h+r-1, r-1) 2^h
    p = Pair((2, 1), (sc(F(-1, 2)), sc(F(1, 3))))
    w = word_of_pair(p)
    s = apply_map("sigma", apply_map("rho", HSeries.from_word(w, 3)))
    r = p.dep
    for h in range(4):
        mass = sum(s.degree_words(h).values())
        assert mass == math.comb(h + r - 1, r - 1) * 2 ** h


def test_algebraic_check_alternating_chain():
    # the alternating head word e_{-1} e_1 x feeding the zeta(3) family
    assert algebraic_ohno_check((sc(-1), ONE, X), 2)
