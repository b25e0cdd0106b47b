import random
from fractions import Fraction as F

import pytest

from connsum.errors import DomainError, PreconditionViolated
from connsum.model import MplExpr, MplTerm, Pair
from connsum.numeric import verify_relation
from connsum.ohno import HSeries, apply_map, word_of_pair, words_to_mpl
from connsum.recipe import RecipeData, check_recipe_assumptions, recipe_relation
from connsum.scalars import ONE, sc

random.seed(61)


def test_assumption_bullets():
    # admissible bar with vanishing non-admissible reciprocal sum
    data = RecipeData((Pair((1,), (sc(-1),)), Pair((1,), (ONE,))), Pair.ones((2,)))
    assert check_recipe_assumptions(data) is not None
    # non-admissible bar hit exactly by the reciprocal sum
    data = RecipeData((Pair((1,), (ONE,)),), Pair.ones((1,)))
    assert "bar variable" in (check_recipe_assumptions(data) or "")
    # reciprocal ball violation
    data = RecipeData((Pair((1,), (sc(F(3, 5), F(4, 5)),)),), Pair.ones((2,)))
    assert check_recipe_assumptions(data) is not None
    # vertical move against an interior bar value
    data = RecipeData((Pair((2, 1), (sc(-1), sc(-1))),), Pair((2,), (sc(F(1, 2)),)))
    assert "vertical" in (check_recipe_assumptions(data) or "")
    # a clean family passes
    data = RecipeData((Pair.ones((1, 1)),), Pair.ones((2,)))
    assert check_recipe_assumptions(data) is None


def test_recipe_rejects_bad_data():
    with pytest.raises(PreconditionViolated):
        recipe_relation(RecipeData((Pair((1,), (ONE,)),), Pair.ones((1,))))
    # components are stored as a tuple, so a list of them works as one does
    data = RecipeData([Pair.ones((1,))], Pair.ones((2,)))
    assert data.components == (Pair.ones((1,)),)
    assert recipe_relation(data) == recipe_relation(RecipeData((Pair.ones((1,)),),
                                                               Pair.ones((2,))))
    # a part that is not a Pair is named, as the validating ZTerm does
    one, two = Pair.ones((1,)), Pair.ones((2,))
    for comps, bar in (([(1,)], two), ([one], (2,)), ([one, None], two), (one, two)):
        with pytest.raises(DomainError, match="must be Pairs"):
            RecipeData(comps, bar)
    with pytest.raises(DomainError, match="recipe components must be a sequence, got 5"):
        RecipeData(5, two)


def test_tautology_case():
    rel = recipe_relation(RecipeData((Pair.ones((2,)),), Pair.ones((1,))))
    assert (rel.lhs - rel.rhs).is_zero()


def test_dilcher_k2_shape():
    rel = recipe_relation(RecipeData((Pair.ones((1,)),), Pair.ones((2,))))
    assert rel.lhs == MplExpr.single(MplTerm("shuffle", (2,), (ONE,)))
    assert rel.rhs == MplExpr.single(MplTerm("shuffle", (2,), (sc(-1),)), F(-2))
    assert verify_relation(rel, tol=1e-8).ok


def test_dilcher_k3_shape():
    rel = recipe_relation(RecipeData((Pair.ones((1, 1)),), Pair.ones((2,))))
    assert rel.lhs == MplExpr.single(MplTerm("shuffle", (1, 2), (ONE, ONE)))
    expected_rhs = MplExpr.of([
        (F(2), MplTerm("shuffle", (1, 2), (sc(-1), sc(-1)))),
        (F(-1), MplTerm("shuffle", (3,), (sc(-1),))),
    ])
    assert rel.rhs == expected_rhs


def test_recipe_matches_word_algebra_on_lift_family():
    """For bar = all-ones of length s the emitted relation must coincide,
    term by term, with the degree-(s-1) coefficient of the substituted series
    identity (the composed inflate map on each side)."""
    pool = [sc(1), sc(-1), sc(F(-1, 2)), sc(F(1, 3))]
    checked = 0
    while checked < 12:
        r = random.randint(1, 3)
        p = Pair(tuple(random.randint(1, 2) for _ in range(r)),
                 tuple(random.choice(pool) for _ in range(r)))
        s = random.randint(1, 3)
        data = RecipeData((p,), Pair.ones((1,) * s))
        if check_recipe_assumptions(data) is not None:
            continue
        try:
            w = word_of_pair(p)
        except Exception:
            continue
        rel = recipe_relation(data)
        h = s - 1
        series = HSeries.from_word(w, h)
        lhs_series = apply_map("sigma", apply_map("rho", series))
        rhs_series = apply_map("sigma", apply_map("tau", apply_map("rho", series)))
        assert rel.lhs == words_to_mpl(lhs_series.degree_words(h))
        assert rel.rhs == words_to_mpl(rhs_series.degree_words(h))
        checked += 1


def test_recipe_three_term_family():
    zs = (sc(F(-1, 2)), sc(F(-1, 3)))
    data = RecipeData(tuple(Pair((1,), (z,)) for z in zs), Pair.ones((1,)))
    rel = recipe_relation(data)
    report = verify_relation(rel, tol=1e-8)
    assert report.ok
