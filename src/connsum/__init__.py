"""connsum: symbolic reduction and numeric certification of multivariable
connected sums and multiple polylogarithms."""

from .scalars import INF, MINUS_ONE, ONE, ZERO, Scalar, sc
from .model import (
    EMPTY_PAIR,
    Index,
    MplExpr,
    MplTerm,
    Pair,
    Relation,
    SignedPair,
    ZExpr,
    ZTerm,
    arrow,
    depth,
    drop_all_empty_components,
    drop_empty_component,
    is_admissible,
    is_convergent,
    peel,
    swap_components,
    weight,
    zterm,
)
from .boundary import boundary_reduce, harmonic_to_shuffle, quasi_shuffle, shuffle_to_harmonic
from .duality import (
    DualBlocks,
    dagger,
    decompose,
    dual_condition,
    duality_relation,
    iota,
    mzv_dual,
    normalize_to_dual_basis,
)
from .transport import (
    is_transportable,
    reduce_duality,
    reduce_to_mpl,
    reduce_to_z1,
    transport_step,
    transportable_pick,
)
from .ohno import (
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
    word_of_pair,
)
from .numeric import EvalReport, VerifyReport, eval_mpl_auto, eval_zterm, verify_relation
from .exact import connector, eval_mpl_partial_exact, eval_zterm_partial_exact, telescoping_check
from .recipe import RecipeData, check_recipe_assumptions, recipe_relation
from .named_examples import EXAMPLE_NAMES, run_example

__version__ = "0.1.0"
