"""General relation recipe: compare two reductions of the same sum.

Data is an arity-(n-1) family of decorated components plus a bar.  The sum
with an appended empty component equals the arity-(n-1) sum outright; pushing
one rewrite through the appended slot first and then reducing both sides to
polylog expressions yields a relation (possibly tautological).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .boundary import boundary_reduce_all
from .errors import DomainError, PreconditionViolated
from .model import EMPTY_PAIR, Pair, Relation, ZTerm, _as_tuple, is_admissible
from .scalars import ZERO, reciprocal_sum
from .transport import condition_violation, reduce_to_mpl, reduce_to_z1, transport_step


@dataclass(frozen=True)
class RecipeData:
    """Inputs for one recipe run: components k_1..k_{n-1} with variables, and
    the bar; the appended empty slot brings the arity to n."""

    components: tuple[Pair, ...]
    bar: Pair

    def __post_init__(self):
        object.__setattr__(self, "components", _as_tuple(self.components, "recipe components"))
        for p in self.components + (self.bar,):
            if not isinstance(p, Pair):
                raise DomainError(f"recipe components and bar must be Pairs, got {p!r}")
        if len(self.components) < 1:
            raise PreconditionViolated("need at least one component")
        if any(p.is_empty() for p in self.components) or self.bar.is_empty():
            raise PreconditionViolated("components and bar must be non-empty")

    @property
    def n(self) -> int:
        return len(self.components) + 1


def check_recipe_assumptions(data: RecipeData) -> Optional[str]:
    """Return None when all assumption bullets hold, else the violated one."""
    comps, bar = data.components, data.bar
    w_s = bar.z[-1]

    nonadm_sum = reciprocal_sum(p.z[-1] for p in comps if not is_admissible(p.k))
    if not is_admissible(bar.k):
        if nonadm_sum == w_s:
            return "non-admissible reciprocal sum equals the last bar variable"
    else:
        if nonadm_sum == ZERO:
            return "non-admissible reciprocal sum vanishes"

    violation = condition_violation(comps, bar)
    if violation is not None:
        return violation
    if data.n == 2:
        p = comps[0]
        if not is_admissible(p.k) and not is_admissible(bar.k):
            if not (p.z[-1].in_open_disk() or bar.z[-1].in_open_disk()):
                return "arity-2 case needs |z_r| < 1 or |w_s| < 1"
    return None


def recipe_relation(data: RecipeData) -> Relation:
    """Emit the relation comparing the direct and one-step-first reductions."""
    violation = check_recipe_assumptions(data)
    if violation is not None:
        raise PreconditionViolated(violation)

    direct = ZTerm(1, data.components, data.bar)
    lhs = reduce_to_mpl(direct)

    appended = ZTerm(1, data.components + (EMPTY_PAIR,), data.bar)
    first = transport_step(appended)
    rhs = boundary_reduce_all(
        u for term in first.as_terms() for u in reduce_to_z1(term).as_terms()
    )

    return Relation(lhs=lhs, rhs=rhs, provenance={
        "route": "recipe",
        "components": [str(p) for p in data.components],
        "bar": str(data.bar),
    })
