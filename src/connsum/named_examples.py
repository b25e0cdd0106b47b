"""Named identities reproducible from the command line.

_EXAMPLES is the one table of them: each name, or family key with its colon
(amtagpa:n, dilcher:k), maps to a builder and the default bound and tol.  A
builder returns the relation and a check; the check reads the verification
report and returns (note, holds) pairs: a known closed form within the
report's tol, an exact symbolic reduction, or the relation's shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import serialize
from .errors import DomainError, PreconditionViolated
from .model import MplExpr, MplTerm, Pair, Relation, ZExpr, ZTerm, _integer, zterm
from .numeric import VerifyReport, verify_relation
from .ohno import multi_term_relations
from .recipe import RecipeData, recipe_relation
from .scalars import ONE, sc
from .transport import reduce_to_z1, reduce_to_mpl

# zeta(3) to float64, a literal so the amtagpa:2 check does not rest on the
# evaluator it checks
ZETA3 = 1.2020569031595942

Check = Callable[[VerifyReport], list[tuple[str, bool]]]


@dataclass(frozen=True)
class ExampleResult:
    name: str
    ok: bool
    report: VerifyReport
    relation: Relation
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "notes": list(self.notes),
                "report": self.report.to_json(),
                "relation": serialize.relation_to_json(self.relation)}


def _mzv_term(k) -> MplTerm:
    return MplTerm("shuffle", tuple(k), (ONE,) * len(k))


def _ones_zterm(n: int, bar: Optional[Pair] = None):
    return zterm([Pair.ones((1,)) for _ in range(n)], bar)


def _named(lhs, rhs, name: str) -> Relation:
    return Relation(lhs=lhs, rhs=rhs, provenance={"route": "named", "name": name})


def _no_check(report: VerifyReport) -> list[tuple[str, bool]]:
    return []


def _closed_form(label: str, value: float) -> Check:
    """The lhs value is within the report's tol of value."""
    def check(report):
        diff = abs(report.lhs_value.real - value)
        return [(f"|value - {label}| = {diff:.3e}", diff <= report.tol)]
    return check


def _reduces_to(t: ZTerm, expected: ZExpr) -> Check:
    """reduce_to_z1(t) is exactly expected."""
    def check(report):
        exact = reduce_to_z1(t) == expected
        return [(f"symbolic reduction exact: {exact}", exact)]
    return check


def _cloitre(_) -> tuple[Relation, Check]:
    """Symmetric double series for zeta(2)."""
    rel = _named(ZExpr.of([_ones_zterm(2)]), MplExpr.single(_mzv_term((2,))), "cloitre")
    return rel, _closed_form("pi^2/6", math.pi ** 2 / 6)


def _oloa(_) -> tuple[Relation, Check]:
    """zeta(3) as one third of the bar-extended double series."""
    t = _ones_zterm(2, Pair.ones((1, 1)))
    rel = _named(ZExpr.of([t.scaled(Fraction(1, 3))]), MplExpr.single(_mzv_term((3,))),
                 "oloa")
    return rel, _reduces_to(t, ZExpr.of([
        zterm([Pair.ones((2,))], Pair.ones((1, 1))),
        zterm([Pair.ones((3,))], Pair.ones((1,))),
    ]))


def _zeta4(_) -> tuple[Relation, Check]:
    """zeta(4) from the bar (2,1); symbolic shape is the three-term split."""
    t = _ones_zterm(2, Pair.ones((2, 1)))
    rel = _named(ZExpr.of([t]), MplExpr.single(_mzv_term((4,)), Fraction(17, 8)), "zeta4")
    m1 = sc(-1)
    return rel, _reduces_to(t, ZExpr.of([
        zterm([Pair.ones((2,))], Pair.ones((2, 1))),
        zterm([Pair((2, 1), (ONE, m1))], Pair.ones((2,)), coef=-1),
        zterm([Pair((2, 2), (ONE, m1))], Pair.ones((1,)), coef=-1),
    ]))


def _amtagpa(n: int) -> tuple[Relation, Check]:
    """The factorial series; n = 2 is the symmetric triple series, which
    equals 2 Li_{1,2}(1, 1/2)."""
    if n < 1:
        raise PreconditionViolated("amtagpa needs n >= 1")
    zs = (ONE,) + tuple(sc(Fraction(1, j)) for j in range(2, n + 1))
    target = MplTerm("shuffle", (1,) * (n - 1) + (2,), zs)
    rel = _named(ZExpr.of([_ones_zterm(n + 1)]), MplExpr.single(target, math.factorial(n)),
                 f"amtagpa:{n}")
    if n != 2:
        return rel, _no_check
    return rel, _closed_form("(13/4 zeta(3) - pi^2/2 log 2)",
                             13 / 4 * ZETA3 - math.pi ** 2 / 2 * math.log(2))


def _dilcher(k: int) -> tuple[Relation, Check]:
    """Alternating expansion of zeta(k) from the all-ones recipe data."""
    if k < 2:
        raise PreconditionViolated("dilcher needs k >= 2")
    rel = recipe_relation(RecipeData((Pair.ones((1,) * (k - 1)),), Pair.ones((2,))))
    lhs, rhs = len(rel.lhs.terms), len(rel.rhs.terms)

    def check(report):
        out = [(f"lhs terms: {lhs}, rhs terms: {rhs} (expected 1 and {k - 1})",
                lhs == 1 and rhs == k - 1)]
        if k == 3:
            # zeta(1, bar2): its variables are the suffix products of signs (1, -1)
            famous = Relation(
                lhs=MplExpr.single(_mzv_term((3,))),
                rhs=MplExpr.single(MplTerm("shuffle", (1, 2), (sc(-1), sc(-1))), 8),
                provenance={"name": "zeta(3) = 8 * alternating(1,2)"},
            )
            fam = verify_relation(famous, tol=1e-6)
            out.append((f"zeta(3) = 8*zeta(1,bar2): diff {fam.difference:.3e}", fam.ok))
        return out
    return rel, check


def _dilog(_) -> tuple[Relation, Check]:
    """Two-variable dilogarithm evaluation of the arity-2 sum."""
    z1, z2 = sc(Fraction(-1, 2)), sc(Fraction(-1, 3))
    lhs = reduce_to_mpl(zterm([Pair((1,), (z1,)), Pair((1,), (z2,))]))
    combo = z1 + z2 - z1 * z2
    rhs = MplExpr.of([
        (1, MplTerm("shuffle", (2,), (z1,))),
        (1, MplTerm("shuffle", (2,), (z2,))),
        (-1, MplTerm("shuffle", (2,), (combo,))),
    ])
    return _named(lhs, rhs, "dilog"), _no_check


def _kummer_newman(_) -> tuple[Relation, Check]:
    """Six-term dilogarithm relation on a rational reciprocal-sum triple."""
    z1, z2, z3 = sc(Fraction(-1, 2)), sc(Fraction(-1, 3)), sc(Fraction(1, 6))
    lhs = MplExpr.of([(1, MplTerm("shuffle", (2,), (z,))) for z in (z1, z2, z3)])
    args = (-(z1 * z2) / z3, -(z2 * z3) / z1, -(z3 * z1) / z2)
    rhs = MplExpr.of([(Fraction(1, 2), MplTerm("shuffle", (2,), (a,))) for a in args])
    return _named(lhs, rhs, "kummer-newman"), _no_check


def _eight_term(_) -> tuple[Relation, Check]:
    """Eight-term depth-3 relation on a rational reciprocal-sum quadruple."""
    quadruple = (Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 8))
    rel = multi_term_relations(tuple(sc(q) for q in quadruple))
    return rel, lambda report: [(f"terms: {len(rel.lhs.terms)}", True)]


# name, or family key with its colon -> (builder, default bound, default tol);
# a builder takes the family parameter (None for a plain name)
_EXAMPLES = {
    "cloitre": (_cloitre, 400, 1e-4),
    "oloa": (_oloa, 400, 1e-4),
    "zeta4": (_zeta4, 400, 1e-4),
    "triple": (lambda _: _amtagpa(2), 400, 1e-3),
    "amtagpa:": (_amtagpa, 200, 1e-3),
    "dilcher:": (_dilcher, 400, 3e-4),
    "dilog": (_dilog, 400, 1e-6),
    "kummer-newman": (_kummer_newman, 400, 1e-6),
    "eight-term": (_eight_term, 400, 1e-6),
}


def run_example(name: str, bound: Optional[int] = None,
                tol: Optional[float] = None) -> ExampleResult:
    """Build, verify and check one named identity; it passes when the
    verification and every check hold.

    amtagpa:n and dilcher:k take a parameter of ASCII decimal digits.  A
    bound or tol not given takes the example's default.  A bound that is not
    an integer >= 1 is rejected for every name, though the pure-polylog sides
    of dilog, kummer-newman and eight-term do not read it.
    """
    if bound is not None:
        _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    key, colon, param = name.partition(":")
    if key + colon not in _EXAMPLES:
        raise PreconditionViolated(f"unknown example {name!r}")
    build, default_bound, default_tol = _EXAMPLES[key + colon]
    n = None
    if colon:
        if not (param.isascii() and param.isdigit()):
            raise PreconditionViolated(f"example {name!r} needs an integer parameter")
        n = int(param)
        name = f"{key}:{n}"
    rel, check = build(n)
    report = verify_relation(rel, bound=default_bound if bound is None else bound,
                             tol=default_tol if tol is None else tol)
    checks = check(report)
    return ExampleResult(name, report.ok and all(holds for _, holds in checks), report, rel,
                         tuple(note for note, _ in checks))


EXAMPLE_NAMES = (
    "cloitre", "oloa", "triple", "amtagpa:2", "amtagpa:3", "amtagpa:4",
    "zeta4", "dilcher:2", "dilcher:3", "dilcher:4", "dilcher:5", "dilcher:6",
    "dilog", "kummer-newman", "eight-term",
)
