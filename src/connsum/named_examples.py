"""Named identities reproducible from the command line.

Each entry builds a relation record, runs the numeric verifier, and reports
pass/fail; some carry an extra symbolic check (the reduction must emit an
exact expected combination).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, PreconditionViolated
from .model import MplExpr, MplTerm, Pair, ZExpr, _integer, zterm
from .numeric import verify_relation
from .ohno import multi_term_relations
from .recipe import RecipeData, recipe_relation
from .records import Relation, VerifyReport
from .scalars import ONE, sc
from .transport import reduce_to_z1, reduce_to_mpl

# zeta(3) to float64, a literal so the amtagpa:2 check does not rest on the
# evaluator it checks
ZETA3 = 1.2020569031595942


@dataclass
class ExampleResult:
    name: str
    ok: bool
    report: Optional[VerifyReport] = None
    relation: Optional[Relation] = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        from . import serialize

        out = {"name": self.name, "ok": self.ok, "notes": self.notes}
        if self.report is not None:
            out["report"] = self.report.to_json()
        if self.relation is not None:
            out["relation"] = serialize.relation_to_json(self.relation)
        return out


def _mzv_term(k) -> MplTerm:
    return MplTerm("shuffle", tuple(k), (ONE,) * len(k))


def _alt_mzv_term(k, signs) -> MplTerm:
    """Alternating zeta value as a shuffle polylog via suffix sign products."""
    r = len(k)
    zs = []
    for j in range(r):
        acc = 1
        for e in signs[j:]:
            acc *= e
        zs.append(sc(acc))
    return MplTerm("shuffle", tuple(k), tuple(zs))


def _ones_zterm(n: int, bar: Optional[Pair] = None):
    return zterm([Pair.ones((1,)) for _ in range(n)], bar)


def run_cloitre(bound: int = 400, tol: float = 1e-4) -> ExampleResult:
    """Symmetric double series for zeta(2)."""
    rel = Relation(
        lhs=ZExpr.of([_ones_zterm(2)]),
        rhs=MplExpr.single(_mzv_term((2,))),
        provenance={"route": "named", "name": "cloitre"},
    )
    report = verify_relation(rel, bound=bound, tol=tol)
    result = ExampleResult("cloitre", report.ok, report, rel)
    diff = abs(report.lhs_value.real - math.pi ** 2 / 6)
    result.notes.append(f"|value - pi^2/6| = {diff:.3e}")
    result.ok = result.ok and diff <= tol
    return result


def run_oloa(bound: int = 400, tol: float = 1e-4) -> ExampleResult:
    """zeta(3) as one third of the bar-extended double series."""
    t = _ones_zterm(2, Pair.ones((1, 1)))
    rel = Relation(
        lhs=ZExpr.of([t.scaled(Fraction(1, 3))]),
        rhs=MplExpr.single(_mzv_term((3,))),
        provenance={"route": "named", "name": "oloa"},
    )
    report = verify_relation(rel, bound=bound, tol=tol)
    expected = ZExpr.of([
        zterm([Pair.ones((2,))], Pair.ones((1, 1))),
        zterm([Pair.ones((3,))], Pair.ones((1,))),
    ])
    symbolic_ok = reduce_to_z1(t) == expected
    result = ExampleResult("oloa", report.ok and symbolic_ok, report, rel)
    result.notes.append(f"symbolic reduction exact: {symbolic_ok}")
    return result


def run_zeta4(bound: int = 400, tol: float = 1e-4) -> ExampleResult:
    """zeta(4) from the bar (2,1); symbolic shape is the three-term split."""
    t = _ones_zterm(2, Pair.ones((2, 1)))
    rel = Relation(
        lhs=ZExpr.of([t]),
        rhs=MplExpr.single(_mzv_term((4,)), Fraction(17, 8)),
        provenance={"route": "named", "name": "zeta4"},
    )
    report = verify_relation(rel, bound=bound, tol=tol)
    m1 = sc(-1)
    expected = ZExpr.of([
        zterm([Pair.ones((2,))], Pair.ones((2, 1))),
        zterm([Pair((2, 1), (ONE, m1))], Pair.ones((2,)), coef=-1),
        zterm([Pair((2, 2), (ONE, m1))], Pair.ones((1,)), coef=-1),
    ])
    symbolic_ok = reduce_to_z1(t) == expected
    result = ExampleResult("zeta4", report.ok and symbolic_ok, report, rel)
    result.notes.append(f"symbolic reduction exact: {symbolic_ok}")
    return result


def _amtagpa_rel(n: int) -> Relation:
    zs = (ONE,) + tuple(sc(Fraction(1, j)) for j in range(2, n + 1))
    target = MplTerm("shuffle", (1,) * (n - 1) + (2,), zs)
    return Relation(
        lhs=ZExpr.of([_ones_zterm(n + 1)]),
        rhs=MplExpr.single(target, math.factorial(n)),
        provenance={"route": "named", "name": f"amtagpa:{n}"},
    )


def run_amtagpa(n: int, bound: int = 200, tol: float = 1e-3) -> ExampleResult:
    if n < 1:
        raise PreconditionViolated("amtagpa needs n >= 1")
    rel = _amtagpa_rel(n)
    report = verify_relation(rel, bound=bound, tol=tol)
    result = ExampleResult(f"amtagpa:{n}", report.ok, report, rel)
    if n == 2:
        target = 13 / 4 * ZETA3 - math.pi ** 2 / 2 * math.log(2)
        diff = abs(report.lhs_value.real - target)
        result.notes.append(f"|value - (13/4 zeta(3) - pi^2/2 log 2)| = {diff:.3e}")
        result.ok = result.ok and diff <= tol
    return result


def run_triple(bound: int = 400, tol: float = 1e-3) -> ExampleResult:
    """The symmetric triple series; equals 2 Li_{1,2}(1, 1/2)."""
    result = run_amtagpa(2, bound=bound, tol=tol)
    result.name = "triple"
    return result


def run_dilcher(k: int, bound: int = 400, tol: float = 3e-4) -> ExampleResult:
    """Alternating expansion of zeta(k) from the all-ones recipe data."""
    if k < 2:
        raise PreconditionViolated("dilcher needs k >= 2")
    data = RecipeData((Pair.ones((1,) * (k - 1)),), Pair.ones((2,)))
    rel = recipe_relation(data)
    report = verify_relation(rel, bound=bound, tol=tol)
    result = ExampleResult(f"dilcher:{k}", report.ok, report, rel)
    shape_ok = len(rel.lhs.terms) == 1 and len(rel.rhs.terms) == k - 1
    result.ok = result.ok and shape_ok
    result.notes.append(
        f"lhs terms: {len(rel.lhs.terms)}, rhs terms: {len(rel.rhs.terms)} "
        f"(expected 1 and {k - 1})"
    )
    if k == 3:
        famous = Relation(
            lhs=MplExpr.single(_mzv_term((3,))),
            rhs=MplExpr.single(_alt_mzv_term((1, 2), (1, -1)), 8),
            provenance={"name": "zeta(3) = 8 * alternating(1,2)"},
        )
        fam = verify_relation(famous, tol=1e-6)
        result.notes.append(f"zeta(3) = 8*zeta(1,bar2): diff {fam.difference:.3e}")
        result.ok = result.ok and fam.ok
    return result


def run_dilog(tol: float = 1e-6) -> ExampleResult:
    """Two-variable dilogarithm evaluation of the arity-2 sum."""
    z1, z2 = sc(Fraction(-1, 2)), sc(Fraction(-1, 3))
    t = zterm([Pair((1,), (z1,)), Pair((1,), (z2,))])
    lhs = reduce_to_mpl(t)
    combo = z1 + z2 - z1 * z2
    rhs = MplExpr.of([
        (1, MplTerm("shuffle", (2,), (z1,))),
        (1, MplTerm("shuffle", (2,), (z2,))),
        (-1, MplTerm("shuffle", (2,), (combo,))),
    ])
    rel = Relation(lhs=lhs, rhs=rhs, provenance={"route": "named", "name": "dilog"})
    report = verify_relation(rel, tol=tol)
    return ExampleResult("dilog", report.ok, report, rel)


_SIX_TERM_TRIPLE = (Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 6))


def run_kummer_newman(tol: float = 1e-6) -> ExampleResult:
    """Six-term dilogarithm relation on a rational reciprocal-sum triple."""
    z1, z2, z3 = (sc(q) for q in _SIX_TERM_TRIPLE)
    lhs = MplExpr.of([
        (1, MplTerm("shuffle", (2,), (z,))) for z in (z1, z2, z3)
    ])
    args = (-(z1 * z2) / z3, -(z2 * z3) / z1, -(z3 * z1) / z2)
    rhs = MplExpr.of([
        (Fraction(1, 2), MplTerm("shuffle", (2,), (a,))) for a in args
    ])
    rel = Relation(lhs=lhs, rhs=rhs,
                   provenance={"route": "named", "name": "kummer-newman"})
    report = verify_relation(rel, tol=tol)
    return ExampleResult("kummer-newman", report.ok, report, rel)


_EIGHT_TERM_TUPLE = (Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 8))


def run_eight_term(tol: float = 1e-6) -> ExampleResult:
    """Eight-term depth-3 relation on a rational reciprocal-sum quadruple."""
    zs = tuple(sc(q) for q in _EIGHT_TERM_TUPLE)
    rel = multi_term_relations(zs)
    report = verify_relation(rel, tol=tol)
    result = ExampleResult("eight-term", report.ok, report, rel)
    result.notes.append(f"terms: {len(rel.lhs.terms)}")
    return result


def _parameter(name: str) -> int:
    """The integer after the colon of amtagpa:n or dilcher:k."""
    try:
        return int(name.split(":", 1)[1])
    except ValueError:
        raise PreconditionViolated(f"example {name!r} needs an integer parameter") from None


def run_example(name: str, bound: Optional[int] = None,
                tol: Optional[float] = None) -> ExampleResult:
    """Dispatch by name; amtagpa:n and dilcher:k carry a parameter.

    Only the arguments given are passed on, so each runner's own defaults
    apply.  A bound that is not an integer >= 1 is rejected for every name;
    dilog, kummer-newman and eight-term have pure-polylog sides, which take
    no bound, so they ignore it.
    """
    if bound is not None:
        _integer(bound, 1, DomainError, "truncation bound must be an integer >= 1, got")
    tol_kw = {} if tol is None else {"tol": tol}
    kw = tol_kw if bound is None else dict(tol_kw, bound=bound)
    if name == "cloitre":
        return run_cloitre(**kw)
    if name == "oloa":
        return run_oloa(**kw)
    if name == "zeta4":
        return run_zeta4(**kw)
    if name == "triple":
        return run_triple(**kw)
    if name.startswith("amtagpa:"):
        return run_amtagpa(_parameter(name), **kw)
    if name.startswith("dilcher:"):
        return run_dilcher(_parameter(name), **kw)
    if name == "dilog":
        return run_dilog(**tol_kw)
    if name == "kummer-newman":
        return run_kummer_newman(**tol_kw)
    if name == "eight-term":
        return run_eight_term(**tol_kw)
    raise PreconditionViolated(f"unknown example {name!r}")


EXAMPLE_NAMES = (
    "cloitre", "oloa", "triple", "amtagpa:2", "amtagpa:3", "amtagpa:4",
    "zeta4", "dilcher:2", "dilcher:3", "dilcher:4", "dilcher:5", "dilcher:6",
    "dilog", "kummer-newman", "eight-term",
)
