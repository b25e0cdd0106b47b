"""The rewrite engine: one transport rewrite, and full reduction to arity 1.

A rewrite peels the first n-1 components and the bar simultaneously, solves
the reciprocal constraint for the value received by the last slot, and emits
the n right-hand terms: the move is legal exactly when the received value is
again a nonzero disk point or infinity, plus three boundary bullets guarding
empty slots and unit-circle targets.  (A fourth, that a slot the peel empties
takes no infinity arrow, always holds: a slot peels to infinity only from an
exponent >= 2, which leaves its base non-empty.)  Each emitted term's weight
outside the receiving slot is one less than the input's, so reduction
terminates.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from . import serialize
from .boundary import boundary_reduce_all
from .duality import dual_condition
from .errors import (
    BudgetExceeded,
    DivergentInput,
    DomainError,
    DualConditionViolated,
    NotPeelable,
    NotTransportable,
    NotTransportableStep,
    StepPreconditionFailed,
)
from .model import (
    EMPTY_PAIR,
    Pair,
    ZExpr,
    ZTerm,
    _integer,
    _tuple_new,
    arrow,
    drop_all_empty_components,
    is_convergent,
    peel,
    swap_components,
    zterm,
)
from .scalars import INF, ZERO, Scalar, in_reciprocal_ball, reciprocal_sum

Trace = list

# Budgets on the two paths here that grow exponentially with the input, each
# 100x or more the largest size the test suite and the benchmark pools reach:
# the terms of one generation of reduce_to_z1 after merging, and the
# reciprocal-ball tests of one condition_violation call.
FRONTIER_CAP = 50_000
BALL_TESTS_CAP = 10_000


def transport_step(t: ZTerm) -> ZExpr:
    """Apply one transport rewrite to a term of arity >= 2.

    Components 1..n-1 and the bar must all be peelable; the receiving slot is
    the last component.  Raises NotTransportableStep naming the violated
    precondition.
    """
    return ZExpr.of(_rewrite(t))


def _peel_slot(p: Pair, slot: str, name: str):
    try:
        return peel(p, slot)
    except NotPeelable as exc:
        raise NotTransportableStep(f"{name} cannot be peeled: {exc}") from exc


def _rewrite(t: ZTerm) -> list[ZTerm]:
    """transport_step's conclusions as emitted, one per peeled slot, before
    any merging."""
    n = t.arity
    if n < 2:
        raise NotTransportableStep("transport needs arity >= 2")
    head = t.components[:-1]
    peels = [_peel_slot(p, "component", f"component {i + 1}") for i, p in enumerate(head)]
    bar_t, bar_base, _ = _peel_slot(t.bar, "bar", "the bar")
    recv = t.components[-1]

    inv_recv_v = bar_t - reciprocal_sum(v for v, _, _ in peels)
    if inv_recv_v.is_zero():
        recv_v: Scalar = INF
    elif inv_recv_v.abs_geq_one():
        recv_v = inv_recv_v.inv()
    else:
        raise NotTransportableStep(
            f"received value 1/v = {inv_recv_v} is neither 0 nor of modulus >= 1"
        )

    if recv.is_empty() and recv_v.is_inf:
        raise NotTransportableStep(
            "receiving slot is empty and the reciprocal sum equals the bar value"
        )
    if n == 2 and not bar_t.is_inf and bar_t.abs_eq_one():
        v1 = peels[0][0]
        if peels[0][1].is_empty() and (bar_t - v1.inv()).abs_eq_one():
            raise NotTransportableStep(
                "emptying slot with |bar value| = 1 needs |t - 1/v| != 1"
            )
        if recv.is_empty() and v1.abs_eq_one():
            raise NotTransportableStep(
                "empty receiving slot with |bar value| = 1 needs |v| != 1"
            )

    recv_sign, recv_new = arrow(recv, recv_v)
    coef = t.coef
    out: list[ZTerm] = []
    for i, (_, base_i, s_i) in enumerate(peels):
        comps = head[:i] + (base_i,) + head[i + 1:] + (recv_new,)
        out.append(_tuple_new(ZTerm, (-coef if s_i * recv_sign > 0 else coef, comps, t.bar)))
    comps = head + (recv_new,)
    out.append(_tuple_new(ZTerm, (-coef if recv_sign > 0 else coef, comps, bar_base)))
    return out


def condition_violation(others: Sequence[Pair], bar: Pair) -> Optional[str]:
    """First violated transportability bullet for the non-receiving
    components others against bar, or None when all hold.

    The bullets: every coordinate pick from every non-empty subset of others
    lies in the reciprocal ball at every bar target (each bar value, plus 0
    when some bar exponent exceeds 1 and vertical bar moves exist); no first
    variable z has |w - 1/z| = 1 for a bar value w on the unit circle; and
    when some component can present a vertical move, no bar value lies
    strictly inside the punctured disk.  Raises BudgetExceeded, before any
    test, when the first bullet would take more than BALL_TESTS_CAP tests.
    """
    targets = list(bar.z)
    if any(e >= 2 for e in bar.k):
        targets.append(ZERO)
    picks = 1  # the coordinate picks over all subsets, the empty one included
    for p in others:
        picks *= 1 + len(p.z)
    tests = (picks - 1) * len(targets)
    if tests > BALL_TESTS_CAP:
        raise BudgetExceeded(
            f"the transportability check needs {tests} reciprocal-ball tests, "
            f"over the cap of {BALL_TESTS_CAP}"
        )
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            for vs in itertools.product(*(p.z for p in subset)):
                for tau in targets:
                    if not in_reciprocal_ball(vs, tau):
                        return (
                            f"variables {[str(v) for v in vs]} leave the "
                            f"reciprocal ball at {tau}"
                        )
    for w in bar.z:
        if w.abs_eq_one():
            for i, p in enumerate(others):
                if (w - p.z[0].inv()).abs_eq_one():
                    return f"|w - 1/z| = 1 for bar value {w} and component {i + 1}"
    if any(any(e >= 2 for e in p.k) for p in others):
        for tau in bar.z:
            if not (tau.is_zero() or tau.abs_eq_one()):
                return (
                    f"a vertical move can face bar value {tau} strictly inside "
                    "the punctured disk"
                )
    return None


def _slot(j) -> int:
    """A receiving slot as an int; one out of range does not qualify."""
    return _integer(j, float("-inf"), DomainError, "a receiving slot must be an integer, got")


def is_transportable(t: ZTerm, j: int) -> bool:
    """Whether receiving slot j guarantees every rewrite along the reduction
    (see condition_violation for the bullets checked)."""
    j = _slot(j)
    t = drop_all_empty_components(t)
    if t.is_structurally_zero():
        return True
    n = t.arity
    if not 0 <= j < n:
        return False
    if n == 1:
        return True
    others = t.components[:j] + t.components[j + 1:]
    return condition_violation(others, t.bar) is None


def transportable_pick(t: ZTerm) -> Optional[int]:
    """First receiving slot (tried last to first) passing the condition."""
    t = drop_all_empty_components(t)
    for j in range(t.arity - 1, -1, -1):
        if is_transportable(t, j):
            return j
    return None


def reduce_to_z1(t: ZTerm, j: Optional[int] = None, trace: Optional[Trace] = None) -> ZExpr:
    """Rewrite a transportable term into a combination of arity-1 terms.

    The chosen receiving slot is swapped to the last position, then rewrites
    run until every branch reaches arity 1; emptied components and
    structurally-zero terms are dropped along the way.  A term reached by
    several branches of one generation is rewritten once and recorded once
    per branch.  A traced call keeps its records as terms and, when it
    returns or raises, serializes them once into ``trace`` by
    serialize.trace_to_json, so they share one JSON object per distinct
    scalar, coefficient, pair and tuple of components (a trace is to be read,
    not edited in place), and the records made before an error still reach the
    trace.  A generation of more than FRONTIER_CAP terms raises BudgetExceeded.
    """
    if j is not None:
        j = _slot(j)
    records: list = []  # (rule, premise, conclusions), kept only for a trace
    try:
        t0 = t
        t = drop_all_empty_components(t)
        if t.is_structurally_zero():
            return ZExpr.of([])
        if not is_convergent(t):
            raise DivergentInput(f"{t} does not converge absolutely")
        if t.arity >= 2:
            if j is None:
                j = transportable_pick(t)
                if j is None:
                    raise NotTransportable(f"no receiving slot qualifies for {t0}")
            elif not is_transportable(t, j):
                raise NotTransportable(f"receiving slot {j} does not qualify for {t0}")
            if j != t.arity - 1:
                perm = [i for i in range(t.arity) if i != j] + [j]
                t = swap_components(t, perm)
                if trace is not None:
                    records.append(("swap-components", t0, (t,)))

        out: list[ZTerm] = []
        active = ZExpr.of([t]).as_terms()
        while active:
            batch: list[ZTerm] = []
            # distinct branches can drop their empty components to one key; the
            # transport measure falls by one per generation, so a key recurs
            # only within its generation: rewrite it once, replay it for the repeats
            done: dict = {}
            for u in active:
                v = drop_all_empty_components(u)
                if v is not u and trace is not None:
                    records.append(("drop-empty", u, (v,)))
                # ZExpr.of has dropped the structural zeros, and dropping empty
                # components leaves a term's structural zeroness as it was
                u = v
                if u.arity == 1:
                    out.append(u)
                    continue
                key = u.key()
                seen = done.get(key)
                if seen is None:
                    try:
                        step = _rewrite(u)
                    except NotTransportableStep as exc:
                        raise StepPreconditionFailed(
                            f"rewrite failed after transportability was confirmed: {u}: {exc}"
                        ) from exc
                    done[key] = (u.coef, step)
                else:
                    coef, step = seen
                    if u.coef != coef:
                        ratio = Fraction(u.coef, coef)
                        step = [c.scaled(ratio) for c in step]
                if trace is not None:
                    records.append(("transport-step", u, step))
                batch.extend(step)
            # coalescing structurally equal branches between generations keeps
            # symmetric inputs polynomial instead of exponential
            active = ZExpr.of(batch).as_terms()
            if len(active) > FRONTIER_CAP:
                raise BudgetExceeded(
                    f"a reduction generation holds {len(active)} terms, over the cap "
                    f"of {FRONTIER_CAP}"
                )
        return ZExpr.of(out)
    finally:
        if trace is not None:
            trace.extend(serialize.trace_to_json(records))


def reduce_to_mpl(t: ZTerm, j: Optional[int] = None, trace: Optional[Trace] = None):
    """Full pipeline: reduce to arity 1, then expand every term into
    shuffle-type polylogarithms."""
    return boundary_reduce_all(reduce_to_z1(t, j=j, trace=trace).as_terms())


def reduce_duality(p: Pair) -> tuple[int, Pair]:
    """Transport a dual-condition pair across an arity-2 sum with empty mate.

    Returns the accumulated sign and the pair collected in the receiving
    slot; must agree with the explicit dagger.
    """
    if not dual_condition(p):
        raise DualConditionViolated(f"{p} fails the dual condition")
    term = zterm([p, EMPTY_PAIR])
    while not term.components[0].is_empty():
        surviving = transport_step(term).as_terms()
        if len(surviving) != 1:
            raise StepPreconditionFailed(
                f"duality chain expected one surviving term, got {len(surviving)}"
            )
        term = surviving[0]
    sign = 1 if term.coef > 0 else -1
    if abs(term.coef) != 1:
        raise StepPreconditionFailed(f"duality chain coefficient {term.coef} not a sign")
    return sign, term.components[1]
