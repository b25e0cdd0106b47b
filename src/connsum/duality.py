"""Dual condition, block decomposition, and the explicit dagger involution.

A pair passes the dual condition when every variable sits in the reciprocal
ball at 1 (Re(z) <= 1/2 inside the punctured disk, or z = 1), the first
variable avoids the Re = 1/2 boundary, and a non-admissible index forces the
last variable off the unit circle.  Such a pair splits uniquely into blocks

    [admissible all-ones block] [run of (1,1) letters] [exceptional letter]

repeated d times and closed by one admissible all-ones block; the dagger
reverses the blocks, dualizes each admissible block, swaps run lengths with
exceptional exponents, and maps each exceptional variable through z/(z-1).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DualConditionViolated
from .model import (
    Index,
    MplExpr,
    MplTerm,
    Pair,
    Relation,
    _tuple_new,
    is_admissible,
)
from .scalars import ONE, Scalar


def iota(z: tuple[Scalar, ...]) -> int:
    """Number of entries different from 1; controls the duality sign."""
    return sum(1 for v in z if not v.is_one())


def in_ball_at_one(v: Scalar) -> bool:
    """Finite nonzero v with |v| <= 1 and Re(v) <= 1/2, or v = 1: the pair
    variables of the dual condition and the letters e_v of the word algebra."""
    if v.is_inf or v.is_zero() or not v.in_closed_disk():
        return False
    return v.re_leq_half() or v.is_one()


def dual_condition(p: Pair) -> bool:
    if p.is_empty():
        return True
    if any(not in_ball_at_one(v) for v in p.z):
        return False
    if p.z[0].re_eq_half():
        return False
    if not is_admissible(p.k) and p.z[-1].abs_eq_one():
        return False
    return True


def mzv_dual(k: Index) -> Index:
    """Classical dual of an admissible index via the (a_h, b_h) run encoding."""
    if not is_admissible(k):
        raise DualConditionViolated(f"{k} is not admissible")
    if not k:
        return ()
    runs: list[tuple[int, int]] = []  # (a_h, b_h): a-1 ones then b+1
    i = 0
    while i < len(k):
        a = 1
        while k[i] == 1:
            a += 1
            i += 1
        runs.append((a, k[i] - 1))
        i += 1
    out: list[int] = []
    for a, b in reversed(runs):
        out.extend([1] * (b - 1))
        out.append(a + 1)
    return tuple(out)


@dataclass(frozen=True)
class DualBlocks:
    """Unique block decomposition of a dual-condition pair.

    blocks[i] = (admissible index l_i, run length a_i, exceptional variable
    w_i, its exponent b_i); tail is the closing admissible index l_{d+1}.
    """

    blocks: tuple[tuple[Index, int, Scalar, int], ...]
    tail: Index

    @property
    def d(self) -> int:
        return len(self.blocks)

    def reassemble(self) -> Pair:
        letters: list[tuple[Scalar, int]] = []
        for l_i, a_i, w_i, b_i in self.blocks:
            letters.extend((ONE, e) for e in l_i)
            letters.extend((ONE, 1) for _ in range(a_i - 1))
            letters.append((w_i, b_i))
        letters.extend((ONE, e) for e in self.tail)
        return Pair.from_letters(letters)


def decompose(p: Pair) -> DualBlocks:
    if not dual_condition(p):
        raise DualConditionViolated(f"{p} fails the dual condition")
    return _blocks(p)


def _blocks(p: Pair) -> DualBlocks:
    """decompose(p) for a pair known to pass the dual condition."""
    blocks: list[tuple[Index, int, Scalar, int]] = []
    seg: list[int] = []  # pending all-ones-variable exponents
    for v, e in p.letters():
        if v.is_one():
            seg.append(e)
            continue
        run = 0
        while seg and seg[-1] == 1:
            seg.pop()
            run += 1
        l_i = tuple(seg)
        blocks.append((l_i, run + 1, v, e))
        seg = []
    tail = tuple(seg)
    if not is_admissible(tail):
        # unreachable for dual-condition pairs; guarded for safety
        raise DualConditionViolated(f"{p}: closing all-ones segment {tail} not admissible")
    return DualBlocks(tuple(blocks), tail)


def dagger(p: Pair) -> tuple[int, Pair]:
    """Explicit dual: returns ((-1)**d, reversed-and-dualized pair)."""
    if not dual_condition(p):
        raise DualConditionViolated(f"{p} fails the dual condition")
    return _dagger(p)


def _dagger(p: Pair) -> tuple[int, Pair]:
    """dagger(p) for a pair known to pass the dual condition.  The dual is
    built without validation: its exponents are positive, and each variable
    is 1 or the Mobius image of a ball-at-one point other than 1, which lies
    in the closed disk."""
    blocks = _blocks(p)
    letters: list[tuple[Scalar, int]] = []
    letters.extend((ONE, e) for e in mzv_dual(blocks.tail))
    for l_i, a_i, w_i, b_i in reversed(blocks.blocks):
        letters.extend((ONE, 1) for _ in range(b_i - 1))
        letters.append((w_i.mobius(), a_i))
        letters.extend((ONE, e) for e in mzv_dual(l_i))
    sign = -1 if blocks.d % 2 else 1
    return sign, _tuple_new(Pair, (tuple(e for _, e in letters), tuple(v for v, _ in letters)))


def normalize_to_dual_basis(expr: MplExpr) -> MplExpr:
    """Rewrite each term whose variables leave the positive-real ladder via
    its dual; integral reductions land on leading-1, positive-variable terms.
    A shuffle term with a variable off the closed disk is a DomainError."""
    items = []
    for coef, term in expr.terms:
        # a harmonic term passes through: its variables may leave the closed disk
        if term.kind != "shuffle" or all(v.in_unit_interval() for v in term.z):
            items.append((coef, term))
            continue
        p = _tuple_new(Pair, (term.k, term.z))
        if not dual_condition(p):
            Pair(*p)  # the validating constructor rejects a variable off the disk
            items.append((coef, term))
            continue
        sign, dual = _dagger(p)
        items.append((coef * sign, _tuple_new(MplTerm, ("shuffle", dual.k, dual.z))))
    return MplExpr.of(items)


def duality_relation(p: Pair) -> Relation:
    """Two-sided relation Li(p) = sign * Li(p†) as shuffle polylog expressions."""
    sign, dual = dagger(p)
    lhs = MplExpr.single(MplTerm("shuffle", p.k, p.z))
    rhs = MplExpr.single(MplTerm("shuffle", dual.k, dual.z), sign)
    return Relation(lhs=lhs, rhs=rhs, provenance={
        "route": "duality",
        "iota": iota(p.z),
        "pair": str(p),
    })
