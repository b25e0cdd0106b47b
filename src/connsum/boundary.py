"""Boundary condition: arity-1 connected sums as integer combinations of polylogs.

For Z_1((z,k) | (w,l)) the series factors for each top level n into a strict
chain below n (ratio variables z_i/z_{i+1}, exponents k_i), a weak chain whose
entries may touch n (ratios w_i/w_{i+1}, exponents l_i), and a merged top
carrying z_r*w_s with exponent k_r + l_s - 1.  Expanding the product of the
two truncated chains by the harmonic product rule gives harmonic sums, each
stored in its shuffle form (the suffix products of its variables).
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BudgetExceeded, DivergentInput, GuardViolation, ZeroVariable
from .model import Coef, MplExpr, MplTerm, ZTerm, _suffix_products, _tuple_new, is_convergent
from .scalars import ONE, ZERO, Scalar

Chain = tuple[tuple[Scalar, int], ...]

# The most chains one quasi_shuffle may return: 100x or more the largest
# output the test suite and the benchmark pools reach.  The count grows
# exponentially with the lengths of the two chains.
QUASI_SHUFFLE_CAP = 20_000


def _merge(letters: Chain) -> tuple[Scalar, int]:
    v, e = ONE, 0
    for lv, le in letters:
        v = v * lv
        e += le
    return v, e


def quasi_shuffle(strict: Chain, weak: Chain) -> list[Chain]:
    """All order-preserving merges of a strict chain with a weak chain.

    Output chains are strictly increasing level patterns, bottom to top; a
    level holds a strict letter, a block of consecutive weak letters, or both
    merged (variables multiply, exponents add).  Recursion peels the top
    level: take the strict top alone, a weak block alone, or both together.
    More than QUASI_SHUFFLE_CAP merges raise BudgetExceeded.
    """
    if not strict and not weak:
        return [()]
    out: list[Chain] = []
    if strict:
        for c in quasi_shuffle(strict[:-1], weak):
            out.append(c + (strict[-1],))
    for j in range(1, len(weak) + 1):
        block = _merge(weak[len(weak) - j:])
        for c in quasi_shuffle(strict, weak[:len(weak) - j]):
            out.append(c + (block,))
        if strict:
            merged = _merge((strict[-1],) + weak[len(weak) - j:])
            for c in quasi_shuffle(strict[:-1], weak[:len(weak) - j]):
                out.append(c + (merged,))
    if len(out) > QUASI_SHUFFLE_CAP:
        raise BudgetExceeded(
            f"a quasi-shuffle of chains of lengths {len(strict)} and {len(weak)} "
            f"gives {len(out)} terms, over the cap of {QUASI_SHUFFLE_CAP}"
        )
    return out


def _expansion(t: ZTerm) -> Iterator[tuple[Coef, MplTerm]]:
    """The (coefficient, polylog term) items of an arity-1 term's
    polylog expansion, not yet merged: boundary_reduce normalises them."""
    if t.arity != 1:
        raise DivergentInput("boundary reduction applies to arity-1 terms only")
    if t.is_structurally_zero():
        return
    p, bar = t.components[0], t.bar
    if p.is_empty():
        return
    if ZERO in p.z or ZERO in bar.z:
        raise ZeroVariable("boundary reduction needs nonzero variables")
    if not is_convergent(t):
        raise DivergentInput(f"{t} does not converge absolutely")

    r, s = p.dep, bar.dep
    strict: Chain = tuple((p.z[i] / p.z[i + 1], p.k[i]) for i in range(r - 1))
    weak: Chain = tuple((bar.z[i] / bar.z[i + 1], bar.k[i]) for i in range(s - 1))
    top_v = p.z[-1] * bar.z[-1]
    top_e = p.k[-1] + bar.k[-1] - 1

    for j in range(0, s):
        merged_v, merged_e = _merge(weak[len(weak) - j:]) if j else (ONE, 0)
        top = (top_v * merged_v, top_e + merged_e)
        for chain in quasi_shuffle(strict, weak[:len(weak) - j]):
            full = chain + (top,)
            term = _tuple_new(MplTerm, (tuple(e for _, e in full),
                                        _suffix_products(tuple(v for v, _ in full))))
            if not term.guard_ok():
                raise GuardViolation(f"{term} violates the convergence guard")
            yield t.coef, term


def boundary_reduce(t: ZTerm) -> MplExpr:
    """Expand an arity-1 term into shuffle-type polylogarithms.

    The weak chain's top entries may sit at the outer level, so every suffix
    of it can merge into the top slot before the remaining chains stuffle.
    """
    return MplExpr.of(_expansion(t))


def boundary_reduce_all(terms: Iterable[ZTerm]) -> MplExpr:
    """Sum of the polylog expansions of arity-1 terms, normalized once: the
    coefficients are exact, so merging the union gives what merging each
    expansion first would."""
    return MplExpr.of(item for t in terms for item in _expansion(t))
