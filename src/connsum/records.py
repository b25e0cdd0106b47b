"""Shared record types: relations and numeric evaluation reports."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

from .model import MplExpr, ZExpr

Side = Union[MplExpr, ZExpr]


@dataclass(frozen=True)
class Relation:
    """A two-sided identity; each side a linear combination of term values."""

    lhs: Side
    rhs: Side
    provenance: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class EvalReport:
    """Result of a truncated numerical evaluation.

    truncation is the bound argument; an arity-1 term, evaluated through its
    boundary expansion, does not use it.  tail_estimate is proved for an
    arity-1 term; at arity >= 2 the escape rows' remainder and drift and a
    constant rounding term are heuristic.  converged means the estimate is
    below the caller tolerance.
    """

    value: complex
    truncation: int
    tail_estimate: float
    converged: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "value": [self.value.real, self.value.imag],
            "truncation": self.truncation,
            "tail_estimate": self.tail_estimate,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking |lhs - rhs| <= tol for a relation."""

    ok: bool
    lhs_value: complex
    rhs_value: complex
    difference: float
    tol: float
    tail_total: float
    per_term: tuple[tuple[str, complex], ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "lhs": [self.lhs_value.real, self.lhs_value.imag],
            "rhs": [self.rhs_value.real, self.rhs_value.imag],
            "difference": self.difference,
            "tol": self.tol,
            "tail_total": self.tail_total,
            "terms": [[name, [v.real, v.imag]] for name, v in self.per_term],
        }
