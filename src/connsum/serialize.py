"""JSON codecs for every value that crosses the CLI boundary.

Rationals travel as [numerator, denominator]; integers too wide for exact
double round-trips are emitted as decimal strings and both forms are accepted
on input.  A finite scalar is {"re": [n, d], "im": [n, d]}, infinity is the
string "inf"; a bare integer is accepted as a scalar shorthand.  A float that
is not finite is the string "inf", "-inf" or "nan", so every document is
RFC 8259 JSON; a complex number is [re, im].  A reader raises DomainError
naming a required field that is missing.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .model import Coef, MplExpr, MplTerm, Pair, Relation, ZExpr, ZTerm, _Memo
from .scalars import INF, Scalar

_SAFE = 1 << 53


def _int_out(v: int):
    return v if abs(v) < _SAFE else str(v)


def float_to_json(x: float):
    """x, or its str ("inf", "-inf", "nan") when JSON has no number for it."""
    return x if math.isfinite(x) else str(x)


def complex_to_json(z: complex) -> list:
    return [float_to_json(z.real), float_to_json(z.imag)]


def _int_in(v) -> int:
    if isinstance(v, bool):
        raise DomainError("booleans are not integers here")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            pass
    raise DomainError(f"expected an integer, got {v!r}")


def _list_in(v, what: str) -> list:
    if not isinstance(v, list):
        raise DomainError(f"expected a list of {what}, got {v!r}")
    return v


def _object_in(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise DomainError(f"expected {what} object, got {v!r}")
    return v


def _field(obj: dict, name: str):
    try:
        return obj[name]
    except KeyError:
        raise DomainError(f"missing field {name!r}") from None


def frac_to_json(q: Fraction) -> list:
    return [_int_out(q.numerator), _int_out(q.denominator)]


def frac_from_json(obj) -> Fraction:
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return Fraction(_int_in(obj))
    if isinstance(obj, list) and len(obj) == 2:
        num, den = _int_in(obj[0]), _int_in(obj[1])
        if den == 0:
            raise DomainError(f"zero denominator in {obj!r}")
        return Fraction(num, den)
    raise DomainError(f"expected [num, den], got {obj!r}")


def scalar_to_json(z: Scalar):
    if z.is_inf:
        return "inf"
    return {"re": frac_to_json(z.re), "im": frac_to_json(z.im)}


def scalar_from_json(obj) -> Scalar:
    if obj == "inf":
        return INF
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return Scalar.of(_int_in(obj))
    if isinstance(obj, dict):
        return Scalar(frac_from_json(obj.get("re", 0)), frac_from_json(obj.get("im", 0)))
    raise DomainError(f"cannot parse scalar from {obj!r}")


def _pair_layout(p, scalar) -> dict:
    """The "k" and "z" fields of a Pair or an MplTerm; scalar writes each variable."""
    return {"k": list(p.k), "z": list(map(scalar, p.z))}


def _term_layout(t: ZTerm, coef, pair, components) -> dict:
    return {"coef": coef(t.coef), "components": components(t.components), "bar": pair(t.bar)}


def pair_to_json(p: Pair) -> dict:
    return _pair_layout(p, scalar_to_json)


def pair_from_json(obj) -> Pair:
    _object_in(obj, "a pair")
    k = tuple(_int_in(e) for e in _list_in(obj.get("k", []), "exponents"))
    z = obj.get("z")
    if z is None:
        zz = tuple(Scalar.of(1) for _ in k)  # all-ones shorthand
    else:
        zz = tuple(scalar_from_json(v) for v in _list_in(z, "scalars"))
    return Pair(k, zz)


def zterm_to_json(t: ZTerm) -> dict:
    return _term_layout(t, frac_to_json, pair_to_json, lambda cs: list(map(pair_to_json, cs)))


def trace_to_json(records) -> list[dict]:
    """The JSON of a trace's (rule, premise, conclusions) records, whose
    premise and conclusions are terms.  The records share one object per
    distinct scalar, coefficient, pair and tuple of components, each made
    once per call."""
    scalar = _Memo(scalar_to_json).__getitem__
    coef = _Memo(frac_to_json).__getitem__
    pair = _Memo(lambda p: _pair_layout(p, scalar)).__getitem__
    components = _Memo(lambda cs: list(map(pair, cs))).__getitem__

    def term(t: ZTerm) -> dict:
        return _term_layout(t, coef, pair, components)

    return [{"rule": rule, "premise": term(p), "conclusions": [term(c) for c in cs]}
            for rule, p, cs in records]


def zterm_from_json(obj) -> ZTerm:
    _object_in(obj, "a term")
    coef = frac_from_json(obj.get("coef", 1))
    comps = tuple(pair_from_json(p) for p in _list_in(_field(obj, "components"), "pairs"))
    bar = pair_from_json(obj["bar"]) if "bar" in obj else Pair.ones((1,))
    return ZTerm(coef, comps, bar)


def zexpr_to_json(e: ZExpr) -> list:
    return [zterm_to_json(t) for t in e.as_terms()]


def zexpr_from_json(obj) -> ZExpr:
    return ZExpr.of([zterm_from_json(t) for t in _list_in(obj, "terms")])


def mplterm_to_json(t: MplTerm, coef: Coef | None = None) -> dict:
    out = {"kind": t.kind, **_pair_layout(t, scalar_to_json)}
    if coef is not None:
        out["coef"] = frac_to_json(coef)
    return out


def mplterm_from_json(obj) -> MplTerm:
    _object_in(obj, "a polylog term")
    return MplTerm(
        obj.get("kind", "shuffle"),
        tuple(_int_in(e) for e in _list_in(_field(obj, "k"), "exponents")),
        tuple(scalar_from_json(v) for v in _list_in(_field(obj, "z"), "scalars")),
    )


def mplexpr_to_json(e: MplExpr) -> list:
    return [mplterm_to_json(t, coef=c) for c, t in e.terms]


def mplexpr_from_json(obj) -> MplExpr:
    items = []
    for rec in _list_in(obj, "terms"):
        term = mplterm_from_json(rec)
        items.append((frac_from_json(rec.get("coef", 1)), term))
    return MplExpr.of(items)


def _side_to_json(side) -> dict:
    if isinstance(side, ZExpr):
        return {"type": "z", "terms": zexpr_to_json(side)}
    return {"type": "mpl", "terms": mplexpr_to_json(side)}


def _side_from_json(obj):
    terms = _field(_object_in(obj, "a relation side"), "terms")
    return zexpr_from_json(terms) if obj.get("type") == "z" else mplexpr_from_json(terms)


def relation_to_json(r: Relation) -> dict:
    return {
        "lhs": _side_to_json(r.lhs),
        "rhs": _side_to_json(r.rhs),
        "provenance": r.provenance,
    }


def relation_from_json(obj) -> Relation:
    _object_in(obj, "a relation")
    return Relation(
        lhs=_side_from_json(_field(obj, "lhs")),
        rhs=_side_from_json(_field(obj, "rhs")),
        provenance=dict(_object_in(obj.get("provenance", {}), "a provenance")),
    )
