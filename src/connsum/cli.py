"""Command-line surface: reduce, eval, dual, ohno, verify, examples.

Exit codes: 0 pass, 1 numeric-verification failure, 2 precondition or domain
error, 3 internal invariant breach.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .duality import dagger, duality_relation, normalize_to_dual_basis
from .errors import ConnsumError, NotConverged, StepPreconditionFailed
from .named_examples import EXAMPLE_NAMES, run_example
from .numeric import eval_zterm, verify_relation
from .ohno import ohno_relation
from .transport import reduce_to_mpl

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_reduce(args) -> int:
    term = serialize.zterm_from_json(_load(args.term))
    trace: list = []
    expr = reduce_to_mpl(term, trace=trace)
    normalized = normalize_to_dual_basis(expr)
    payload = {
        "mpl": serialize.mplexpr_to_json(normalized),
        "raw_mpl": serialize.mplexpr_to_json(expr),
        "trace": trace,
    }
    lines = [f"input: {term}", f"reduced: {expr}"]
    if normalized != expr:
        lines.append(f"dual-normalized: {normalized}")
    lines.append(f"trace: {len(trace)} rewrite records")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    term = serialize.zterm_from_json(_load(args.term))
    report = eval_zterm(term, args.bound, tol=args.tol)
    _emit(args, report.to_json(),
          f"value = {report.value}\ntruncation = {report.truncation}\n"
          f"tail_estimate = {report.tail_estimate:.3e}\nconverged = {report.converged}")
    return EXIT_OK


def cmd_dual(args) -> int:
    pair = serialize.pair_from_json(_load(args.pair))
    sign, dual = dagger(pair)
    rel = duality_relation(pair)
    payload = {
        "sign": sign,
        "dual": serialize.pair_to_json(dual),
        "relation": serialize.relation_to_json(rel),
    }
    _emit(args, payload, f"dual of {pair}: sign {sign}, pair {dual}\n{rel}")
    return EXIT_OK


def cmd_ohno(args) -> int:
    pair = serialize.pair_from_json(_load(args.pair))
    rel = ohno_relation(pair, args.h)
    payload = {"relation": serialize.relation_to_json(rel)}
    _emit(args, payload, str(rel))
    return EXIT_OK


def cmd_verify(args) -> int:
    rel = serialize.relation_from_json(_load(args.relation))
    report = verify_relation(rel, bound=args.bound, tol=args.tol)
    _emit(args, report.to_json(),
          f"lhs = {report.lhs_value}\nrhs = {report.rhs_value}\n"
          f"difference = {report.difference:.3e} (tol {report.tol:.1e}, "
          f"tails {report.tail_total:.3e})\nok = {report.ok}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_examples(args) -> int:
    names = [args.name] if args.name else list(EXAMPLE_NAMES)
    results = [run_example(n, bound=args.bound, tol=args.tol) for n in names]
    for res in results:
        if args.json:
            continue
        status = "pass" if res.ok else "FAIL"
        extra = ""
        if res.report is not None:
            extra = f"  diff={res.report.difference:.3e} tol={res.report.tol:.1e}"
        print(f"[{status}] {res.name}{extra}")
        for note in res.notes:
            print(f"    {note}")
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2, sort_keys=True))
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="connsum",
        description="Reduce multivariable connected sums to polylogarithms "
                    "and certify the emitted identities numerically.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--text", dest="json", action="store_false",
                    help="human-readable output (default)")
    ap.set_defaults(json=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a connected-sum term to polylogs")
    p.add_argument("--term", required=True, help="JSON file with the term")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval", help="numerically evaluate a term")
    p.add_argument("--term", required=True)
    p.add_argument("--bound", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dual", help="dual pair and duality relation")
    p.add_argument("--pair", required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("ohno", help="lift-by-h relation for a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--h", type=int, default=1)
    p.set_defaults(func=cmd_ohno)

    p = sub.add_parser("verify", help="numerically verify a relation record")
    p.add_argument("--relation", required=True)
    p.add_argument("--bound", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("examples", help="reproduce named identities")
    p.add_argument("--name", help="one example (default: all)")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StepPreconditionFailed as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ConnsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
