"""Command-line surface: reduce, eval, dual, ohno, verify, examples.

Each command is a COMMANDS row whose handler returns (payload, text, exit
code); main alone maps errors to exit codes and prints.  A payload is built
by serialize and the reports' to_json, which spell a non-finite float as a
string, so main writes strict JSON.

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


def _reduce(args):
    term = serialize.zterm_from_json(_load(args.term))
    trace: list = []
    expr = reduce_to_mpl(term, trace=trace)
    normalized = normalize_to_dual_basis(expr)
    lines = [f"input: {term}", f"reduced: {expr}"]
    if normalized != expr:
        lines.append(f"dual-normalized: {normalized}")
    lines.append(f"trace: {len(trace)} rewrite records")
    payload = {"mpl": serialize.mplexpr_to_json(normalized),
               "raw_mpl": serialize.mplexpr_to_json(expr), "trace": trace}
    return payload, "\n".join(lines), EXIT_OK


def _eval(args):
    report = eval_zterm(serialize.zterm_from_json(_load(args.term)), args.bound, tol=args.tol)
    return report.to_json(), (
        f"value = {report.value}\ntruncation = {report.truncation}\n"
        f"tail_estimate = {report.tail_estimate:.3e}\nconverged = {report.converged}"), EXIT_OK


def _dual(args):
    pair = serialize.pair_from_json(_load(args.pair))
    sign, dual = dagger(pair)
    rel = duality_relation(pair)
    payload = {"sign": sign, "dual": serialize.pair_to_json(dual),
               "relation": serialize.relation_to_json(rel)}
    return payload, f"dual of {pair}: sign {sign}, pair {dual}\n{rel}", EXIT_OK


def _ohno(args):
    rel = ohno_relation(serialize.pair_from_json(_load(args.pair)), args.h)
    return {"relation": serialize.relation_to_json(rel)}, str(rel), EXIT_OK


def _verify(args):
    rel = serialize.relation_from_json(_load(args.relation))
    report = verify_relation(rel, bound=args.bound, tol=args.tol)
    return report.to_json(), (
        f"lhs = {report.lhs_value}\nrhs = {report.rhs_value}\n"
        f"difference = {report.difference:.3e} (tol {report.tol:.1e}, "
        f"tails {report.tail_total:.3e})\nok = {report.ok}"
    ), EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _examples(args):
    names = [args.name] if args.name else list(EXAMPLE_NAMES)
    results = [run_example(n, bound=args.bound, tol=args.tol) for n in names]
    lines = []
    for res in results:
        lines.append(f"[{'pass' if res.ok else 'FAIL'}] {res.name}"
                     f"  diff={res.report.difference:.3e} tol={res.report.tol:.1e}")
        lines.extend(f"    {note}" for note in res.notes)
    code = EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED
    return [r.to_json() for r in results], "\n".join(lines), code


_NUMERIC = {"--bound": {"type": int, "default": 400}, "--tol": {"type": float, "default": 1e-6}}

# name -> (help, {option: add_argument keywords}, handler)
COMMANDS = {
    "reduce": ("reduce a connected-sum term to polylogs",
               {"--term": {"required": True, "help": "JSON file with the term"}}, _reduce),
    "eval": ("numerically evaluate a term", {"--term": {"required": True}, **_NUMERIC}, _eval),
    "dual": ("dual pair and duality relation", {"--pair": {"required": True}}, _dual),
    "ohno": ("lift-by-h relation for a pair",
             {"--pair": {"required": True}, "--h": {"type": int, "default": 1}}, _ohno),
    "verify": ("numerically verify a relation record",
               {"--relation": {"required": True}, **_NUMERIC}, _verify),
    "examples": ("reproduce named identities",
                 {"--name": {"help": "one example (default: all)"},
                  "--bound": {"type": int}, "--tol": {"type": float}}, _examples),
}


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
    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = COMMANDS[args.command][2](args)
    except StepPreconditionFailed as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ConnsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError) as exc:  # a missing file, or text that is not JSON
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    return code
