import ast
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import connsum
from connsum import boundary, cli, serialize, transport
from connsum.cli import main
from connsum.model import MplExpr, MplTerm, Pair, Relation, ZExpr, zterm
from connsum.named_examples import ExampleResult
from connsum.scalars import ONE, sc

README = Path(__file__).resolve().parent.parent / "README.md"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_reduce_command(tmp_path, capsys):
    term = _write(tmp_path, "t.json", {
        "coef": [1, 1],
        "components": [{"k": [1]}, {"k": [1]}],
        "bar": {"k": [1, 1]},
    })
    assert main(["--json", "reduce", "--term", term]) == 0
    out = json.loads(capsys.readouterr().out)
    expr = serialize.mplexpr_from_json(out["mpl"])
    expected = MplExpr.of([
        (1, MplTerm("shuffle", (1, 2), (ONE, ONE))),
        (2, MplTerm("shuffle", (3,), (ONE,))),
    ])
    assert expr == expected
    assert out["trace"]


def test_eval_command_round_trip(tmp_path, capsys):
    # Z2(1;1) and Z1((1)|(2)) both equal zeta(2)
    for t in (zterm([Pair.ones((1,)), Pair.ones((1,))]), zterm([Pair.ones((1,))], Pair.ones((2,)))):
        term = _write(tmp_path, "t.json", serialize.zterm_to_json(t))
        assert main(["--json", "eval", "--term", term, "--bound", "200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"][0] - 1.6449340668) < 1e-6
        assert out["converged"]
    # a tail bound past float64 is reported as not converged, not raised as
    # OverflowError
    deep = Pair.ones((1,) * 74 + (2,))
    term = _write(tmp_path, "t.json", serialize.zterm_to_json(zterm([deep, deep])))
    assert main(["--json", "eval", "--term", term, "--bound", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is False and out["tail_estimate"] == "inf"


def test_dual_command(tmp_path, capsys):
    pair = _write(tmp_path, "p.json", {"k": [1, 2], "z": [{"re": [-1, 1]}, 1]})
    assert main(["--json", "dual", "--pair", pair]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sign"] == -1
    dual = serialize.pair_from_json(out["dual"])
    assert dual == Pair((2, 1), (ONE, sc(1) / sc(2)))


def test_ohno_command(tmp_path, capsys):
    pair = _write(tmp_path, "p.json", {"k": [3]})
    assert main(["--json", "ohno", "--pair", pair, "--h", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    rel = serialize.relation_from_json(out["relation"])
    assert len(rel.rhs.terms) == 2


def test_verify_command_exit_codes(tmp_path, capsys):
    good = Relation(
        lhs=ZExpr.of([zterm([Pair.ones((1,)), Pair.ones((1,))])]),
        rhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))),
        provenance={},
    )
    path = _write(tmp_path, "good.json", serialize.relation_to_json(good))
    assert main(["verify", "--relation", path, "--tol", "1e-4"]) == 0
    capsys.readouterr()
    bad = Relation(
        lhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))),
        rhs=MplExpr.single(MplTerm("shuffle", (3,), (ONE,))),
        provenance={},
    )
    path = _write(tmp_path, "bad.json", serialize.relation_to_json(bad))
    assert main(["verify", "--relation", path, "--tol", "1e-6"]) == 1
    capsys.readouterr()
    # both sides are pure polylogs, which take no bound, yet -5 is rejected
    assert main(["verify", "--relation", path, "--bound", "-5"]) == 2
    assert "truncation bound" in capsys.readouterr().err


def test_verify_infinite_polylog_variable_exit_code(tmp_path, capsys):
    side = {"type": "mpl", "terms": [{"kind": "harmonic", "k": [1, 1], "z": [0, "inf"]}]}
    rel = _write(tmp_path, "inf.json", {"lhs": side, "rhs": {"type": "mpl", "terms": []}})
    assert main(["verify", "--relation", rel]) == 2
    assert capsys.readouterr().err.startswith("error: polylog variables must be finite, got inf")


def test_verify_unbounded_piece_exit_code(tmp_path, capsys):
    # a piece bounded past float64's range (it ended in OverflowError and a
    # traceback) is not converged: exit 1
    deep = MplTerm("shuffle", (1,) * 59 + (2,), (sc(Fraction(999999, 1000000)),) * 60)
    rel = Relation(lhs=MplExpr.single(deep), rhs=MplExpr.zero(), provenance={})
    path = _write(tmp_path, "deep.json", serialize.relation_to_json(rel))
    assert main(["verify", "--relation", path]) == 1
    assert "not converged" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # the library runs on numpy alone: a fresh interpreter that imports it and
    # checks a named identity holding zeta(3) has loaded no scipy module
    src = os.path.dirname(os.path.dirname(connsum.__file__))
    code = ("import sys, connsum; ok = connsum.run_example('amtagpa:2').ok; "
            "print(ok, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["True", "[]"], out


def test_modules_import_only_names_they_use():
    # every name a module of the package imports is read in it (the package's
    # __init__ imports to re-export)
    package = os.path.dirname(connsum.__file__)
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(set(imported) - used)
        assert not unused, f"{fname} imports {unused} and never reads them"


def test_python_m_connsum_runs():
    # the package runs as a module, through cli.main and its exit code
    src = os.path.dirname(os.path.dirname(connsum.__file__))
    run = subprocess.run([sys.executable, "-m", "connsum", "examples", "--name", "cloitre"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("[pass] cloitre"), run.stdout


def test_domain_error_exit_code(tmp_path, capsys):
    pair = _write(tmp_path, "p.json", {"k": [1]})  # fails the dual condition
    assert main(["dual", "--pair", pair]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "nope.json")
    assert main(["eval", "--term", missing]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("module, cap", [(transport, "FRONTIER_CAP"),
                                         (transport, "BALL_TESTS_CAP"),
                                         (boundary, "QUASI_SHUFFLE_CAP")])
def test_budget_exit_code(tmp_path, capsys, monkeypatch, module, cap):
    t = zterm([Pair.ones((1, 2)), Pair.ones((2,)), Pair.ones((1,))], Pair.ones((1, 1)))
    term = _write(tmp_path, "t.json", serialize.zterm_to_json(t))
    assert main(["reduce", "--term", term]) == 0
    monkeypatch.setattr(module, cap, 1)
    assert main(["reduce", "--term", term]) == 2
    assert "over the cap of 1" in capsys.readouterr().err


def test_examples_command(capsys):
    assert main(["--json", "examples", "--name", "cloitre"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["ok"] is True
    assert main(["examples", "--name", "cloitre", "--bound", "0"]) == 2
    # dilog's sides are pure polylogs and take no bound, yet 0 is still rejected
    assert main(["examples", "--name", "dilog", "--bound", "0"]) == 2
    capsys.readouterr()
    # a parameter that is not an integer names the example; it was a bare ValueError
    for name in ("amtagpa:x", "dilcher:2.0"):
        assert main(["examples", "--name", name]) == 2, name
        assert capsys.readouterr().err.startswith(f"error: example {name!r}"), name
    # only ASCII decimal digits: int() would read each of these as a number
    for name in ("amtagpa:2_0", "amtagpa: 3", "amtagpa:+2", "amtagpa:\u0663", "amtagpa:"):
        assert main(["examples", "--name", name]) == 2, name
        assert capsys.readouterr().err == (
            f"error: example {name!r} needs an integer parameter\n"), name
    assert main(["--json", "examples", "--name", "amtagpa:02", "--bound", "20"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["name"] == "amtagpa:2"
    # the text form: one status line with the difference, then its notes indented
    assert main(["examples", "--name", "cloitre"]) == 0
    status, note = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\[pass\] cloitre  diff=\d\.\d{3}e-\d\d tol=1\.0e-04", status)
    assert note.startswith("    |value - pi^2/6| = ")


def test_emitted_json_reparses(tmp_path, capsys):
    pair = _write(tmp_path, "p.json", {"k": [1, 2], "z": [{"re": [-1, 1]}, 1]})
    assert main(["--json", "ohno", "--pair", pair, "--h", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    rel = serialize.relation_from_json(out["relation"])
    again = serialize.relation_from_json(serialize.relation_to_json(rel))
    assert again.lhs == rel.lhs and again.rhs == rel.rhs


def test_malformed_term_is_a_domain_error(tmp_path, capsys):
    bad_terms = [
        {"components": [{"k": [1]}, {"k": [1]}], "bar": {"k": [1]}, "coef": [1, 0]},
        {"components": [{"k": [1], "z": [{"re": [1, 0]}]}, {"k": [1]}], "bar": {"k": [1]}},
        [1, 2],
        {"components": 5},
        {"components": [{"k": 5}]},
        {"components": [{"k": [1], "z": 7}], "bar": {"k": [1]}},
        {"components": [{"k": [1], "z": [{"re": "1/2"}]}, {"k": [1]}], "bar": {"k": [1]}},
    ]
    for payload in bad_terms:
        term = _write(tmp_path, "t.json", payload)
        assert main(["reduce", "--term", term]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_missing_field_is_named(tmp_path, capsys):
    # each required field a reader looks up is named, exit 2; it was a bare
    # KeyError that only a catch-all turned into exit 2
    side = {"type": "mpl", "terms": [{"k": [2], "z": [1]}]}
    cases = [("reduce", "--term", {"bar": {"k": [1]}}, "components"),
             ("verify", "--relation", {"rhs": side}, "lhs"),
             ("verify", "--relation", {"lhs": side}, "rhs"),
             ("verify", "--relation", {"lhs": side, "rhs": {"type": "z"}}, "terms"),
             ("verify", "--relation", {"lhs": side, "rhs": {"terms": [{"z": [1]}]}}, "k"),
             ("verify", "--relation", {"lhs": side, "rhs": {"terms": [{"k": [2]}]}}, "z")]
    for command, flag, payload, field in cases:
        assert main([command, flag, _write(tmp_path, "in.json", payload)]) == 2, field
        assert capsys.readouterr().err == f"error: missing field {field!r}\n"


def test_every_command_is_documented_and_writes_strict_json(tmp_path, capsys):
    # each row of cli.COMMANDS is in README's command block and in --help,
    # and its --json output parses as RFC 8259 JSON, with no NaN or Infinity
    # token: the depth-75 eval term's infinite tail is the string "inf"
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = capsys.readouterr().out
    deep = Pair.ones((1,) * 74 + (2,))
    pair = _write(tmp_path, "p.json", {"k": [1, 2], "z": [{"re": [-1, 1]}, 1]})
    rel = Relation(lhs=ZExpr.of([zterm([Pair.ones((1,)), Pair.ones((1,))])]),
                   rhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))), provenance={})
    argv = {
        "reduce": ["--term", _write(tmp_path, "t.json", {
            "components": [{"k": [1]}, {"k": [1]}], "bar": {"k": [1, 1]}})],
        "eval": ["--term", _write(tmp_path, "deep.json",
                                  serialize.zterm_to_json(zterm([deep, deep]))), "--bound", "100"],
        "dual": ["--pair", pair],
        "ohno": ["--pair", pair, "--h", "2"],
        "verify": ["--relation", _write(tmp_path, "r.json", serialize.relation_to_json(rel)),
                   "--tol", "1e-4"],
        "examples": ["--name", "cloitre"],
    }
    assert set(argv) == set(cli.COMMANDS)

    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    for name in cli.COMMANDS:
        assert f"connsum {name} " in block, name
        assert re.search(rf"^ +{name} ", help_text, re.M), name
        assert main(["--json", name, *argv[name]]) == 0, name
        json.loads(capsys.readouterr().out, parse_constant=reject)


def test_reports_spell_non_finite_floats_as_strings():
    # each float and complex part of a report is spelled where the report
    # writes its JSON, so the JSON is strict
    rel = Relation(lhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))), rhs=MplExpr.zero())
    for x in (math.inf, -math.inf, math.nan):
        s, z = str(x), complex(x, x)
        evaluated = connsum.EvalReport(z, 1, x, False)
        verified = connsum.VerifyReport(False, z, z, x, x, x, (("t", z),))
        example = ExampleResult("e", False, verified, rel, ())
        out = [json.loads(json.dumps(r.to_json(), allow_nan=False))
               for r in (evaluated, verified, example)]
        assert out[0] == {"value": [s, s], "truncation": 1, "tail_estimate": s,
                          "converged": False}
        assert out[1] == out[2]["report"] == {
            "ok": False, "lhs": [s, s], "rhs": [s, s], "difference": s, "tol": s,
            "tail_total": s, "terms": [["t", [s, s]]]}


def test_malformed_relation_is_a_domain_error(tmp_path, capsys):
    side = {"type": "mpl", "terms": [{"k": [2], "z": [1]}]}
    bad_relations = [
        [1],
        {"lhs": [1], "rhs": []},
        {"lhs": side, "rhs": {"type": "mpl", "terms": 5}},
        {"lhs": side, "rhs": {"type": "mpl", "terms": [1]}},
        {"lhs": side, "rhs": {"type": "mpl", "terms": [{"k": 2, "z": [1]}]}},
        {"lhs": side, "rhs": {"type": "mpl", "terms": [{"k": [2], "z": 1}]}},
        {"lhs": side, "rhs": {"type": "z", "terms": 5}},
        {"lhs": side, "rhs": side, "provenance": [1]},
    ]
    for payload in bad_relations:
        rel = _write(tmp_path, "r.json", payload)
        assert main(["verify", "--relation", rel]) == 2, payload
        assert capsys.readouterr().err.startswith("error: "), payload


def test_bad_tol_is_a_domain_error(tmp_path, capsys):
    # a NaN tolerance read as "[FAIL] zeta4", exit 1; zero and negative ones
    # ended in NotConverged, exit 1
    rel = Relation(lhs=MplExpr.single(MplTerm("shuffle", (2,), (ONE,))),
                   rhs=MplExpr.single(MplTerm("shuffle", (2,), (sc(-1),)), -2), provenance={})
    path = _write(tmp_path, "rel.json", serialize.relation_to_json(rel))
    term = _write(tmp_path, "t.json",
                  serialize.zterm_to_json(zterm([Pair.ones((1,))], Pair.ones((2,)))))
    for tol in ("nan", "inf", "0", "-1"):
        for argv in (["examples", "--name", "zeta4"], ["verify", "--relation", path],
                     ["eval", "--term", term]):
            assert main(argv + ["--tol", tol]) == 2, (argv, tol)
            assert capsys.readouterr().err.startswith("error: "), (argv, tol)
