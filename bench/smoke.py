"""Smoke test of the benchmark itself, on the --tiny corpus of each workload.

    python3 bench/smoke.py

Checks that
  * every end-to-end and per-layer metric in BENCHMARK.json is printed, with
    its unit, on every workload;
  * a corrupted golden file makes every item fail and the exit code nonzero;
  * every function the tracer wraps records at least one span, and two traced
    runs on one seed give identical counts;
  * without connsum sources the command exits with code 2 and no result.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["certify", "eval", "exact", "symbolic"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"smoke: FAILED: {what}")
        sys.exit(1)
    print(f"smoke: ok: {what}")


def corrupt(value):
    """A golden record no correct output can match."""
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    if isinstance(value, list):
        return [corrupt(v) for v in value]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "0" if isinstance(value, str) else value


def check_metrics(result, section: str, workload: str, stdout: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{workload}: {section} metrics and units as declared")
    expect(all(f"{name} = " in stdout for name in want),
           f"{workload}: every {section} metric printed by name")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    bad_golden = OUT / "smoke-golden"
    shutil.rmtree(bad_golden, ignore_errors=True)
    bad_golden.mkdir()
    for path in (BENCH / "golden").glob("*.json"):
        data = json.loads(path.read_text())
        for rec in data["items"].values():
            rec["expect"] = corrupt(rec["expect"])
        (bad_golden / path.name).write_text(json.dumps(data))

    wrapped, called, counts = set(), set(), {}
    for workload in WORKLOADS:
        proc, result = bench(workload, 0)
        expect(proc.returncode == 0 and result is not None and result["correct"]
               and result["failed"] == 0, f"{workload}: tiny run correct")
        check_metrics(result, "end_to_end", workload, proc.stdout)

        proc, result = bench(workload, 0, "--golden-dir", str(bad_golden))
        expect(proc.returncode != 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"],
               f"{workload}: corrupted golden fails every item")

        proc, result = bench(workload, 1)
        expect(proc.returncode == 0 and result is not None and result["correct"],
               f"{workload}: traced run correct")
        check_metrics(result, "per_layer", workload, proc.stdout)
        counts[workload] = {k: v["value"] for k, v in result["metrics"].items()
                            if v["unit"] == "count"}
        spans = json.loads((OUT / f"spans-{workload}-seed1.json").read_text())
        wrapped |= set(spans["wrapped"])
        called |= {s["callee"] for s in spans["spans"] if s["calls"] > 0}

    silent = sorted(wrapped - called)
    expect(not silent, f"every wrapped function records a span (silent: {silent})")

    proc, result = bench("symbolic", 1)
    again = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    expect(again == counts["symbolic"], "two traced runs on one seed count the same")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("certify", 0, cwd=bare)
    expect(proc.returncode == 2 and result is None, "without sources: exit 2, no result")
    shutil.rmtree(bare)
    shutil.rmtree(bad_golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
