"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload exact --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --held-out 9001 --write bench/baseline.json

For every end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median, as statistics.quantiles
gives them), and flags a spread above a third of the metric's bound in
BENCHMARK.json.  With --write it also makes one traced run per workload
(first seed) and one run on the held-out seed, and writes the environment,
all rows, the per-layer metrics and self-time shares, and the layer ->
end-to-end metric -> workload predictions to the given file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metric -> the end-to-end metrics it should move, and where
PREDICTIONS = {
    "scalars.ops": (["items_per_s"], ["exact"]),
    "scalars.hashes": (["items_per_s"], ["symbolic"]),
    "scalars.self_s": (["items_per_s"], ["exact", "symbolic"]),
    "model.normalize_calls": (["items_per_s"], ["symbolic"]),
    "model.self_s": (["items_per_s"], ["symbolic"]),
    "transport.steps": (["items_per_s", "item_ms_tail"], ["symbolic"]),
    "transport.transportable_checks": (["items_per_s", "item_ms_tail"], ["symbolic"]),
    "transport.self_s": (["items_per_s", "item_ms_tail"], ["symbolic"]),
    "boundary.reduce_calls": (["items_per_s"], ["symbolic"]),
    "boundary.quasi_shuffle_calls": (["items_per_s"], ["symbolic"]),
    "boundary.mpl_terms_out": (["items_per_s"], ["symbolic"]),
    "boundary.self_s": (["items_per_s"], ["symbolic"]),
    "duality.dagger_calls": (["items_per_s"], ["symbolic"]),
    "duality.self_s": (["items_per_s"], ["symbolic"]),
    "ohno.apply_map_calls": (["item_ms_tail", "items_per_s"], ["symbolic"]),
    "ohno.hseries_ops": (["item_ms_tail", "items_per_s"], ["symbolic"]),
    "ohno.self_s": (["item_ms_tail", "items_per_s"], ["symbolic"]),
    "recipe.relations": (["items_per_s", "item_ms_tail"], ["certify"]),
    "recipe.self_s": (["items_per_s", "item_ms_tail"], ["certify"]),
    "serialize.self_s": (["items_per_s"], ["symbolic"]),
    "numeric.eval_zterm.calls": (["items_per_s"], ["eval"]),
    "numeric.eval_zterm.self_s": (["items_per_s"], ["eval"]),
    "numeric.eval_mpl_auto.calls": (["items_per_s", "item_ms_tail"], ["certify"]),
    "numeric.eval_mpl_auto.self_s": (["items_per_s", "item_ms_tail"], ["certify"]),
    "numeric.eval_mpl.calls": (["items_per_s", "item_ms_tail"], ["certify"]),
    "numeric.mpl_terms_summed": (["items_per_s", "item_ms_tail"], ["certify"]),
    "numeric.mpl_useful_ratio": (["items_per_s", "item_ms_tail"], ["certify"]),
    "numeric.worst_diff_ratio": (["worst_diff_ratio (printed)"], ["certify"]),
    "numeric.exact_zterm.self_s": (["items_per_s"], ["exact"]),
    "numeric.exact_mpl.self_s": (["items_per_s"], ["exact"]),
    "numeric.exact.calls": (["items_per_s"], ["exact"]),
    "numeric.telescoping.self_s": (["items_per_s"], ["exact"]),
    "numeric.verify.calls": (["items_per_s"], ["certify"]),
    "numeric.verify.self_s": (["items_per_s"], ["certify"]),
    "named_examples.self_s": (["items_per_s"], ["certify"]),
}
DOMINANT = {"certify": "numeric.eval_mpl_auto", "eval": "numeric.eval_zterm",
            "exact": "numeric.exact_*", "symbolic": "a layer outside numeric"}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sys.path.insert(0, str(BENCH))
    from run import THREAD_VARS

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_sha": sha, "thread_vars_set_to_1": list(THREAD_VARS)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark spread over seeds")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--held-out", type=int)
    ap.add_argument("--write")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    out = {"environment": environment(), "run_seconds": args.seconds,
           "dominant_layer_predicted": DOMINANT,
           "predictions": {k: {"moves": m, "on": w} for k, (m, w) in PREDICTIONS.items()},
           "workloads": {}}
    for workload in args.workload or WORKLOADS:
        rows = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        table = {}
        for name, bound in bounds.items():
            table[name] = summary([r["metrics"][name]["value"] for r in rows])
            flag = "" if table[name]["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:9s} {name:13s} median {table[name]['median']:10.4g}  "
                  f"q1 {table[name]['q1']:10.4g}  q3 {table[name]['q3']:10.4g}  "
                  f"spread {table[name]['spread']:.4f} (bound {bound}){flag}", flush=True)
        entry = {"why": why[workload], "seeds": args.seeds, "end_to_end": table,
                 "failed": sum(r["failed"] for r in rows),
                 "attempted": sum(r["attempted"] for r in rows)}
        if args.held_out is not None:
            held = run(workload, args.held_out, args.seconds, 0)
            entry["held_out"] = {"seed": args.held_out, "failed": held["failed"],
                                 "metrics": {k: v["value"] for k, v in held["metrics"].items()}}
        if args.write:
            traced = run(workload, args.seeds[0], args.seconds, 1)
            spans = json.loads((ROOT / ".bench_out" /
                                f"spans-{workload}-seed{args.seeds[0]}.json").read_text())
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for view in ("self_share", "inclusive_share"):
                entry["layer_" + view] = {k: round(v, 4) for k, v in spans[view].items()}
        out["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
