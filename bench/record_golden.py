"""Record the golden outputs the benchmark checks against.

    python3 bench/record_golden.py [--workload NAME ...]

Runs every pool item of each workload, checks that the output is consistent
on its own terms (certified, exact sides equal, both emission routes agree),
and writes golden/<workload>.json with, per item, the hash of its input, its
output record and its median time over three more passes.  Those times order the
items when a seed draws its corpus.  Items slower than their class's
max_cost_s are listed as excluded instead.  Run this only on the commit
whose behaviour is the reference; later commits are checked against it.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys

import run


def record(workload: str, repeats: int = 3) -> dict:
    """Golden records from a pass over the pool in order; each item's cost is
    its median time over `repeats` more passes in shuffled order, timed as a
    benchmark run times it (run.timed_call, after gc.freeze)."""
    import workloads

    items, excluded, pool = {}, {}, []
    for cls in workloads.WORKLOADS[workload][0]:
        for i, inp in enumerate(cls.pool()):
            item_id = f"{cls.name}:{i}"
            out, dt = run.timed_call(cls, inp)
            rec = cls.record(out)
            err = cls.check(inp, out, rec)
            if err is not None:
                raise SystemExit(f"{item_id}: {err}")
            if cls.max_cost_s is not None and dt > cls.max_cost_s:
                excluded[item_id] = f"took {dt:.1f} s, over the {cls.max_cost_s} s cap"
                continue
            items[item_id] = {"input": workloads.digest(cls.encode(inp)), "expect": rec}
            pool.append((item_id, cls, inp))
    gc.collect()
    gc.freeze()
    times: dict[str, list[float]] = {item_id: [] for item_id in items}
    for k in range(repeats):
        random.Random(k).shuffle(pool)
        for item_id, cls, inp in pool:
            times[item_id].append(run.timed_call(cls, inp)[1])
    gc.unfreeze()
    for item_id, rec in items.items():
        rec["cost_s"] = round(statistics.median(times[item_id]), 5)
    print(f"{workload}: {len(items)} items recorded", file=sys.stderr)
    return {"workload": workload, "excluded": excluded, "items": items}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record golden outputs")
    ap.add_argument("--workload", action="append", choices=["certify", "eval", "exact", "symbolic"])
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.BENCH))
    run.import_connsum()
    out_dir = run.BENCH / "golden"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or ["certify", "eval", "exact", "symbolic"]:
        data = record(workload)
        (out_dir / f"{workload}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
