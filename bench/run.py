"""connsum benchmark: seeded corpora through the public API, checked against
golden outputs.

    python3 bench/run.py --workload certify --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; connsum is imported from ``src/`` there.
One process, one thread (the BLAS/OpenMP thread variables are set to 1), a
closed loop with a single caller: each item starts when the previous one has
finished.  The corpus for ``--seed`` (see workloads.py) runs in passes for
``--seconds``: the first pass always runs to its end, and a later pass starts
no item after the deadline, so some items have one more run than others.
Within a pass an item costing less than REPS_TARGET_S runs several times in a
row.  Every output is checked against ``golden/<workload>.json``; a mismatch
counts as a failed item and the exit code is 1.

Timing.  An item's timed region is its call followed by a full garbage
collection, so each item pays for the cyclic garbage it leaves; the checker's
garbage is collected untimed before the next item.  The objects built at
set-up are frozen out of the collector's view.  A fixed pure-Python probe
(integer arithmetic, Fraction arithmetic and small-object allocation, the
kinds of work the workloads do) is timed before the first item and after
each, and each run's time is scaled by PROBE_NOMINAL_S / (the mean of the
probes before and after its item's runs).  On a shared host whose speed swings by 20% and
more within seconds this removes most of the swing.  The unscaled throughput
is printed too.  An item's time is the median of its scaled runs.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_RUNS fresh processes of the time from
               process start to the first item (imports, corpus, golden
               file), each scaled by REF_NOMINAL_S / (the reference time
               around it).  The reference is a fresh interpreter importing
               numpy, timed before and after each set-up process: set-up is
               mostly imports, whose speed on a shared host drifts with its
               load in a way the item probe does not follow.
  items_per_s  corpus items per second: item count over the summed item
               times (each the median of its runs, not the pass's wall time)
  item_ms_p50  median item time
  item_ms_tail item time at the highest percentile that has at least ten
               items above it (the percentile is printed beside it)
Both percentiles are Harrell-Davis estimates (hd_quantile), which do not jump
when two items near the percentile swap places.
  peak_rss_mb  peak resident memory of this process
fail_frac, and worst_diff_ratio on certify, are printed above the result.

--trace 1 runs each item four times back to back: once to warm up, untraced,
with every public connsum function wrapped (tracer.py), and untraced again.
It reports the per-layer metrics from the traced runs.  trace.overhead_frac
compares the traced runs' total time with the mean of the untraced runs'
totals, all timed the same way; the runs of one item are seconds apart at
most, so the host's drift mostly cancels.  Where the tracer wraps few calls
(certify, eval) its overhead is below the remaining noise, and the value can
read a little below zero.
Its spans go to .bench_out/ in the checkout.

The last line of standard output is the JSON result.  Without connsum
sources under src/ the command exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MAX_REPS = 5  # an item runs round(REPS_TARGET_S / its cost) times per pass, up to this
REPS_TARGET_S = 0.03
ALWAYS_RUN = 12  # the costliest sampled items, which every corpus includes
GROUP_SPREAD = 1.05
GROUP_SLACK_S = 0.0002
PROBE_NOMINAL_S = 0.015  # the host-speed probe's time on a reference host
TINY_BUDGET_S = 0.7  # --tiny keeps each class's cheapest items up to this total cost
SETUP_RUNS = 5  # fresh set-up processes timed per run; --tiny times one
# the set-up reference: a fresh interpreter importing numpy, and its nominal time
REF_CMD = [sys.executable, "-c", "import numpy"]
REF_NOMINAL_S = 0.19


class SetupError(Exception):
    """The benchmark cannot run here: no sources, or no golden record."""


def import_connsum():
    if not (SRC / "connsum" / "__init__.py").is_file():
        raise SetupError(f"no connsum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import connsum

    if Path(connsum.__file__).resolve().parent != (SRC / "connsum").resolve():
        raise SetupError(f"connsum was imported from {connsum.__file__}, not {SRC}")
    return connsum


@dataclass
class Item:
    id: str
    cls: object  # workloads.ItemClass
    inp: object
    drifted: bool  # the generated input is not the one the golden file holds
    expect: dict
    reps: int  # runs per pass: cheap items run several times, for a steady median


def build_corpus(workload: str, seed: int, golden_dir: Path, tiny: bool) -> list[Item]:
    import workloads

    path = golden_dir / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"no golden file {path}")
    golden = json.loads(path.read_text())
    classes, pick = workloads.WORKLOADS[workload]
    fixed, sampled, cheap = [], [], []
    for cls in classes:
        entries = []
        for i, inp in enumerate(cls.pool()):
            item_id = f"{cls.name}:{i}"
            if item_id in golden["excluded"]:
                continue
            rec = golden["items"].get(item_id)
            if rec is None:
                raise SetupError(f"{path} has no record for {item_id}")
            entries.append((rec["cost_s"], item_id, cls, inp, rec))
        entries.sort(key=lambda e: e[:2])
        budget = TINY_BUDGET_S
        for e in entries:
            budget -= e[0]
            if budget < 0:
                break
            cheap.append(e)
        (fixed if cls.fixed else sampled).extend(entries)
    if tiny:
        chosen = cheap
    else:
        # the costliest items always run, so every seed's tail is made of
        # the same items; the seed picks among the rest
        sampled.sort(key=lambda e: e[:2])
        cut = max(0, len(sampled) - ALWAYS_RUN)
        rng = random.Random(seed)
        chosen = fixed + sampled[cut:] + [rng.choice(group)
                                          for group in cost_groups(sampled[:cut], pick)]
    if not chosen:
        raise SetupError(f"no {workload} item is cheap enough for --tiny")
    corpus = [Item(item_id, cls, inp, workloads.digest(cls.encode(inp)) != rec["input"],
                   rec["expect"], max(1, min(MAX_REPS, round(REPS_TARGET_S / max(cost, 1e-6)))))
              for cost, item_id, cls, inp, rec in chosen]
    random.Random(seed).shuffle(corpus)
    return corpus


def cost_groups(pool: list[tuple], size: int) -> list[list[tuple]]:
    """Cut a cost-sorted pool into runs of up to `size` neighbours; a group
    closes early rather than take an item costing more than GROUP_SPREAD
    times its cheapest (plus GROUP_SLACK_S).  Whichever member a seed picks,
    the corpus costs about the same, and its k-th cheapest item comes from
    the k-th group."""
    groups: list[list[tuple]] = []
    for entry in pool:
        group = groups[-1] if groups else None
        if group and len(group) < size and entry[0] <= GROUP_SPREAD * group[0][0] + GROUP_SLACK_S:
            group.append(entry)
        else:
            groups.append([entry])
    return groups


def setup(args) -> list[Item]:
    """Import connsum and build the corpus.  The objects made so far (modules,
    corpus, golden records) are then frozen out of the garbage collector's
    view, so collections during items scan what the items allocate, not the
    benchmark's own state."""
    import_connsum()
    corpus = build_corpus(args.workload, args.seed, Path(args.golden_dir), args.tiny)
    gc.collect()
    gc.freeze()
    return corpus


def timed_setups(args) -> tuple[list[float], list[float]]:
    """Run set-up in fresh processes, each reporting READY before its first
    item, with the reference before the first and after each.  Returns the
    set-up times and the reference times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--golden-dir", args.golden_dir, "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    setups, refs = [], [reference_s()]
    for _ in range(1 if args.tiny else SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if line != "READY" or code != 0:
            raise SetupError(f"set-up process failed (exit {code})")
        setups.append(elapsed)
        refs.append(reference_s())
    return setups, refs


def reference_s() -> float:
    t0 = time.perf_counter()
    subprocess.run(REF_CMD, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def probe_s() -> float:
    """Time one run of the host-speed probe: fixed loops of integer
    arithmetic, Fraction arithmetic and small-object allocation."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    q, x = Fraction(0), Fraction(2, 7)
    for i in range(1, 400):
        q += Fraction(i, i + 3) * x
    d = {}
    for i in range(12_000):
        d[(i, i % 7)] = [i, str(i)]
    return time.perf_counter() - t0


class ItemRaised(Exception):
    def __init__(self, exc: Exception, seconds: float):
        super().__init__(f"raised {type(exc).__name__}: {exc}")
        self.seconds = seconds


def timed_call(cls, inp) -> tuple[object, float]:
    """Run one item and collect the cyclic garbage it left, both timed."""
    t0 = time.perf_counter()
    try:
        out = cls.call(inp)
    except Exception as exc:
        raise ItemRaised(exc, time.perf_counter() - t0) from exc
    gc.collect()
    return out, time.perf_counter() - t0


@dataclass
class Run:
    item: Item
    seconds: float
    error: str | None
    ratio: float | None  # difference / tol of a verified relation
    probe: float | None  # mean host-speed probe time before and after the item


def run_pass(corpus: list[Item], tracer=None, probe: bool = False,
             deadline: float | None = None) -> list[Run]:
    """Run each item `reps` times, with the host-speed probe between items if
    `probe`; with a `deadline`, start no item after it.  Outputs are checked
    at once and dropped, so live objects do not pile up and slow the garbage
    collector for later items."""
    results = []
    before = probe_s() if probe else None
    for it in corpus:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        runs = [run_once(it, tracer) for _ in range(it.reps)]
        after = probe_s() if probe else None
        for r in runs:
            r.probe = (before + after) / 2 if probe else None
        results += runs
        before = after
    return results


def run_once(it: Item, tracer) -> Run:
    gc.collect()  # the checker's and the probe's garbage, untimed
    err = None
    try:
        if tracer is None:
            out, dt = timed_call(it.cls, it.inp)
        else:
            with tracer.item():
                out, dt = timed_call(it.cls, it.inp)
    except ItemRaised as exc:  # an item that raises is a failed item
        out, dt, err = None, exc.seconds, str(exc)
    ratio = None
    if err is None:
        if tracer is None:
            err = check(it, out)
        else:
            with tracer.paused():
                err = check(it, out)
        if err is None and it.cls.diff_ratio is not None:
            ratio = it.cls.diff_ratio(out)
    return Run(it, dt, err, ratio, None)


def check(it: Item, out) -> str | None:
    if it.drifted:
        return "generated input differs from the golden file's"
    try:
        return it.cls.check(it.inp, out, it.expect)
    except Exception as exc:  # a malformed output is a failed item
        return f"check raised {type(exc).__name__}: {exc}"


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the ordered
    samples, the weights being the Beta((n+1)q, (n+1)(1-q)) mass over each
    sample's slot of [0, 1].  Unlike a single order statistic it does not
    jump when two samples near the quantile swap places."""
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 40 * n  # trapezoid rule for the Beta cdf at the slot edges
    cdf = [0.0]
    for k in range(steps):
        cdf.append(cdf[-1] + (pdf(k / steps) + pdf((k + 1) / steps)) / (2 * steps))
    return sum((cdf[(i + 1) * 40] - cdf[i * 40]) * x for i, x in enumerate(xs)) / cdf[-1]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) at the highest percentile that has
    at least ten samples above it; the maximum when there are ten or fewer."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100.0, 0
    q = (n - 10) / n
    return hd_quantile(samples, q), 100.0 * q, 10


def report_failures(results) -> int:
    failed = 0
    for r in results:
        if r.error is not None:
            failed += 1
            print(f"FAIL {r.item.id}: {r.error}", file=sys.stderr)
    return failed


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def measure(args) -> int:
    setups, refs = timed_setups(args)
    scaled_setups = [s * REF_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
                     for i, s in enumerate(setups)]
    corpus = setup(args)
    start = time.perf_counter()
    deadline = start + args.seconds
    results, passes = run_pass(corpus, probe=True), 1
    while time.perf_counter() < deadline:
        results += run_pass(corpus, probe=True, deadline=deadline)
        passes += 1
    failed = report_failures(results)
    # one time per corpus item, the median of its runs rescaled to a host on
    # which the probe takes PROBE_NOMINAL_S, so neither the percentiles nor
    # the throughput depend on how many passes fitted
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for r in results:
        scaled.setdefault(r.item.id, []).append(r.seconds * PROBE_NOMINAL_S / r.probe)
        raw.setdefault(r.item.id, []).append(r.seconds)
    times = [statistics.median(v) for v in scaled.values()]
    unscaled_ips = len(raw) / sum(statistics.median(v) for v in raw.values())
    probes = [r.probe for r in results]
    tail_ms, pct, above = tail(times)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms_p50": (1000 * hd_quantile(times, 0.5), "ms"),
        "item_ms_tail": (1000 * tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(corpus)} items, {len(results)} "
          f"runs in {passes} pass(es) (the last may be partial) in "
          f"{time.perf_counter() - start:.2f} s")
    print(f"  setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}; reference "
          f"(s): {', '.join(f'{r:.3f}' for r in refs)}")
    print(f"  host-speed probe: median {1000 * statistics.median(probes):.3f} ms, range "
          f"{1000 * min(probes):.3f}-{1000 * max(probes):.3f} ms over {len(probes)} runs "
          f"(unscaled items_per_s {unscaled_ips:.6g})")
    for name, (value, unit) in metrics.items():
        note = f"  (p{pct:.1f}, {above} items above, {len(times)} items)" \
            if name == "item_ms_tail" else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  fail_frac = {failed / len(results):.6g} ({failed}/{len(results)})")
    ratios = [r.ratio for r in results if r.ratio is not None]
    if ratios:
        print(f"  worst_diff_ratio = {max(ratios):.6g} (difference / tol over "
              f"{len(ratios)} verified relations)")
    emit(failed == 0, len(results), failed, metrics)
    return 0 if failed == 0 else 1


def pass_s(results: list[Run]) -> float:
    return sum(r.seconds for r in results)


def trace_run(args) -> int:
    from tracer import Tracer

    corpus = setup(args)
    tracer = Tracer()
    warm, untraced, traced = [], [], []
    for it in corpus:
        warm += run_pass([it])
        untraced += run_pass([it])
        tracer.install()
        try:
            traced += run_pass([it], tracer)
        finally:
            tracer.uninstall()
        untraced += run_pass([it])
    untraced_s = pass_s(untraced) / 2
    results = warm + untraced + traced
    failed = report_failures(results)
    metrics = tracer.metrics(untraced_s, pass_s(traced))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans)
    print(f"workload {args.workload} seed {args.seed}: traced pass of {len(corpus)} items, "
          f"{untraced_s:.2f} s untraced, {pass_s(traced):.2f} s traced; spans in {spans}")
    if tracer.missing:
        print(f"  not found, so not traced: {', '.join(tracer.missing)}")
    print("  layer self-time shares: " + ", ".join(
        f"{k} {v:.3f}" for k, v in tracer.layer_shares().items()))
    print("  layer inclusive shares: " + ", ".join(
        f"{k} {v:.3f}" for k, v in tracer.inclusive_shares().items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    emit(failed == 0, len(results), failed, metrics)
    return 0 if failed == 0 else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "eval", "exact", "symbolic"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--golden-dir", default=str(BENCH / "golden"))
    ap.add_argument("--tiny", action="store_true",
                    help="a few of the cheapest items per class (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    try:
        if args.setup_only:
            setup(args)
            print("READY", flush=True)
            return 0
        return trace_run(args) if args.trace else measure(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
