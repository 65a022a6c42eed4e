"""The permpoly benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selfcheck

NAME is ``reproduce``, ``scan16`` or ``bigfield`` (see workloads.py and
README.md).  The program is imported from ``src/`` of the same checkout;
nothing is installed.  One process, one thread, ``workers`` = 1.

``--trace 0`` repeats the workload until S seconds are spent and reports the
end-to-end metrics as medians over repetitions, in reference seconds (see
speed.py), with the raw seconds in the summary.  ``--trace 1`` runs the
workload once plain, once under span tracing and once under call counting,
and reports the per-layer metrics.  Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it are a
readable summary.  Traced runs also write their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("reproduce", "scan16", "bigfield")
SETUP_PROBES = 9  # fresh processes per run; setup_s is their median


def load_program():
    """Import permpoly from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import permpoly
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import permpoly from {SRC}: {exc}")
    if Path(permpoly.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"run.py: imported permpoly from {permpoly.__file__}, "
                         f"not from {SRC}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_latency(samples):
    """(value, percentile): the highest percentile with ten samples above it.

    Below 21 samples no percentile at or above the median qualifies (bigfield
    has 11 instances); the maximum is returned with percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def item_latencies_ms(reps, gauge):
    """Each work item's latency in reference ms: its median over repetitions.

    A work item is one instance on scan16 and bigfield, one verdict call of
    the suite on reproduce; every repetition runs the same items, so item i
    of one repetition is item i of the next.  Each time is scaled by the
    loop timings just before and after the item.
    """
    n = len(reps[0].items)
    if any(len(r.items) != n for r in reps):
        raise SystemExit("run.py: repetitions ran different numbers of work items")
    scaled = [[dt * 1000.0 * gauge.scale_around(t0, t0 + dt) for t0, dt in r.items]
              for r in reps]
    return [statistics.median(col) for col in zip(*scaled)]


def largest_table(wl):
    """Entries of the largest log table among the workload's fields (0 if none)."""
    from permpoly.field import TABLE_LIMIT

    return max((p ** k for p, k in wl.fields if p ** k <= TABLE_LIMIT), default=0)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(wl, probes, gauge):
    """Median set-up time of ``probes`` fresh processes: (reference s, raw s)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    cmd += [f"{p},{k}" for p, k in wl.fields]
    raw, scaled = [], []
    gauge.sample()
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        t1 = time.perf_counter()
        if done.returncode:
            raise SystemExit(f"run.py: set-up probe failed: {done.stderr.strip()}")
        gauge.sample()
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(raw[-1] * gauge.scale_around(t0, t1))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_plain(name, seed, seconds, *, small=False, probes=SETUP_PROBES):
    """End-to-end metrics: repetitions until ``seconds`` are spent."""
    from workloads import WORKLOADS, Runner, setup

    wl = WORKLOADS[name]
    gauge = speed.Gauge(speed.loop_size(largest_table(wl)))
    setup_s, raw_setup_s = measure_setup(wl, probes, gauge)
    setup(wl)
    runner = Runner(wl, seed, small=small, gauge=gauge)
    reps = []
    deadline = time.perf_counter() + seconds
    gauge.sample()
    while True:
        reps.append(runner.rep())
        gauge.sample()
        if time.perf_counter() >= deadline:
            break
    walls = [r.wall_s * gauge.scale_during(r.start, r.end) for r in reps]
    wall = statistics.median(walls)
    items = item_latencies_ms(reps, gauge)
    tail, pct = tail_latency(items)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "verdicts_per_s": (reps[0].verdicts / wall, "1/s"),
        "scan_elems_per_s": (reps[0].elements / wall, "1/s"),
        "instance_p50_ms": (statistics.median(items), "ms"),
        "instance_tail_ms": (tail, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    notes = {"repetitions": len(reps), "instance_samples": len(items),
             "instance_tail_percentile": round(pct, 2), "setup_probes": probes,
             "raw_setup_s": round(raw_setup_s, 4),
             "raw_wall_s": [round(r.wall_s, 4) for r in reps],
             "loop_timings": len(gauge.times),
             "loop_s_median": round(statistics.median(gauge.times), 5),
             "loop_s_min": round(min(gauge.times), 5)}
    return metrics, reps, notes


def table_memory_mib(wl):
    """Memory the log tables of the workload's fields hold, via tracemalloc.

    Built on fresh copies of the contexts, so the timed table builds run
    without tracemalloc's cost.
    """
    import tracemalloc

    from permpoly import field as gf

    total = 0
    for p, k in wl.fields:
        ctx = gf.make_field(p, k)
        copy = gf.FieldCtx(ctx.p, ctx.k, ctx.modulus, ctx.generator)
        tracemalloc.start()
        try:
            copy.ensure_tables()
            total += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return total / (1 << 20)


def run_traced(name, seed, *, small=False):
    """Per-layer metrics: a plain pass, a span pass and a counting pass."""
    from layertrace import CallCounter, SpanTracer
    from workloads import WORKLOADS, Runner, setup

    wl = WORKLOADS[name]
    at_setup = SpanTracer()
    at_setup.install()
    try:
        setup(wl)
    finally:
        at_setup.uninstall()
    tables_mib = table_memory_mib(wl)

    runner = Runner(wl, seed, small=small)
    plain = runner.rep()
    spans = SpanTracer()
    spans.install()
    try:
        traced = runner.rep()
    finally:
        spans.uninstall()
    counter = CallCounter()
    counter.install()
    try:
        counted = runner.rep()
    finally:
        counter.uninstall()

    metrics = {
        "field.make_field_ms": (at_setup.ns["field.make_field"] / 1e6, "ms"),
        "field.tables_ms": (at_setup.ns["field.ensure_tables"] / 1e6, "ms"),
        "field.tables_mib": (tables_mib, "MiB"),
    }
    metrics.update(counter.metrics())
    metrics.update(spans.metrics())
    for cid in range(1, 13):
        metrics[f"reproduce.c{cid:02d}_ms"] = (plain.criteria_ms.get(cid, 0.0), "ms")
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    metrics["trace.count_overhead_ratio"] = (counted.wall_s / plain.wall_s, "ratio")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for pass_name, tracer in (("setup", at_setup), ("workload", spans)):
            for span in tracer.spans:
                fh.write(json.dumps([pass_name, *span]) + "\n")
    notes = {"spans": len(at_setup.spans) + len(spans.spans), "span_file": str(path)}
    return metrics, [plain, traced, counted], notes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def result_line(metrics, reps):
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_summary(name, seed, metrics, reps, notes):
    result = result_line(metrics, reps)
    print(f"workload {name}, seed {seed}: {notes}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<36} {rate:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for r in reps:
        for err in r.errors:
            print(f"  ERROR {err}")
    print(json.dumps(result))


def run_all_workloads(seed, seconds):
    """Each workload in a fresh process; prints every end-to-end metric."""
    worst = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode or not lines:
            print(done.stderr, file=sys.stderr)
            worst = max(worst, done.returncode or 1)
        elif not json.loads(lines[-1])["correct"]:
            worst = max(worst, 1)
    return worst


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

def selfcheck():
    """Every workload once at minimum size, both modes, plus a planted error."""
    from dataclasses import replace

    from workloads import EXPECTED_CRITERIA, WORKLOADS, Runner, Workload

    spec = json.loads(SPEC.read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            if trace:
                metrics, reps, _ = run_traced(name, 1, small=True)
            else:
                metrics, reps, _ = run_plain(name, 1, 0, small=True, probes=1)
            result = result_line(metrics, reps)
            missing = want[trace] ^ set(metrics)
            check(not missing, f"{name} trace={trace}: metric names differ: {missing}")
            check(result["failed"] == 0,
                  f"{name} trace={trace}: {[e for r in reps for e in r.errors]}")
            print(f"selfcheck: {name} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} attempts, error_rate 0")

    # a wrong recorded verdict must be caught
    wl = WORKLOADS["scan16"]
    inst = wl.instances[0]
    wrong = replace(inst, expect=dict(inst.expect, verdict=not inst.expect["verdict"]))
    caught = Runner(Workload(wl.name, wl.fields, (wrong,)), 1).rep()
    check(caught.failed == 1, "a wrong expected verdict was not caught")
    print(f"selfcheck: planted wrong verdict caught: {caught.errors[0]}")

    # a wrong recorded criterion count must be caught
    saved = EXPECTED_CRITERIA[3]
    EXPECTED_CRITERIA[3] = (True, {"assignments": 21, "disagreements": 0})
    try:
        caught = Runner(WORKLOADS["reproduce"], 1, small=True).rep()
    finally:
        EXPECTED_CRITERIA[3] = saved
    check(caught.failed == 1, "a wrong expected criterion count was not caught")
    print(f"selfcheck: planted wrong count caught: {caught.errors[0]}")
    print("selfcheck: ok")
    return 0


def check(cond, message):
    if not cond:
        raise SystemExit(f"selfcheck: FAILED: {message}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="permpoly benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    load_program()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all_workloads(args.seed, args.seconds)
    if args.trace:
        metrics, reps, notes = run_traced(args.workload, args.seed)
    else:
        metrics, reps, notes = run_plain(args.workload, args.seed, args.seconds)
    print_summary(args.workload, args.seed, metrics, reps, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
