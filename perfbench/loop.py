"""One workload as a closed loop in a single process, started by `run.py`.

One caller, no threads: each input is generated from the seed outside the
timed region, reconstructed, checked and dropped before the next one. The
loop repeats whole rounds of the workload until `--seconds` have passed and
at least `MIN_OPS` operations were made.

The timings are taken from each input's fastest round. On a shared host,
co-tenants can slow every operation by 50-70 % for stretches of a second to
over a minute, so a median over all operations flips between the fast and
the slow level with the share of the run that was slow. The fastest of many
rounds of one input is its cost without that contention, if the run holds
any fast stretch; the median, 90th percentile and rate are then taken over
the panel's inputs.

Untraced, the last line of standard output holds the end-to-end metrics;
traced (`--trace 1`), it holds the per-layer metrics, each per operation.
Both write the result, and the spans when traced, under `results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import persrec  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100

# counted per operation; every span name also gives `<name>.self_ms` and `<name>.calls`
LAYER_COUNTS = (
    "persistence.vertices_in",
    "persistence.diagram_points",
    "reconstruct_smooth.triangles",
    "reconstruct_smooth.points",
    "reconstruct_pl.critical_lines",
    "reconstruct_pl.comparisons",
    "landscape.levels_nonzero",
    "landscape.vertices",
    "reconstruct_pl.missed_points",
    "reconstruct_pl.spurious_points",
    "reconstruct_smooth.missed_points",
    "reconstruct_smooth.mislabelled_points",
    "reconstruct_smooth.spurious_points",
    "reconstruct_smooth.raised",
    "landscape.missed_points",
    "landscape.spurious_points",
)


def per_layer_names() -> list[str]:
    return [f"{n}.{m}" for n in spans.span_names() for m in ("self_ms", "calls")] + list(LAYER_COUNTS)


def run(workload, seed: int, seconds: float, tracer: spans.Tracer | None):
    """The timed phase: whole rounds until `seconds` and `MIN_OPS` are reached."""
    ops = 0
    best_ns: dict = {}
    counts: Counter = Counter()
    failed = 0
    correct = True
    ctx = tracer.instrument() if tracer else contextlib.nullcontext(spans.plain_api())
    with ctx as api:
        begin = time.perf_counter()
        rnd = 0
        while ops < MIN_OPS or time.perf_counter() - begin < seconds:
            for spec in workload.round(seed, rnd):
                inp = workload.make(spec)
                if tracer:
                    tracer.op = ops
                start = time.perf_counter_ns()
                try:
                    out = workload.operate(api, inp)
                except workload.errors as exc:
                    out = exc
                elapsed = time.perf_counter_ns() - start
                ops += 1
                best_ns[spec] = min(elapsed, best_ns.get(spec, elapsed))
                try:
                    faults = workload.check(inp, out)
                except checks.CheckFailed as exc:
                    print(f"check failed on {spec}: {exc}", file=sys.stderr)
                    correct = False
                    faults = {}
                failed += any(faults.values())
                counts.update(faults)
                if tracer:
                    counts.update(workload.layer_counts(inp, out))
                del inp, out
            rnd += 1
    return ops, list(best_ns.values()), failed, correct, counts, rnd


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one workload of the benchmark (use run.py)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-ns", required=True, type=int)
    args = p.parse_args(argv)
    if not Path(persrec.__file__).resolve().is_relative_to(HERE.parent / "src"):
        print(f"persrec imported from {persrec.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    warm = workload.make(workload.warmup_spec())
    try:
        workload.operate(spans.plain_api(), warm)
    except workload.errors:
        pass
    del warm
    setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9

    tracer = spans.Tracer() if args.trace else None
    n, best_ns, failed, correct, counts, rounds = run(workload, args.seed, args.seconds, tracer)
    best_ms = [t / 1e6 for t in best_ns]
    functions_per_s = len(best_ns) / (sum(best_ns) / 1e9)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} operations={n} failed={failed} "
          f"samples={len(best_ns)} (fastest round of each input) "
          f"functions_per_s={functions_per_s:.6g} traced={args.trace}")

    if tracer:
        self_ns, calls = tracer.self_ns()
        values = {}
        for name in spans.span_names():
            values[f"{name}.self_ms"] = (self_ns[name] / 1e6 / n, "ms")
            values[f"{name}.calls"] = (calls[name] / n, "count")
        for name in LAYER_COUNTS:
            values[name] = ((counts[name] + tracer.counts[name]) / n, "count")
    else:
        values = {
            "functions_per_s": (functions_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(best_ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(best_ms, n=10)[-1], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"result": result, "trace": tracer.to_json() if tracer else None}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
