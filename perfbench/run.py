#!/usr/bin/env python3
"""hopfsmash benchmark: seeded verification workloads, measured end to end.

    python3 perfbench/run.py --workload doubles --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; hopfsmash is imported from ./src.

--trace 0 sets the inputs up three times (setup_s is the import time plus the
median set-up), then runs whole passes over the job list in one thread while
another pass is expected to end within --seconds (always at least one), and
reports medians over passes. --trace 1 runs one untraced and two traced passes
of the same seed and reports per-layer self time, inclusive time and exact
counts; the counts must repeat between the two traced passes.

Times are seconds at the reference CPU speed of `speed.SpeedProbe`; raw wall
times are printed beside them. The last line on stdout is one JSON object with
the keys correct, attempted, failed and metrics. Spans of a traced run are
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = 3
LAYER_MODULES = ("exactlin", "hopfcore", "qtriang", "modalg", "weakhopf", "smashcons",
                 "adjstable", "repdim", "cli")
WORKLOAD_NAMES = ("doubles", "adjoint", "smash", "workspace")


def import_program(probe: SpeedProbe) -> float:
    """Import every hopfsmash layer from ./src; return the scaled seconds."""
    src = ROOT / "src"
    if not (src / "hopfsmash" / "__init__.py").is_file():
        raise SystemExit(f"error: no hopfsmash sources under {src}; "
                         "run from the root of a hopfsmash checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    for layer in LAYER_MODULES:
        importlib.import_module(f"hopfsmash.{layer}")
    return probe.scaled(start, time.perf_counter())


def run_pass(jobs, probe: SpeedProbe) -> dict:
    """Run the job list once: the wall time and each job's time, scaled and
    raw, the scaled time of the largest instance, and the jobs whose verdict
    was wrong."""
    times, raw_times, wrong = {}, {}, []
    largest = 0.0
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            right = bool(job.run())
        except Exception:  # a crashed job is a wrong verdict, and the run goes on
            traceback.print_exc()
            right = False
        t1 = time.perf_counter()
        times[job.name] = dt = probe.scaled(t0, t1)
        raw_times[job.name] = t1 - t0
        if job.largest:
            largest += dt
        if not right:
            wrong.append(job.name)
            print(f"wrong verdict: {job.name}", file=sys.stderr)
    end = time.perf_counter()
    return {"wall": probe.scaled(start, end), "raw_wall": end - start,
            "factor": probe.factor(start, end), "largest": largest, "times": times,
            "raw_times": raw_times, "attempted": len(jobs), "wrong": wrong}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_passes(passes) -> tuple:
    """Print pass and job times; return (verdicts attempted, wrong verdicts)."""
    for p in passes:
        print(f"pass: {p['wall']:.4f} s at reference speed, {p['raw_wall']:.4f} s wall")
    print("median job times: at reference speed, wall")
    for name in passes[0]["times"]:
        scaled = statistics.median(p["times"][name] for p in passes)
        raw = statistics.median(p["raw_times"][name] for p in passes)
        print(f"  {name:32s} {scaled:9.4f} s {raw:9.4f} s")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["wrong"]) for p in passes)
    print(f"wrong verdicts: {failed} of {attempted} attempted")
    return attempted, failed


def measure(workload, seed: int, seconds: float, workdir: Path, probe: SpeedProbe,
            import_s: float) -> dict:
    setup, make_jobs = workload
    sets, setup_times = [], []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        sets.append(setup(seed, str(workdir / f"set{i}")))
        setup_times.append(probe.scaled(t0, time.perf_counter()))
    passes = []
    start = time.perf_counter()
    while True:
        inp = sets.pop(0) if sets else setup(seed, str(workdir / f"set{len(passes)}"))
        passes.append(run_pass(make_jobs(inp), probe))
        del inp
        if time.perf_counter() - start + passes[-1]["raw_wall"] > seconds:
            break
    attempted, failed = report_passes(passes)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "largest_s": (statistics.median(p["largest"] for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "right_verdict_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(workload, name: str, seed: int, workdir: Path, probe: SpeedProbe) -> dict:
    import workloads
    setup, make_jobs = workload
    sets = [setup(seed, str(workdir / f"set{i}")) for i in range(SETUPS)]
    untraced = run_pass(make_jobs(sets[0]), probe)
    tracer = tracing.Tracer()
    tracer.install(also=(workloads,))
    traced, layer, dumps = [], [], []
    try:
        for inp in sets[1:]:
            tracer.reset()
            traced.append(run_pass(make_jobs(inp), probe))
            stats = tracing.SpanStats(tracer.names, tracer.spans)
            layer.append(tracing.layer_metrics(stats, tracer.counts, traced[-1]["factor"]))
            dumps.append(tracer.dump())
    finally:
        tracer.uninstall()
    attempted, failed = report_passes([untraced] + traced)
    correct = failed == 0
    counts = [tracing.exact_counts(m) for m in layer]
    counts[0]["trace.spans"], counts[1]["trace.spans"] = (len(d["spans"]) for d in dumps)
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if v != counts[1][k]}
        print(f"exact counts differ between the traced passes: {diff}", file=sys.stderr)
        correct = False
    for m, p in zip(layer, traced):
        self_total = sum(m[f"{layer_name}.self_s"] for layer_name in tracing.LAYERS)
        print(f"sum of layer self time {self_total:.4f} s of traced wall {p['wall']:.4f} s")
        if self_total > p["wall"]:
            correct = False
    metrics = {metric: (statistics.median(m[metric] for m in layer) if unit == "s"
                        else layer[0][metric], unit)
               for metric, unit, *_ in tracing.PER_LAYER}
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - untraced["wall"], "s")
    metrics["trace.spans"] = (counts[0]["trace.spans"], "count")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "passes": dumps}, fh)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    workdir = OUT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        import_s = import_program(probe)
        import workloads
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            result = measure_traced(workload, args.workload, args.seed, workdir, probe)
        else:
            result = measure(workload, args.seed, args.seconds, workdir, probe, import_s)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
