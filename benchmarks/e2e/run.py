"""End-to-end benchmark of the CED flow: cold, warm and served.

One run of one workload (what ``BENCHMARK.json``'s command runs)::

    python benchmarks/e2e/run.py --workload cold-exact --seed 2008 \\
        --seconds 20 --trace 0

prints the run's full document as one JSON line, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``--out DIR`` also writes the document
(and, traced, the spans) under ``DIR/<workload>/``.

Every workload, each run in its own interpreter::

    python benchmarks/e2e/run.py --seed 2008 --out DIR [--trace 1]

prints every end-to-end metric per workload, the per-circuit medians
and, with ``--trace 1``, a traced run's layers and tracing overhead.
``python benchmarks/e2e/run.py --selftest`` checks the tracer on tiny
and cmb.  See README.md for the metrics and ``compare.py`` for judging
two result sets.
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
from time import perf_counter

import common
import tracing
import workloads

BENCHMARK_JSON = common.ROOT / "BENCHMARK.json"
SELFTEST_CIRCUITS = ("tiny", "cmb")
UNITS = {name: unit for name, unit, _ in
         workloads.END_TO_END + workloads.PER_LAYER}


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


# ----------------------------------------------------------------------
# Machine metadata and calibration
# ----------------------------------------------------------------------
def machine_meta(seed: int) -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "seed": seed}


def git_commit() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=common.ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def calibrate() -> dict:
    """A fixed machine-speed kernel: pure-Python dict/loop, numpy popcount.

    Recorded beside every run for trajectories across commits; it never
    rescales a pass/fail comparison.
    """
    import numpy as np
    began = perf_counter()
    table: dict[int, int] = {}
    for i in range(300_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
    python_s = perf_counter() - began
    words = np.random.default_rng(2008).integers(
        0, 2 ** 63, size=1 << 20, dtype=np.int64)
    began = perf_counter()
    for _ in range(3):
        int(np.unpackbits(words.view(np.uint8)).sum())
    return {"python_s": python_s, "numpy_s": perf_counter() - began}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def result_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    suffix = ".trace" if trace else ""
    return out / workload / f"seed-{seed}{suffix}.json"


def run_one(args: argparse.Namespace) -> int:
    common.use_source_tree()
    spans = None
    if args.out is not None:
        path = result_path(args.out, args.workload, args.seed, args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        if args.trace:
            spans = path.with_suffix(".spans.ndjson")
            spans.unlink(missing_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "meta": machine_meta(args.seed), "calibration": calibrate()}
    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), spans=spans)
    for error in run.errors:
        print(f"[{args.workload}] {error}", file=sys.stderr)
    if not run.samples:
        print(f"[{args.workload}] no operation completed",
              file=sys.stderr)
        return 1
    failed = len(run.errors)              # at most one per operation
    doc.update({"attempted": run.attempted, "failed": failed,
                "errors": run.errors, "end_to_end": run.end_to_end(),
                "circuits": run.circuits()})
    if args.trace:
        doc.update({"per_layer": run.per_layer(),
                    "entry_points": run.trace["entry_points"],
                    "max_gap": run.trace["max_gap"],
                    "missing_entry_points": run.trace["missing"]})
    if args.out is not None:
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    metrics = doc["per_layer"] if args.trace else doc["end_to_end"]
    print(json.dumps(doc, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()}}))
    return 0


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    status = 0
    docs: dict[tuple[str, int], dict] = {}
    for workload in workloads.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(args.out)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload}: run exited {proc.returncode}")
                status = 1
                continue
            docs[workload, trace] = json.loads(result_path(
                args.out, workload, args.seed, trace).read_text())
    for (workload, trace), doc in docs.items():
        if not trace:
            print_run(doc)
    for (workload, trace), doc in docs.items():
        if trace:
            print_trace(doc, docs.get((workload, 0)))
    return status


def print_run(doc: dict) -> None:
    print(f"\n{doc['workload']}  (seed {doc['seed']}, "
          f"{doc['attempted']} operations, failed_ratio "
          f"{doc['failed'] / doc['attempted']:.3f})")
    for name, value in doc["end_to_end"].items():
        print(f"  {name:16s} {value:12.4f} {UNITS[name]}")
    latencies = [x for entry in doc["circuits"].values()
                 for x in entry["samples_s"]]
    if len(latencies) >= 200:             # ten samples beyond the p95
        p95 = statistics.quantiles(latencies, n=20)[18]
        print(f"  {'latency_ms_p95':16s} {1000 * p95:12.4f} ms   "
              f"(n={len(latencies)})")
    for name, entry in doc["circuits"].items():
        print(f"  flow_s.{name:9s} {entry['median_s']:12.4f} s   "
              f"(n={entry['n']})")


def print_trace(doc: dict, untraced: dict | None) -> None:
    layers = doc["per_layer"]
    wall = layers["trace.flow_wall_s"]
    print(f"\n{doc['workload']} traced  (flow wall {wall:.3f} s, "
          f"{int(layers['trace.spans'])} spans)")
    if untraced is not None:
        overhead = (doc["end_to_end"]["round_s"]
                    / untraced["end_to_end"]["round_s"] - 1)
        print(f"  tracing overhead on round_s: {100 * overhead:+.1f}%")
    if wall > 0:
        covered = 1 - layers["other.self_s"] / wall
        print(f"  layers cover {100 * covered:.1f}% of the flow wall time")
    for name, value in layers.items():
        if value:
            print(f"  {name:28s} {value:14.4f} {UNITS[name]}")


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def selftest() -> int:
    """Tracer checks on tiny and cmb, one round of every workload."""
    common.use_source_tree()
    problems: list[str] = []
    runs = {}
    began = perf_counter()
    for trace in (False, True):
        for workload in workloads.WORKLOADS:
            run = workloads.run_workload(workload, 2008, 0, trace,
                                         circuits=SELFTEST_CIRCUITS)
            runs[workload, trace] = run
            problems += [f"{workload} (trace={trace}): {e}"
                         for e in run.errors]
    hits: dict[str, int] = {}
    for workload in workloads.WORKLOADS:
        plain, traced = runs[workload, False], runs[workload, True]
        for name, entry in traced.circuits().items():
            if entry["records"] != plain.circuits()[name]["records"]:
                problems.append(f"{workload}/{name}: traced results "
                                f"differ from untraced ones")
        report = traced.trace
        layers = tracing.layer_metrics(report)
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith(".self_s"))
        wall = layers["trace.flow_wall_s"]
        if report["max_gap"] > 0.01 or abs(self_sum - wall) > 0.01 * wall:
            problems.append(f"{workload}: self times plus other "
                            f"({self_sum:.4f} s) miss the flow wall time "
                            f"({wall:.4f} s) by more than 1%")
        problems += [f"{workload}: entry point {m} is missing"
                     for m in report["missing"]]
        for name, calls in report["entry_points"].items():
            hits[name] = hits.get(name, 0) + calls
    problems += [f"entry point {name} was never hit"
                 for name, calls in sorted(hits.items())
                 if not calls and not tracing.unreached(name)]
    spec = benchmark_spec()
    for key, declared in (("end_to_end", workloads.END_TO_END),
                          ("per_layer", workloads.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(declared):
            problems.append(f"BENCHMARK.json {key} differs from the "
                            f"metrics the benchmark emits")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(problems)} problems, "
          f"{sum(1 for c in hits.values() if c)}/{len(hits)} entry points "
          f"hit, {perf_counter() - began:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS),
                        help="run one workload once (default: all, each "
                             "in its own interpreter)")
    parser.add_argument("--seed", type=int, default=2008,
                        help="workload seed, which orders the work; "
                             "2009 is held out")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics "
                             "(with every workload: also run traced)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result documents and spans")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.workload is not None:
        return run_one(args)
    if args.out is None:
        parser.error("running every workload needs --out DIR")
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
