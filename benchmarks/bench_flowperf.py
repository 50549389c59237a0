"""Flow performance harness: cold runs vs warm serve-style runs.

Times ``run_ced_flow`` on the Table 1/2 circuits in two modes:

* **uncached** — every rep is a fully fresh flow: new circuit object,
  fresh :class:`~repro.flow.AnalysisContext`, no persistent stores.
* **cached** — the warm serve-style configuration: one persistent
  context plus an on-disk checkpoint store and the cross-process proof
  cache (``repro.lab.proofs``), shared across reps.  Each rep still
  re-loads the circuit from scratch, so every hit is earned through
  content addressing, not object identity.
* **proof-serve** — the same persistent context and proof cache but
  *no* checkpoint store: every pass re-runs, yet the synthesis checker
  is never built because all PO implications (and percentages) are
  served from the proof cache.  This isolates what the proof cache
  alone buys, and its trace carries the reported ``proofs`` hit
  counters.  Circuits whose implication check degrades to statistical
  simulation (dalu, i10 at default node budgets) legitimately report
  zero hits: statistical verdicts are never cached.

Both modes run ``--warmup`` throwaway reps first (interpreter/OS cache
warm-up — unwarmed first reps used to make small circuits report
nonsense speedups like 0.96x on cmb) and report the **minimum** of the
timed reps.  The cached and uncached flows are asserted bit-identical
(same ``summary()``), so the speedup is pure reuse, never a change in
what gets computed.

Run as a script (no PYTHONPATH needed)::

    python benchmarks/bench_flowperf.py            # full suite
    python benchmarks/bench_flowperf.py --quick    # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.bench.suite import TABLE2_SPECS, load_benchmark, tiny_benchmark
from repro.ced.flow import run_ced_flow
from repro.flow import AnalysisContext

DEFAULT_OUT = ROOT / "BENCH_flow.json"

#: Flow parameters shared by all modes (the identity-check settings).
FLOW_KW = dict(reliability_words=2, coverage_words=2, seed=2008)


def _load(name: str):
    return tiny_benchmark() if name == "tiny" else load_benchmark(name)


def _time_reps(run_once, reps: int, warmup: int):
    """min-of-``reps`` wall clock after ``warmup`` throwaway reps."""
    times, flow = [], None
    for i in range(warmup + max(1, reps)):
        t0 = time.perf_counter()
        flow = run_once()
        elapsed = time.perf_counter() - t0
        if i >= warmup:
            times.append(elapsed)
    return min(times), flow


def _run_uncached(name: str, reps: int, warmup: int):
    def once():
        return run_ced_flow(_load(name),
                            ctx=AnalysisContext(enabled=False),
                            **FLOW_KW)
    return _time_reps(once, reps, warmup)


def _run_cached(name: str, reps: int, warmup: int, state_dir: Path,
                ctx: AnalysisContext):
    def once():
        return run_ced_flow(_load(name), ctx=ctx,
                            checkpoint_dir=state_dir / "checkpoints",
                            proof_cache_dir=state_dir / "proofs",
                            **FLOW_KW)
    return _time_reps(once, reps, warmup)


def _run_proof_serve(name: str, reps: int, state_dir: Path,
                     ctx: AnalysisContext):
    def once():
        return run_ced_flow(_load(name), ctx=ctx,
                            proof_cache_dir=state_dir / "proofs",
                            **FLOW_KW)
    return _time_reps(once, reps, warmup=0)


def _cache_rates(flow) -> dict:
    rates = {}
    for kind, counters in sorted(flow.trace.cache_totals().items()):
        seen = counters.get("hits", 0) + counters.get("misses", 0)
        if seen:
            rates[kind] = {
                **counters,
                "hit_rate": round(counters.get("hits", 0) / seen, 3)}
    return rates


def bench_circuit(name: str, reps: int, warmup: int) -> dict:
    t_off, flow_off = _run_uncached(name, reps, warmup)
    state_dir = Path(tempfile.mkdtemp(prefix=f"bench_{name}_"))
    try:
        ctx = AnalysisContext()
        # The cached warm-up rep populates checkpoint + proof stores.
        t_on, flow_on = _run_cached(name, reps, max(warmup, 1),
                                    state_dir, ctx)
        t_serve, flow_serve = _run_proof_serve(name, reps, state_dir,
                                               ctx)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    for label, flow in (("cached", flow_on), ("proof-serve",
                                              flow_serve)):
        if flow.summary() != flow_off.summary():
            raise AssertionError(
                f"{name}: warm {label} flow diverged from the fresh "
                f"flow — caching must be bit-identical")
    return {
        "gates": int(flow_on.original_mapped.gate_count),
        "uncached_seconds": round(t_off, 3),
        "cached_seconds": round(t_on, 3),
        "proof_serve_seconds": round(t_serve, 3),
        "speedup": round(t_off / t_on, 2),
        "proof_serve_speedup": round(t_off / t_serve, 2),
        "cache": _cache_rates(flow_serve),
        "pass_seconds": {
            rec.name: round(rec.wall_time_s, 3)
            for rec in flow_on.trace.passes},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuits only (CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="explicit circuit list (default: suite)")
    parser.add_argument("--reps", type=int, default=2,
                        help="timed repetitions per mode (min-of)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="throwaway repetitions before timing")
    args = parser.parse_args(argv)

    if args.circuits:
        names = args.circuits
    elif args.quick:
        names = ["tiny", "cmb", "cordic"]
    else:
        names = ["tiny"] + sorted(
            TABLE2_SPECS, key=lambda n: TABLE2_SPECS[n].target_gates)

    report = {
        "meta": {
            "python": platform.python_version(),
            "quick": bool(args.quick),
            "reps": int(args.reps),
            "warmup": int(args.warmup),
            "flow_kw": dict(FLOW_KW),
            "modes": {
                "uncached": "fresh context per rep, no stores",
                "cached": "persistent context + checkpoint store "
                          "+ proof cache, min over warm reps",
                "proof_serve": "persistent context + proof cache "
                               "only (no checkpoints): passes re-run "
                               "but no checker is ever built",
            },
        },
        "circuits": {},
    }
    for name in names:
        entry = bench_circuit(name, args.reps, args.warmup)
        report["circuits"][name] = entry
        proofs = entry["cache"].get("proofs", {})
        print(f"{name:8s} {entry['gates']:5d} gates  "
              f"{entry['uncached_seconds']:8.2f}s -> "
              f"{entry['cached_seconds']:7.2f}s  "
              f"x{entry['speedup']:.2f}  "
              f"(proof-serve {entry['proof_serve_seconds']:.2f}s, "
              f"hits {proofs.get('hits', 0)}/"
              f"{proofs.get('hits', 0) + proofs.get('misses', 0)})")

    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
