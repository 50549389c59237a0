"""Simulation-engine performance harness.

Times the three layers the fault-injection stack is built on and emits
``BENCH_sim.json`` so future changes have a trajectory to beat:

* **golden throughput** (vectors/sec): compiled tape vs the seed
  per-cube interpreter, on every generator-suite circuit;
* **campaign throughput** (fault-vectors/sec): ``run_campaign`` on the
  stem-region path (one toggle per fanout stem, every fault in the
  stem's fanout-free region derived from it) vs the full-cube batched
  sweep (one tape lane per fault, ``run_stuck_batch``) vs the seed
  engine (fresh vectors + interpreted golden + Python cone overlay per
  fault), with the circuit's stem and fault counts;
* **end-to-end flow**: wall-clock of ``run_ced_flow`` on a subset of
  the suite.

Run as a script (no PYTHONPATH needed)::

    python benchmarks/bench_simperf.py            # full suite
    python benchmarks/bench_simperf.py --quick    # CI smoke run

The seed ("legacy") campaign is timed on a capped fault sample — its
throughput is per-fault constant, so the cap only bounds wall-clock.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.bench.suite import TABLE2_SPECS, load_benchmark, tiny_benchmark
from repro.ced.flow import run_ced_flow
from repro.sim import (DEFAULT_BATCH, WORD_BITS, BitSimulator, fault_list,
                       get_simulator, popcount, run_campaign)
from repro.sim.simulator import _popcount_unpackbits
from repro.synth import quick_map

DEFAULT_OUT = ROOT / "BENCH_sim.json"


def _time(fn, min_seconds: float = 0.2, max_reps: int = 50):
    """Run ``fn`` until ``min_seconds`` elapse; return seconds/call."""
    fn()  # warm-up
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or reps >= max_reps:
            return elapsed / reps


def _legacy_campaign(sim: BitSimulator, faults, n_words: int,
                     seed: int) -> int:
    """The seed engine, verbatim: fresh vectors per fault, interpreted
    golden, Python cone overlay, per-row OR, unpackbits popcount."""
    rng = np.random.default_rng(seed)
    error_runs = 0
    for fault in faults:
        pi_words = sim.random_inputs(rng, n_words)
        golden = sim.run_interpreted(pi_words)
        overlay = sim.run_fault(golden, fault.signal, fault.stuck)
        diff = sim.outputs_of(golden) ^ sim.faulty_outputs(golden,
                                                           overlay)
        if diff.any():
            any_error = np.zeros(n_words, dtype=np.uint64)
            for row in diff:
                any_error |= row
            error_runs += _popcount_unpackbits(any_error)
    return error_runs


def _full_cube_campaign(sim: BitSimulator, faults, n_words: int,
                        seed: int) -> int:
    """Error runs by the full-cube sweep: every fault its own tape lane,
    in level-sorted batches of ``DEFAULT_BATCH``."""
    golden = sim.run(sim.random_inputs(np.random.default_rng(seed),
                                       n_words))
    lifted = sim.outputs_of(golden)[:, None, :]
    ordered = sorted(faults, key=lambda f: sim.site_level(f.signal))
    error_runs = 0
    for start in range(0, len(ordered), DEFAULT_BATCH):
        batch = ordered[start:start + DEFAULT_BATCH]
        diff = sim.run_stuck_batch(golden, batch)[sim.output_indices] \
            ^ lifted
        error_runs += popcount(np.bitwise_or.reduce(diff, axis=0))
    return error_runs


def _stem_count(sim: BitSimulator, faults, n_words: int) -> int:
    """Distinct fanout stems the campaign toggles for ``faults``."""
    golden = sim.run(sim.random_inputs(np.random.default_rng(0), n_words))
    stem_of, _ = sim.fanout_free_regions(golden, sim.output_indices)
    rows = [sim.index[f.signal] for f in faults]
    return len(set(stem_of[rows].tolist()))


def bench_circuit(name: str, circuit, n_words: int,
                  legacy_fault_cap: int) -> dict:
    mapped = quick_map(circuit)
    sim = get_simulator(mapped)
    rng = np.random.default_rng(0)
    pi = sim.random_inputs(rng, n_words)
    vectors = n_words * WORD_BITS

    t_interp = _time(lambda: sim.run_interpreted(pi))
    t_tape = _time(lambda: sim.run(pi))

    faults = fault_list(mapped)
    legacy_faults = faults[:max(1, legacy_fault_cap)]
    t0 = time.perf_counter()
    _legacy_campaign(sim, legacy_faults, n_words, seed=2008)
    legacy_seconds = time.perf_counter() - t0
    legacy_fvps = len(legacy_faults) * vectors / legacy_seconds

    # Both campaign engines run on the compiled (cached) simulator.
    full_errors = _full_cube_campaign(sim, faults, n_words, seed=2008)
    stem_errors = run_campaign(mapped, n_words=n_words, seed=2008,
                               faults=faults).error_runs
    if stem_errors != full_errors:
        raise AssertionError(f"{name}: stem path {stem_errors} error "
                             f"runs, full cube {full_errors}")
    full_seconds = _time(lambda: _full_cube_campaign(sim, faults, n_words,
                                                     seed=2008))
    full_fvps = len(faults) * vectors / full_seconds
    stem_seconds = _time(lambda: run_campaign(mapped, n_words=n_words,
                                              seed=2008, faults=faults))
    stem_fvps = len(faults) * vectors / stem_seconds

    return {
        "gates": mapped.gate_count,
        "signals": len(sim.signals),
        "levels": sim.depth,
        "n_faults": len(faults),
        "n_stems": _stem_count(sim, faults, n_words),
        "golden": {
            "n_words": n_words,
            "interpreted_vectors_per_sec": round(vectors / t_interp),
            "tape_vectors_per_sec": round(vectors / t_tape),
            "speedup": round(t_interp / t_tape, 2),
        },
        "campaign": {
            "n_words": n_words,
            "legacy_interpreted": {
                "faults_timed": len(legacy_faults),
                "seconds": round(legacy_seconds, 3),
                "fault_vectors_per_sec": round(legacy_fvps),
            },
            "full_cube": {
                "faults_timed": len(faults),
                "seconds": round(full_seconds, 3),
                "fault_vectors_per_sec": round(full_fvps),
            },
            "stem_regions": {
                "faults_timed": len(faults),
                "seconds": round(stem_seconds, 3),
                "fault_vectors_per_sec": round(stem_fvps),
            },
            "speedup_stem_vs_full_cube": round(stem_fvps / full_fvps, 1),
            "speedup_stem_vs_legacy": round(stem_fvps / legacy_fvps, 1),
        },
    }


def bench_flows(names: list[str]) -> dict:
    flows = {}
    for name in names:
        if name == "tiny":
            net = tiny_benchmark()
        else:
            net = load_benchmark(name, table=2)
        t0 = time.perf_counter()
        result = run_ced_flow(net)
        flows[name] = {
            "seconds": round(time.perf_counter() - t0, 3),
            "ced_coverage_pct": round(result.coverage.coverage, 2),
        }
        print(f"  flow {name:8s} {flows[name]['seconds']:8.2f}s  "
              f"coverage {flows[name]['ced_coverage_pct']:.1f}%")
    return flows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuits only (CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--words", type=int, default=8,
                        help="words per vector block (x64 vectors)")
    parser.add_argument("--legacy-cap", type=int, default=300,
                        help="max faults timed with the seed engine")
    parser.add_argument("--no-flow", action="store_true",
                        help="skip end-to-end flow timing")
    args = parser.parse_args(argv)

    if args.quick:
        circuit_names = ["cmb", "cordic"]
        flow_names = ["tiny"]
    else:
        circuit_names = sorted(TABLE2_SPECS)
        flow_names = ["cmb", "cordic", "term1"]

    report = {
        "meta": {
            "machine": f"{platform.machine()}, "
                       f"{os.cpu_count()} logical CPUs",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "quick": args.quick,
            "n_words": args.words,
        },
        "circuits": {},
    }
    for name in circuit_names:
        circuit = (tiny_benchmark() if name == "tiny"
                   else load_benchmark(name, table=2))
        entry = bench_circuit(name, circuit, args.words, args.legacy_cap)
        report["circuits"][name] = entry
        camp = entry["campaign"]
        print(f"{name:8s} {entry['gates']:5d} gates  "
              f"{entry['n_stems']:5d}/{entry['n_faults']:5d} stems/faults  "
              f"golden x{entry['golden']['speedup']:.1f}  "
              f"campaign {camp['stem_regions']['fault_vectors_per_sec']:>12,} fv/s  "
              f"x{camp['speedup_stem_vs_full_cube']:.1f} vs full cube  "
              f"x{camp['speedup_stem_vs_legacy']:.1f} vs legacy")

    if not args.no_flow:
        print("end-to-end run_ced_flow:")
        report["flows"] = bench_flows(flow_names)

    largest = max(report["circuits"],
                  key=lambda n: report["circuits"][n]["gates"])
    achieved = report["circuits"][largest]["campaign"][
        "speedup_stem_vs_legacy"]
    report["target"] = {
        "metric": "campaign fault_vectors_per_sec, stem regions vs legacy",
        "largest_circuit": largest,
        "required_speedup": 5.0,
        "achieved_speedup": achieved,
        "met": achieved >= 5.0,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"largest circuit {largest}: x{achieved} "
          f"({'PASS' if achieved >= 5.0 else 'FAIL'} vs required 5x)")
    print(f"wrote {args.out}")
    return 0 if achieved >= 5.0 else 1


if __name__ == "__main__":
    sys.exit(main())
