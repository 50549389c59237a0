"""Error-constrained ALS benchmark: area saved vs error budget.

Runs every suite circuit through the CED flow under both registered
synthesis engines:

* **cube** — the paper's implication-exact iterative flow (the
  baseline; its area overhead is the number to beat);
* **resub** — the error-constrained resubstitution engine, swept over
  a ladder of ``er`` bounds.  Each run records the measured error, the
  evaluator tier that attested it (exhaustive / bdd / mc), and the
  area overhead of the resulting CED circuit, so the output shows how
  much area a given error budget buys.

Every resub error report must be *within* its bound — the run aborts
otherwise, making this script double as a regression gate for the
two-tier evaluator.

Run as a script (no PYTHONPATH needed)::

    python benchmarks/bench_als.py            # full suite
    python benchmarks/bench_als.py --quick    # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.approx import ApproxConfig
from repro.bench.suite import TABLE2_SPECS, load_benchmark, tiny_benchmark
from repro.ced.flow import run_ced_flow
from repro.flow import AnalysisContext

DEFAULT_OUT = ROOT / "BENCH_als.json"

FLOW_KW = dict(reliability_words=2, coverage_words=2, seed=2008)

#: The er budget ladder each circuit is swept over.
ER_BOUNDS = (0.01, 0.05, 0.10)


def _load(name: str):
    return tiny_benchmark() if name == "tiny" else load_benchmark(name)


def _flow(name: str, config: ApproxConfig):
    t0 = time.perf_counter()
    flow = run_ced_flow(_load(name), config=config,
                        ctx=AnalysisContext(enabled=False), **FLOW_KW)
    return time.perf_counter() - t0, flow


def bench_circuit(name: str, bounds) -> dict:
    network = _load(name)
    cube_seconds, cube_flow = _flow(
        name, ApproxConfig(seed=FLOW_KW["seed"]))
    cube_area = cube_flow.summary()["area_overhead_pct"]

    entry = {
        "inputs": len(network.inputs),
        "outputs": len(network.outputs),
        "nodes": network.num_nodes,
        "cube": {
            "area_overhead_pct": round(cube_area, 2),
            "seconds": round(cube_seconds, 3),
        },
        "resub": [],
    }
    for bound in bounds:
        config = ApproxConfig(engine="resub",
                              seed=FLOW_KW["seed"],
                              error={"metric": "er", "bound": bound})
        seconds, flow = _flow(name, config)
        report = flow.approx_result.error_report
        if not report["within"]:
            raise AssertionError(
                f"{name} @ er<={bound}: measured {report['value']} "
                f"exceeds the bound — evaluator regression")
        area = flow.summary()["area_overhead_pct"]
        entry["resub"].append({
            "error_bound": bound,
            "error_value": report["value"],
            "error_method": report["method"],
            "error_exact": report["exact"],
            "area_overhead_pct": round(area, 2),
            "area_saved_vs_cube_pct": round(cube_area - area, 2),
            "commits": report["commits"],
            "seconds": round(seconds, 3),
        })
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuits only (CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="explicit circuit list (default: suite)")
    parser.add_argument("--bounds", nargs="*", type=float, default=None,
                        help=f"er bound ladder (default {ER_BOUNDS})")
    args = parser.parse_args(argv)

    if args.circuits:
        names = args.circuits
    elif args.quick:
        names = ["tiny", "cmb", "x1"]
    else:
        names = ["tiny"] + sorted(
            TABLE2_SPECS, key=lambda n: TABLE2_SPECS[n].target_gates)
    bounds = tuple(args.bounds) if args.bounds else ER_BOUNDS

    report = {
        "meta": {
            "python": platform.python_version(),
            "quick": bool(args.quick),
            "flow_kw": dict(FLOW_KW),
            "er_bounds": list(bounds),
        },
        "circuits": {},
    }
    for name in names:
        entry = bench_circuit(name, bounds)
        report["circuits"][name] = entry
        line = "  ".join(
            f"er<={r['error_bound']:g}: {r['area_overhead_pct']:6.1f}% "
            f"({r['error_method']})" for r in entry["resub"])
        print(f"{name:8s} cube {entry['cube']['area_overhead_pct']:6.1f}%"
              f"  {line}")

    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
