"""Static-analysis benchmark: fixpoint costs and facts found.

Measures, per bundled benchmark circuit, the wall time of a cold
:func:`repro.analyze.analyze_network` pass, plus the per-analysis
fixpoint costs (transfer applications, seconds) the engine
reports about itself, and the headline facts it found (constants, dead
cones, SDC cubes, structural duplicates).  The analyses serve
``repro.lint`` and ``repro.cli analyze``; the CED flow does not run
them, so there is no flow timing here.

Run as a script (no PYTHONPATH needed)::

    python benchmarks/bench_analyze.py            # full suite
    python benchmarks/bench_analyze.py --quick    # CI smoke run
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

from repro.analyze import NetworkAnalyses, analyze_network
from repro.bench.suite import TABLE2_SPECS, load_benchmark, tiny_benchmark

DEFAULT_OUT = ROOT / "BENCH_analyze.json"


def _load(name: str):
    return tiny_benchmark() if name == "tiny" else load_benchmark(name)


def bench_circuit(name: str) -> dict:
    network = _load(name)

    t0 = time.perf_counter()
    bundle = NetworkAnalyses(network)
    doc = analyze_network(network, bundle)
    analyze_seconds = time.perf_counter() - t0
    return {
        "nodes": int(network.num_nodes),
        "analyze_seconds": round(analyze_seconds, 4),
        "fixpoint": doc["fixpoint"],
        "facts": {
            "constants": doc["constants"]["count"],
            "dead_cones": len(doc["dead_cones"]),
            "sdc_cubes": doc["sdc_cubes"]["cubes"],
            "structural_duplicates": len(doc["structural_duplicates"]),
            "unread_fanin_positions": doc["unread_fanins"]["positions"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuits only (CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="explicit circuit list (default: suite)")
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
        },
        "circuits": {},
    }
    for name in names:
        entry = bench_circuit(name)
        report["circuits"][name] = entry
        facts = entry["facts"]
        print(f"{name:8s} {entry['nodes']:5d} nodes  "
              f"analyze {entry['analyze_seconds']:7.3f}s  "
              f"constants {facts['constants']:4d}  "
              f"duplicates {facts['structural_duplicates']:4d}")

    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
