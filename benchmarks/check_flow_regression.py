"""Perf-regression gate over BENCH_flow.json.

Re-times the warm (cached) flow for the gate circuits on the current
machine and fails if any regressed more than ``--tolerance`` (default
20%) against the committed baseline.  Raw seconds are not comparable
across machines, so the allowance is scaled by a machine-speed factor
measured from the *uncached* runs::

    allowed = baseline_cached * (fresh_uncached / baseline_uncached)
                              * (1 + tolerance)

A machine twice as slow as the baseline box gets twice the budget; a
genuinely regressed warm path fails on both.

Run as a script (CI invokes it after the quick bench)::

    python benchmarks/bench_flowperf.py --circuits i10 --out /tmp/f.json
    python benchmarks/check_flow_regression.py --fresh /tmp/f.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_flow.json"

#: Circuits the gate watches (the acceptance-critical warm paths).
GATE_CIRCUITS = ("i10",)


def check(baseline: dict, fresh: dict, tolerance: float,
          circuits=GATE_CIRCUITS) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures = []
    for name in circuits:
        base = baseline["circuits"].get(name)
        now = fresh["circuits"].get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
            continue
        if now is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        scale = now["uncached_seconds"] / base["uncached_seconds"]
        allowed = base["cached_seconds"] * scale * (1.0 + tolerance)
        if now["cached_seconds"] > allowed:
            failures.append(
                f"{name}: cached {now['cached_seconds']:.3f}s exceeds "
                f"allowed {allowed:.3f}s (baseline "
                f"{base['cached_seconds']:.3f}s, machine scale "
                f"x{scale:.2f}, tolerance {tolerance:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help=f"committed baseline (default {BASELINE})")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="freshly generated BENCH_flow.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative slowdown (default 0.20)")
    parser.add_argument("--circuits", nargs="*",
                        default=list(GATE_CIRCUITS),
                        help="circuits to gate on")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    failures = check(baseline, fresh, args.tolerance, args.circuits)
    for message in failures:
        print(f"REGRESSION {message}", file=sys.stderr)
    if not failures:
        names = ", ".join(args.circuits)
        print(f"perf gate passed for {names} "
              f"(tolerance {args.tolerance:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
