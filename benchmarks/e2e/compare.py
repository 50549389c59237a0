"""Judge a change against its parent from two benchmark result sets.

A result set is a directory written by ``run.py --out DIR``, holding
``DIR/<workload>/seed-<n>.json`` for every run (run the parent and the
change with the same seeds, alternating which goes first)::

    python benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python benchmarks/e2e/compare.py --self RUNS_A RUNS_B

For every (metric, workload) pair, plus one ``flow_s.<circuit>`` row
per circuit judged with the ``round_s`` bound, it prints each side's
median and quartiles, the share of same-seed pairs the change wins
(ties count for neither), and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own spread (its quartile distance);
* ``unresolved``: the parent's spread is wider than the metric's bound
  and not every change run beats every parent run;
* ``regressed``: the change's median is worse by more than the bound;
* ``unchanged``: otherwise.

``--self`` checks that two sets of runs of the same code agree: every
pair's medians must lie within the bound.  Exit status 1 when a pair
regressed (or, with ``--self``, left its bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def load_set(directory: Path) -> dict:
    """``(workload, metric) -> {seed: value}`` of the untraced runs."""
    values: dict = defaultdict(dict)
    for path in sorted(directory.glob("*/seed-*.json")):
        if path.name.endswith(".trace.json"):
            continue
        doc = json.loads(path.read_text())
        workload, seed = doc["workload"], doc["seed"]
        for name, value in doc["end_to_end"].items():
            values[workload, name][seed] = value
        for circuit, entry in doc["circuits"].items():
            values[workload, f"flow_s.{circuit}"][seed] = entry["median_s"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: dict, change: dict, bound: float, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q, c_q = quartiles(p_vals), quartiles(c_vals)
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (parent[s] - change[s]) > 0)
    win_rate = wins / len(seeds) if seeds else 0.0
    worse = sign * (c_med - p_med) / p_med
    spread = (p_q[2] - p_q[0]) / p_med
    all_better = all(sign * (p - c) > 0 for p in p_vals for c in c_vals)
    if seeds and win_rate >= 0.9 and worse < 0 \
            and abs(c_med - p_med) > p_q[2] - p_q[0]:
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {"parent": p_q, "change": c_q, "pairs": len(seeds),
            "win_rate": win_rate, "worse": worse, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="both sets ran the same code: check every "
                             "pair stays within its bound")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_set(args.parent), load_set(args.change)
    status = 0
    print(f"{'workload':14s} {'metric':18s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'worse':>7s} {'bound':>6s} "
          f"{'wins':>9s}  verdict")
    for workload, name in sorted(set(parent) & set(change)):
        spec_name = "round_s" if name.startswith("flow_s.") else name
        if spec_name not in metrics:
            continue
        bound = metrics[spec_name]["bound"]
        result = judge(parent[workload, name], change[workload, name],
                       bound, metrics[spec_name]["better"])
        if args.self_check:
            ok = abs(result["worse"]) <= bound
            verdict = "within" if ok else "OUTSIDE"
            status |= not ok
        else:
            verdict = result["verdict"]
            status |= verdict == "regressed"
        fmt = "{:9.4g}/{:9.4g}/{:9.4g}"
        print(f"{workload:14s} {name:18s} "
              f"{fmt.format(*result['parent']):>30s} "
              f"{fmt.format(*result['change']):>30s} "
              f"{100 * result['worse']:+6.1f}% {100 * bound:5.1f}% "
              f"{result['win_rate']:5.0%} /{result['pairs']:<2d}  {verdict}")
    missing = set(parent) ^ set(change)
    if missing:
        print(f"only in one set: {sorted(missing)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
