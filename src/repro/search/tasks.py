"""Picklable evaluation tasks for the evolutionary checker search.

Candidates cross the process boundary as BLIF text — the repo's
native interchange format — so a search generation is an ordinary
:mod:`repro.lab` job grid: cached in the artifact store, recorded in
manifests, resumable after a kill.
"""

from __future__ import annotations

from typing import Any

from repro.ced import build_ced, evaluate_ced, run_ced_flow
from repro.lab.tasks import load_circuit
from repro.network import parse_blif, write_blif
from repro.synth import quick_map

__all__ = ["baseline_task", "evaluate_candidate_task"]


def baseline_task(circuit: str, table: int = 2, words: int = 4,
                  seed: int = 2008) -> dict[str, Any]:
    """The paper-flow checker: the search's seed and acceptance bar.

    Runs the full CED flow (reliability-directed approximate synthesis)
    and returns the approximation as BLIF plus its directions and the
    coverage/area yardsticks every candidate is scored against.
    """
    net = load_circuit(circuit, table)
    flow = run_ced_flow(net, reliability_words=words,
                        coverage_words=words, seed=seed)
    return {
        "blif": write_blif(flow.approx_result.approx),
        "directions": {po: int(d) for po, d
                       in flow.assembly.directions.items()},
        "area": int(flow.approx_mapped.gate_count),
        "coverage": float(flow.coverage.coverage),
        "false_alarms": int(flow.coverage.false_alarms),
        "golden_invalid": int(flow.coverage.golden_invalid),
        "max_coverage": float(100 * flow.reliability.max_ced_coverage),
    }


def evaluate_candidate_task(circuit: str, blif: str,
                            directions: dict[str, int],
                            table: int = 2, words: int = 4,
                            seed: int = 2008) -> dict[str, Any]:
    """Score one candidate check-symbol generator.

    Maps the candidate, assembles the CED architecture against the
    original circuit, and fault-simulates it — the identical
    measurement the paper flow gets, so candidate and baseline numbers
    are directly comparable.  ``golden_invalid > 0`` means the mutant
    broke the one-sided approximation contract (the checker would
    need a third symbol value); the fitness function disqualifies it.
    """
    net = load_circuit(circuit, table)
    original_mapped = quick_map(net)
    approx = parse_blif(blif)
    approx_mapped = quick_map(approx)
    directions = {po: int(d) for po, d in directions.items()}
    assembly = build_ced(original_mapped, approx_mapped, directions)
    result = evaluate_ced(assembly, n_words=words, seed=seed)
    return {
        "area": int(approx_mapped.gate_count),
        "coverage": float(result.coverage),
        "false_alarms": int(result.false_alarms),
        "golden_invalid": int(result.golden_invalid),
    }
