"""CED coverage evaluation by fault injection.

Reproduces the paper's measurement: random single stuck-at faults in the
original circuit's gates against random input vectors; CED coverage is
the fraction of runs with an erroneous primary output on which the CED
logic flags an invalid codeword (the consolidated two-rail pair becomes
non-complementary).

The campaign shares one vector block and one golden simulation across
all faults and evaluates faults in lanes on the compiled tape (see
:mod:`repro.sim.faultsim`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import (WORD_BITS, Fault, get_simulator, observed_faults,
                       popcount)

from .architecture import CedAssembly


@dataclass
class CoverageResult:
    """Outcome of a CED fault-injection campaign."""

    runs: int
    error_runs: int
    detected_error_runs: int
    detected_runs: int          # all detections, incl. pre-masking ones
    false_alarms: int           # detections with no output error
    #: Vectors on which the fault-free CED already reported an invalid
    #: codeword.  Zero whenever the approximate circuit is a correct
    #: approximation (always, under BDD checking); may be non-zero for
    #: statistically checked circuits.  Such vectors are excluded from
    #: detection accounting.
    golden_invalid: int = 0

    @property
    def coverage(self) -> float:
        """Detected fraction of runs with an output error (percent)."""
        if self.error_runs == 0:
            return 0.0
        return 100.0 * self.detected_error_runs / self.error_runs

    @property
    def error_rate(self) -> float:
        return self.error_runs / self.runs if self.runs else 0.0


def evaluate_ced(assembly: CedAssembly, n_words: int = 8,
                 seed: int = 2008,
                 faults: list[Fault] | None = None,
                 ctx=None) -> CoverageResult:
    """Fault-simulate a CED assembly and measure coverage.

    Faults default to all single stuck-at faults on the original
    circuit's gates (the paper's model); checker and check-symbol
    faults are excluded from coverage accounting, as in the paper.
    ``ctx`` (an :class:`~repro.flow.AnalysisContext`) shares the
    compiled simulator with the rest of the flow.
    """
    sim = (ctx.simulator if ctx is not None
           else get_simulator)(assembly.netlist)
    if faults is None:
        faults = [Fault(site, v) for site in assembly.fault_sites
                  for v in (0, 1)]
    rng = np.random.default_rng(seed)
    golden = sim.run(sim.random_inputs(rng, n_words))
    site_rows, forced = sim.stuck_words(faults, n_words)
    return tally_coverage(sim, assembly, golden, site_rows, forced)


def tally_coverage(sim, assembly: CedAssembly, golden: np.ndarray,
                   site_rows: np.ndarray,
                   forced: np.ndarray) -> CoverageResult:
    """Coverage counts of forced-value faults against one golden block.

    Fault ``i`` forces row ``site_rows[i]`` to ``forced[i]`` on the
    vectors of ``golden`` (see :func:`~repro.sim.observed_faults`).
    The fault-free CED must report a valid (complementary) codeword on
    every vector; vectors where it does not (possible only for
    statistically checked approximations) are excluded.  The block is
    shared, so the per-fault exclusion count is uniform.
    """
    po_indices = [sim.index[assembly.netlist.po_signals[po]]
                  for po in assembly.original.outputs]
    e0 = sim.index[assembly.error_pair[0]]
    e1 = sim.index[assembly.error_pair[1]]
    n_po = len(po_indices)
    valid = golden[e0] ^ golden[e1]
    golden_po = golden[po_indices]
    error_runs = detected_error = detected_all = false_alarms = 0
    for _, faulty in observed_faults(sim, golden, site_rows, forced,
                                     po_indices + [e0, e1]):
        diff = faulty[:n_po] ^ golden_po[:, None, :]
        error_mask = np.bitwise_or.reduce(diff, axis=0) & valid
        detect_mask = ~(faulty[n_po] ^ faulty[n_po + 1]) & valid  # equal rails
        error_runs += popcount(error_mask)
        detected_error += popcount(error_mask & detect_mask)
        detected_all += popcount(detect_mask)
        false_alarms += popcount(detect_mask & ~error_mask)
    n_faults = len(site_rows)
    return CoverageResult(
        runs=n_faults * golden.shape[1] * WORD_BITS,
        error_runs=error_runs,
        detected_error_runs=detected_error,
        detected_runs=detected_all,
        false_alarms=false_alarms,
        golden_invalid=popcount(~valid) * n_faults)
