"""Error masking with approximate logic circuits (paper Sec 5, item ii).

The paper's future work proposes "combined error detection and error
masking to enhance circuit reliability".  Approximate circuits support
a provably safe masking construction:

* a **0-approximation** X of output Y satisfies ``!X => !Y``: whenever
  X is 0 the true value is 0, so ``Y_masked = Y AND X`` never corrupts
  a fault-free circuit and silently squashes every 0->1 error that
  occurs while CED is active;
* dually, a **1-approximation** gives ``Y_masked = Y OR X``.

Masking composes with detection: the same check symbol generator both
flags and corrects errors in the protected direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import (WORD_BITS, Fault, get_simulator, observed_faults,
                       popcount)
from repro.synth.mapping import Emitter
from repro.synth.netlist import MappedNetlist

from .architecture import clone_netlist


@dataclass
class MaskedCircuit:
    """A circuit with masked outputs plus evaluation bookkeeping."""

    netlist: MappedNetlist
    original: MappedNetlist
    fault_sites: list[str]
    directions: dict[str, int]
    masked_outputs: dict[str, str]   # po -> masked signal name


def build_masked_circuit(original: MappedNetlist,
                         approx: MappedNetlist,
                         directions: dict[str, int]) -> MaskedCircuit:
    """Combine original and approximate circuits into a masking design.

    Every output gains a masked counterpart ``<po>__masked`` computed as
    ``Y AND X`` (0-approximation) or ``Y OR X`` (1-approximation).  The
    construction is safe: fault-free, masked and raw outputs agree.
    """
    combined = clone_netlist(original, f"{original.name}_masked")
    fault_sites = list(original.gates)
    mapping = combined.merge_from(approx, "apx_",
                                  {pi: pi for pi in approx.inputs})
    emitter = Emitter(combined)
    masked: dict[str, str] = {}
    for po in original.outputs:
        direction = directions[po]
        y = combined.po_signals[po]
        x = mapping[approx.po_signals[po]]
        if direction == 0:
            signal = emitter.emit_and([y, x], f"mask_{po}")
        else:
            signal = emitter.emit_or([y, x], f"mask_{po}")
        masked_name = f"{po}__masked"
        combined.set_output(masked_name, signal)
        masked[po] = masked_name
    return MaskedCircuit(netlist=combined, original=original,
                         fault_sites=fault_sites,
                         directions=dict(directions),
                         masked_outputs=masked)


@dataclass
class MaskingResult:
    """Error rates with and without masking, from one campaign."""

    runs: int
    raw_error_runs: int
    masked_error_runs: int

    @property
    def raw_error_rate(self) -> float:
        return self.raw_error_runs / self.runs if self.runs else 0.0

    @property
    def masked_error_rate(self) -> float:
        return self.masked_error_runs / self.runs if self.runs else 0.0

    @property
    def reduction_pct(self) -> float:
        """Errors removed by masking, as a percentage of raw errors."""
        if self.raw_error_runs == 0:
            return 0.0
        return 100.0 * (self.raw_error_runs - self.masked_error_runs) \
            / self.raw_error_runs


def evaluate_masking(masked: MaskedCircuit, n_words: int = 8,
                     seed: int = 2008,
                     faults: list[Fault] | None = None,
                     ctx=None) -> MaskingResult:
    """Fault-inject the masked circuit and compare error rates.

    A *raw* error run has some unmasked output wrong; a *masked* error
    run has some masked output wrong.  Masking must never increase the
    error count (asserted via the construction; measured here).
    """
    sim = (ctx.simulator if ctx is not None
           else get_simulator)(masked.netlist)
    if faults is None:
        faults = [Fault(site, v) for site in masked.fault_sites
                  for v in (0, 1)]
    raw_idx = [sim.index[masked.netlist.po_signals[po]]
               for po in masked.original.outputs]
    masked_idx = [sim.index[masked.netlist.po_signals[m]]
                  for m in masked.masked_outputs.values()]
    rng = np.random.default_rng(seed)
    golden = sim.run(sim.random_inputs(rng, n_words))
    golden_raw = golden[raw_idx]
    golden_masked = golden[masked_idx]
    raw_errors = masked_errors = 0
    n_raw = len(raw_idx)
    site_rows, forced = sim.stuck_words(faults, n_words)
    for _, faulty in observed_faults(sim, golden, site_rows, forced,
                                     raw_idx + masked_idx):
        raw_errors += popcount(np.bitwise_or.reduce(
            faulty[:n_raw] ^ golden_raw[:, None, :], axis=0))
        masked_errors += popcount(np.bitwise_or.reduce(
            faulty[n_raw:] ^ golden_masked[:, None, :], axis=0))
    return MaskingResult(runs=len(faults) * n_words * WORD_BITS,
                         raw_error_runs=raw_errors,
                         masked_error_runs=masked_errors)
