"""CED coverage for transition (delay) faults — the Sec 5 extension.

Evaluates a :class:`~repro.ced.architecture.CedAssembly` under the
transition-fault model of :mod:`repro.sim.delayfaults`: random vector
pairs, a slow-to-rise/fall fault on one original gate, detection via
the consolidated two-rail pair in the second cycle.

The approximate check-symbol generator and the checkers are assumed to
meet timing (the approximate circuit's critical path is much shorter
than the original's — the very property the paper leverages), so only
the original gates carry delay faults.

One golden vector pair is shared by every fault.  Each fault forces
its gate's late value in the second cycle, and the campaign runs on
the stem-region path (:func:`~repro.sim.observed_faults`), exactly
like a stuck-at campaign;
:func:`~repro.sim.delayfaults.run_transition_fault` is the single-fault
reference it is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.sim import get_simulator
from repro.sim.delayfaults import (TransitionFault, transition_fault_list,
                                   transition_words)

from .architecture import CedAssembly
from .coverage import CoverageResult, tally_coverage


def evaluate_delay_fault_ced(assembly: CedAssembly, n_words: int = 8,
                             seed: int = 2008,
                             faults: list[TransitionFault] | None = None,
                             ctx=None) -> CoverageResult:
    """Fault-simulate transition faults and measure CED coverage.

    One golden vector *pair* is drawn for the whole campaign, and the
    second cycle is scored exactly as
    :func:`~repro.ced.coverage.evaluate_ced` scores a stuck-at
    campaign.
    """
    sim = (ctx.simulator if ctx is not None
           else get_simulator)(assembly.netlist)
    if faults is None:
        faults = transition_fault_list(assembly.netlist,
                                       signals=assembly.fault_sites)
    rng = np.random.default_rng(seed)
    first = sim.run(sim.random_inputs(rng, n_words))
    second = sim.run(sim.random_inputs(rng, n_words))
    site_rows, forced = transition_words(sim, first, second, faults)
    return tally_coverage(sim, assembly, second, site_rows, forced)
