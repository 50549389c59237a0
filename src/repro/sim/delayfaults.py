"""Transition (delay) fault model (paper Sec 5, item i).

A transition fault makes one gate slow-to-rise or slow-to-fall: when a
vector pair (v1, v2) would make the gate's output transition in the
slow direction, the sampled second-cycle value is still the first
cycle's value.  The fanout cone is re-evaluated combinationally with the
late value, modelling a speedpath that misses the sampling edge.

These are the "errors caused by delay faults on speed-paths" the paper
names as future work for approximate-logic CED: because the approximate
circuit's critical path is far shorter than the original's (the paper
measures -38%), the check side meets timing and catches the late
original output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import BitSimulator, get_simulator


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise (slow_to=1) or slow-to-fall (slow_to=0) gate."""

    signal: str
    slow_to: int

    def __post_init__(self):
        if self.slow_to not in (0, 1):
            raise ValueError("slow_to must be 0 (fall) or 1 (rise)")

    def __str__(self) -> str:
        kind = "str" if self.slow_to else "stf"
        return f"{self.signal}/{kind}"


def transition_fault_list(circuit, signals=None) -> list[TransitionFault]:
    """Both transition faults for every gate output (or given signals)."""
    if signals is None:
        sim_signals = get_simulator(circuit)
        signals = sim_signals.signals[sim_signals.num_inputs:]
    faults = []
    for signal in signals:
        faults.append(TransitionFault(signal, 1))
        faults.append(TransitionFault(signal, 0))
    return faults


def late_value(first: np.ndarray, second: np.ndarray,
               slow_to: int) -> np.ndarray:
    """The sampled value of a slow gate given its two golden values.

    Bits transitioning in the slow direction keep the first-cycle
    value; all other bits take the second-cycle value.
    """
    if slow_to == 1:
        blocked = ~first & second      # 0 -> 1 transitions delayed
    else:
        blocked = first & ~second      # 1 -> 0 transitions delayed
    return (second & ~blocked) | (first & blocked)


def run_transition_fault(sim: BitSimulator, first_values: np.ndarray,
                         second_values: np.ndarray,
                         fault: TransitionFault) -> dict[int, np.ndarray]:
    """Second-cycle overlay for one transition fault on a vector pair."""
    idx = sim.index[fault.signal]
    forced = late_value(first_values[idx], second_values[idx],
                        fault.slow_to)
    return sim.run_forced(second_values, fault.signal, forced)


def transition_words(sim: BitSimulator, first_values: np.ndarray,
                     second_values: np.ndarray,
                     faults: list[TransitionFault]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Site rows and second-cycle forced words of transition ``faults``.

    Returns ``(site_rows, forced)``: each fault forces its gate's
    :func:`late_value` on the golden vector pair.
    """
    site_rows = np.fromiter((sim.index[f.signal] for f in faults),
                            dtype=np.intp, count=len(faults))
    rise = np.fromiter((f.slow_to == 1 for f in faults), dtype=bool,
                       count=len(faults))
    first = first_values[site_rows]
    second = second_values[site_rows]
    return site_rows, np.where(rise[:, None], late_value(first, second, 1),
                               late_value(first, second, 0))


def run_transition_fault_batch(sim: BitSimulator,
                               first_values: np.ndarray,
                               second_values: np.ndarray,
                               faults: list[TransitionFault]
                               ) -> np.ndarray:
    """Batched second-cycle evaluation of many transition faults.

    All faults share the same golden vector pair; returns the faulty
    value cube of shape (S, len(faults), n_words) — lane ``b`` holds the
    second-cycle values with ``faults[b]``'s late value forced.  The
    full-cube reference for the stem-region campaign of
    :func:`~repro.ced.delay.evaluate_delay_fault_ced`.
    """
    site_rows, forced = transition_words(sim, first_values,
                                         second_values, faults)
    return sim.run_forced_batch(second_values, site_rows, forced)
