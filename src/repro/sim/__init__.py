"""Bit-parallel simulation, stuck-at faults, campaigns, and power."""

from .simulator import (MAX_EXHAUSTIVE_INPUTS, WORD_BITS, BitSimulator,
                        bit_count, clear_simulator_cache,
                        exhaustive_inputs, get_simulator, popcount,
                        signal_probabilities, simulator_cache_stats)
from .faults import Fault, fault_list
from .faultsim import (DEFAULT_BATCH, FaultSimReport, OutputErrorStats,
                       observed_faults, run_campaign)
from .power import power_overhead, switching_activity
from .delayfaults import (TransitionFault, late_value,
                          run_transition_fault, transition_fault_list)

__all__ = [
    "BitSimulator", "DEFAULT_BATCH", "Fault", "FaultSimReport",
    "MAX_EXHAUSTIVE_INPUTS", "OutputErrorStats", "WORD_BITS",
    "bit_count", "clear_simulator_cache", "exhaustive_inputs", "fault_list",
    "get_simulator", "observed_faults", "popcount", "power_overhead",
    "simulator_cache_stats",
    "run_campaign", "run_transition_fault", "signal_probabilities",
    "switching_activity", "TransitionFault", "transition_fault_list",
    "late_value",
]
