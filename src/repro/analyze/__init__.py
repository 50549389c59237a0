"""Dataflow / abstract-interpretation framework over :class:`Network`.

A generic fixpoint engine (:mod:`repro.analyze.fixpoint`) with
pluggable lattices (:mod:`repro.analyze.lattice`) and the concrete
domains the flow consumes (:mod:`repro.analyze.domains`): constant
propagation, unateness/parity masks, signal-probability interval
bounds, structural hashing, and observability (ODC) masks.
:class:`NetworkAnalyses` bundles the solutions for one network
version.  The consumers are :mod:`repro.lint` and ``repro.cli
analyze``; the synthesis flow does not run these analyses, and the
per-PO implications are proved by :mod:`repro.approx.prover`.
"""

from .context import (ANALYZE_SCHEMA, NetworkAnalyses, analyze_network,
                      load_cached_summary, store_summary, summary_token)
from .domains import (ConstantAnalysis, ObservabilityAnalysis,
                      ProbabilityIntervalAnalysis, StructuralHashAnalysis,
                      UnatenessAnalysis, cones_structurally_equal,
                      constant_signals, sdc_redundant_cubes,
                      structural_classes, unate_summary,
                      unread_fanin_positions)
from .fixpoint import DataflowAnalysis, FixpointEngine, FixpointResult
from .lattice import (BOTTOM, TOP, BitsetPairLattice, FlatLattice,
                      IntervalLattice, Lattice)

__all__ = [
    "ANALYZE_SCHEMA",
    "BOTTOM",
    "TOP",
    "BitsetPairLattice",
    "ConstantAnalysis",
    "DataflowAnalysis",
    "FixpointEngine",
    "FixpointResult",
    "FlatLattice",
    "IntervalLattice",
    "Lattice",
    "NetworkAnalyses",
    "ObservabilityAnalysis",
    "ProbabilityIntervalAnalysis",
    "StructuralHashAnalysis",
    "UnatenessAnalysis",
    "analyze_network",
    "cones_structurally_equal",
    "constant_signals",
    "load_cached_summary",
    "sdc_redundant_cubes",
    "store_summary",
    "structural_classes",
    "summary_token",
    "unate_summary",
    "unread_fanin_positions",
]
