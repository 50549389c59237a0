"""Dataflow / abstract-interpretation framework over :class:`Network`.

A generic worklist fixpoint engine (:mod:`repro.analyze.fixpoint`) with
pluggable lattices (:mod:`repro.analyze.lattice`) and the concrete
domains the flow consumes (:mod:`repro.analyze.domains`): constant
propagation, unateness/parity masks, signal-probability interval
bounds, structural hashing, and observability (ODC) masks.
:class:`NetworkAnalyses` bundles the solutions per network version;
:class:`StaticDischarger` turns them into per-PO implication proofs.
The consumers are :mod:`repro.lint` and ``repro.cli analyze``; the
synthesis flow does not run these analyses.
"""

from .context import (ANALYZE_SCHEMA, NetworkAnalyses, analyze_network,
                      load_cached_summary, store_summary, summary_token)
from .domains import (ConstantAnalysis, ObservabilityAnalysis,
                      ProbabilityIntervalAnalysis, StructuralHashAnalysis,
                      UnatenessAnalysis, cones_structurally_equal,
                      constant_signals, cover_implies,
                      sdc_redundant_cubes, structural_classes,
                      unate_summary, unread_fanin_positions)
from .fixpoint import DataflowAnalysis, FixpointEngine, FixpointResult
from .lattice import (BOTTOM, REL_EQ, REL_GE, REL_LE, REL_TOP, TOP,
                      BitsetPairLattice, FlatLattice, IntervalLattice,
                      Lattice, RelationLattice, compose_relations,
                      flip_relation)
from .static_proof import StaticDischarger, StaticProof

__all__ = [
    "ANALYZE_SCHEMA",
    "BOTTOM",
    "TOP",
    "REL_EQ",
    "REL_GE",
    "REL_LE",
    "REL_TOP",
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
    "RelationLattice",
    "StaticDischarger",
    "StaticProof",
    "StructuralHashAnalysis",
    "UnatenessAnalysis",
    "analyze_network",
    "compose_relations",
    "cones_structurally_equal",
    "constant_signals",
    "cover_implies",
    "flip_relation",
    "load_cached_summary",
    "sdc_redundant_cubes",
    "store_summary",
    "structural_classes",
    "summary_token",
    "unate_summary",
    "unread_fanin_positions",
]
