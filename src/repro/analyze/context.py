"""Lazy per-network analysis bundles and the cross-process summary cache.

:class:`NetworkAnalyses` runs each domain at most once per network
version and exposes the solutions as cached properties.  A bundle is
bound to the version it was built for: once its network mutates it
refuses to answer, and the caller builds a fresh one.

:func:`analyze_network` distills a bundle into the JSON summary served
by ``repro.cli analyze`` and ``bench_analyze``;
:func:`load_cached_summary` / :func:`store_summary` persist summaries
in ``.lab_cache/analyze/`` beside the proof store, content-keyed by the
circuit digest so equal circuits in different processes share one
computation.  The cache is a key (:func:`summary_token`) over the
self-digested JSON codec of the repo's store core
(:class:`repro.lab.cache.JsonStore`): writes are atomic, and a corrupt
or stale-schema summary is evicted and recomputed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.network import Network

from .domains import (ConstantAnalysis, ObservabilityAnalysis,
                      ProbabilityIntervalAnalysis, StructuralHashAnalysis,
                      UnatenessAnalysis, constant_signals,
                      sdc_redundant_cubes, structural_classes,
                      unate_summary, unread_fanin_positions)
from .fixpoint import FixpointEngine, FixpointResult

ANALYZE_SCHEMA = 2

_FORWARD_ANALYSES = {
    "constants": ConstantAnalysis,
    "unateness": UnatenessAnalysis,
    "probability": ProbabilityIntervalAnalysis,
    "structure": StructuralHashAnalysis,
}


class NetworkAnalyses:
    """All analysis solutions for one network at one mutation version.

    Properties solve lazily and memoize.  A solve after the network has
    mutated raises :class:`RuntimeError`: the solutions describe the
    version the bundle was built for, so a mutated network needs a new
    bundle.
    """

    def __init__(self, network: Network):
        self.network = network
        self.version = network.version
        self._engine = FixpointEngine()
        self._results: dict[str, FixpointResult] = {}

    def _solve(self, key: str) -> FixpointResult:
        if self.network.version != self.version:
            raise RuntimeError(
                f"network {self.network.name!r} mutated since its "
                f"analyses were built (version {self.version} -> "
                f"{self.network.version}); build a new NetworkAnalyses")
        result = self._results.get(key)
        if result is None:
            if key == "observability":
                analysis = ObservabilityAnalysis(self.constants)
            else:
                analysis = _FORWARD_ANALYSES[key]()
            result = self._engine.run(self.network, analysis)
            self._results[key] = result
        return result

    # ------------------------------------------------------------------
    # Solutions
    # ------------------------------------------------------------------
    @property
    def constant_values(self) -> dict[str, object]:
        return self._solve("constants").values

    @property
    def constants(self) -> dict[str, int]:
        """Signals proven constant, with their values."""
        return constant_signals(self.constant_values)

    @property
    def unateness(self) -> dict[str, object]:
        return self._solve("unateness").values

    @property
    def probability_intervals(self) -> dict[str, object]:
        return self._solve("probability").values

    @property
    def structure_hashes(self) -> dict[str, object]:
        return self._solve("structure").values

    @property
    def observability(self) -> dict[str, object]:
        return self._solve("observability").values

    def fixpoint_costs(self) -> list[dict]:
        return [self._results[key].cost()
                for key in sorted(self._results)]

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    def dead_cones(self) -> list[str]:
        """PO-reaching nodes proven unobservable at every PO (ODC)."""
        obs = self.observability
        reachable = self.network.transitive_fanin(
            [po for po in self.network.outputs
             if not self.network.is_input(po)])
        return [name for name in self.network.topological_order()
                if name in reachable and not obs.get(name, 0)]

    def sdc_cubes(self) -> dict[str, list[int]]:
        return sdc_redundant_cubes(self.network, self.constants)

    def duplicate_classes(self) -> list[list[str]]:
        return structural_classes(self.network, self.structure_hashes)

    def unread_fanins(self) -> dict[str, list[int]]:
        return unread_fanin_positions(self.network)


# ----------------------------------------------------------------------
# Summary + cross-process cache
# ----------------------------------------------------------------------
def analyze_network(network: Network,
                    analyses: NetworkAnalyses | None = None) -> dict:
    """One-shot JSON-ready summary of every analysis over ``network``."""
    bundle = analyses if analyses is not None \
        else NetworkAnalyses(network)
    constants = bundle.constants
    dead = bundle.dead_cones()
    sdc = bundle.sdc_cubes()
    dups = bundle.duplicate_classes()
    unread = bundle.unread_fanins()
    intervals = bundle.probability_intervals
    widths = [hi - lo for value in intervals.values()
              if isinstance(value, tuple) for lo, hi in [value]]
    unate = unate_summary(network, bundle.unateness)
    doc = {
        "schema": ANALYZE_SCHEMA,
        "circuit": network.name,
        "inputs": len(network.inputs),
        "nodes": network.num_nodes,
        "outputs": len(network.outputs),
        "constants": {
            "count": len(constants),
            "signals": {name: constants[name]
                        for name in sorted(constants)},
        },
        "dead_cones": sorted(dead),
        "sdc_cubes": {
            "nodes": len(sdc),
            "cubes": sum(len(v) for v in sdc.values()),
        },
        "structural_duplicates": [sorted(group) for group in dups],
        "unread_fanins": {
            "nodes": len(unread),
            "positions": sum(len(v) for v in unread.values()),
        },
        "probability_intervals": {
            "signals": len(widths),
            "mean_width": round(sum(widths) / len(widths), 6)
            if widths else 0.0,
            "exact": sum(1 for w in widths if w <= 1e-12),
        },
        "unateness": {
            "pos_unate_po_inputs": sum(u["positive_unate"]
                                       for u in unate.values()),
            "neg_unate_po_inputs": sum(u["negative_unate"]
                                       for u in unate.values()),
            "binate_po_inputs": sum(u["binate"]
                                    for u in unate.values()),
        },
        "fixpoint": bundle.fixpoint_costs(),
    }
    return doc


def summary_token(network: Network) -> str:
    """Content digest keying the cross-process summary cache."""
    lines = ["inputs:" + ",".join(network.inputs)]
    for name in network.topological_order():
        node = network.nodes[name]
        lines.append(f"{name}<{','.join(node.fanins)}"
                     f"<{';'.join(node.cover.to_strings())}")
    lines.append("outputs:" + ",".join(network.outputs))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _summary_store(cache_dir: str | Path):
    # Imported lazily: importing repro.lab loads its executor and
    # backends, which the analyses themselves never need.
    from repro.lab.cache import JsonStore
    return JsonStore(cache_dir, schema=ANALYZE_SCHEMA)


def load_cached_summary(cache_dir: str | Path,
                        network: Network) -> dict | None:
    """Serve a summary from disk; corrupt entries are evicted."""
    return _summary_store(cache_dir).get(summary_token(network), None)


def store_summary(cache_dir: str | Path, network: Network,
                  doc: dict) -> Path:
    """Atomic, racing-writer-safe summary write; returns its path."""
    store = _summary_store(cache_dir)
    token = summary_token(network)
    store.put(token, doc)
    return store._paths(token)[0]
