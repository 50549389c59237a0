"""The fixpoint engine over :class:`Network` DAGs.

An analysis plugs in a lattice plus transfer functions; the engine owns
the evaluation order.  The networks of this repo are acyclic, so one
sweep reaches the least fixpoint: a forward analysis visits every node
once in topological order, after all of its fanins; a backward analysis
visits every node in reverse topological order, then every PI, each
after all of its readers.  A solve is always from scratch: a
:class:`FixpointResult` describes the network version it was run on.

Two analysis shapes are supported:

* **forward** — information flows from primary inputs toward outputs.
  ``boundary(network, pi)`` seeds each PI; ``transfer(network, node,
  fanin_values)`` computes a node's value from its fanins' values (in
  fanin order).
* **backward** — information flows from primary outputs toward inputs.
  ``transfer(network, signal, reader_values)`` combines the values of
  the nodes reading ``signal``, passed as ``(reader_node,
  reader_value)`` pairs, and is responsible for seeding PO membership
  itself (it can see ``network.outputs``); ``boundary`` is unused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.network import Network

from .lattice import BOTTOM, Lattice


class DataflowAnalysis:
    """Base class for pluggable analyses; subclass and override."""

    #: Identifier used in stats and cache summaries.
    name = "abstract"
    #: "forward" or "backward".
    direction = "forward"

    def lattice(self, network: Network) -> Lattice:
        raise NotImplementedError

    def boundary(self, network: Network, signal: str):
        """Seed value (PIs for forward analyses, every signal backward)."""
        raise NotImplementedError

    def transfer(self, network: Network, signal: str, values):
        """Abstract evaluation of one signal from its dependencies."""
        raise NotImplementedError


@dataclass
class FixpointResult:
    """Solution plus cost accounting for one fixpoint run."""

    analysis: str
    values: dict[str, object]
    transfers: int = 0
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    def cost(self) -> dict:
        return {
            "analysis": self.analysis,
            "transfers": self.transfers,
            "seconds": round(self.seconds, 6),
        }


class FixpointEngine:
    """One-sweep solver; one instance is stateless and reusable."""

    def run(self, network: Network,
            analysis: DataflowAnalysis) -> FixpointResult:
        start = time.perf_counter()
        values: dict[str, object] = {}
        if analysis.direction == "forward":
            for pi in network.inputs:
                values[pi] = analysis.boundary(network, pi)
            order = network.topological_order()
            for name in order:
                fanin_values = [values.get(f, BOTTOM)
                                for f in network.nodes[name].fanins]
                values[name] = analysis.transfer(network, name,
                                                 fanin_values)
        elif analysis.direction == "backward":
            fanouts = network.fanouts()
            order = network.reverse_topological_order() \
                + list(network.inputs)
            for name in order:
                readers = [(r, values.get(r, BOTTOM))
                           for r in fanouts.get(name, ())]
                values[name] = analysis.transfer(network, name, readers)
        else:
            raise ValueError(
                f"unknown analysis direction {analysis.direction!r}")
        return FixpointResult(analysis=analysis.name, values=values,
                              transfers=len(order),
                              seconds=time.perf_counter() - start)
