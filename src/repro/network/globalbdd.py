"""Global BDD construction for networks.

Builds, for every signal, the BDD of its *global* Boolean function over
the primary inputs (paper Sec 2.1's "global Boolean function of the
node").  Used by the iterative cube-selection algorithm for implication
checks and by the approximation-percentage metric.  A node budget makes
blow-ups recoverable: callers catch :class:`BddOverflowError` and fall
back to simulation-based checking.

Each node's function is the OR of its cubes, each cube the AND of its
fanin literals, built one node at a time in topological order; the
manager's dedicated ``and_`` / ``or_`` / ``not_`` kernels carry the
work.
"""

from __future__ import annotations

from repro.bdd import make_manager

from .network import Network


class GlobalBdds:
    """Per-signal global BDDs for one or more networks over shared PIs."""

    def __init__(self, inputs: list[str], max_nodes: int | None = None):
        self.manager = make_manager(len(inputs), max_nodes=max_nodes)
        self.inputs = list(inputs)
        self._pi_index = {pi: i for i, pi in enumerate(inputs)}
        self.functions: dict[str, int] = {
            pi: self.manager.var(i) for i, pi in enumerate(inputs)}

    @classmethod
    def build(cls, network: Network, max_nodes: int | None = None,
              order: str = "dfs") -> "GlobalBdds":
        """Build global BDDs with a chosen input order.

        ``order="dfs"`` (default) orders primary inputs by depth-first
        cone traversal from the outputs — inputs feeding the same cone
        become neighbours in the variable order, which keeps BDDs far
        smaller than declaration order on cone-structured circuits.
        ``order="natural"`` keeps the network's input list order.
        """
        if order == "dfs":
            inputs = dfs_input_order(network)
        elif order == "natural":
            inputs = network.inputs
        else:
            raise ValueError(f"unknown input order {order!r}")
        bdds = cls(inputs, max_nodes=max_nodes)
        bdds.add_network(network)
        return bdds

    def add_network(self, network: Network, prefix: str = "") -> None:
        """Compute global functions for every node of ``network``.

        Signals are registered under ``prefix + name``; primary inputs of
        the network must match this object's input list (shared PI space),
        so original and approximate circuits can be compared directly.
        """
        for pi in network.inputs:
            if pi not in self._pi_index:
                raise ValueError(f"network input {pi!r} not in PI space")
        for name in network.topological_order():
            self._build_node(network, name, prefix)

    def _build_node(self, network: Network, name: str, prefix: str) -> None:
        """(Re)compute one node's global function from its fanins."""
        mgr = self.manager
        node = network.nodes[name]
        fanin_bdds = [self.functions[
            f if f in self._pi_index else prefix + f]
            for f in node.fanins]
        result = mgr.zero
        for cube in node.cover.cubes:
            term = mgr.one
            for i in range(cube.n):
                lit = cube.literal(i)
                if lit == "1":
                    term = mgr.and_(term, fanin_bdds[i])
                elif lit == "0":
                    term = mgr.and_(term, mgr.not_(fanin_bdds[i]))
            result = mgr.or_(result, term)
        self.functions[prefix + name] = result

    def update_network(self, network: Network, prefix: str = "",
                       changed: "frozenset[str] | set[str]" = frozenset(),
                       ) -> int:
        """Incrementally refresh functions after a cone-scoped mutation.

        ``changed`` are the signal names whose local cover or fanin list
        changed since :meth:`add_network` (or the last update) ran for
        this ``prefix``.  Only the changed nodes and their transitive
        fanout are recomputed; BDD canonicity guarantees the refreshed
        functions are identical to a from-scratch rebuild.  Functions of
        deleted signals are dropped.  Returns the number of node
        functions recomputed.
        """
        fanouts = network.fanouts()
        dirty: set[str] = set()
        stack = [s for s in changed if s not in self._pi_index]
        while stack:
            name = stack.pop()
            if name in dirty:
                continue
            dirty.add(name)
            stack.extend(fanouts.get(name, ()))
        # Drop functions of signals that no longer exist (deleted nodes
        # and anything stale under this prefix that the network lost).
        for name in dirty:
            if name not in network.nodes:
                self.functions.pop(prefix + name, None)
        order = network.topological_order()
        todo = [name for name in order if name in dirty]
        for name in todo:
            self._build_node(network, name, prefix)
        return len(todo)

    def function(self, signal: str) -> int:
        return self.functions[signal]

    def implies(self, a: str, b: str) -> bool:
        return self.manager.implies(self.functions[a], self.functions[b])

    def equal(self, a: str, b: str) -> bool:
        return self.functions[a] == self.functions[b]

    def minterm_fraction(self, signal: str) -> float:
        """Fraction of the input space where the signal is 1."""
        return self.manager.probability(self.functions[signal])


def dfs_input_order(network: Network) -> list[str]:
    """Primary inputs in depth-first cone-traversal order.

    Walks the transitive fanin of each output depth-first and records
    inputs at first visit; inputs never reaching an output keep their
    declaration order at the end (every PI must stay a BDD variable).
    """
    seen: set[str] = set()
    order: list[str] = []
    input_set = set(network.inputs)

    def visit(name: str) -> None:
        stack = [name]
        while stack:
            signal = stack.pop()
            if signal in seen:
                continue
            seen.add(signal)
            if signal in input_set:
                order.append(signal)
                continue
            node = network.nodes.get(signal)
            if node is not None:
                stack.extend(reversed(node.fanins))

    for po in network.outputs:
        visit(po)
    for pi in network.inputs:
        if pi not in seen:
            order.append(pi)
    return order
