"""The technology-independent multi-level Boolean network.

This is the data structure every stage of the paper operates on: a DAG of
named signals where primary inputs are sources, internal nodes carry local
SOP covers over their fanins, and primary outputs name driver signals.
It fills the role of ABC's network object in the original work.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.cubes import Cover, Cube

from .node import Node

#: Mutations remembered for cone-scoped cache invalidation.  Once the
#: log overflows, :meth:`Network.changed_signals` answers ``None``
#: (unknown) and callers fall back to a full rebuild.
MUTATION_LOG_CAP = 512


class NetworkError(ValueError):
    """Structural problem in a network (cycles, missing signals, ...)."""


class Network:
    """A combinational Boolean network.

    Signals are identified by name.  A name is either a primary input or
    an internal node; primary outputs reference signals by name.  The
    graph must be acyclic; topological orderings are recomputed on demand
    and cached until the network is mutated.

    Pickles carry the graph only (see :meth:`__reduce__`): a restored
    network keeps its node order, covers and :attr:`version` but not
    its mutation log.
    """

    #: ``(inputs list, set of it)`` behind :meth:`is_input`; a
    #: class-level default so networks unpickled from the default
    #: ``__dict__`` format (which lacks the attribute) work unchanged.
    _pi_index: "tuple[list[str], set[str]] | None" = None

    def __init__(self, name: str = "top"):
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.nodes: dict[str, Node] = {}
        self._topo_cache: list[str] | None = None
        self._version: int = 0
        #: (version-after-mutation, touched signal names or None) pairs
        #: covering versions (_log_start, _version]; None = global change.
        self._mutation_log: list[tuple[int, frozenset[str] | None]] = []
        self._log_start: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _invalidate(self, touched: Iterable[str] | None = None) -> None:
        """Drop cached derived state after any structural mutation.

        Bumps the monotonic mutation :attr:`version` that derived-state
        caches (compiled simulators, global BDDs, analysis contexts) key
        on, and logs ``touched`` — the signal names whose local function
        or fanin list changed — so cone-scoped caches can invalidate
        only the affected fanout cones.  ``touched=None`` means a global
        change (input/output lists, unknown scope).
        """
        self._topo_cache = None
        self._version += 1
        entry = None if touched is None else frozenset(touched)
        self._mutation_log.append((self._version, entry))
        if len(self._mutation_log) > MUTATION_LOG_CAP:
            dropped_version, _ = self._mutation_log.pop(0)
            self._log_start = dropped_version

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every structural change."""
        return self._version

    def changed_signals(self, since_version: int) -> frozenset[str] | None:
        """Signals touched since ``since_version``, or ``None`` if unknown.

        ``None`` means a global change happened (or the mutation log no
        longer reaches back that far) and every derived artifact must be
        rebuilt.  An empty set means nothing changed.
        """
        if since_version >= self._version:
            return frozenset()
        if since_version < self._log_start:
            return None
        touched: set[str] = set()
        for version, entry in self._mutation_log:
            if version <= since_version:
                continue
            if entry is None:
                return None
            touched.update(entry)
        return frozenset(touched)

    def __reduce__(self):
        """Pickle as flat tuples: ``(name, fanins, n, [(n, ones, zeros),
        ...])`` per node, in dict and cube order.

        The mutation log is left out: a restored network starts its log
        at its own version, so :meth:`changed_signals` answers ``None``
        (rebuild) for any earlier version.  That is sound because every
        cache keyed on a version also keys on the network object, and
        the restored object is a new one.
        """
        nodes = [(node.name, node.fanins, node.cover.n,
                  [(cube.n, cube.ones, cube.zeros)
                   for cube in node.cover.cubes])
                 for node in self.nodes.values()]
        return (_restore_network,
                (self.name, self.inputs, self.outputs, nodes,
                 self._topo_cache, self._version))

    @classmethod
    def _assemble(cls, name: str, inputs: list[str], outputs: list[str],
                  nodes: dict[str, Node], version: int) -> "Network":
        """A network from parts the caller has already validated, with
        an empty mutation log starting at ``version``."""
        network = cls(name)
        network.inputs = inputs
        network.outputs = outputs
        network.nodes = nodes
        network._version = network._log_start = version
        return network

    def add_input(self, name: str) -> str:
        inputs = self._input_set()
        if name in self.nodes or name in inputs:
            raise NetworkError(f"signal {name!r} already defined")
        self.inputs.append(name)
        inputs.add(name)
        self._invalidate()
        return name

    def add_node(self, name: str, fanins: list[str], cover: Cover) -> str:
        if self.signal_exists(name):
            raise NetworkError(f"signal {name!r} already defined")
        for fanin in fanins:
            if not self.signal_exists(fanin):
                raise NetworkError(
                    f"node {name!r}: fanin {fanin!r} not defined yet "
                    "(add nodes in topological order)")
        self.nodes[name] = Node(name, fanins, cover)
        self._invalidate(touched=(name,))
        return name

    def add_const(self, name: str, value: bool) -> str:
        cover = Cover.one(0) if value else Cover.zero(0)
        return self.add_node(name, [], cover)

    def add_output(self, name: str) -> None:
        if not self.signal_exists(name):
            raise NetworkError(f"output references unknown signal {name!r}")
        self.outputs.append(name)
        # Topological order doesn't depend on the output list, but
        # invalidate anyway so future caches keyed on outputs stay safe.
        self._invalidate()

    def replace_cover(self, name: str, cover: Cover) -> None:
        """Replace a node's local function, keeping its fanin list."""
        node = self.nodes[name]
        if cover.n != len(node.fanins):
            raise NetworkError(
                f"replacement cover for {name!r} has wrong variable count")
        node.cover = cover
        self._invalidate(touched=(name,))

    def replace_node(self, name: str, fanins: list[str],
                     cover: Cover) -> None:
        """Replace a node's fanins and cover (must stay acyclic)."""
        if name not in self.nodes:
            raise NetworkError(f"no node named {name!r}")
        for fanin in fanins:
            if not self.signal_exists(fanin):
                raise NetworkError(f"fanin {fanin!r} not defined")
        old = self.nodes[name]
        self.nodes[name] = Node(name, fanins, cover)
        self._invalidate(touched=(name,))
        try:
            self.topological_order()
        except NetworkError:
            self.nodes[name] = old
            self._invalidate(touched=(name,))
            raise

    def remove_node(self, name: str) -> None:
        if name in self.outputs:
            raise NetworkError(f"cannot remove output driver {name!r}")
        for other in self.nodes.values():
            if other.name != name and name in other.fanins:
                raise NetworkError(f"node {name!r} still has fanouts")
        del self.nodes[name]
        self._invalidate(touched=(name,))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_input(self, name: str) -> bool:
        return name in self._input_set()

    def _input_set(self) -> set[str]:
        """The primary inputs as a set (read-only to callers).

        :meth:`add_input` keeps it in step; it is rebuilt when
        ``inputs`` is reassigned or changes length behind the network's
        back (inputs are unique, so length tracks membership).
        """
        index = self._pi_index
        if index is None or index[0] is not self.inputs \
                or len(index[1]) != len(self.inputs):
            index = self._pi_index = (self.inputs, set(self.inputs))
        return index[1]

    def signal_exists(self, name: str) -> bool:
        return name in self.nodes or name in self._input_set()

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def fanouts(self) -> dict[str, list[str]]:
        """Map from each signal to the node names that read it."""
        result: dict[str, list[str]] = {s: [] for s in self.inputs}
        result.update({s: result.get(s, []) for s in self.nodes})
        for node in self.nodes.values():
            for fanin in node.fanins:
                result[fanin].append(node.name)
        return result

    def topological_order(self) -> list[str]:
        """Internal node names, every node after all its fanins."""
        if self._topo_cache is not None:
            return list(self._topo_cache)
        inputs = self._input_set()
        pending: dict[str, int] = {}      # nodes with internal fanins
        fanout: dict[str, list[str]] = {}
        ready: list[str] = []
        for name, node in self.nodes.items():
            count = 0
            for fanin in node.fanins:
                if fanin not in inputs:
                    count += 1
                    readers = fanout.get(fanin)
                    if readers is None:
                        fanout[fanin] = [name]
                    else:
                        readers.append(name)
            if count:
                pending[name] = count
            else:
                ready.append(name)
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for reader in fanout.get(name, ()):
                left = pending[reader] - 1
                pending[reader] = left
                if not left:
                    ready.append(reader)
        if len(order) != len(self.nodes):
            stuck = sorted(n for n, count in pending.items() if count > 0)
            raise NetworkError(
                f"combinational cycle through {stuck[:5]}")
        self._topo_cache = order
        return list(order)

    def reverse_topological_order(self) -> list[str]:
        return list(reversed(self.topological_order()))

    def transitive_fanin(self, roots: Iterable[str]) -> set[str]:
        """All signals (nodes and PIs) feeding the given roots, inclusive."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self.nodes:
                stack.extend(self.nodes[name].fanins)
        return seen

    def level_map(self) -> dict[str, int]:
        """Logic depth of each signal (PIs at level 0)."""
        levels = {pi: 0 for pi in self.inputs}
        for name in self.topological_order():
            node = self.nodes[name]
            levels[name] = 1 + max((levels[f] for f in node.fanins),
                                   default=0)
        return levels

    def depth(self) -> int:
        levels = self.level_map()
        return max((levels[o] for o in self.outputs), default=0)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def total_literals(self) -> int:
        return sum(node.cover.num_literals for node in self.nodes.values())

    # ------------------------------------------------------------------
    # Evaluation (reference semantics; the fast path is repro.sim)
    # ------------------------------------------------------------------
    def evaluate(self, pi_values: dict[str, bool]) -> dict[str, bool]:
        """Evaluate every signal for one input assignment."""
        values: dict[str, bool] = {}
        for pi in self.inputs:
            values[pi] = bool(pi_values[pi])
        for name in self.topological_order():
            node = self.nodes[name]
            assignment = 0
            for i, fanin in enumerate(node.fanins):
                if values[fanin]:
                    assignment |= 1 << i
            values[name] = node.cover.evaluate(assignment)
        return values

    def evaluate_outputs(self, pi_values: dict[str, bool]) -> dict[str, bool]:
        values = self.evaluate(pi_values)
        return {o: values[o] for o in self.outputs}

    # ------------------------------------------------------------------
    # Copies and renaming
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Network":
        dup = Network(name or self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup.nodes = {n: node.copy() for n, node in self.nodes.items()}
        return dup

    def renamed(self, rename: Callable[[str], str],
                rename_inputs: bool = True) -> "Network":
        """A copy with every signal name passed through ``rename``."""
        mapping = {}
        for pi in self.inputs:
            mapping[pi] = rename(pi) if rename_inputs else pi
        for node_name in self.nodes:
            mapping[node_name] = rename(node_name)
        dup = Network(self.name)
        dup.inputs = [mapping[pi] for pi in self.inputs]
        dup.outputs = [mapping[o] for o in self.outputs]
        for name in self.topological_order():
            node = self.nodes[name]
            dup.nodes[mapping[name]] = Node(
                mapping[name], [mapping[f] for f in node.fanins],
                node.cover.copy())
        return dup

    def __repr__(self) -> str:
        return (f"Network({self.name!r}, {len(self.inputs)} PIs, "
                f"{len(self.nodes)} nodes, {len(self.outputs)} POs)")


def _restore_network(name, inputs, outputs, nodes, topo, version):
    """Unpickle :meth:`Network.__reduce__`'s tuples.  Equal cubes come
    back as one shared :class:`Cube` (cubes are immutable)."""
    shared: dict[tuple[int, int, int], Cube] = {}
    built = {}
    for node_name, fanins, n, rows in nodes:
        cubes = []
        for row in rows:
            cube = shared.get(row)
            if cube is None:
                cube = shared[row] = Cube._trusted(*row)
            cubes.append(cube)
        built[node_name] = Node._trusted(node_name, fanins,
                                         Cover._trusted(n, cubes))
    network = Network._assemble(name, inputs, outputs, built, version)
    network._topo_cache = topo
    return network


def embed(dst: Network, src: Network, binding: dict[str, str],
          prefix: str) -> dict[str, str]:
    """Instantiate ``src`` inside ``dst``.

    ``binding`` maps each primary input of ``src`` to an existing signal
    of ``dst``.  Internal nodes are copied under ``prefix``.  Returns the
    mapping from every ``src`` signal name to its ``dst`` name, so the
    caller can wire up ``src``'s outputs.
    """
    mapping: dict[str, str] = {}
    for pi in src.inputs:
        if pi not in binding:
            raise NetworkError(f"embed: unbound input {pi!r}")
        if not dst.signal_exists(binding[pi]):
            raise NetworkError(
                f"embed: binding target {binding[pi]!r} missing in dst")
        mapping[pi] = binding[pi]
    for name in src.topological_order():
        node = src.nodes[name]
        new_name = prefix + name
        counter = 0
        while dst.signal_exists(new_name):
            new_name = f"{prefix}{name}_{counter}"
            counter += 1
        dst.add_node(new_name, [mapping[f] for f in node.fanins],
                     node.cover.copy())
        mapping[name] = new_name
    return mapping


def iter_signals(network: Network) -> Iterator[str]:
    """All signal names: PIs first, then nodes in topological order."""
    yield from network.inputs
    yield from network.topological_order()
