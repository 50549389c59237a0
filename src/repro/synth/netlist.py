"""Technology-mapped, gate-level netlists.

A :class:`MappedNetlist` is the post-mapping representation: every node
is an instance of a library :class:`~repro.synth.library.Gate`.  This is
the level at which the paper measures everything — area (gate count),
power (switching activity), delay (critical path), and fault injection
(single stuck-at faults at gate outputs).
"""

from __future__ import annotations

from repro.cubes import Cover

from repro.network import Network, NetworkError

from .library import Gate, GateLibrary


class MappedGate:
    """One gate instance: a named output signal driven by a library cell."""

    __slots__ = ("name", "cell", "fanins")

    def __init__(self, name: str, cell: Gate, fanins: list[str]):
        if len(fanins) != cell.num_inputs:
            raise ValueError(
                f"gate {name!r}: cell {cell.name} needs {cell.num_inputs} "
                f"inputs, got {len(fanins)}")
        self.name = name
        self.cell = cell
        self.fanins = list(fanins)

    def __repr__(self) -> str:
        return f"MappedGate({self.name!r} = {self.cell.name}{self.fanins})"


class MappedNetlist:
    """A gate-level circuit over a single library.

    Pickles carry the gates as name, cell and fanin columns in dict
    order, plus the netlist's ports, cached topological order and
    :attr:`version` (see :meth:`__reduce__`).
    """

    def __init__(self, name: str, library: GateLibrary):
        self.name = name
        self.library = library
        self.inputs: list[str] = []
        self.gates: dict[str, MappedGate] = {}
        # Logical output name -> driving signal name.
        self.po_signals: dict[str, str] = {}
        self.outputs: list[str] = []  # logical output names, ordered
        self._topo_cache: list[str] | None = None
        self._version: int = 0

    def __reduce__(self):
        # Three parallel per-gate columns instead of one slot-state dict
        # per gate: a mapped netlist is the bulk of most flow
        # checkpoints, and fewer containers unpickle faster.
        gates = self.gates.values()
        return (_restore_netlist,
                (self.name, self.library, self.inputs, list(self.gates),
                 [gate.cell for gate in gates],
                 [gate.fanins for gate in gates],
                 self.po_signals, self.outputs, self._topo_cache,
                 self._version))

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._version += 1

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every structural change."""
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        if self.signal_exists(name):
            raise NetworkError(f"signal {name!r} already defined")
        self.inputs.append(name)
        self._invalidate()
        return name

    def add_gate(self, name: str, cell: str, fanins: list[str]) -> str:
        if self.signal_exists(name):
            raise NetworkError(f"signal {name!r} already defined")
        for fanin in fanins:
            if not self.signal_exists(fanin):
                raise NetworkError(f"gate {name!r}: unknown fanin {fanin!r}")
        self.gates[name] = MappedGate(name, self.library.get(cell), fanins)
        self._invalidate()
        return name

    def fresh_name(self, stem: str) -> str:
        if not self.signal_exists(stem):
            return stem
        counter = 0
        while self.signal_exists(f"{stem}_{counter}"):
            counter += 1
        return f"{stem}_{counter}"

    def set_output(self, po_name: str, signal: str) -> None:
        if not self.signal_exists(signal):
            raise NetworkError(f"output {po_name!r}: unknown signal "
                               f"{signal!r}")
        if po_name not in self.po_signals:
            self.outputs.append(po_name)
        self.po_signals[po_name] = signal
        self._invalidate()

    def signal_exists(self, name: str) -> bool:
        return name in self.gates or name in self.inputs

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def output_signals(self) -> list[str]:
        return [self.po_signals[po] for po in self.outputs]

    def topological_order(self) -> list[str]:
        if self._topo_cache is not None:
            return list(self._topo_cache)
        inputs = set(self.inputs)
        pending: dict[str, int] = {}
        fanout: dict[str, list[str]] = {}
        ready: list[str] = []
        for name, gate in self.gates.items():
            internal = [f for f in gate.fanins if f not in inputs]
            pending[name] = len(internal)
            for fanin in internal:
                fanout.setdefault(fanin, []).append(name)
            if not internal:
                ready.append(name)
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for reader in fanout.get(name, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
        if len(order) != len(self.gates):
            raise NetworkError("cycle in mapped netlist")
        self._topo_cache = order
        return list(order)

    def fanouts(self) -> dict[str, list[str]]:
        result: dict[str, list[str]] = {s: [] for s in self.inputs}
        result.update({s: result.get(s, []) for s in self.gates})
        for gate in self.gates.values():
            for fanin in gate.fanins:
                result[fanin].append(gate.name)
        return result

    def transitive_fanout(self, signal: str) -> set[str]:
        """Gate names whose value can change when ``signal`` changes."""
        fanouts = self.fanouts()
        seen: set[str] = set()
        stack = list(fanouts.get(signal, ()))
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(fanouts.get(name, ()))
        return seen

    def sweep(self) -> int:
        """Drop gates that reach no output.  Returns the removal count."""
        live: set[str] = set()
        stack = [self.po_signals[po] for po in self.outputs]
        while stack:
            name = stack.pop()
            if name in live or name not in self.gates:
                continue
            live.add(name)
            stack.extend(self.gates[name].fanins)
        dead = [name for name in self.gates if name not in live]
        for name in dead:
            del self.gates[name]
        if dead:
            self._invalidate()
        return len(dead)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def area(self) -> float:
        """Library-weighted area (gate count is the paper's main metric)."""
        return sum(gate.cell.area for gate in self.gates.values())

    def arrival_times(self) -> dict[str, float]:
        times = {pi: 0.0 for pi in self.inputs}
        for name in self.topological_order():
            gate = self.gates[name]
            arrival = max((times[f] for f in gate.fanins), default=0.0)
            times[name] = arrival + gate.cell.delay
        return times

    def delay(self) -> float:
        if not self.outputs:
            return 0.0
        times = self.arrival_times()
        return max(times[self.po_signals[po]] for po in self.outputs)

    # ------------------------------------------------------------------
    # Evaluation / conversion
    # ------------------------------------------------------------------
    def evaluate(self, pi_values: dict[str, bool]) -> dict[str, bool]:
        values: dict[str, bool] = {pi: bool(pi_values[pi])
                                   for pi in self.inputs}
        for name in self.topological_order():
            gate = self.gates[name]
            values[name] = gate.cell.evaluate(
                tuple(values[f] for f in gate.fanins))
        return values

    def evaluate_outputs(self, pi_values: dict[str, bool]) -> dict[str, bool]:
        values = self.evaluate(pi_values)
        return {po: values[self.po_signals[po]] for po in self.outputs}

    def to_network(self) -> Network:
        """Convert to a technology-independent network (for BDD checks)."""
        net = Network(self.name)
        for pi in self.inputs:
            net.add_input(pi)
        for name in self.topological_order():
            gate = self.gates[name]
            net.add_node(name, list(gate.fanins), gate.cell.cover.copy())
        for po in self.outputs:
            signal = self.po_signals[po]
            if po != signal and not net.signal_exists(po):
                # Alias through a buffer so logical names survive.
                net.add_node(po, [signal], Cover.from_strings(["1"]))
                net.add_output(po)
            else:
                net.add_output(signal)
        return net

    def merge_from(self, other: "MappedNetlist", prefix: str,
                   binding: dict[str, str]) -> dict[str, str]:
        """Instantiate another mapped netlist inside this one.

        ``binding`` maps each input of ``other`` to a signal here.
        Returns the signal mapping (other name -> local name).  Outputs of
        ``other`` are not registered as outputs here; the caller wires
        them explicitly.
        """
        if other.library is not self.library:
            raise NetworkError("cannot merge netlists from different "
                               "libraries")
        mapping: dict[str, str] = {}
        for pi in other.inputs:
            if pi not in binding:
                raise NetworkError(f"merge_from: unbound input {pi!r}")
            if not self.signal_exists(binding[pi]):
                raise NetworkError(
                    f"merge_from: unknown binding target {binding[pi]!r}")
            mapping[pi] = binding[pi]
        for name in other.topological_order():
            gate = other.gates[name]
            local = self.fresh_name(prefix + name)
            self.add_gate(local, gate.cell.name,
                          [mapping[f] for f in gate.fanins])
            mapping[name] = local
        return mapping

    def __repr__(self) -> str:
        return (f"MappedNetlist({self.name!r}, lib={self.library.name!r}, "
                f"{len(self.inputs)} PIs, {len(self.gates)} gates, "
                f"{len(self.outputs)} POs)")


def _restore_netlist(name, library, inputs, names, cells, fanins,
                     po_signals, outputs, topo, version) -> MappedNetlist:
    """Unpickle :meth:`MappedNetlist.__reduce__`'s columns."""
    netlist = MappedNetlist(name, library)
    netlist.inputs = inputs
    new = MappedGate.__new__
    built = netlist.gates
    for gate_name, cell, gate_fanins in zip(names, cells, fanins):
        gate = built[gate_name] = new(MappedGate)
        gate.name = gate_name
        gate.cell = cell
        gate.fanins = gate_fanins
    netlist.po_signals = po_signals
    netlist.outputs = outputs
    netlist._topo_cache = topo
    netlist._version = version
    return netlist
