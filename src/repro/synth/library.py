"""Gate libraries for technology mapping.

A :class:`Gate` is a library cell: a small Boolean function (stored as an
SOP cover over its input pins) with area, delay, and relative-power
numbers in generic units.  Several libraries with different cell sets and
numbers are provided so the Table 3 experiment can produce genuinely
different technology-mapped implementations of the same circuit.

Area in the paper's evaluation is "the total number of gates"; the
per-cell ``area`` here feeds an alternative weighted-area metric, while
gate count remains the primary Table 2 metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cubes import Cover


@dataclass(frozen=True)
class Gate:
    """A library cell with function and physical characteristics."""

    name: str
    cover: Cover
    area: float
    delay: float
    power: float = 1.0

    @property
    def num_inputs(self) -> int:
        return self.cover.n

    def evaluate(self, inputs: tuple[bool, ...]) -> bool:
        assignment = 0
        for i, value in enumerate(inputs):
            if value:
                assignment |= 1 << i
        return self.cover.evaluate(assignment)

    def __reduce__(self):
        # A bundled library's cells pickle by name (see GateLibrary).
        for library in LIBRARIES.values():
            if library.gates.get(self.name) is self:
                return _bundled_cell, (library.name, self.name)
        return Gate, (self.name, self.cover, self.area, self.delay,
                      self.power)


class GateLibrary:
    """A named collection of gates, keyed by cell name."""

    def __init__(self, name: str, gates: list[Gate]):
        self.name = name
        self.gates: dict[str, Gate] = {}
        for gate in gates:
            if gate.name in self.gates:
                raise ValueError(f"duplicate cell {gate.name!r}")
            self.gates[gate.name] = gate

    def __contains__(self, cell: str) -> bool:
        return cell in self.gates

    def get(self, cell: str) -> Gate:
        try:
            return self.gates[cell]
        except KeyError:
            raise KeyError(
                f"library {self.name!r} has no cell {cell!r}") from None

    def cells(self) -> list[str]:
        return list(self.gates)

    def __repr__(self) -> str:
        return f"GateLibrary({self.name!r}, {len(self.gates)} cells)"

    def __reduce__(self):
        # The bundled libraries pickle by name: a restored netlist then
        # shares the live library (``MappedNetlist.merge_from`` compares
        # libraries by identity), and no checkpoint carries a copy.
        # Neither class defines ``__setstate__``, so default pickles
        # written earlier still load, as private copies.
        if LIBRARIES.get(self.name) is self:
            return _bundled_library, (self.name,)
        return GateLibrary, (self.name, list(self.gates.values()))


def _bundled_library(name: str) -> GateLibrary:
    return LIBRARIES[name]


def _bundled_cell(library: str, cell: str) -> Gate:
    return LIBRARIES[library].gates[cell]


def _and_cover(n: int) -> Cover:
    return Cover.from_strings(["1" * n])


def _or_cover(n: int) -> Cover:
    rows = []
    for i in range(n):
        rows.append("-" * i + "1" + "-" * (n - i - 1))
    return Cover.from_strings(rows)


def _gate_family(area2: float, delay2: float, step_area: float,
                 step_delay: float, power2: float) -> list[Gate]:
    """Build AND/OR/NAND/NOR families for 2..4 inputs."""
    gates = []
    for n in (2, 3, 4):
        area = area2 + (n - 2) * step_area
        delay = delay2 + (n - 2) * step_delay
        power = power2 + (n - 2) * 0.3
        and_c = _and_cover(n)
        or_c = _or_cover(n)
        gates.extend([
            Gate(f"AND{n}", and_c, area, delay, power),
            Gate(f"OR{n}", or_c, area, delay, power),
            Gate(f"NAND{n}", and_c.complement(), area - 0.5,
                 delay - 0.1, power - 0.1),
            Gate(f"NOR{n}", or_c.complement(), area - 0.5,
                 delay - 0.1, power - 0.1),
        ])
    return gates


def _tie_cells() -> list[Gate]:
    """Constant drivers, present in every library (zero-ish cost)."""
    return [
        Gate("TIE0", Cover.zero(0), 0.0, 0.0, 0.0),
        Gate("TIE1", Cover.one(0), 0.0, 0.0, 0.0),
    ]


def _make_generic() -> GateLibrary:
    gates = _tie_cells() + [
        Gate("INV", Cover.from_strings(["0"]), 1.0, 0.5, 0.5),
        Gate("BUF", Cover.from_strings(["1"]), 1.0, 0.6, 0.5),
        Gate("XOR2", Cover.from_strings(["10", "01"]), 3.0, 1.6, 1.8),
        Gate("XNOR2", Cover.from_strings(["11", "00"]), 3.0, 1.6, 1.8),
    ]
    gates += _gate_family(2.0, 1.0, 1.0, 0.4, 1.0)
    return GateLibrary("generic", gates)


def _make_nand_nor() -> GateLibrary:
    """An ASIC-flavoured library with only inverting cells."""
    gates = _tie_cells() + [
        Gate("INV", Cover.from_strings(["0"]), 0.8, 0.4, 0.4),
    ]
    for n in (2, 3):
        gates.append(Gate(f"NAND{n}", _and_cover(n).complement(),
                          1.2 + 0.8 * (n - 2), 0.8 + 0.3 * (n - 2), 0.9))
        gates.append(Gate(f"NOR{n}", _or_cover(n).complement(),
                          1.4 + 0.8 * (n - 2), 0.9 + 0.35 * (n - 2), 1.0))
    return GateLibrary("nand_nor", gates)


def _make_lowpower() -> GateLibrary:
    """Generic cell set with low-power sizing (slower, smaller)."""
    gates = _tie_cells() + [
        Gate("INV", Cover.from_strings(["0"]), 0.7, 0.8, 0.3),
        Gate("BUF", Cover.from_strings(["1"]), 0.7, 0.9, 0.3),
        Gate("XOR2", Cover.from_strings(["10", "01"]), 2.4, 2.2, 1.2),
        Gate("XNOR2", Cover.from_strings(["11", "00"]), 2.4, 2.2, 1.2),
    ]
    gates += _gate_family(1.6, 1.5, 0.8, 0.5, 0.7)
    return GateLibrary("lowpower", gates)


LIB_GENERIC = _make_generic()
LIB_NAND_NOR = _make_nand_nor()
LIB_LOWPOWER = _make_lowpower()

LIBRARIES = {lib.name: lib
             for lib in (LIB_GENERIC, LIB_NAND_NOR, LIB_LOWPOWER)}
