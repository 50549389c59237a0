"""BLIF reading and writing for combinational networks.

Supports the subset of BLIF that covers technology-independent logic:
``.model``, ``.inputs``, ``.outputs``, ``.names`` (with on-set or off-set
SOP rows) and constant nodes.  Latches and subcircuits are out of scope —
the paper's flow is purely combinational.

Malformed input raises :class:`BlifError` (a :class:`NetworkError`)
carrying the source name and line number of the offending construct, so
CLI users see ``circuit.blif, line 12: ...`` instead of a bare
``IndexError``.  ``.names`` blocks may reference signals defined later
in the file (the BLIF spec allows any order); nodes are inserted in
dependency order after the whole file is read.
"""

from __future__ import annotations

from pathlib import Path

from repro.cubes import Cover, Cube

from .network import Network, NetworkError
from .node import Node


class BlifError(NetworkError):
    """Malformed BLIF input (with source name and line number)."""


class _Names:
    """One pending ``.names`` block: output, fanins, SOP rows."""

    __slots__ = ("lineno", "output", "fanins", "row_line", "patterns",
                 "values")

    def __init__(self, lineno: int, output: str, fanins: list[str]):
        self.lineno = lineno
        self.output = output
        self.fanins = fanins
        self.row_line = 0              # line of the first SOP row
        self.patterns: list[str] = []
        self.values: list[str] = []


def parse_blif(text: str, source: str | None = None) -> Network:
    """Parse BLIF text into a :class:`Network`.

    ``source`` names the input (file path) in error messages.  Parsing
    is linear in the text: membership tests use sets, row patterns are
    checked with ``str.strip`` and converted by :meth:`Cube.from_string`,
    and the validated network is assembled in one step rather than
    through per-node mutators.
    """
    where = source or "<blif>"

    def fail(lineno: int, message: str) -> "NoReturn":  # noqa: F821
        raise BlifError(f"{where}, line {lineno}: {message}")

    name = "top"
    inputs: list[str] = []
    declared_outputs: list[tuple[int, str]] = []
    pending: list[_Names] = []
    by_name: dict[str, _Names] = {}
    input_lines: dict[str, int] = {}
    current: _Names | None = None

    for lineno, line in _logical_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword[0] != ".":
            if current is None:
                fail(lineno, f"SOP row outside a .names block: {line!r}")
            if current.fanins:
                if len(tokens) != 2:
                    fail(lineno, f"malformed SOP row: {line!r}")
                pattern, value = tokens
                if len(pattern) != len(current.fanins):
                    fail(lineno,
                         f"row width {len(pattern)} != fanin count "
                         f"{len(current.fanins)} for node "
                         f"{current.output!r}")
            else:
                if len(tokens) != 1:
                    fail(lineno, f"malformed constant row: {line!r}")
                pattern, value = "", tokens[0]
            if pattern.strip("01-"):
                bad = set(pattern) - {"0", "1", "-"}
                fail(lineno, f"invalid SOP row character "
                             f"{sorted(bad)[0]!r} in {line!r}")
            if value != "1" and value != "0":
                fail(lineno, f"SOP row value must be 0 or 1: {line!r}")
            if not current.values:
                current.row_line = lineno
            current.patterns.append(pattern)
            current.values.append(value)
        elif keyword == ".names":
            if len(tokens) < 2:
                fail(lineno, ".names needs at least an output signal")
            output = tokens[-1]
            fanins = tokens[1:-1]
            if output in input_lines:
                fail(lineno, f".names {output!r} redefines the primary "
                             f"input declared at line "
                             f"{input_lines[output]}")
            if output in by_name:
                fail(lineno, f".names {output!r} already defined at "
                             f"line {by_name[output].lineno}")
            if len(set(fanins)) != len(fanins):
                fail(lineno, f".names {output!r} repeats a fanin signal")
            current = _Names(lineno, output, fanins)
            pending.append(current)
            by_name[output] = current
        elif keyword == ".model":
            name = tokens[1] if len(tokens) > 1 else "top"
        elif keyword == ".inputs":
            for pi in tokens[1:]:
                if pi in input_lines:
                    fail(lineno, f"primary input {pi!r} already "
                                 f"declared at line {input_lines[pi]}")
                inputs.append(pi)
                input_lines[pi] = lineno
        elif keyword == ".outputs":
            declared_outputs.extend((lineno, po) for po in tokens[1:])
        elif keyword == ".end":
            break
        else:
            fail(lineno, f"unsupported BLIF construct {keyword!r}")

    if not declared_outputs:
        # Nothing to check: the flow would fail far from the input.
        raise BlifError(f"{where}: no primary outputs declared")
    nodes = _sort_nodes(input_lines, pending, fail)
    outputs = []
    for lineno, po in declared_outputs:
        if po not in nodes and po not in input_lines:
            fail(lineno, f"declared output {po!r} never defined")
        outputs.append(po)
    # One global change: caches see a new network, as after add_* calls.
    return Network._assemble(name, inputs, outputs, nodes, version=1)


def _sort_nodes(inputs: dict[str, int], pending: list[_Names],
                fail) -> dict[str, Node]:
    """The pending ``.names`` blocks as nodes, in dependency order.

    BLIF permits forward references, so blocks are topologically sorted
    before insertion; unknown fanins and definition cycles are reported
    with the offending block's line number.  ``inputs`` maps each
    primary input to its declaring line.
    """
    defined = set(inputs).union(entry.output for entry in pending)
    waiting: dict[str, int] = {}
    readers: dict[str, list[_Names]] = {}
    ready: list[_Names] = []
    for entry in pending:
        fanins = entry.fanins
        if not defined.issuperset(fanins):
            fanin = next(f for f in fanins if f not in defined)
            fail(entry.lineno,
                 f"node {entry.output!r}: fanin {fanin!r} is never "
                 f"defined")
        count = 0
        for fanin in fanins:
            if fanin not in inputs:
                count += 1
                waiters = readers.get(fanin)
                if waiters is None:
                    readers[fanin] = [entry]
                else:
                    waiters.append(entry)
        waiting[entry.output] = count
        if not count:
            ready.append(entry)
    nodes: dict[str, Node] = {}
    trusted = Node._trusted
    while ready:
        entry = ready.pop()
        nodes[entry.output] = trusted(
            entry.output, entry.fanins, _rows_to_cover(entry, fail))
        for reader in readers.get(entry.output, ()):
            left = waiting[reader.output] - 1
            waiting[reader.output] = left
            if not left:
                ready.append(reader)
    if len(nodes) != len(pending):
        stuck = [e for e in pending if waiting.get(e.output, 0) > 0]
        names = sorted(e.output for e in stuck)
        fail(min(e.lineno for e in stuck),
             f"combinational cycle through .names blocks {names[:5]}")
    return nodes


def _rows_to_cover(entry: _Names, fail) -> Cover:
    n = len(entry.fanins)
    if not entry.values:
        return Cover.zero(n)  # .names with no rows is constant 0
    values = set(entry.values)
    if len(values) != 1:
        fail(entry.row_line, f"node {entry.output!r} mixes on-set and "
                             f"off-set rows")
    if not n:  # constant node
        return Cover.one(n) if values == {"1"} else Cover.zero(n)
    parse = Cube.from_string
    cover = Cover._trusted(n, [parse(p) for p in entry.patterns])
    if values == {"1"}:
        return cover
    return cover.complement()  # off-set rows define the complement


def _logical_lines(text: str):
    """Strip comments, join continuations; yields ``(lineno, line)``."""
    carry = ""
    carry_start = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        line = raw.rstrip()
        if not line and not carry:
            continue
        if line.endswith("\\"):
            if not carry:
                carry_start = number
            carry += line[:-1] + " "
            continue
        if carry:
            full = (carry + line).strip()
            start = carry_start
            carry = ""
        else:
            full = line.lstrip()
            start = number
        if full:
            yield start, full
    if carry.strip():
        yield carry_start, carry.strip()


def read_blif(path: str | Path) -> Network:
    path = Path(path)
    return parse_blif(path.read_text(), source=str(path))


def write_blif(network: Network, path: str | Path | None = None) -> str:
    """Serialize to BLIF text; also writes ``path`` when given."""
    lines = [f".model {network.name}",
             ".inputs " + " ".join(network.inputs),
             ".outputs " + " ".join(network.outputs)]
    nodes = network.nodes
    for name in network.topological_order():
        node = nodes[name]
        lines.append(" ".join([".names", *node.fanins, name]))
        if node.fanins:
            lines.extend([cube.to_string() + " 1"
                          for cube in node.cover.cubes])
        elif node.constant_value():
            lines.append("1")
        # constant 0 is an empty .names block
    lines.append(".end\n")
    text = "\n".join(lines)
    if path is not None:
        Path(path).write_text(text)
    return text
