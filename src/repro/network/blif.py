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

import io
from pathlib import Path

from repro.cubes import Cover, Cube

from .network import Network, NetworkError


class BlifError(NetworkError):
    """Malformed BLIF input (with source name and line number)."""


class _Names:
    """One pending ``.names`` block: output, fanins, SOP rows."""

    __slots__ = ("lineno", "output", "fanins", "rows")

    def __init__(self, lineno: int, output: str, fanins: list[str]):
        self.lineno = lineno
        self.output = output
        self.fanins = fanins
        self.rows: list[tuple[int, str, str]] = []  # (lineno, pattern, value)


def parse_blif(text: str, source: str | None = None) -> Network:
    """Parse BLIF text into a :class:`Network`.

    ``source`` names the input (file path) in error messages.
    """
    where = source or "<blif>"

    def fail(lineno: int, message: str) -> "NoReturn":  # noqa: F821
        raise BlifError(f"{where}, line {lineno}: {message}")

    network = Network()
    declared_outputs: list[tuple[int, str]] = []
    pending: list[_Names] = []
    by_name: dict[str, _Names] = {}
    input_lines: dict[str, int] = {}
    current: _Names | None = None

    for lineno, line in _logical_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == ".model":
            network.name = tokens[1] if len(tokens) > 1 else "top"
        elif keyword == ".inputs":
            for name in tokens[1:]:
                if name in input_lines:
                    fail(lineno, f"primary input {name!r} already "
                                 f"declared at line {input_lines[name]}")
                network.add_input(name)
                input_lines[name] = lineno
        elif keyword == ".outputs":
            declared_outputs.extend((lineno, name) for name in tokens[1:])
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
        elif keyword == ".end":
            break
        elif keyword.startswith("."):
            fail(lineno, f"unsupported BLIF construct {keyword!r}")
        else:
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
            bad = set(pattern) - {"0", "1", "-"}
            if bad:
                fail(lineno, f"invalid SOP row character "
                             f"{sorted(bad)[0]!r} in {line!r}")
            if value not in ("0", "1"):
                fail(lineno, f"SOP row value must be 0 or 1: {line!r}")
            current.rows.append((lineno, pattern, value))

    if not declared_outputs:
        # Nothing to check: the flow would fail far from the input.
        raise BlifError(f"{where}: no primary outputs declared")
    _insert_nodes(network, pending, fail)
    for lineno, name in declared_outputs:
        if not network.signal_exists(name):
            fail(lineno, f"declared output {name!r} never defined")
        network.add_output(name)
    return network


def _insert_nodes(network: Network, pending: list[_Names], fail) -> None:
    """Add the pending ``.names`` blocks in dependency order.

    BLIF permits forward references, so blocks are topologically sorted
    before insertion; unknown fanins and definition cycles are reported
    with the offending block's line number.
    """
    defined = set(network.inputs) | {entry.output for entry in pending}
    waiting: dict[str, int] = {}
    readers: dict[str, list[_Names]] = {}
    ready: list[_Names] = []
    for entry in pending:
        internal = []
        for fanin in entry.fanins:
            if fanin not in defined:
                fail(entry.lineno,
                     f"node {entry.output!r}: fanin {fanin!r} is never "
                     f"defined")
            if fanin not in network.inputs:
                internal.append(fanin)
        waiting[entry.output] = len(internal)
        for fanin in internal:
            readers.setdefault(fanin, []).append(entry)
        if not internal:
            ready.append(entry)
    placed = 0
    while ready:
        entry = ready.pop()
        cover = _rows_to_cover(entry, fail)
        network.add_node(entry.output, entry.fanins, cover)
        placed += 1
        for reader in readers.get(entry.output, ()):
            waiting[reader.output] -= 1
            if waiting[reader.output] == 0:
                ready.append(reader)
    if placed != len(pending):
        stuck = [e for e in pending if waiting.get(e.output, 0) > 0]
        names = sorted(e.output for e in stuck)
        fail(min(e.lineno for e in stuck),
             f"combinational cycle through .names blocks {names[:5]}")


def _rows_to_cover(entry: _Names, fail) -> Cover:
    n = len(entry.fanins)
    rows = entry.rows
    if not rows:
        return Cover.zero(n)  # .names with no rows is constant 0
    values = {value for _, _, value in rows}
    if len(values) != 1:
        fail(rows[0][0], f"node {entry.output!r} mixes on-set and "
                         f"off-set rows")
    cover = Cover(n, [Cube.from_string(p) for _, p, _ in rows if p != ""])
    if rows[0][1] == "":  # constant node
        return Cover.one(n) if values == {"1"} else Cover.zero(n)
    if values == {"1"}:
        return cover
    return cover.complement()  # off-set rows define the complement


def _logical_lines(text: str):
    """Strip comments, join continuations; yields ``(lineno, line)``."""
    joined: list[tuple[int, str]] = []
    carry = ""
    carry_start = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not carry:
            continue
        if line.endswith("\\"):
            if not carry:
                carry_start = number
            carry += line[:-1] + " "
            continue
        full = (carry + line).strip()
        start = carry_start if carry else number
        carry = ""
        if full:
            joined.append((start, full))
    if carry.strip():
        joined.append((carry_start, carry.strip()))
    return joined


def read_blif(path: str | Path) -> Network:
    path = Path(path)
    return parse_blif(path.read_text(), source=str(path))


def write_blif(network: Network, path: str | Path | None = None) -> str:
    """Serialize to BLIF text; also writes ``path`` when given."""
    out = io.StringIO()
    out.write(f".model {network.name}\n")
    out.write(".inputs " + " ".join(network.inputs) + "\n")
    out.write(".outputs " + " ".join(network.outputs) + "\n")
    for name in network.topological_order():
        node = network.nodes[name]
        out.write(".names " + " ".join(node.fanins + [name]) + "\n")
        constant = node.constant_value()
        if not node.fanins:
            if constant:
                out.write("1\n")
            # constant 0 is an empty .names block
        else:
            for cube in node.cover.cubes:
                out.write(cube.to_string() + " 1\n")
    out.write(".end\n")
    text = out.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
