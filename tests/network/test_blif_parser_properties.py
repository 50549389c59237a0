"""The BLIF parser against a straightforward reference parser.

``_reference_parse`` is the parser as first written: list scans, one
mutator call per signal, cubes parsed character by character.  The
production parser must agree with it on every input, valid or not:
the same network (byte for byte through ``write_blif``, node order
included) or a :class:`BlifError` with the same message.  Rewritten
outputs of the bundled circuits are also pinned by digest, and the
positional cube notation is checked against a per-character oracle.
"""

import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cubes import Cover, Cube
from repro.network import Network
from repro.network.blif import BlifError, parse_blif, write_blif

CIRCUITS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" \
    / "circuits"

#: ``write_blif(parse_blif(text))`` and the parsed node order of every
#: bundled circuit, as sha256 prefixes of the first parser's output.
PINNED = {
    "cmb": ("4c38f2a09f4dc02c", "666cd5a42b9d7f77"),
    "cordic": ("336c7801f73c463a", "542b2dc8a34e8268"),
    "dalu": ("2223fdd73c285ba5", "2686b6da508274eb"),
    "frg2": ("21d38ee1cac68aee", "6f8353e686150331"),
    "i10": ("27a950232b59cd73", "206b111352e8bb41"),
    "i2": ("dc0e39c2ede06b35", "dc91489821f33c65"),
    "term1": ("dd75881c815026c0", "3524ee6f56796a46"),
    "tiny": ("8daa5d35b6d7e113", "d795f3e3e45f2be3"),
    "x1": ("fd0e3d01d1d2d086", "d27f39a471982376"),
    "fresh00": ("ecce5d4905c19458", "90fab24314d9f7fe"),
    "fresh01": ("11d721d51c9916fb", "9e4f747b5d16bd4d"),
    "fresh02": ("ca0d5d9f037fc07b", "9767dd9afcdfe5c1"),
    "fresh03": ("24a774c2732bd9bb", "d51cd78fd5d36e8d"),
    "fresh04": ("f9ec1ccff547789e", "31afde34b2803b09"),
    "fresh05": ("b3c9307c585be066", "61a3dc60d9a44383"),
    "fresh06": ("fef88da82bb6ad45", "eea8b4ba7975dd40"),
    "fresh07": ("ec1603c194af952d", "a2b94f3aae2e289c"),
    "fresh08": ("55f1a166f8195e33", "b73872bb83ffb7fe"),
    "fresh09": ("f7ea28c8bd7a5a47", "2b37dcfc3d4d8601"),
    "fresh10": ("c917e5f491b93fba", "685fd0543600d007"),
    "fresh11": ("c66baac8b737ba35", "3d6ff78fd207f805"),
    "fresh12": ("5a226db8a8d9560d", "99d4c586efa192f8"),
    "fresh13": ("f62a8a9942194239", "7196aa4abdf760e1"),
    "fresh14": ("0b7e5552d7f36220", "295a30907169c65b"),
    "fresh15": ("15c3d4721c9ef6cb", "b8bb79679bd44d4a"),
    "fresh16": ("20f1e009b8fe4459", "f13fb57529a752ad"),
    "fresh17": ("c7372309cb1dcdcc", "4948821dab1d2575"),
    "fresh18": ("d72c86da2adcc269", "de91c973163d0940"),
    "fresh19": ("c1198d1772f47475", "2ee9b54b703408d2"),
    "fresh20": ("471f2233906685a6", "34e91a0037aa2eca"),
    "fresh21": ("a3ed6943317fb6ac", "1c7525078316ed95"),
    "fresh22": ("4ce946bbe31372c1", "1d5aa89d0260d8ab"),
    "fresh23": ("e12a5731445c8cd8", "24a1b98f162386fd"),
    "fresh24": ("067c80990c5bb1f3", "29d5bb35945f1fb0"),
    "fresh25": ("9c6ad865913ef968", "289c089e94d6f605"),
    "fresh26": ("e290c5819533844c", "83eaa6b6047d3d3b"),
    "fresh27": ("3242af19e516c4f3", "42c6dd01f991a1d8"),
    "fresh28": ("a902cc47d2779ad3", "6b68e8e7c70c9aee"),
    "fresh29": ("2761220384936f18", "4ba484afb6d17ca8"),
    "fresh30": ("c31fb6006e649013", "7acb9cdf0a94bb95"),
    "fresh31": ("e868a127c44efdc7", "35b22e84f26602be"),
    "fresh32": ("e4f4078358a4babf", "c7b06c8475dc6041"),
    "fresh33": ("4fb4192f2016d21f", "ac04a8c222f2848c"),
    "fresh34": ("ff4ee14f6260f614", "c170db11e9d57e83"),
    "fresh35": ("75c2ade2e3299215", "d55d3d3e3e5586c3"),
    "fresh36": ("71ba218843106f0f", "c7d4ea542b2e25c5"),
    "fresh37": ("a7c5bc1b4bc4ad71", "b79d5279d43b11f6"),
    "fresh38": ("4d0ff1ae9dd61012", "5d748a5155dc1051"),
    "fresh39": ("d1b49a2573c52e65", "58ad5aea9852ab38"),
    "fresh40": ("73018c76eb2ee900", "32fe36a79fbcf907"),
    "fresh41": ("d28d47032f4e103f", "6a91e33e29cb7f39"),
    "fresh42": ("99e186363567ff6a", "bd84cb0d8371af05"),
    "fresh43": ("4dfa07e15fae1460", "d8a9b7993e7bbf94"),
    "fresh44": ("1e6e71f37aae5b41", "1f36a3a713dd5fea"),
    "fresh45": ("eebfc352bb3de3f3", "528910c6b5d5d6c5"),
    "fresh46": ("5f2ec83238ef8892", "fc78326615c57a2f"),
    "fresh47": ("029b5231fa6a2edb", "7ff721da3ef113f7"),
    "fresh48": ("c3fe465c09c2ceb3", "00ba3a00f6344f11"),
    "fresh49": ("72acbc0bbcbed894", "206d23b3d363209f"),
    "fresh50": ("486042c228939019", "5e9571ee961ef127"),
    "fresh51": ("9d7b49bec61ad416", "25ade64a7d1381e1"),
    "fresh52": ("e6d0c700e87cf20c", "49325487b594f1b2"),
    "fresh53": ("5c60e333e4185ad8", "4648728c2e035edd"),
    "fresh54": ("d0faa1a7ff5db51c", "5be1b9263c99fa9d"),
    "fresh55": ("22d1c52c2f38859d", "dc3f09fb81d79af3"),
    "fresh56": ("154cda75131bce9e", "0d9396a330a94631"),
    "fresh57": ("b86b1f229ef62374", "adfe6e71564908f8"),
    "fresh58": ("2d37941f1bb551b4", "4e8a656d03216fd0"),
    "fresh59": ("fe553ef38c402ad1", "3eebf889ddb72747"),
    "fresh60": ("ddb9a647f12a0f52", "194c2608e4f9aed1"),
    "fresh61": ("6a13678f3abb96ae", "d72bca22b9287761"),
    "fresh62": ("7fce5ab29aacd70a", "f0f8d48d77dfbe43"),
    "fresh63": ("88dfd617bf124181", "a33ff1278072f9eb"),
}


def _path(name: str) -> Path:
    return CIRCUITS / ("fresh" if name.startswith("fresh") else "") \
        / f"{name}.blif"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# The reference parser
# ----------------------------------------------------------------------
def _reference_cube(text: str) -> Cube:
    ones = zeros = 0
    for i, ch in enumerate(text):
        if ch == "1":
            ones |= 1 << i
        elif ch == "0":
            zeros |= 1 << i
        elif ch != "-":
            raise ValueError(f"invalid cube character {ch!r}")
    return Cube(len(text), ones, zeros)


def _reference_string(cube: Cube) -> str:
    return "".join("1" if cube.ones >> i & 1 else
                   "0" if cube.zeros >> i & 1 else "-"
                   for i in range(cube.n))


def _reference_lines(text: str):
    carry, carry_start = "", 0
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
            yield start, full
    if carry.strip():
        yield carry_start, carry.strip()


def _reference_parse(text: str, source: str) -> Network:
    def fail(lineno, message):
        raise BlifError(f"{source}, line {lineno}: {message}")

    network = Network()
    outputs, pending, by_name, input_lines = [], [], {}, {}
    current = None
    for lineno, line in _reference_lines(text):
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
            outputs.extend((lineno, name) for name in tokens[1:])
        elif keyword == ".names":
            if len(tokens) < 2:
                fail(lineno, ".names needs at least an output signal")
            output, fanins = tokens[-1], tokens[1:-1]
            if output in input_lines:
                fail(lineno, f".names {output!r} redefines the primary "
                             f"input declared at line "
                             f"{input_lines[output]}")
            if output in by_name:
                fail(lineno, f".names {output!r} already defined at "
                             f"line {by_name[output][0]}")
            if len(set(fanins)) != len(fanins):
                fail(lineno, f".names {output!r} repeats a fanin signal")
            current = (lineno, output, fanins, [])
            pending.append(current)
            by_name[output] = current
        elif keyword == ".end":
            break
        elif keyword.startswith("."):
            fail(lineno, f"unsupported BLIF construct {keyword!r}")
        else:
            if current is None:
                fail(lineno, f"SOP row outside a .names block: {line!r}")
            fanins = current[2]
            if fanins:
                if len(tokens) != 2:
                    fail(lineno, f"malformed SOP row: {line!r}")
                pattern, value = tokens
                if len(pattern) != len(fanins):
                    fail(lineno, f"row width {len(pattern)} != fanin "
                                 f"count {len(fanins)} for node "
                                 f"{current[1]!r}")
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
            current[3].append((lineno, pattern, value))
    if not outputs:
        raise BlifError(f"{source}: no primary outputs declared")

    defined = set(network.inputs) | {entry[1] for entry in pending}
    waiting, readers, ready = {}, {}, []
    for entry in pending:
        internal = []
        for fanin in entry[2]:
            if fanin not in defined:
                fail(entry[0], f"node {entry[1]!r}: fanin {fanin!r} is "
                               f"never defined")
            if fanin not in network.inputs:
                internal.append(fanin)
        waiting[entry[1]] = len(internal)
        for fanin in internal:
            readers.setdefault(fanin, []).append(entry)
        if not internal:
            ready.append(entry)
    placed = 0
    while ready:
        lineno, output, fanins, rows = entry = ready.pop()
        n = len(fanins)
        values = {value for _, _, value in rows}
        if not rows:
            cover = Cover.zero(n)
        elif len(values) != 1:
            fail(rows[0][0], f"node {output!r} mixes on-set and off-set "
                             f"rows")
        elif rows[0][1] == "":
            cover = Cover.one(n) if values == {"1"} else Cover.zero(n)
        else:
            cover = Cover(n, [_reference_cube(p) for _, p, _ in rows])
            if values == {"0"}:
                cover = cover.complement()
        network.add_node(output, fanins, cover)
        placed += 1
        for reader in readers.get(output, ()):
            waiting[reader[1]] -= 1
            if waiting[reader[1]] == 0:
                ready.append(reader)
    if placed != len(pending):
        stuck = [e for e in pending if waiting.get(e[1], 0) > 0]
        fail(min(e[0] for e in stuck), f"combinational cycle through "
             f".names blocks {sorted(e[1] for e in stuck)[:5]}")
    for lineno, name in outputs:
        if not network.signal_exists(name):
            fail(lineno, f"declared output {name!r} never defined")
        network.add_output(name)
    return network


def _outcome(parse, text: str):
    """``("ok", text written back, node order)`` or ``("error", msg)``."""
    try:
        net = parse(text, "mutant.blif")
    except BlifError as exc:
        return "error", str(exc)
    return "ok", write_blif(net), list(net.nodes)


# ----------------------------------------------------------------------
# Bundled circuits: pinned bytes and node order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PINNED))
def test_rewrite_matches_the_pinned_bytes_and_order(name):
    net = parse_blif(_path(name).read_text())
    written = write_blif(net)
    assert (_digest(written), _digest("\n".join(net.nodes))) \
        == PINNED[name]


# ----------------------------------------------------------------------
# Line mutations: same network or same error as the reference
# ----------------------------------------------------------------------
#: Small enough that the reference parser keeps the suite fast.
MUTATED = {name: _path(name).read_text().splitlines()
           for name in ("tiny", "cmb", "cordic", "fresh00", "fresh01")}

#: Characters a mutation may splice into a line.
SPLICE = ["x", "2", " ", ".", "#", "\\", "1", "0", "-", "\t"]


@st.composite
def mutants(draw):
    lines = list(MUTATED[draw(st.sampled_from(sorted(MUTATED)))])
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "truncate", "tokens",
             "phase", "splice"]))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "truncate":
            lines = lines[:i]
        elif kind == "tokens":
            tokens = lines[i].split()
            if len(tokens) > 1:
                a = draw(st.integers(0, len(tokens) - 1))
                b = draw(st.integers(0, len(tokens) - 1))
                tokens[a], tokens[b] = tokens[b], tokens[a]
                lines[i] = " ".join(tokens)
        elif kind == "phase":
            # An off-set row, within an on-set block or alone.
            if lines[i].endswith(" 1"):
                lines[i] = lines[i][:-1] + "0"
        else:
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(SPLICE)) \
                + lines[i][at:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutants())
def test_mutated_blif_parses_like_the_reference(text):
    # Any exception other than BlifError fails the test here.
    assert _outcome(parse_blif, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_off_set_blocks_parse_like_the_reference(name):
    flipped = "\n".join(line[:-1] + "0" if line.endswith(" 1") else line
                        for line in MUTATED[name]) + "\n"
    outcome = _outcome(parse_blif, flipped)
    assert outcome[0] == "ok"
    assert outcome == _outcome(_reference_parse, flipped)


def test_bad_row_characters_report_the_reference_character():
    text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n{} 1\n.end\n"
    for row in ("1x", "x1", "z2", "2z", "1١"):
        assert _outcome(parse_blif, text.format(row)) \
            == _outcome(_reference_parse, text.format(row))


# ----------------------------------------------------------------------
# Positional cube notation
# ----------------------------------------------------------------------
ALL_PATTERNS = ["".join(chars) for n in range(7)
                for chars in itertools.product("01-", repeat=n)]


def test_every_short_pattern_matches_the_per_character_oracle():
    for pattern in ALL_PATTERNS:
        cube = Cube.from_string(pattern)
        assert cube == _reference_cube(pattern), pattern
        assert cube.to_string() == pattern
        assert _reference_string(cube) == pattern


@settings(derandomize=True)
@given(st.text(alphabet="01-xX2 .١_", min_size=1, max_size=8))
def test_invalid_patterns_raise_the_oracle_error(pattern):
    try:
        expected = ("ok", _reference_cube(pattern))
    except ValueError as exc:
        expected = ("error", str(exc))
    try:
        got = ("ok", Cube.from_string(pattern))
    except ValueError as exc:
        got = ("error", str(exc))
    assert got == expected


@settings(derandomize=True)
@given(st.integers(65, 200), st.data())
def test_wide_cubes_round_trip(n, data):
    # Past the memoized width the conversions run uncached.
    pattern = data.draw(st.text(alphabet="01-", min_size=n, max_size=n))
    cube = Cube.from_string(pattern)
    assert cube == _reference_cube(pattern)
    assert cube.to_string() == pattern
