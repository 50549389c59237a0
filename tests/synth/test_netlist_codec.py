"""Flow checkpoints in the compact codec, and stores from before it.

A :class:`MappedNetlist` pickles as per-gate columns and a
:class:`Network` as per-node tuples.  Round trips keep every name and
order, the cells' identity with the netlist's library, and ``version``.
A checkpoint store whose entries hold the default ``__dict__`` pickles
of both classes must still resume every pass, and the flow token (which
keys every checkpoint) must not move.
"""

import copyreg
import hashlib
import io
import json
import pickle
from pathlib import Path

import pytest

from repro.bench import tiny_benchmark
from repro.ced import run_ced_flow
from repro.lab.cache import ArtifactStore
from repro.network import Network, parse_blif
from repro.synth import Gate, GateLibrary, quick_map
from repro.synth.netlist import MappedNetlist

CIRCUITS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" \
    / "circuits"
FLOW_KW = {"reliability_words": 2, "coverage_words": 2}

#: The token of each circuit's flow under ``FLOW_KW``, as first written.
TOKENS = {
    "tiny": "39ce0e3a3bc407002548cd7eea6d484a"
            "d3e953b11d441105d6a96b038040e2c2",
    "cmb": "b9dde9f599ef5cbd327f732af4202e45"
           "407be171ba7b614eaabec152dddc59fa",
}


class _LegacyPickler(pickle.Pickler):
    """Default ``__dict__`` pickles for the two graph classes and the
    gate library, as before they defined ``__reduce__`` (less the
    network's input-set memo, which that format predates)."""

    def reducer_override(self, value):
        if type(value) in (Network, MappedNetlist, GateLibrary, Gate):
            state = {k: v for k, v in vars(value).items()
                     if k != "_pi_index"}
            return copyreg.__newobj__, (type(value),), state, None, None
        return NotImplemented


def _legacy_dumps(value) -> bytes:
    buf = io.BytesIO()
    _LegacyPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return buf.getvalue()


class _LegacyStore(ArtifactStore):
    """Writes its entries through :class:`_LegacyPickler`."""

    def _encode(self, value, meta):
        blob = _legacy_dumps(value)
        doc = dict(meta or {})
        doc["artifact_digest"] = hashlib.sha256(blob).hexdigest()
        return doc["artifact_digest"], \
            [blob, json.dumps(doc, sort_keys=True).encode()]


def assert_same_netlist(a: MappedNetlist, b: MappedNetlist) -> None:
    assert (a.name, a.inputs, a.outputs, a.po_signals) == \
        (b.name, b.inputs, b.outputs, b.po_signals)
    assert list(a.gates) == list(b.gates)
    for name, gate in a.gates.items():
        other = b.gates[name]
        assert (other.name, other.cell.name, other.fanins) == \
            (name, gate.cell.name, gate.fanins)
        assert other.cell is b.library.gates[gate.cell.name]
    assert b.version == a.version
    assert b._topo_cache == a._topo_cache


def _flow(name: str, **kw):
    text = (CIRCUITS / f"{name}.blif").read_text()
    return run_ced_flow(parse_blif(text), **FLOW_KW, **kw)


def test_mapped_netlist_round_trip():
    mapped = quick_map(tiny_benchmark())
    mapped.topological_order()
    back = pickle.loads(pickle.dumps(mapped))
    assert_same_netlist(mapped, back)
    assert back.library.name == mapped.library.name
    assert back.evaluate_outputs(dict.fromkeys(mapped.inputs, True)) == \
        mapped.evaluate_outputs(dict.fromkeys(mapped.inputs, True))
    assert len(pickle.dumps(mapped)) < len(_legacy_dumps(mapped))


def test_restored_netlist_shares_the_bundled_library():
    live = quick_map(tiny_benchmark())
    back = pickle.loads(pickle.dumps(quick_map(tiny_benchmark())))
    assert back.library is live.library
    assert all(gate.cell is live.library.gates[gate.cell.name]
               for gate in back.gates.values())
    mapping = live.merge_from(back, "b_", {pi: pi for pi in back.inputs})
    assert set(mapping) >= set(back.gates)
    # The by-name library costs a few bytes instead of a cell table.
    assert len(pickle.dumps(live.library)) < 100


def test_custom_library_pickles_by_value():
    custom = GateLibrary("generic", list(quick_map(
        tiny_benchmark()).library.gates.values())[:3])
    back = pickle.loads(pickle.dumps(custom))
    assert back is not custom
    assert back.cells() == custom.cells()
    assert [back.get(c) for c in back.cells()] == \
        [custom.get(c) for c in custom.cells()]


def test_default_format_netlist_pickle_still_loads():
    mapped = quick_map(tiny_benchmark())
    back = pickle.loads(_legacy_dumps(mapped))
    assert back.library is not mapped.library
    assert back.library.cells() == mapped.library.cells()
    assert_same_netlist(mapped, back)
    assert back.evaluate_outputs(dict.fromkeys(mapped.inputs, True)) == \
        mapped.evaluate_outputs(dict.fromkeys(mapped.inputs, True))


def test_mapped_netlist_without_topo_cache_round_trips():
    mapped = quick_map(tiny_benchmark())
    mapped._invalidate()
    back = pickle.loads(pickle.dumps(mapped))
    assert back._topo_cache is None
    assert back.topological_order() == mapped.topological_order()


def test_ced_assembly_round_trip():
    assembly = _flow("tiny").assembly
    back = pickle.loads(pickle.dumps(assembly))
    assert_same_netlist(assembly.netlist, back.netlist)
    assert_same_netlist(assembly.original, back.original)
    # One pickle, one library: both netlists share the restored cells.
    assert back.netlist.library is back.original.library
    assert (back.error_pair, back.fault_sites, back.directions,
            back.checker_pairs, back.shared_gates) == \
        (assembly.error_pair, assembly.fault_sites, assembly.directions,
         assembly.checker_pairs, assembly.shared_gates)


@pytest.mark.parametrize("name", sorted(TOKENS))
def test_flow_token_is_pinned(name, tmp_path):
    _flow(name, checkpoint_dir=tmp_path)
    store = ArtifactStore(tmp_path)
    tokens = {store.meta(key)["token"] for key, _, _ in store._entries()}
    assert tokens == {TOKENS[name]}


def test_store_in_the_default_pickle_format_resumes_every_pass(tmp_path):
    cold = _flow("cmb", checkpoint_dir=tmp_path / "new")
    fresh = ArtifactStore(tmp_path / "new")
    legacy = _LegacyStore(tmp_path / "old")
    entries = [key for key, _, _ in fresh._entries()]
    assert len(entries) == 7
    compact = set()
    for key in entries:
        meta = fresh.meta(key)
        del meta["artifact_digest"]
        legacy.put(key, fresh.get(key), meta=meta)
        if b"_restore_net" in fresh._paths(key)[0].read_bytes():
            compact.add(meta["pass"])
        assert b"_restore_net" not in legacy._paths(key)[0].read_bytes()
    # Every pass whose outputs hold a network or a netlist.
    assert compact == {"map-original", "synthesize", "map-approx",
                       "assemble"}
    warm = _flow("cmb", checkpoint_dir=tmp_path / "old")
    assert [rec.status for rec in warm.trace.passes] == ["resumed"] * 7
    assert warm.summary() == cold.summary()
