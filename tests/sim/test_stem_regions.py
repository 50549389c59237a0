"""The stem-region campaign primitive against the overlay interpreter.

:func:`repro.sim.observed_faults` toggles each fanout stem once and
derives every fault inside the stem's fanout-free region from that
toggle.  Each test here checks it, lane by lane, against
:meth:`BitSimulator.run_forced` (one cone overlay per fault) on the
same golden block, on hand-built circuits that exercise each edge of the
region definition and on seeded generated circuits.
"""

import numpy as np
import pytest

from repro.bench.generators import random_network
from repro.cubes import Cover
from repro.network import Network
from repro.sim import BitSimulator, DEFAULT_BATCH, observed_faults
from repro.synth import LIB_GENERIC, quick_map
from repro.synth.netlist import MappedNetlist

N_WORDS = 3


def _net(name, inputs, nodes, outputs):
    net = Network(name)
    for pi in inputs:
        net.add_input(pi)
    for out, fanins, cubes in nodes:
        net.add_node(out, fanins, Cover.from_strings(cubes)
                     if cubes else Cover(len(fanins)))
    for po in outputs:
        net.add_output(po)
    return net


def reconvergent():
    """``n1`` fans out and reconverges at ``y``."""
    return _net("reconv", "abcd", [
        ("n1", ["a", "b"], ["11"]),
        ("n2", ["n1", "c"], ["1-", "-1"]),
        ("n3", ["n1", "d"], ["01"]),
        ("y", ["n2", "n3"], ["10", "01"]),
    ], ["y"])


def po_chain():
    """An AND/OR chain whose middle row ``c2`` is a PO read once, ending
    at ``c3``, a PO that also fans out."""
    return _net("chain", "abcde", [
        ("c1", ["a", "b"], ["11"]),
        ("c2", ["c1", "c"], ["1-", "-1"]),
        ("c3", ["c2", "d"], ["11"]),
        ("y1", ["c3", "e"], ["1-", "-1"]),
        ("y2", ["c3", "a"], ["01"]),
    ], ["c2", "c3", "y1", "y2"])


def double_pin():
    """``r`` and ``q`` are each read by one gate on two pins: ``z = r xor
    r`` is 0, so no fault on ``r`` is observable, and ``w = q | q | c``
    passes a change of ``q`` on exactly where ``c`` is 0."""
    mapped = MappedNetlist("dup", LIB_GENERIC)
    for pi in "abc":
        mapped.add_input(pi)
    for out, cell, fanins in [("r", "AND2", ["a", "b"]),
                              ("q", "OR2", ["a", "b"]),
                              ("z", "XOR2", ["r", "r"]),
                              ("w", "OR3", ["q", "q", "c"]),
                              ("y", "OR2", ["z", "c"]),
                              ("v", "AND2", ["w", "a"])]:
        mapped.add_gate(out, cell, fanins)
    mapped.set_output("y", "y")
    mapped.set_output("v", "v")
    return mapped


def constant_readers():
    """``r`` feeds a tautology gate and an empty-cover gate; ``s`` feeds
    only the tautology; ``dead`` and its fanin ``d0`` drive nothing."""
    return _net("consts", "abc", [
        ("r", ["a", "b"], ["11"]),
        ("s", ["b", "c"], ["1-", "-1"]),
        ("taut", ["r", "s"], ["1-", "--"]),
        ("zero", ["r"], []),
        ("d0", ["a", "c"], ["10"]),
        ("dead", ["d0", "r"], ["11"]),
        ("y", ["taut", "zero", "r"], ["1-1", "-1-"]),
    ], ["y"])


def shared_po():
    """Two POs on one signal, on a mapped netlist."""
    mapped = quick_map(reconvergent())
    inner = next(g for g in mapped.gates
                 if g != mapped.po_signals["y"])
    mapped.set_output("y_again", mapped.po_signals["y"])
    mapped.set_output("inner", inner)
    return mapped


HAND_BUILT = {
    "reconvergent": reconvergent, "po_chain": po_chain,
    "double_pin": double_pin, "constant_readers": constant_readers,
    "shared_po": shared_po,
}


def _golden(sim, seed):
    rng = np.random.default_rng(seed)
    return sim.run(sim.random_inputs(rng, N_WORDS))


def _stuck_and_toggle(sim, golden):
    """Every row (PIs included) stuck-at-0, stuck-at-1 and inverted."""
    rows = np.arange(len(sim.signals), dtype=np.intp)
    zeros = np.zeros_like(golden)
    site_rows = np.concatenate([rows, rows, rows])
    forced = np.concatenate([zeros, ~zeros, ~golden])
    return site_rows, forced


def assert_matches_overlay(sim, golden, site_rows, forced, observe):
    observe = np.asarray(observe, dtype=np.intp)
    seen = np.zeros(len(site_rows), dtype=bool)
    for lanes, values in observed_faults(sim, golden, site_rows, forced,
                                         observe):
        assert values.shape == (observe.size, len(lanes), N_WORDS)
        for j, lane in enumerate(lanes):
            assert not seen[lane]
            seen[lane] = True
            site = sim.signals[site_rows[lane]]
            overlay = sim.run_forced(golden, site, forced[lane])
            expected = np.stack([overlay.get(int(r), golden[r])
                                 for r in observe]) if observe.size \
                else np.zeros((0, N_WORDS), dtype=np.uint64)
            assert np.array_equal(values[:, j, :], expected), \
                (site, int(lane))
    assert seen.all()


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_stuck_and_toggle(name):
    sim = BitSimulator(HAND_BUILT[name]())
    golden = _golden(sim, 3)
    site_rows, forced = _stuck_and_toggle(sim, golden)
    assert_matches_overlay(sim, golden, site_rows, forced,
                           sim.output_indices)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_arbitrary_words(name):
    """Transition-style faults force any word, not just 0, 1 or ~golden."""
    sim = BitSimulator(HAND_BUILT[name]())
    golden = _golden(sim, 5)
    rng = np.random.default_rng(7)
    site_rows = rng.integers(0, len(sim.signals), size=40).astype(np.intp)
    forced = rng.integers(0, 1 << 64, size=(40, N_WORDS), dtype=np.uint64)
    assert_matches_overlay(sim, golden, site_rows, forced,
                           sim.output_indices)


def test_observed_inner_rows_and_duplicates():
    """Observing rows in the middle of a region, twice over."""
    sim = BitSimulator(po_chain())
    golden = _golden(sim, 9)
    site_rows, forced = _stuck_and_toggle(sim, golden)
    observe = [sim.index[s] for s in ("c1", "y2", "c1", "a")]
    assert_matches_overlay(sim, golden, site_rows, forced, observe)
    assert_matches_overlay(sim, golden, site_rows, forced, [])


def test_region_structure():
    sim = BitSimulator(po_chain())
    golden = _golden(sim, 1)
    stem_of, obs = sim.fanout_free_regions(golden, sim.output_indices)
    stem = {sim.signals[r]: sim.signals[stem_of[r]]
            for r in range(len(sim.signals))}
    # c2 is a PO read once, so it is a stem of its own; c3 fans out.
    assert stem["c1"] == stem["b"] == stem["c"] == stem["c2"] == "c2"
    assert stem["d"] == stem["c3"] == "c3"
    assert stem["a"] == "a" and stem["e"] == "y1"
    c1 = sim.index["c1"]
    # c1 reaches c2 = c1 | c exactly where c is 0.
    assert np.array_equal(obs[c1], ~golden[sim.index["c"]])

    sim = BitSimulator(double_pin())
    golden = _golden(sim, 1)
    stem_of, obs = sim.fanout_free_regions(golden, sim.output_indices)
    r, q = sim.index["r"], sim.index["q"]
    assert stem_of[r] == sim.index["y"] and stem_of[q] == sim.index["v"]
    assert not obs[r].any()
    c, a = sim.index["c"], sim.index["a"]
    assert np.array_equal(obs[q], ~golden[c] & golden[a])


def test_each_stem_toggled_once(monkeypatch):
    net = random_network(11, n_nodes=120, n_inputs=10, n_outputs=6)
    sim = BitSimulator(quick_map(net))
    golden = _golden(sim, 2)
    site_rows, forced = _stuck_and_toggle(sim, golden)
    toggled = []
    real = BitSimulator.run_forced_batch

    def spy(self, golden, rows, words):
        rows = np.asarray(rows)
        assert len(rows) <= DEFAULT_BATCH
        assert np.array_equal(words, ~golden[rows])
        toggled.extend(rows.tolist())
        return real(self, golden, rows, words)

    monkeypatch.setattr(BitSimulator, "run_forced_batch", spy)
    for _ in observed_faults(sim, golden, site_rows, forced,
                             sim.output_indices):
        pass
    stem_of, _ = sim.fanout_free_regions(golden, sim.output_indices)
    assert sorted(toggled) == sorted(set(stem_of[site_rows].tolist()))
    levels = [sim.site_level(sim.signals[r]) for r in toggled]
    assert levels == sorted(levels)
    assert len(toggled) < len(sim.signals)


@pytest.mark.parametrize("seed", range(6))
def test_random_networks(seed):
    rng = np.random.default_rng(seed)
    net = random_network(seed, n_nodes=int(rng.integers(20, 90)),
                         n_inputs=int(rng.integers(4, 12)),
                         n_outputs=int(rng.integers(1, 6)))
    circuit = quick_map(net) if seed % 2 else net
    sim = BitSimulator(circuit)
    golden = _golden(sim, seed)
    site_rows, forced = _stuck_and_toggle(sim, golden)
    assert_matches_overlay(sim, golden, site_rows, forced,
                           sim.output_indices)
    extra = rng.integers(0, len(sim.signals), size=3)
    observe = list(sim.output_indices) + extra.tolist() + extra.tolist()
    words = rng.integers(0, 1 << 64, size=forced.shape, dtype=np.uint64)
    assert_matches_overlay(sim, golden, site_rows, words, observe)


def test_empty_fault_list():
    sim = BitSimulator(reconvergent())
    golden = _golden(sim, 1)
    assert list(observed_faults(sim, golden, np.zeros(0, np.intp),
                                np.zeros((0, N_WORDS), np.uint64),
                                sim.output_indices)) == []
