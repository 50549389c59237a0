"""Regression tests for the version-aware ``get_simulator`` cache.

The original cache keyed entries on gate/IO *counts* only, so an
in-place rewrite that kept the size unchanged (exactly what the repair
loop's cover replacement does) served a stale compiled tape.  These
tests pin the fixed behavior: any structural mutation recompiles.
"""

import gc
import weakref

import numpy as np

from repro.cubes import Cover, Cube
from repro.network import Network
from repro.sim import (clear_simulator_cache, get_simulator,
                       simulator_cache_stats)
from repro.synth import QUICK_SCRIPT


def _net() -> Network:
    net = Network("c")
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], Cover(2, [Cube.from_string("11")]))
    net.add_output("f")
    return net


def _truth_row(net: Network) -> list[int]:
    sim = get_simulator(net)
    pi = np.zeros((2, 1), dtype=np.uint64)
    pi[0, 0] = 0b1010          # a
    pi[1, 0] = 0b1100          # b
    out = sim.run(pi)[sim.index["f"], 0]
    return [(int(out) >> i) & 1 for i in range(4)]


def test_mutate_then_simulate_is_fresh():
    net = _net()
    assert _truth_row(net) == [0, 0, 0, 1]          # AND
    # Same node count, same fanins — only the cover changes.  The old
    # size-keyed cache returned the stale AND tape here.
    net.replace_cover("f", Cover(2, [Cube.from_string("1-"),
                                     Cube.from_string("-1")]))
    assert _truth_row(net) == [0, 1, 1, 1]          # OR


def test_same_version_hits_cache():
    clear_simulator_cache()
    net = _net()
    before = simulator_cache_stats()
    sim1 = get_simulator(net)
    sim2 = get_simulator(net)
    after = simulator_cache_stats()
    assert sim1 is sim2
    assert after["hits"] - before["hits"] == 1
    assert after["misses"] - before["misses"] == 1


def test_mutation_is_a_miss_not_a_stale_hit():
    clear_simulator_cache()
    net = _net()
    sim1 = get_simulator(net)
    net.replace_cover("f", Cover(2, [Cube.from_string("0-")]))
    before = simulator_cache_stats()
    sim2 = get_simulator(net)
    after = simulator_cache_stats()
    assert sim2 is not sim1
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] == before["hits"]


def test_mapped_netlist_mutation_recompiles():
    netlist = QUICK_SCRIPT.run(_net())
    sim1 = get_simulator(netlist)
    netlist.add_input("x")
    netlist.add_gate("g_x", "INV", ["x"])
    sim2 = get_simulator(netlist)
    assert sim2 is not sim1
    assert "g_x" in sim2.index


def test_cache_does_not_keep_its_circuits_alive():
    # The cache is weakly keyed; a compiled simulator that pinned its
    # circuit would keep every circuit a long-lived process simulated.
    net = _net()
    sim = get_simulator(net)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None
    assert sim.output_names == ["f"]
