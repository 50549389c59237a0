"""Every domain's definite answers checked against brute force.

The contract under test (domains.py docstring): a definite answer is a
theorem about the circuit; TOP only ever means "unknown".  So for each
analysis we enumerate all input assignments with the pure-Python
evaluator in helpers.py and demand that claimed constants really are
constant, claimed unateness really is monotone, probability bounds
really bracket the exact density, structural duplicates really compute
the same function, and dead cones really are unobservable.
"""

import random

from repro.analyze import NetworkAnalyses
from repro.analyze.domains import cones_structurally_equal
from repro.analyze.lattice import BOTTOM, TOP

from .helpers import cube_fires, eval_all, eval_cover, random_network

N_TRIALS = 25


def _cases():
    rng = random.Random(2008)
    for trial in range(N_TRIALS):
        net = random_network(rng, n_inputs=4, n_nodes=7,
                             name=f"dom{trial}")
        yield net, NetworkAnalyses(net), eval_all(net)


def test_constants_are_really_constant():
    for net, bundle, rows in _cases():
        for name, value in bundle.constants.items():
            assert set(rows[name]) == {value}, (net.name, name)


def test_unateness_masks_are_sound():
    for net, bundle, rows in _cases():
        count = 1 << len(net.inputs)
        for name, masks in bundle.unateness.items():
            if masks in (BOTTOM, TOP) or net.is_input(name):
                continue
            pos, neg = masks
            for j in range(len(net.inputs)):
                bit = 1 << j
                pairs = [(a, a | bit) for a in range(count)
                         if not a & bit]
                if not masks[0] & bit and not masks[1] & bit:
                    # Provably independent of PI j.
                    assert all(rows[name][lo] == rows[name][hi]
                               for lo, hi in pairs), (net.name, name, j)
                elif not neg & bit:
                    # Positive unate: monotone non-decreasing in PI j.
                    assert all(rows[name][lo] <= rows[name][hi]
                               for lo, hi in pairs), (net.name, name, j)
                elif not pos & bit:
                    assert all(rows[name][lo] >= rows[name][hi]
                               for lo, hi in pairs), (net.name, name, j)


def test_probability_intervals_bracket_exact_density():
    for net, bundle, rows in _cases():
        count = 1 << len(net.inputs)
        for name, interval in bundle.probability_intervals.items():
            if interval in (BOTTOM, TOP):
                continue
            lo, hi = interval
            density = sum(rows[name]) / count
            assert lo - 1e-9 <= density <= hi + 1e-9, \
                (net.name, name, interval, density)


def test_structural_duplicates_compute_equal_functions():
    groups_seen = 0
    for net, bundle, rows in _cases():
        for group in bundle.duplicate_classes():
            groups_seen += 1
            leader = group[0]
            for member in group[1:]:
                assert rows[member] == rows[leader], (net.name, group)
                assert cones_structurally_equal(net, leader, net,
                                                member)
    # The random stock reuses fanins heavily, so at least some trials
    # must actually exercise the grouping path.
    assert groups_seen > 0


def test_dead_cones_are_unobservable_at_every_po():
    cones_seen = 0
    for net, bundle, _rows in _cases():
        for name in bundle.dead_cones():
            cones_seen += 1
            forced0 = eval_all(net, force={name: 0})
            forced1 = eval_all(net, force={name: 1})
            for po in net.outputs:
                assert forced0[po] == forced1[po], (net.name, name, po)
    assert cones_seen > 0


def test_sdc_cubes_never_fire():
    for net, bundle, rows in _cases():
        count = 1 << len(net.inputs)
        for name, dead in bundle.sdc_cubes().items():
            node = net.nodes[name]
            for idx in dead:
                cube = node.cover.cubes[idx]
                for a in range(count):
                    fanin_values = [rows[f][a] for f in node.fanins]
                    assert not cube_fires(cube, fanin_values), \
                        (net.name, name, idx, a)


def test_unread_fanins_do_not_matter():
    for net, bundle, rows in _cases():
        count = 1 << len(net.inputs)
        for name, positions in bundle.unread_fanins().items():
            node = net.nodes[name]
            for a in range(count):
                fanin_values = [rows[f][a] for f in node.fanins]
                base = eval_cover(node.cover, fanin_values)
                for i in positions:
                    flipped = list(fanin_values)
                    flipped[i] ^= 1
                    assert eval_cover(node.cover, flipped) == base
