"""Two-tier error evaluator vs a brute-force truth-table oracle.

The oracle enumerates every input vector through
``Network.evaluate_outputs`` — a code path entirely disjoint from the
compiled simulator and the BDD engine — and computes ER / MED / WCE by
definition.  Exhaustive-tier results must match it exactly; BDD-tier ER
must match it exactly; BDD-tier MED/WCE and every Monte-Carlo result
must stay on the conservative side (bound >= truth).
"""

import pytest

from repro.approx.config import ErrorSpec
from repro.approx.metrics import (evaluate_error, exhaustive_inputs)
from repro.bench.suite import load_benchmark, tiny_benchmark
from repro.cubes import Cover, Cube
from repro.network import Network
from repro.sim import exhaustive_inputs as sim_exhaustive_inputs


from .helpers import oracle


def approx_of(network, const_nodes=()):
    """A doctored copy: some nodes forced to constant 0."""
    doctored = network.copy()
    for name in const_nodes:
        doctored.replace_node(name, [], Cover.zero(0))
    return doctored


def xor_pair():
    """3-input original vs an approx that ignores one input."""
    net = Network("xp")
    for pin in ("a", "b", "c"):
        net.add_input(pin)
    net.add_node("n1", ["a", "b"], Cover(2, [Cube.from_string("10"),
                                             Cube.from_string("01")]))
    net.add_node("o0", ["n1", "c"], Cover(2, [Cube.from_string("10"),
                                              Cube.from_string("01")]))
    net.add_node("o1", ["a", "c"], Cover(2, [Cube.from_string("11")]))
    net.add_output("o0")
    net.add_output("o1")

    apx = net.copy()
    apx.replace_node("n1", ["a"], Cover(1, [Cube.from_string("1")]))
    return net, apx


PAIRS = [
    xor_pair(),
    (tiny_benchmark(),
     approx_of(tiny_benchmark(), const_nodes=["n3"])),
]


@pytest.mark.parametrize("metric", ["er", "med", "wce"])
@pytest.mark.parametrize("pair_idx", range(len(PAIRS)))
def test_exhaustive_tier_matches_oracle(metric, pair_idx):
    original, approx = PAIRS[pair_idx]
    er, med, wce = oracle(original, approx)
    truth = {"er": er, "med": med, "wce": wce}[metric]
    spec = ErrorSpec(metric=metric, bound=1e18 if metric != "er"
                     else 1.0, exact_threshold=12)
    ev = evaluate_error(original, approx, spec)
    assert ev.method == "exhaustive"
    assert ev.exact and ev.sound
    assert ev.value == pytest.approx(truth, abs=1e-12)


@pytest.mark.parametrize("pair_idx", range(len(PAIRS)))
def test_bdd_tier_er_is_exact(pair_idx):
    original, approx = PAIRS[pair_idx]
    er, _, _ = oracle(original, approx)
    # exact_threshold=0 forces the BDD tier on a brute-forceable pair.
    spec = ErrorSpec(metric="er", bound=1.0, exact_threshold=0)
    ev = evaluate_error(original, approx, spec)
    assert ev.method == "bdd"
    assert ev.exact and ev.sound
    assert ev.value == pytest.approx(er, abs=1e-12)


@pytest.mark.parametrize("metric", ["med", "wce"])
@pytest.mark.parametrize("pair_idx", range(len(PAIRS)))
def test_bdd_tier_bounds_are_conservative(metric, pair_idx):
    original, approx = PAIRS[pair_idx]
    _, med, wce = oracle(original, approx)
    truth = {"med": med, "wce": wce}[metric]
    spec = ErrorSpec(metric=metric, bound=1e18, exact_threshold=0)
    ev = evaluate_error(original, approx, spec)
    assert ev.method == "bdd-bound"
    assert ev.sound and not ev.exact
    assert ev.value >= truth - 1e-12


@pytest.mark.parametrize("metric", ["er", "med", "wce"])
@pytest.mark.parametrize("pair_idx", range(len(PAIRS)))
def test_mc_tier_bound_covers_truth(metric, pair_idx):
    original, approx = PAIRS[pair_idx]
    er, med, wce = oracle(original, approx)
    truth = {"er": er, "med": med, "wce": wce}[metric]
    # exact_threshold=0 + a 1-node BDD budget forces the MC tier.
    spec = ErrorSpec(metric=metric, bound=1e18 if metric != "er"
                     else 1.0, exact_threshold=0)
    ev = evaluate_error(original, approx, spec, bdd_node_budget=1,
                        n_words=64, seed=7)
    assert ev.method == "mc"
    assert not ev.exact
    # The Hoeffding/structural slack keeps the estimate conservative
    # for the pinned seed (and for wce the bound is sound outright).
    assert ev.value >= truth - 1e-12
    if metric == "wce":
        assert ev.sound and ev.confidence == 1.0
    else:
        assert not ev.sound and 0 < ev.confidence < 1


def test_mc_structural_filter_gives_zero_for_identical_pair():
    original = load_benchmark("cmb")
    ev = evaluate_error(
        original, original.copy(),
        ErrorSpec(metric="er", bound=1.0, exact_threshold=0),
        bdd_node_budget=1)
    assert ev.method == "mc"
    assert ev.value == 0.0


def test_exhaustive_inputs_is_the_simulator_one():
    assert exhaustive_inputs is sim_exhaustive_inputs


def test_exhaustive_inputs_enumerate_every_vector():
    pi = exhaustive_inputs(4)
    assert pi.shape == (4, 1)
    seen = set()
    for v in range(16):
        word, bit = divmod(v, 64)
        seen.add(tuple((int(pi[i, word]) >> bit) & 1 for i in range(4)))
    assert len(seen) == 16


def test_output_mismatch_is_rejected():
    original, approx = PAIRS[0]
    broken = approx.copy()
    broken.outputs.pop()
    with pytest.raises(ValueError):
        evaluate_error(original, broken,
                       ErrorSpec(metric="er", bound=1.0))
