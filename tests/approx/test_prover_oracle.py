"""Truth-table oracle for the implication prover.

Every rung of :class:`~repro.approx.prover.PairSemantics` must agree
with brute-force enumeration on small generated circuits: BDDs, SAT,
SAT after a BDD overflow at a tiny node cap, verdicts served from the
proof cache, and simulation where its vectors cover every minterm.
Refuted pairs come from injecting one wrong cube into the approximate
network (refuting ``G => F``) or into the original (refuting
``F => G``), and every witness must violate its implication.
"""

import itertools
import random

import pytest

from repro.cubes import Cover
from repro.flow import AnalysisContext
from repro.lab.proofs import ProofCache
from repro.lint import PairSemantics

from tests.analyze.helpers import random_network

#: (seed, inputs, nodes) of each generated circuit; at most 10 inputs.
SHAPES = [(seed, 4 + seed % 7, 6 + seed % 9) for seed in range(12)]


def _assignments(net):
    for bits in itertools.product((False, True), repeat=len(net.inputs)):
        yield dict(zip(net.inputs, bits))


def _violated(original, approx, name, direction, assignment) -> bool:
    f = original.evaluate(assignment)[name]
    g = approx.evaluate(assignment)[name]
    return (g and not f) if direction == 1 else (f and not g)


def _oracle(original, approx, names):
    """{(name, direction): holds} by enumeration."""
    verdicts = dict.fromkeys(itertools.product(names, (0, 1)), True)
    for assignment in _assignments(original):
        f = original.evaluate(assignment)
        g = approx.evaluate(assignment)
        for name in names:
            if g[name] and not f[name]:
                verdicts[(name, 1)] = False
            if f[name] and not g[name]:
                verdicts[(name, 0)] = False
    return verdicts


def _inject_wrong_cube(net, name, rng) -> bool:
    """Add one minterm cube the node's cover does not hold."""
    cover = net.nodes[name].cover
    off = [a for a in range(1 << cover.n) if not cover.evaluate(a)]
    if not off:
        return False
    minterm = rng.choice(off)
    row = "".join("1" if minterm >> i & 1 else "0" for i in range(cover.n))
    net.replace_cover(name, Cover.from_strings(
        [cube.to_string() for cube in cover.cubes] + [row]))
    return True


def _pairs():
    """(label, original, approx) triples covering both refutations."""
    for seed, n_inputs, n_nodes in SHAPES:
        rng = random.Random(seed)
        original = random_network(rng, n_inputs, n_nodes, f"r{seed}")
        po = original.outputs[-1]
        internal = rng.choice(sorted(original.nodes))
        yield f"s{seed}-same", original, original.copy("apx")
        for target, side in ((po, "approx"), (po, "original"),
                             (internal, "approx")):
            orig, apx = original.copy(), original.copy("apx")
            if _inject_wrong_cube(apx if side == "approx" else orig,
                                  target, rng):
                yield f"s{seed}-{side}-{target}", orig, apx


PAIRS = list(_pairs())
IDS = [label for label, _, _ in PAIRS]


def _check_witness(prover, original, approx, name, direction):
    proof = prover.witness(name, direction)
    assert proof.holds is False
    assignment = {pi: proof.witness[pi] for pi in original.inputs}
    assert _violated(original, approx, name, direction, assignment)
    # The violation shows at the primary outputs too.
    if name in original.outputs:
        f = original.evaluate_outputs(assignment)[name]
        g = approx.evaluate_outputs(assignment)[name]
        assert (g, f) == ((True, False) if direction == 1
                          else (False, True))


def test_refuted_pairs_in_both_directions_are_generated():
    refuted = set()
    for _, original, approx in PAIRS:
        oracle = _oracle(original, approx, original.outputs)
        refuted |= {d for (_, d), holds in oracle.items() if not holds}
    assert refuted == {0, 1}
    assert len(PAIRS) >= 36


@pytest.mark.parametrize("ladder", [("bdd",), ("sat",)])
@pytest.mark.parametrize("label,original,approx", PAIRS, ids=IDS)
def test_exact_rungs_match_enumeration(label, original, approx, ladder):
    names = sorted(original.nodes)
    oracle = _oracle(original, approx, names)
    prover = PairSemantics(original, approx, ladder)
    for (name, direction), holds in oracle.items():
        proof = prover.implication(name, direction)
        assert proof.holds is holds, (name, direction)
        assert proof.method == ladder[0]
        if not holds:
            _check_witness(prover, original, approx, name, direction)
    for name in names:
        assert prover.equal(name) is (oracle[(name, 0)]
                                      and oracle[(name, 1)])
    assert prover.engine == ladder[0]


@pytest.mark.parametrize("label,original,approx", PAIRS, ids=IDS)
def test_bdd_overflow_hands_over_to_sat(label, original, approx):
    oracle = _oracle(original, approx, original.outputs)
    prover = PairSemantics(original, approx, ("bdd", "sat"),
                           bdd_node_budget=2)
    for (po, direction), holds in oracle.items():
        proof = prover.implication(po, direction)
        assert (proof.holds, proof.method) == (holds, "sat")
        if not holds:
            _check_witness(prover, original, approx, po, direction)
    assert prover.engine == prover.method == "sat"


def test_a_pinned_bdd_rung_raises_on_overflow():
    from repro.bdd import BddOverflowError
    _, original, approx = PAIRS[-1]
    prover = PairSemantics(original, approx, ("bdd",), bdd_node_budget=2)
    with pytest.raises(BddOverflowError):
        prover.implication(original.outputs[0], 1)


@pytest.mark.parametrize("label,original,approx", PAIRS, ids=IDS)
def test_served_verdicts_match_enumeration(label, original, approx,
                                           tmp_path):
    oracle = _oracle(original, approx, original.outputs)
    store = ProofCache(tmp_path)
    first = AnalysisContext()
    first.proofs = store
    prover = PairSemantics(original, approx, ctx=first)
    for po, direction in oracle:
        prover.implication(po, direction)
    warm = AnalysisContext()
    warm.proofs = ProofCache(tmp_path)
    served = PairSemantics(original, approx, ctx=warm)
    for (po, direction), holds in oracle.items():
        proof = served.implication(po, direction)
        assert proof.holds is holds
        assert proof.stats == {"proof_cache": True}
    # Every verdict came from disk: no engine was built ...
    assert served.engine is None and served.conclude() == "bdd"
    # ... until a refutation's witness is asked for.
    for (po, direction), holds in oracle.items():
        if not holds:
            _check_witness(served, original, approx, po, direction)
            assert served.engine == "bdd"


@pytest.mark.parametrize("label,original,approx",
                         [p for p in PAIRS if len(p[1].inputs) <= 6],
                         ids=[p[0] for p in PAIRS if len(p[1].inputs) <= 6])
def test_simulation_matches_enumeration_on_small_circuits(label, original,
                                                          approx):
    # 64 words of random vectors cover all 64 minterms of a 6-input
    # circuit with overwhelming probability.
    names = sorted(original.nodes)
    oracle = _oracle(original, approx, names)
    prover = PairSemantics(original, approx, ("sim",), sim_words=64,
                           seed=7)
    for (name, direction), holds in oracle.items():
        assert prover.implication(name, direction).holds is holds
    with pytest.raises(ValueError, match="no witnesses"):
        prover.witness(original.outputs[0], 1)


@pytest.mark.parametrize("ladder", [("bdd",), ("sat",), ("sim",)])
def test_refresh_rereads_the_approximation(ladder):
    rng = random.Random(99)
    original = random_network(rng, 5, 10, "refresh")
    approx = original.copy("apx")
    ctx = AnalysisContext()
    prover = PairSemantics(original, approx, ladder, ctx=ctx)
    po = original.outputs[-1]
    assert prover.implication(po, 1).holds is True
    assert _inject_wrong_cube(approx, po, rng)
    prover.refresh()
    assert prover.implication(po, 1).holds is False
    assert prover.implication(po, 0).holds is True
    assert prover.engine == ladder[0]
