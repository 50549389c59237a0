"""AnalysisContext: version-keyed reuse that is bit-identical to fresh
computation, including the overflow fail-fast and rollback paths."""

import random

import pytest

from repro.bdd import BddOverflowError
from repro.cubes import Cover, Cube
from repro.flow import AnalysisContext
from repro.network import GlobalBdds, Network, dfs_input_order
from repro.sim import signal_probabilities


def _and2() -> Cover:
    return Cover(2, [Cube.from_string("11")])


def _or2() -> Cover:
    return Cover(2, [Cube.from_string("1-"), Cube.from_string("-1")])


def _xor2() -> Cover:
    return Cover(2, [Cube.from_string("10"), Cube.from_string("01")])


def _pair(n_inputs: int = 4, depth: int = 3, seed: int = 7
          ) -> tuple[Network, Network]:
    """A random original and an independently random approx over the
    same inputs/outputs."""
    rng = random.Random(seed)
    covers = [_and2, _or2, _xor2]
    original = Network("net")
    for i in range(n_inputs):
        original.add_input(f"i{i}")
    signals = [f"i{i}" for i in range(n_inputs)]
    for level in range(depth):
        for k in range(n_inputs):
            a, b = rng.sample(signals, 2)
            name = f"n{level}_{k}"
            original.add_node(name, [a, b], rng.choice(covers)())
            signals.append(name)
    original.add_output(signals[-1])
    original.add_output(signals[-2])
    # The approx shares the interface and structure, with a handful of
    # covers rewritten (what the synthesis loop produces).
    approx = original.copy()
    for name in rng.sample(list(approx.nodes), 3):
        approx.replace_cover(name, rng.choice(covers)())
    return original, approx


def _fresh_probs(original: Network, approx: Network) -> dict[str, float]:
    bdds = GlobalBdds(dfs_input_order(original))
    bdds.add_network(original, prefix="o_")
    bdds.add_network(approx, prefix="a_")
    return {name: bdds.manager.probability(f)
            for name, f in sorted(bdds.functions.items())}


def _ctx_probs(ctx: AnalysisContext, original: Network,
               approx: Network) -> dict[str, float]:
    bdds = ctx.pair_bdds(original, approx)
    return {name: bdds.manager.probability(f)
            for name, f in sorted(bdds.functions.items())}


def test_pair_bdds_incremental_matches_fresh_under_mutation():
    # Property: across a run of random cone mutations, the shared
    # (incrementally updated) manager yields exactly the function
    # probabilities of a from-scratch build — no stale cones, ever.
    original, approx = _pair()
    ctx = AnalysisContext()
    rng = random.Random(13)
    covers = [_and2, _or2, _xor2]
    assert _ctx_probs(ctx, original, approx) == \
        _fresh_probs(original, approx)
    node_names = [n for n in approx.nodes]
    for _ in range(12):
        name = rng.choice(node_names)
        approx.replace_cover(name, rng.choice(covers)())
        assert _ctx_probs(ctx, original, approx) == \
            _fresh_probs(original, approx)
    assert ctx.stats["global_bdds"]["misses"] == 1
    assert ctx.stats["global_bdds"]["hits"] == 12


def test_pair_bdds_new_approx_object_reuses_original_side():
    original, approx1 = _pair(seed=1)
    approx2 = approx1.copy()
    approx2.replace_cover(next(iter(approx2.nodes)), _or2())
    ctx = AnalysisContext()
    ctx.pair_bdds(original, approx1)
    bdds = ctx.pair_bdds(original, approx2)
    assert ctx.stats["global_bdds"] == {"hits": 1, "misses": 1}
    assert _ctx_probs(ctx, original, approx2) == \
        _fresh_probs(original, approx2)
    assert bdds is ctx.pair_bdds(original, approx2)


def test_one_build_per_network_version():
    # Satellite regression: the metrics stage and the lint re-prover
    # used to each build their own GlobalBdds of the same pair.  With a
    # shared context there must be exactly one build per (original,
    # approx) version.
    from repro.approx import approximation_percentages
    from repro.lint import PairSemantics

    original, approx = _pair()
    directions = {po: 1 for po in original.outputs}
    po = original.outputs[0]
    ctx = AnalysisContext()
    approximation_percentages(original, approx, directions, ctx=ctx)
    # The prover builds lazily: the first implication query of each
    # instance reuses the context's pair manager.
    PairSemantics(original, approx, ctx=ctx).implication(po, 1)
    PairSemantics(original, approx, ctx=ctx).implication(po, 1)
    assert ctx.stats["global_bdds"]["misses"] == 1
    assert ctx.stats["global_bdds"]["hits"] == 2


def test_disabled_context_always_recomputes():
    original, approx = _pair()
    ctx = AnalysisContext(enabled=False)
    b1 = ctx.pair_bdds(original, approx)
    b2 = ctx.pair_bdds(original, approx)
    assert b1 is not b2
    assert ctx.stats["global_bdds"] == {"hits": 0, "misses": 2}


def test_original_mutation_drops_entry():
    original, approx = _pair()
    ctx = AnalysisContext()
    ctx.pair_bdds(original, approx)
    original.replace_cover(next(iter(original.nodes)), _or2())
    ctx.pair_bdds(original, approx)
    assert ctx.stats["global_bdds"]["misses"] == 2
    assert _ctx_probs(ctx, original, approx) == \
        _fresh_probs(original, approx)


# ----------------------------------------------------------------------
# Overflow caching
# ----------------------------------------------------------------------
def test_original_overflow_fails_fast_at_same_or_smaller_budget():
    original, approx = _pair(n_inputs=6, depth=4)
    ctx = AnalysisContext()
    with pytest.raises(BddOverflowError):
        ctx.pair_bdds(original, approx, budget=10)
    assert ctx.stats["global_bdds"] == {"hits": 0, "misses": 1}
    # Identical and smaller budgets fail fast (counted as hits: the
    # verdict is served from the cache, not recomputed).
    with pytest.raises(BddOverflowError):
        ctx.pair_bdds(original, approx, budget=10)
    with pytest.raises(BddOverflowError):
        ctx.pair_bdds(original, approx, budget=9)
    assert ctx.stats["global_bdds"] == {"hits": 2, "misses": 1}
    # A larger budget is a genuine retry.
    bdds = ctx.pair_bdds(original, approx, budget=100_000)
    assert bdds.function("o_" + original.outputs[0]) is not None
    assert ctx.stats["global_bdds"]["misses"] == 2


def test_completed_original_side_survives_approx_overflow():
    # Budget large enough for the original alone but not the pair:
    # the o_ functions and a manager mark survive, so the next attempt
    # (with a bigger budget here) skips the o_ rebuild entirely.
    original, approx = _pair(n_inputs=6, depth=4)
    rng = random.Random(99)
    for name in rng.sample(list(approx.nodes), 12):
        approx.replace_cover(name, _xor2())
    probe = GlobalBdds(dfs_input_order(original))
    probe.add_network(original, prefix="o_")
    o_nodes = probe.manager.num_nodes
    budget = o_nodes + 2
    ctx = AnalysisContext()
    with pytest.raises(BddOverflowError):
        ctx.pair_bdds(original, approx, budget=budget)
    assert ctx.stats["global_bdds"] == {"hits": 0, "misses": 1}
    bdds = ctx.pair_bdds(original, approx, budget=10 * o_nodes)
    # The retry reused the completed o_ side: a hit, not a rebuild.
    assert ctx.stats["global_bdds"] == {"hits": 1, "misses": 1}
    assert _ctx_probs(ctx, original, approx) == \
        _fresh_probs(original, approx)
    assert bdds.manager.max_nodes == 10 * o_nodes


def test_known_oversized_original_fails_fast_below_its_node_count():
    original, approx = _pair(n_inputs=6, depth=4)
    ctx = AnalysisContext()
    bdds = ctx.pair_bdds(original, approx)        # unlimited build
    o_created = ctx._o_entry["o_created"]
    del bdds
    # Any budget below the known o_ node count must overflow; the
    # context answers from the record without building anything.
    with pytest.raises(BddOverflowError):
        ctx.pair_bdds(original, approx, budget=o_created - 1)
    assert ctx.stats["global_bdds"] == {"hits": 1, "misses": 1}


# ----------------------------------------------------------------------
# Memoized probabilities / switching
# ----------------------------------------------------------------------
def test_probabilities_memo_and_invalidation():
    original, _ = _pair()
    ctx = AnalysisContext()
    p1 = ctx.probabilities(original, n_words=8, seed=3)
    p2 = ctx.probabilities(original, n_words=8, seed=3)
    assert p1 is p2
    assert ctx.stats["probabilities"] == {"hits": 1, "misses": 1}
    # A content-changing mutation must invalidate: no stale values.
    name = next(iter(original.nodes))
    original.replace_cover(name, Cover(2, []))    # node now constant 0
    p3 = ctx.probabilities(original, n_words=8, seed=3)
    assert p3 == signal_probabilities(original, n_words=8, seed=3)
    assert ctx.stats["probabilities"]["misses"] == 2
    # Content-keyed memo: an equal circuit loaded as a different object
    # (a warm serve-style run) hits instead of recomputing.
    reloaded = original.copy()
    p4 = ctx.probabilities(reloaded, n_words=8, seed=3)
    assert p4 is p3
    assert ctx.stats["probabilities"]["misses"] == 2


def test_observabilities_never_stale_after_mutation():
    # global_observabilities rides the version-aware simulator cache;
    # a cone mutation must be reflected immediately.
    from repro.reliability.observability import global_observabilities

    original, _ = _pair()
    first = global_observabilities(original, n_words=4, seed=5)
    name = original.outputs[0]
    original.replace_cover(name, Cover(2, []))    # output now constant 0
    second = global_observabilities(original, n_words=4, seed=5)
    fresh = global_observabilities(original.copy(), n_words=4, seed=5)
    assert second == pytest.approx(fresh)
    assert second != first
