"""Fixpoint engine: one-sweep solves, cost records, version binding."""

import random

import pytest

from repro.analyze import NetworkAnalyses
from repro.analyze.domains import ConstantAnalysis
from repro.analyze.fixpoint import (DataflowAnalysis, FixpointEngine,
                                    FixpointResult)
from repro.cubes import Cover

from .helpers import random_network

def test_network_analyses_refuse_a_mutated_network():
    rng = random.Random(7)
    net = random_network(rng, n_inputs=4, n_nodes=7, name="mutated")
    bundle = NetworkAnalyses(net)
    assert bundle.constants is not None   # solved and memoized
    victim = sorted(net.nodes)[0]
    net.replace_cover(victim, Cover.zero(len(net.nodes[victim].fanins)))
    for solution in ("constants", "unateness", "observability"):
        with pytest.raises(RuntimeError, match="mutated"):
            getattr(bundle, solution)
    fresh = NetworkAnalyses(net)
    assert fresh.constants[victim] == 0


def test_cost_record_shape():
    rng = random.Random(2)
    net = random_network(rng)
    result = FixpointEngine().run(net, ConstantAnalysis())
    cost = result.cost()
    assert set(cost) == {"analysis", "transfers", "seconds"}
    assert cost["analysis"] == "constants"
    assert cost["transfers"] == len(net.nodes)
    assert cost["seconds"] >= 0.0


def test_unknown_direction_rejected():
    class Sideways(DataflowAnalysis):
        name = "sideways"
        direction = "diagonal"

    rng = random.Random(3)
    with pytest.raises(ValueError, match="direction"):
        FixpointEngine().run(random_network(rng), Sideways())


def test_result_is_a_plain_dataclass():
    result = FixpointResult(analysis="x", values={"a": 1})
    assert result.values["a"] == 1
    assert result.stats == {}
