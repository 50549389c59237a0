"""A flow frees its identity-keyed analysis state when it ends.

Pair BDDs and digest memos match on the live network object, so no
later flow can hit them.  A context reused across flows (a serve
worker, the warm benchmark) must not keep them, or its memory grows
with every circuit it has seen.
"""

import gc
import weakref

import pytest

from repro.bench import tiny_benchmark
from repro.ced import run_ced_flow
from repro.flow import AnalysisContext


class Boom(RuntimeError):
    pass


def _collected(ref) -> bool:
    gc.collect()
    return ref() is None


def test_finished_flow_releases_its_network():
    net = tiny_benchmark(seed=42)
    ctx = AnalysisContext()
    flow = run_ced_flow(net, ctx=ctx, lint_level="warn")
    assert flow.lint is not None
    assert ctx.bdd_nodes() is None
    assert not ctx._tokens
    ref = weakref.ref(net)
    del net, flow
    assert _collected(ref)


def test_failed_flow_releases_its_network(monkeypatch):
    import repro.ced.flow as flow_mod

    def boom(*args, **kwargs):
        raise Boom

    monkeypatch.setattr(flow_mod, "evaluate_ced", boom)
    net = tiny_benchmark(seed=31)
    ctx = AnalysisContext()
    with pytest.raises(Boom):
        run_ced_flow(net, ctx=ctx)
    assert ctx.bdd_nodes() is None
    ref = weakref.ref(net)
    del net
    assert _collected(ref)


def test_released_context_keeps_content_memos_and_stays_exact():
    ctx = AnalysisContext()
    run_ced_flow(tiny_benchmark(seed=42), ctx=ctx)
    assert ctx._switching
    again = run_ced_flow(tiny_benchmark(seed=42), ctx=ctx)
    assert again.summary() == run_ced_flow(tiny_benchmark(seed=42)).summary()
