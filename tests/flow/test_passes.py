"""PassManager: declaration checking, tracing, and checkpoint resume."""

import pytest

from repro.flow import (FlowContext, FlowError, Pass, PassManager,
                        flow_token, pass_fingerprint, validate_trace)
from repro.lab.cache import ArtifactStore


class _Produce(Pass):
    name = "produce"
    provides = ("value",)
    checkpoint = ("value",)

    def run(self, ctx, record):
        record.stats["ran"] = True
        return {"value": 41}


class _Consume(Pass):
    name = "consume"
    requires = ("value",)
    provides = ("doubled",)
    checkpoint = ("doubled",)

    def run(self, ctx, record):
        return {"doubled": ctx["value"] * 2}


class _Boom(Pass):
    name = "boom"
    requires = ("doubled",)
    provides = ("never",)
    checkpoint = ("never",)

    def run(self, ctx, record):
        raise RuntimeError("killed mid-pipeline")


class _Final(Pass):
    name = "final"
    requires = ("doubled",)
    provides = ("result",)
    checkpoint = ("result",)

    def run(self, ctx, record):
        return {"result": ctx["doubled"] + 1}


def test_unknown_requirement_is_rejected():
    with pytest.raises(FlowError):
        PassManager([_Consume()])


def test_duplicate_provide_is_rejected():
    with pytest.raises(FlowError):
        PassManager([_Produce(), _Produce()])


def test_missing_provide_is_rejected_at_runtime():
    class Liar(Pass):
        name = "liar"
        provides = ("thing",)

        def run(self, ctx, record):
            return {}

    ctx = FlowContext(network=None)
    with pytest.raises(FlowError):
        PassManager([Liar()]).run(ctx)


def test_run_populates_artifacts_and_trace():
    ctx = FlowContext(network=None)
    trace = PassManager([_Produce(), _Consume(), _Final()]).run(ctx)
    assert ctx["result"] == 83
    assert [r.name for r in trace.passes] == \
        ["produce", "consume", "final"]
    assert all(r.status == "ok" for r in trace.passes)
    assert all(r.wall_time_s >= 0 for r in trace.passes)
    assert validate_trace(trace.to_dict()) == []


def test_killed_run_resumes_mid_pipeline(tmp_path):
    store = ArtifactStore(tmp_path)
    token = flow_token("content", {"p": 1})
    passes = [_Produce(), _Consume(), _Boom(), _Final()]

    ctx = FlowContext(network=None)
    with pytest.raises(RuntimeError):
        PassManager(passes, store=store, token=token).run(ctx)

    # The re-run restores every pass completed before the kill from the
    # store instead of recomputing it.
    fixed = [_Produce(), _Consume(), _Final()]
    ctx2 = FlowContext(network=None)
    trace = PassManager(fixed, store=store, token=token).run(ctx2)
    assert ctx2["result"] == 83
    statuses = {r.name: r.status for r in trace.passes}
    assert statuses["produce"] == "resumed"
    assert statuses["consume"] == "resumed"
    assert statuses["final"] == "ok"
    assert "ran" not in trace.record("produce").stats


def test_different_token_does_not_resume(tmp_path):
    store = ArtifactStore(tmp_path)
    passes = lambda: [_Produce(), _Consume(), _Final()]  # noqa: E731
    PassManager(passes(), store=store,
                token=flow_token("content", {"p": 1})).run(
        FlowContext(network=None))
    trace = PassManager(passes(), store=store,
                        token=flow_token("content", {"p": 2})).run(
        FlowContext(network=None))
    assert all(r.status == "ok" for r in trace.passes)


def test_upstream_resume_chain_is_merkle_keyed(tmp_path):
    # Editing an upstream pass invalidates every downstream checkpoint.
    store = ArtifactStore(tmp_path)
    token = flow_token("content", {})
    PassManager([_Produce(), _Consume()], store=store,
                token=token).run(FlowContext(network=None))

    class Produce2(_Produce):      # different class -> new fingerprint
        def run(self, ctx, record):
            return {"value": 41}

    assert pass_fingerprint(Produce2()) != pass_fingerprint(_Produce())
    trace = PassManager([Produce2(), _Consume()], store=store,
                        token=token).run(FlowContext(network=None))
    assert all(r.status == "ok" for r in trace.passes)


def test_store_without_token_disables_checkpointing(tmp_path):
    store = ArtifactStore(tmp_path)
    manager = PassManager([_Produce()], store=store, token=None)
    assert manager.store is None
    trace = manager.run(FlowContext(network=None))
    assert trace.passes[0].status == "ok"


def test_non_resumable_pass_always_runs(tmp_path):
    class Ephemeral(Pass):
        name = "ephemeral"
        provides = ("thing",)
        checkpoint = ()            # declares nothing persistable

        def run(self, ctx, record):
            return {"thing": object()}

    store = ArtifactStore(tmp_path)
    token = flow_token("x", {})
    for _ in range(2):
        trace = PassManager([Ephemeral()], store=store,
                            token=token).run(FlowContext(network=None))
        assert trace.passes[0].status == "ok"


@pytest.fixture
def fingerprint_calls(monkeypatch):
    import repro.flow.passes as passes_mod
    calls = []
    real = passes_mod.pass_fingerprint

    def spying(pass_obj):
        calls.append(pass_obj.name)
        return real(pass_obj)

    monkeypatch.setattr(passes_mod, "pass_fingerprint", spying)
    return calls


def test_storeless_flow_computes_no_checkpoint_keys(fingerprint_calls):
    from repro.bench.suite import tiny_benchmark
    from repro.ced import run_ced_flow
    PassManager([_Produce(), _Consume()]).run(FlowContext(network=None))
    run_ced_flow(tiny_benchmark(), reliability_words=1, coverage_words=1,
                 power_words=1)
    assert fingerprint_calls == []


def test_stored_flow_keys_every_pass(tmp_path, fingerprint_calls):
    PassManager([_Produce(), _Consume()], store=ArtifactStore(tmp_path),
                token=flow_token("x", {})).run(FlowContext(network=None))
    assert fingerprint_calls == ["produce", "consume"]
