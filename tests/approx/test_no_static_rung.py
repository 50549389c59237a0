"""Synthesis decides implications without ``repro.analyze``.

The static-discharge rung only skipped cheap ``implies`` calls on pair
BDDs that were already built, so it was taken off the synthesis path;
the dataflow analyses now serve lint and ``repro.cli analyze`` only.
These tests pin both halves of that: a default flow never constructs an
analysis, and proof-cache entries the rung once wrote (engine
``"static"``) are re-proved instead of served.
"""

import json

import pytest

import repro.analyze
from repro.bench.suite import load_benchmark, tiny_benchmark
from repro.ced.flow import run_ced_flow
from repro.lab.proofs import EXACT_ENGINES, ProofCache

FLOW_KW = dict(reliability_words=1, coverage_words=1, seed=2008)


def _network(circuit):
    return tiny_benchmark() if circuit == "tiny" else load_benchmark(circuit)


def _forbid(*args, **kwargs):
    raise AssertionError("repro.analyze reached from the synthesis path")


@pytest.mark.parametrize("with_cache", [False, True],
                         ids=["no-cache", "proof-cache"])
@pytest.mark.parametrize("circuit", ["tiny", "cmb"])
def test_flow_never_builds_analyses(circuit, with_cache, tmp_path,
                                    monkeypatch):
    monkeypatch.setattr(repro.analyze.NetworkAnalyses, "__init__",
                        _forbid)
    result = run_ced_flow(
        _network(circuit),
        proof_cache_dir=tmp_path / "proofs" if with_cache else None,
        **FLOW_KW)
    assert result.summary()["gates"] > 0
    assert "static" not in result.trace.cache_totals()


def _implication_entries(root):
    for path in sorted(root.glob("*/*.json")):
        entry = json.loads(path.read_text())
        if entry.get("kind") == "implication":
            yield path.stem, entry


def test_static_engine_cache_entries_are_reproved(tmp_path):
    root = tmp_path / "proofs"
    cold = run_ced_flow(tiny_benchmark(), proof_cache_dir=root, **FLOW_KW)
    cache = ProofCache(root)
    seeded = 0
    for key, entry in _implication_entries(root):
        payload = {k: v for k, v in entry.items()
                   if k not in ("schema", "digest")}
        cache.put(key, {**payload, "engine": "static"})
        seeded += 1
    assert seeded > 0

    rerun = run_ced_flow(tiny_benchmark(), proof_cache_dir=root, **FLOW_KW)
    assert rerun.summary() == cold.summary()
    assert rerun.approx_result.check_method == \
        cold.approx_result.check_method
    engines = {entry["engine"] for _, entry in _implication_entries(root)}
    assert engines and engines <= set(EXACT_ENGINES)
