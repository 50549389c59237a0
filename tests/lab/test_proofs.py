"""Proof cache: content addressing, corruption recovery, flow reuse."""

import json

import pytest

from repro.lab.proofs import (ConeFingerprinter, ProofCache,
                              implication_key)
from repro.lab.tasks import load_circuit


@pytest.fixture()
def tiny_pair():
    from repro.approx import synthesize_approximation
    from repro.reliability import analyze_reliability
    from repro.synth import quick_map

    net = load_circuit("tiny")
    reliability = analyze_reliability(quick_map(net), n_words=4)
    result = synthesize_approximation(net, reliability.approximations)
    return net, result.approx, reliability.approximations


def test_keys_are_content_addressed(tiny_pair):
    original, approx, directions = tiny_pair
    fp = ConeFingerprinter()
    po = original.outputs[0]
    k1 = implication_key(fp, original, approx, po, 1)
    # Same content, different objects -> same key.
    k2 = implication_key(ConeFingerprinter(), original.copy(),
                         approx.copy(), po, 1)
    assert k1 == k2
    # Direction and cone content both separate the key space.
    assert implication_key(fp, original, approx, po, 0) != k1
    assert implication_key(fp, original, original, po, 1) != k1


def test_put_get_roundtrip_and_stats(tmp_path):
    cache = ProofCache(tmp_path / "proofs")
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    cache.put(key, {"kind": "implication", "holds": True,
                    "engine": "bdd", "po": "f", "direction": 1})
    entry = cache.get(key)
    assert entry["holds"] is True and entry["engine"] == "bdd"
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] > 0
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_corrupted_entry_detected_evicted_reproved(tmp_path):
    cache = ProofCache(tmp_path / "proofs")
    key = "cd" + "1" * 62
    cache.put(key, {"kind": "implication", "holds": True,
                    "engine": "bdd", "po": "g", "direction": 0})
    path = cache._paths(key)[0]
    doc = json.loads(path.read_text())
    doc["holds"] = False                      # tamper: digest mismatch
    path.write_text(json.dumps(doc))
    assert cache.get(key) is None             # detected + treated as miss
    assert not path.exists()                  # evicted
    assert cache.evictions == 1
    # Transparent re-prove: the caller just stores the fresh verdict.
    cache.put(key, {"kind": "implication", "holds": True,
                    "engine": "bdd", "po": "g", "direction": 0})
    assert cache.get(key)["holds"] is True
    # Truncated JSON is handled the same way.
    path.write_text("{not json")
    assert cache.get(key) is None
    assert not path.exists()


def test_prune_evicts_oldest_first(tmp_path):
    import os
    cache = ProofCache(tmp_path / "proofs")
    keys = [f"{i:02x}" + "2" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, {"kind": "implication", "holds": True,
                        "engine": "bdd", "po": f"p{i}", "direction": 1})
        os.utime(cache._paths(key)[0], (1000 + i, 1000 + i))
    sizes = [cache._paths(k)[0].stat().st_size for k in keys]
    report = cache.prune(max_bytes=sum(sizes[2:]))
    assert report["removed"] == 2
    assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None and cache.get(keys[3]) is not None


def test_flow_serves_proofs_on_warm_run(tmp_path):
    """Second identical flow run proves nothing: every PO implication
    (and pct) comes from the proof cache, surfaced in the flow trace."""
    from repro.ced import run_ced_flow

    proof_dir = tmp_path / "proofs"
    cold = run_ced_flow(load_circuit("tiny"), lint_level="warn",
                        proof_cache_dir=proof_dir)
    cold_summary = cold.summary()
    cold_hits = cold.trace.cache_totals().get("proofs", {})

    warm = run_ced_flow(load_circuit("tiny"), lint_level="warn",
                        proof_cache_dir=proof_dir)
    assert warm.summary() == cold_summary
    warm_hits = warm.trace.cache_totals().get("proofs", {})
    total = warm_hits.get("hits", 0) + warm_hits.get("misses", 0)
    assert total > 0
    # >= 90% of implication lookups served from the cross-run cache.
    assert warm_hits.get("hits", 0) >= 0.9 * total
    assert warm_hits.get("hits", 0) > cold_hits.get("hits", 0)
