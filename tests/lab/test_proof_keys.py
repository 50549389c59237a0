"""Versioned, engine-scoped proof-cache keys and stale-entry pruning."""

import json

from repro.bench.suite import tiny_benchmark
from repro.lab.proofs import (CHECK_KIND_VERSIONS, PROOF_SCHEMA,
                              ConeFingerprinter, ProofCache, error_key,
                              implication_key, pct_key)


def nets():
    original = tiny_benchmark()
    approx = original.copy()
    return original, approx


class TestKeys:
    def test_engine_scopes_the_key(self):
        original, approx = nets()
        fp = ConeFingerprinter()
        po = original.outputs[0]
        cube = implication_key(fp, original, approx, po, 1,
                               engine="cube")
        other = implication_key(fp, original, approx, po, 1,
                                engine="resub")
        assert cube != other
        assert pct_key(fp, original, approx, po, 1, engine="cube") != \
            pct_key(fp, original, approx, po, 1, engine="resub")

    def test_kinds_cannot_collide(self):
        original, approx = nets()
        fp = ConeFingerprinter()
        po = original.outputs[0]
        keys = {implication_key(fp, original, approx, po, 1),
                pct_key(fp, original, approx, po, 1),
                error_key(fp, original, approx, po, "diff-rate")}
        assert len(keys) == 3

    def test_kind_version_bump_changes_the_key(self, monkeypatch):
        original, approx = nets()
        fp = ConeFingerprinter()
        po = original.outputs[0]
        before = implication_key(fp, original, approx, po, 1)
        monkeypatch.setitem(CHECK_KIND_VERSIONS, "implication",
                            CHECK_KIND_VERSIONS["implication"] + 1)
        after = implication_key(fp, original, approx, po, 1)
        assert before != after

    def test_error_key_carries_the_metric(self):
        original, approx = nets()
        fp = ConeFingerprinter()
        po = original.outputs[0]
        assert error_key(fp, original, approx, po, "diff-rate") != \
            error_key(fp, original, approx, po, "er")


class TestPruneStale:
    def test_old_schema_entries_are_swept(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("aa" + "0" * 62, {"kind": "implication", "holds": True})
        # A pre-bump entry written under the previous schema version.
        stale_dir = tmp_path / "bb"
        stale_dir.mkdir()
        stale = {"kind": "implication", "holds": True,
                 "schema": PROOF_SCHEMA - 1, "digest": "x"}
        (stale_dir / ("bb" + "0" * 62 + ".json")).write_text(
            json.dumps(stale))
        # And one plain corrupt file.
        (stale_dir / ("bb" + "1" * 62 + ".json")).write_text("{oops")
        report = cache.prune_stale()
        assert report["removed_stale"] == 2
        assert report["kept_entries"] == 1
        assert cache.get("aa" + "0" * 62) is not None

    def test_get_evicts_stale_schema_on_read(self, tmp_path):
        cache = ProofCache(tmp_path)
        key = "cc" + "0" * 62
        cache.put(key, {"kind": "implication", "holds": True})
        path = cache._paths(key)[0]
        doc = json.loads(path.read_text())
        doc["schema"] = PROOF_SCHEMA - 1
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not path.exists()
