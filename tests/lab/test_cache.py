"""Content-addressed artifact store: keys, round-trips, corruption."""

import hashlib
import json
import os
import pickle

from repro.lab import (MISS, ArtifactStore, Job, ProofCache, cache_key,
                       code_fingerprint)

from .helpers import add_seeded, square


class TestCacheKey:
    def test_param_order_irrelevant(self):
        j1 = Job("j", add_seeded, {"x": 1, "seed": 5})
        j2 = Job("j", add_seeded, {"seed": 5, "x": 1})
        assert cache_key(j1) == cache_key(j2)

    def test_params_change_key(self):
        assert cache_key(Job("j", square, {"x": 1})) != \
            cache_key(Job("j", square, {"x": 2}))

    def test_name_change_key(self):
        assert cache_key(Job("a", square, {"x": 1})) != \
            cache_key(Job("b", square, {"x": 1}))

    def test_function_change_key(self):
        assert cache_key(Job("j", square, {"x": 1})) != \
            cache_key(Job("j", add_seeded, {"x": 1}))

    def test_dep_digests_change_key(self):
        job = Job("j", square, {"x": 1}, deps=("d",), pass_deps=True)
        base = cache_key(job, {"d": "digest-1"})
        assert base != cache_key(job, {"d": "digest-2"})
        # Non-consuming jobs ignore dependency digests entirely.
        plain = Job("j", square, {"x": 1}, deps=("d",))
        assert cache_key(plain, {"d": "digest-1"}) == \
            cache_key(plain, {"d": "digest-2"})

    def test_fingerprint_is_stable(self):
        assert code_fingerprint(square) == code_fingerprint(square)
        assert code_fingerprint(square) != code_fingerprint(add_seeded)


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        assert not store.has(key)
        assert store.get(key) is MISS
        digest = store.put(key, {"answer": 9}, meta={"job": "j"})
        assert store.has(key)
        assert store.get(key) == {"answer": 9}
        assert store.digest(key) == digest
        meta = store.meta(key)
        assert meta["job"] == "j"
        assert meta["artifact_digest"] == digest

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        store.put(key, list(range(100)))
        leftovers = [p for p in (tmp_path / "cache").rglob("*")
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        store.put(key, "value")
        # Truncate the pickle: a killed writer can never cause this
        # (writes are atomic), but disk corruption can.
        path = store._paths(key)[0]
        path.write_bytes(path.read_bytes()[:3])
        assert store.get(key) is MISS

    def test_corrupt_artifact_is_evicted_then_writable(self, tmp_path):
        # Regression: corruption used to leave the bad bytes in place,
        # so has() stayed True and every subsequent get() re-parsed the
        # garbage.  Now the entry is evicted on first detection and the
        # slot is immediately reusable.
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        store.put(key, "value")
        path = store._paths(key)[0]
        path.write_bytes(path.read_bytes()[:3])
        assert store.get(key) is MISS
        assert not store.has(key)
        store.put(key, "rewritten")
        assert store.get(key) == "rewritten"

    def test_corruption_beyond_the_usual_suspects(self, tmp_path):
        # pickle.loads on garbage raises far more than UnpicklingError/
        # EOFError: a bogus length prefix raises ValueError or
        # MemoryError, truncated opcodes raise KeyError.  Any of these
        # must read as a miss and evict, not crash the grid.
        store = ArtifactStore(tmp_path / "cache")
        for i, garbage in enumerate([
            b"\x80\x05\x95\xff\xff\xff\xff\xff\xff\xff\xff",  # huge frame
            b"\x80\x05\x8c\xff",                              # bad length
            b"\xfe\xfd\xfc",                                  # junk opcodes
        ]):
            key = cache_key(Job(f"g{i}", square, {"x": i}))
            store.put(key, i)
            store._paths(key)[0].write_bytes(garbage)
            assert store.get(key) is MISS
            assert not store.has(key)

    def test_evict(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        store.put(key, "value")
        store.evict(key)
        assert not store.has(key)
        assert store.get(key) is MISS

    def test_bit_flip_that_still_unpickles_is_evicted(self, tmp_path):
        # Regression: reads never checked the recorded digest, so a
        # flipped byte that still unpickles was served as the artifact.
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        store.put(key, {"name": "x1"})
        path = store._paths(key)[0]
        flipped = path.read_bytes().replace(b"x1", b"x2")
        assert pickle.loads(flipped) == {"name": "x2"}
        path.write_bytes(flipped)
        assert store.get(key) is MISS
        assert store.evictions == 1
        assert not any(p.exists() for p in store._paths(key))

    def test_digest_valid_but_unloadable_pickle_is_evicted(self, tmp_path):
        # The digest matches, but the bytes no longer unpickle (say a
        # class was renamed since): still evicted, never raised.
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        garbage = b"\x80\x05\x8c\xff"
        store.put(key, "placeholder")
        store._paths(key)[0].write_bytes(garbage)
        store._paths(key)[1].write_text(json.dumps(
            {"artifact_digest": hashlib.sha256(garbage).hexdigest()}))
        assert store.get(key) is MISS
        assert not store.has(key)

    def test_lost_sidecar_is_a_miss_and_stale(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key = cache_key(Job("j", square, {"x": 3}))
        store.put(key, "value")
        store._paths(key)[1].unlink()
        # Unverifiable: a plain miss on read (a writer may be halfway
        # through the entry) ...
        assert store.get(key) is MISS
        assert store.evictions == 0 and store.has(key)
        # ... and stale to an eager sweep.
        os.utime(store._paths(key)[0], (1000, 1000))
        assert store.prune_stale() == {"removed_stale": 1,
                                       "kept_entries": 0}
        assert not store.has(key)

    def test_prune_stale_evicts_entries_failing_their_digest(
            self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        keys = [cache_key(Job("j", square, {"x": x})) for x in range(3)]
        for key in keys:
            store.put(key, {"x": key})
            os.utime(store._paths(key)[0], (1000, 1000))
        path = store._paths(keys[0])[0]
        path.write_bytes(path.read_bytes()[:-1] + b"\x00")
        assert store.prune_stale() == {"removed_stale": 1,
                                       "kept_entries": 2}
        assert not any(p.exists() for p in store._paths(keys[0]))
        assert store.get(keys[1]) == {"x": keys[1]}

    def test_prune_lab_root_takes_sidecars_and_spares_nested_stores(
            self, tmp_path):
        # ``.lab_cache`` holds lab artifacts and flow checkpoints at its
        # root, and the proof and analyze stores in subdirectories.
        root = tmp_path / ".lab_cache"
        store = ArtifactStore(root)
        proofs = ProofCache(root / "proofs")
        keys = [cache_key(Job("j", square, {"x": x})) for x in range(4)]
        for i, key in enumerate(keys):
            store.put(key, list(range(100)), meta={"i": i})
            proofs.put(key, {"holds": True, "i": i})
            for path in store._paths(key) + proofs._paths(key):
                os.utime(path, (1000 + i, 1000 + i))
        stats = store.stats()
        assert stats["entries"] == 4
        assert stats["bytes"] == sum(p.stat().st_size for k in keys
                                     for p in store._paths(k))
        # Oldest first, each artifact with its sidecar.
        report = store.prune(stats["bytes"] // 2)
        assert report["removed"] == 2
        for key in keys[:2]:
            assert not any(p.exists() for p in store._paths(key))
        for key in keys[2:]:
            assert store.get(key) == list(range(100))
        assert store.prune_stale() == {"removed_stale": 0,
                                       "kept_entries": 2}
        assert store.prune(0)["removed"] == 2
        assert list(root.glob("??/*")) == []
        # The nested proof store was never walked.
        assert proofs.stats()["entries"] == 4
        for key in keys:
            assert proofs.get(key)["holds"] is True
