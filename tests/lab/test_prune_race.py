"""Prune-vs-writer races in the store core, under both codecs.

The contract under test: ``prune``/``prune_stale`` running while other
threads keep writing never crashes on a vanished file and never
deletes an entry rewritten after the prune's scan recorded it —
concurrent hygiene may under-collect, but it must not eat fresh
entries.  Each
test runs against the JSON codec (proof verdicts) and the pickle codec
(flow checkpoints, whose sidecar goes with its artifact).
"""

import json
import threading
import time

from repro.lab.proofs import PROOF_SCHEMA, ProofCache

from .helpers import codec_stores, put_entry

KEYS = [f"{i:02x}" + "cd" * 31 for i in range(8)]


def writer(store, worker, iterations, stop, failures):
    cache = type(store)(store.root)
    i = 0
    while i < iterations and not stop.is_set():
        key = KEYS[i % len(KEYS)]
        try:
            put_entry(cache, key, worker, i, "y" * 300)
        except Exception as exc:       # any crash is a failure
            failures.append((worker, i, repr(exc)))
            return
        i += 1


class TestPruneRaces:
    def test_prune_hammer_against_concurrent_writers(self, tmp_path):
        for codec, cache in codec_stores(tmp_path):
            stop = threading.Event()
            failures: list = []
            threads = [threading.Thread(target=writer,
                                        args=(cache, w, 4000, stop,
                                              failures))
                       for w in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            prunes = 0
            try:
                while any(t.is_alive() for t in threads) \
                        and time.monotonic() < deadline:
                    # Alternate both hygiene paths under fire.
                    cache.prune(max_bytes=1)
                    cache.prune_stale()
                    prunes += 2
            except Exception as exc:
                failures.append(("pruner", prunes, repr(exc)))
            finally:
                stop.set()
                for thread in threads:
                    thread.join(10)
            assert failures == [], codec
            assert prunes > 0, codec
            # Whatever survived must be complete, verified entries.
            reader = type(cache)(cache.root)
            for key in KEYS:
                entry = reader.get(key, None)
                if entry is not None:
                    if isinstance(reader, ProofCache):
                        assert entry["schema"] == PROOF_SCHEMA
                    assert entry["holds"] is True, codec
            assert reader.evictions == 0, codec

    def test_prune_spares_entries_written_after_scan_start(
            self, tmp_path, monkeypatch):
        for codec, cache in codec_stores(tmp_path):
            cache.put(KEYS[0], {"holds": True, "age": "old"})
            # Simulate the race deterministically: the instant after the
            # scan snapshot, a writer replaces the entry the scan judged.
            real_unlink = type(cache)._unlink_if_same

            def racing_unlink(target, stamp):
                cache.put(KEYS[0], {"holds": True, "age": "fresh"})
                return real_unlink(target, stamp)

            monkeypatch.setattr(type(cache), "_unlink_if_same",
                                staticmethod(racing_unlink))
            doc = cache.prune(max_bytes=0)
            monkeypatch.undo()
            assert doc["removed"] == 0, codec
            assert cache.get(KEYS[0], None)["age"] == "fresh", codec
            assert cache.evictions == 0, codec

    def test_prune_stale_tolerates_vanishing_entries(
            self, tmp_path, monkeypatch):
        for codec, cache in codec_stores(tmp_path):
            for key in KEYS[:3]:
                cache.put(key, {"holds": True})
            # Stale bytes on disk (old schema, no digest) that vanish
            # between the directory walk and the unlink.
            victim = cache._paths(KEYS[0])[0]
            victim.write_text(json.dumps({"schema": PROOF_SCHEMA - 1}))

            original_read = type(cache)._entries

            def entries_then_evict(self):
                found = original_read(self)
                victim.unlink(missing_ok=True)
                return found

            monkeypatch.setattr(type(cache), "_entries",
                                entries_then_evict)
            doc = cache.prune_stale()
            monkeypatch.undo()
            assert doc["kept_entries"] == 2, codec
            assert doc["removed_stale"] == 0, codec
