"""Concurrent-writer safety of the store core, under both codecs.

The contract under test: a reader racing any number of writers on the
same keys either misses or sees a *complete, digest-valid* entry —
never a torn document — and failed writes leave no temp litter behind.
Each test runs against the self-digested JSON codec (proof verdicts,
:class:`repro.lab.proofs.ProofCache`) and the pickle codec (flow
checkpoints, :class:`repro.lab.cache.ArtifactStore`).
"""

import os
import pickle
import subprocess
import sys
import threading

import pytest

from .helpers import CODECS, codec_stores, put_entry

KEYS = [f"{i:02x}" + "ab" * 31 for i in range(5)]

#: Bytes that turn ``"holds": True`` into ``"holds": False`` while the
#: entry still decodes: the JSON literal, the pickle opcode.
FLIPS = {"json": (b"true", b"false"),
         "pickle": (pickle.dumps(True)[-2:-1], pickle.dumps(False)[-2:-1])}


def hammer(store, worker, iterations, failures):
    """Writer+reader loop sharing ``KEYS`` with its siblings."""
    cache = type(store)(store.root)
    for i in range(iterations):
        key = KEYS[i % len(KEYS)]
        put_entry(cache, key, worker, i, "x" * 500)
        entry = cache.get(key, None)
        if entry is not None and entry.get("holds") is not True:
            failures.append((worker, i, "bad value"))
    if cache.evictions:
        failures.append((worker, "evictions", cache.evictions))


class TestConcurrentWriters:
    def test_threaded_hammer_never_reads_torn_entries(self, tmp_path):
        for codec, store in codec_stores(tmp_path):
            failures = []
            threads = [threading.Thread(target=hammer,
                                        args=(store, w, 100, failures))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert failures == [], codec
            # No temp litter; every surviving entry digest-valid.
            assert not list(store.root.rglob("*.tmp")), codec
            checker = type(store)(store.root)
            for key in KEYS:
                assert checker.get(key, None) is not None, codec
            assert checker.evictions == 0, codec

    def test_multiprocess_hammer(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        for codec, store in codec_stores(tmp_path):
            script = (
                "import sys; sys.path.insert(0, {src!r})\n"
                "from repro.lab import {cls}\n"
                "keys = [f'{{i:02x}}' + 'ab' * 31 for i in range(5)]\n"
                "cache = {cls}({root!r})\n"
                "worker = int(sys.argv[1])\n"
                "for i in range(150):\n"
                "    key = keys[i % len(keys)]\n"
                "    cache.put(key, {{'holds': True, 'worker': worker,"
                " 'i': i}})\n"
                "    entry = cache.get(key, None)\n"
                "    assert entry is None or entry['holds'] is True\n"
                "assert cache.evictions == 0, cache.evictions\n"
            ).format(src=src, cls=CODECS[codec].__name__,
                     root=str(store.root))
            procs = [subprocess.Popen([sys.executable, "-c", script,
                                       str(worker)])
                     for worker in range(4)]
            for proc in procs:
                assert proc.wait(120) == 0, codec
            assert not list(store.root.rglob("*.tmp")), codec
            checker = type(store)(store.root)
            for key in KEYS:
                entry = checker.get(key, None)
                assert entry is not None and entry["holds"] is True, codec
            assert checker.evictions == 0, codec


class TestCorruptionAndCleanup:
    def test_torn_entry_is_evicted_and_reproved(self, tmp_path):
        for codec, cache in codec_stores(tmp_path):
            key = KEYS[0]
            cache.put(key, {"holds": True})
            path = cache._paths(key)[0]
            # Simulate a torn write from a non-atomic writer.
            full = path.read_bytes()
            path.write_bytes(full[: len(full) // 2])
            assert cache.get(key, None) is None, codec
            assert cache.evictions == 1, codec
            assert not any(p.exists() for p in cache._paths(key)), codec
            cache.put(key, {"holds": False})
            assert cache.get(key, None)["holds"] is False, codec

    def test_digest_mismatch_is_evicted(self, tmp_path):
        for codec, cache in codec_stores(tmp_path):
            key = KEYS[1]
            cache.put(key, {"holds": True})
            path = cache._paths(key)[0]
            # Hand-edited or bit-flipped: still decodes, digest stale.
            old, new = FLIPS[codec]
            blob = path.read_bytes()
            assert blob.count(old) == 1, codec
            path.write_bytes(blob.replace(old, new))
            assert cache.get(key, None) is None, codec
            assert cache.evictions == 1, codec

    def test_failed_write_leaves_no_temp_file(self, tmp_path,
                                              monkeypatch):
        for codec, cache in codec_stores(tmp_path):
            def exploding_replace(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", exploding_replace)
            with pytest.raises(OSError):
                cache.put(KEYS[2], {"holds": True})
            monkeypatch.undo()
            assert not list(cache.root.rglob("*.tmp")), codec
            assert cache.get(KEYS[2], None) is None, codec
            cache.put(KEYS[2], {"holds": True})     # cache still usable
            assert cache.get(KEYS[2], None)["holds"] is True, codec
