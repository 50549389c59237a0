"""Same-key writers on one ArtifactStore from many threads of one process.

The ``workqueue`` backend and serve thread workers put the same key from
one pid at once.  Every put must succeed, every read after a thread's
first put must see a complete artifact (never a miss), and no temp file
may be left behind — including after a failed write.
"""

import os
import sys
import threading

import pytest

from repro.lab import MISS, ArtifactStore

KEY = "ab" * 32
THREADS = 8
PUTS = 200


def test_same_key_puts_from_threads(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    value = {"payload": "x" * 20_000}
    errors, misses = [], []
    start = threading.Barrier(THREADS)

    def writer(worker):
        start.wait()
        for i in range(PUTS):
            try:
                store.put(KEY, value, meta={"worker": worker, "i": i})
            except Exception as exc:      # noqa: BLE001 - tallied below
                errors.append(repr(exc))
                continue
            if store.get(KEY) is MISS:
                misses.append((worker, i))

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert errors == [], f"{len(errors)} puts raised, e.g. {errors[:3]}"
    assert misses == [], f"{len(misses)} reads missed"
    assert store.get(KEY) == value
    leftovers = [p.name for p in (tmp_path / "cache").rglob("*.tmp")]
    assert leftovers == []


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path / "cache")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        store.put(KEY, {"answer": 42})
    monkeypatch.undo()
    assert list((tmp_path / "cache").rglob("*.tmp")) == []
    assert store.get(KEY) is MISS
