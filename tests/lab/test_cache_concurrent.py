"""Same-key writers on one store from many threads of one process.

The ``workqueue`` backend and serve thread workers put the same key from
one pid at once.  Every put must succeed, every read after a thread's
first put must see a complete entry (never a miss), and no temp file
may be left behind — including after a failed write.  Each test runs
against both codecs of the store core.
"""

import os
import sys
import threading

import pytest

from .helpers import codec_stores, put_entry

KEY = "ab" * 32
THREADS = 8
PUTS = 200
PAYLOAD = "x" * 20_000


def test_same_key_puts_from_threads(tmp_path):
    for codec, store in codec_stores(tmp_path):
        errors, misses = [], []
        start = threading.Barrier(THREADS)

        def writer(worker):
            start.wait()
            for i in range(PUTS):
                try:
                    put_entry(store, KEY, worker, i, PAYLOAD)
                except Exception as exc:  # noqa: BLE001 - tallied below
                    errors.append(repr(exc))
                    continue
                if store.get(KEY, None) is None:
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

        assert errors == [], \
            f"{codec}: {len(errors)} puts raised, e.g. {errors[:3]}"
        assert misses == [], f"{codec}: {len(misses)} reads missed"
        assert store.get(KEY, None)["payload"] == PAYLOAD
        assert store.evictions == 0, codec
        leftovers = [p.name for p in store.root.rglob("*.tmp")]
        assert leftovers == [], codec


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    for codec, store in codec_stores(tmp_path):
        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            put_entry(store, KEY, 0, 0)
        monkeypatch.undo()
        assert list(store.root.rglob("*.tmp")) == [], codec
        assert store.get(KEY, None) is None, codec
        put_entry(store, KEY, 0, 1)                # store still usable
        assert store.get(KEY, None)["holds"] is True, codec
