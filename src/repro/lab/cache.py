"""Content-addressed stores backing resumable runs.

Every job's result is cached under a key derived from the job name, its
canonical parameters, the code fingerprint of its task function, and —
for jobs that consume dependency results — the artifact digests of its
dependencies (a Merkle-style chain).  Re-invoking a sweep therefore
skips completed jobs, and a killed run resumes where it left off.

:class:`ArtifactStore` is the one store core of the repo.  Entries live
under ``root/<key[:2]>/<key>.<ext>``; every file is written through
:func:`atomic_write`; every read is verified against a recorded digest,
and an entry that fails it is evicted and reported as a miss; a
per-shard ``flock`` keeps a reader from pairing one writer's artifact
with another writer's sidecar; ``prune`` and ``prune_stale`` bound a
store without ever deleting an entry a concurrent writer refreshed;
``stats`` reports on-disk totals plus this process's
hit/miss/eviction counters.  Two codecs sit on the core:

* pickle (:class:`ArtifactStore` itself) — ``<key>.pkl`` plus a JSON
  sidecar recording provenance and the pickle's ``artifact_digest``;
  flow checkpoints, lab results, search;
* self-digested JSON (:class:`JsonStore`) — one ``<key>.json`` entry
  embedding its ``schema`` and the ``digest`` of its own payload;
  proof verdicts (:class:`repro.lab.proofs.ProofCache`) and ``cli
  analyze`` summaries.
"""

from __future__ import annotations

import fcntl
import functools
import gc
import hashlib
import inspect
import json
import os
import pickle
import threading
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable

from .job import Job, canonical_params

__all__ = ["ArtifactStore", "JsonStore", "atomic_write",
           "code_fingerprint", "cache_key", "MISS"]

#: Sentinel for "not in the cache" (``None`` is a valid artifact).
MISS = object()

#: Bump to invalidate every cached artifact after a change that the
#: per-function fingerprint cannot see (e.g. a core algorithm edit).
CACHE_SCHEMA = 1


def atomic_write(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` through a temp file and a rename.

    Readers see the old complete file or the new one, never a torn
    write.  The temp name is unique per process *and* thread (the
    ``workqueue`` backend and serve thread workers write the same key
    from one pid), and a failed write never leaves the temp file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident():x}.tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for one unpickling.

    A checkpoint load allocates thousands of containers, none of which
    can be garbage before it returns; every collection they trigger,
    and the full collections those escalate to, is wasted work (about
    a third of a large load).  The collector is resumed only if it was
    running, so a caller's own ``gc.disable()`` is kept.
    """
    running = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if running:
            gc.enable()


@functools.lru_cache(maxsize=None)
def code_fingerprint(fn: Callable[..., Any]) -> str:
    """A short digest of the task function's identity and source.

    Editing the task function invalidates its cached artifacts.  The
    fingerprint intentionally does not chase transitive callees; bump
    :data:`CACHE_SCHEMA` (or clear ``.lab_cache/``) after changing the
    algorithms underneath the tasks.  It is computed once per function
    object per process, from the code that is loaded.
    """
    ident = (f"{getattr(fn, '__module__', '?')}."
             f"{getattr(fn, '__qualname__', repr(fn))}")
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = ""
    payload = f"schema={CACHE_SCHEMA}\n{ident}\n{source}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_key(job: Job, dep_digests: dict[str, str] | None = None
              ) -> str:
    """Content address of a job: name + params + code fingerprint.

    ``dep_digests`` (dependency name -> artifact digest) is folded in
    for jobs that consume dependency results, so an upstream change
    re-runs the downstream job.
    """
    parts = [
        f"name={job.name}",
        f"params={canonical_params(job.params)}",
        f"code={code_fingerprint(job.fn)}",
    ]
    if job.pass_deps and dep_digests:
        chained = ",".join(f"{k}:{v}"
                           for k, v in sorted(dep_digests.items()))
        parts.append(f"deps={chained}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class ArtifactStore:
    """Pickled artifacts addressed by content key under one root.

    The store core.  A codec is ``SUFFIX`` plus :meth:`_paths`,
    :meth:`_encode`, :meth:`_check` and :meth:`_decode`; subclasses swap
    it and share sharding, atomic writes, verified reads, pruning and
    stats.
    """

    #: Suffix of an entry's primary file (the one ``has`` looks for).
    SUFFIX = ".pkl"

    def __init__(self, root: "str | Path" = ".lab_cache"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- codec -----------------------------------------------------------
    def _paths(self, key: str) -> tuple[Path, ...]:
        """The entry's files: the primary first, then any sidecars."""
        shard = self.root / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def _encode(self, value: Any, meta: dict[str, Any] | None
                ) -> tuple[str, list[bytes]]:
        """``(digest, one blob per path of _paths)``."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        doc = dict(meta or {})
        doc["artifact_digest"] = digest
        return digest, [blob, json.dumps(doc, sort_keys=True).encode()]

    def _check(self, key: str, blob: bytes) -> Any:
        """Verify the primary file's bytes: ``OSError`` when a file the
        check needs is missing, any other exception when corrupt."""
        doc = json.loads(self._paths(key)[1].read_bytes())
        if doc.get("artifact_digest") != hashlib.sha256(blob).hexdigest():
            raise ValueError(f"{key}: artifact fails its recorded digest")
        return blob

    def _decode(self, checked: Any) -> Any:
        with _collector_paused():
            return pickle.loads(checked)

    # -- entries -----------------------------------------------------------
    def has(self, key: str) -> bool:
        return self._paths(key)[0].exists()

    def get(self, key: str, default: Any = MISS) -> Any:
        """The cached artifact, or ``default`` on miss/corruption."""
        value = self._read(key)
        return default if value is MISS else value

    def put(self, key: str, value: Any,
            meta: dict[str, Any] | None = None) -> str:
        """Store ``value`` atomically; returns its artifact digest."""
        return self._write(key, value, meta)

    def meta(self, key: str) -> dict[str, Any] | None:
        """The entry's JSON document: its sidecar (pickle codec)."""
        try:
            return json.loads(self._paths(key)[-1].read_bytes())
        except (OSError, ValueError):
            return None

    def digest(self, key: str) -> str | None:
        """The artifact digest recorded in the entry's sidecar."""
        doc = self.meta(key)
        return doc.get("artifact_digest") if doc else None

    def evict(self, key: str) -> None:
        for path in self._paths(key):
            with suppress(OSError):
                path.unlink()

    @contextmanager
    def _locked(self, key: str, operation: int):
        """Hold ``flock(operation)`` on the key's shard directory.

        No single rename replaces a pickle entry's artifact and sidecar
        together.  Writers hold the lock exclusively across both renames
        and readers hold it shared across read, check and eviction, so a
        reader never pairs one writer's artifact with another's sidecar
        and never evicts an entry a writer just replaced.  Raises
        ``OSError`` when the shard does not exist.
        """
        fd = os.open(self.root / key[:2], os.O_RDONLY)
        try:
            fcntl.flock(fd, operation)
            yield
        finally:
            os.close(fd)               # closing releases the lock

    def _read(self, key: str) -> Any:
        """The verified value, or :data:`MISS`.

        A missing file is a plain miss: the entry was never written, or
        a prune is halfway through it.  Any other failure (bit rot, hand
        editing, a writer killed between its renames; decoding garbage
        can raise nearly anything) *evicts* the entry, so one bad entry
        costs a recompute instead of a wrong answer or a crash.
        """
        try:
            with self._locked(key, fcntl.LOCK_SH):
                try:
                    value = self._decode(
                        self._check(key, self._paths(key)[0].read_bytes()))
                except OSError:
                    raise
                except Exception:
                    self.evict(key)
                    self.evictions += 1
                    value = MISS
        except OSError:
            value = MISS
        if value is MISS:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _write(self, key: str, value: Any,
               meta: dict[str, Any] | None = None) -> str:
        """Sidecars first, the primary file last, all under the shard
        lock: once the primary is visible, so is the digest for it."""
        digest, blobs = self._encode(value, meta)
        paths = self._paths(key)
        paths[0].parent.mkdir(parents=True, exist_ok=True)
        with self._locked(key, fcntl.LOCK_EX):
            for path, blob in zip(paths[1:], blobs[1:]):
                atomic_write(path, blob)
            atomic_write(paths[0], blobs[0])
        return digest

    # -- hygiene ---------------------------------------------------------
    def _entries(self) -> list[tuple[str, int, tuple]]:
        """``(key, bytes, stamps)`` per entry, sidecars included.

        ``stamps`` holds one ``(st_mtime_ns, st_ino)`` per file of
        :meth:`_paths`, primary first (``None`` for a missing sidecar):
        the identity :meth:`_unlink_entry` re-checks, and, by its first
        item, the entry's age.  Only ``root/<2 chars>/`` shards are
        walked, so a store nested under the root (``.lab_cache/proofs``)
        is never taken for entries."""
        found = []
        for path in self.root.glob(f"??/*{self.SUFFIX}"):
            key = path.name[:-len(self.SUFFIX)]
            try:
                stat = path.stat()
            except OSError:
                continue
            size = stat.st_size
            stamps = [(stat.st_mtime_ns, stat.st_ino)]
            for side in self._paths(key)[1:]:
                try:
                    side_stat = side.stat()
                except OSError:
                    stamps.append(None)
                    continue
                size += side_stat.st_size
                stamps.append((side_stat.st_mtime_ns, side_stat.st_ino))
            found.append((key, size, tuple(stamps)))
        return found

    def stats(self) -> dict:
        """On-disk totals plus this process's runtime counters."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    @staticmethod
    def _unlink_if_same(path: Path, stamp: "tuple | None") -> bool:
        """Unlink ``path`` if it is still the file the scan judged.

        Prune scans race with concurrent ``put`` writers: the atomic
        rename can land between the directory walk and the unlink, and
        blindly unlinking would then delete the *fresh* entry that the
        scan never judged.  Every write renames a new file into place,
        so a rewritten file has a new inode: re-stat right before the
        unlink and spare anything whose ``(st_mtime_ns, st_ino)`` is not
        the ``stamp`` the scan recorded.  No clock is read, so a
        filesystem stamping mtimes behind ``time.time()`` cannot make a
        fresh file look old.  A file already removed by someone else is
        simply not ours to count.  Returns True when this call removed
        the file.
        """
        try:
            stat = path.stat()
            if (stat.st_mtime_ns, stat.st_ino) != stamp:
                return False
            path.unlink()
            return True
        except OSError:
            return False

    def _unlink_entry(self, key: str, stamps: tuple) -> bool:
        """Remove an entry the scan recorded with ``stamps``: its
        primary file, then its sidecars, each through
        :meth:`_unlink_if_same`."""
        primary, *sidecars = self._paths(key)
        if not self._unlink_if_same(primary, stamps[0]):
            return False
        for side, stamp in zip(sidecars, stamps[1:]):
            self._unlink_if_same(side, stamp)
        return True

    def prune(self, max_bytes: int) -> dict:
        """Evict oldest entries (by mtime) until under ``max_bytes``.

        Safe against concurrent writers: an entry rewritten after the
        scan is never deleted, and an entry vanishing mid-scan (evicted
        by a reader, pruned by another process) is tolerated.
        """
        entries = sorted(self._entries(), key=lambda e: e[2][0])
        total = sum(size for _, size, _ in entries)
        removed = 0
        for key, size, stamps in entries:
            if total <= max_bytes:
                break
            if self._unlink_entry(key, stamps):
                total -= size
                removed += 1
        return {"removed": removed, "kept_entries": len(entries) - removed,
                "kept_bytes": total}

    def prune_stale(self) -> dict:
        """Evict every entry that fails verification, eagerly (reads
        evict lazily), e.g. after a schema bump or a disk fault.

        Only the digest (and a JSON entry's schema) is checked; nothing
        is unpickled, and an artifact whose sidecar is gone counts as
        stale.  Concurrent writers are tolerated as in :meth:`prune`.
        """
        removed = 0
        kept = 0
        for key, _, stamps in self._entries():
            try:
                with self._locked(key, fcntl.LOCK_SH):
                    blob = self._paths(key)[0].read_bytes()
                    try:
                        self._check(key, blob)
                    except Exception:
                        if self._unlink_entry(key, stamps):
                            removed += 1
                            continue
            except OSError:
                continue               # evicted under us: not ours to count
            kept += 1
        return {"removed_stale": removed, "kept_entries": kept}


class JsonStore(ArtifactStore):
    """Self-digested JSON entries in ``root/<key[:2]>/<key>.json``.

    Each entry embeds the store's ``schema`` and a ``digest`` of its own
    canonical payload; an entry with another schema or a digest that
    does not match is evicted on read.  Values are JSON objects; a read
    returns the stored object without its ``digest``.
    """

    SUFFIX = ".json"

    def __init__(self, root: "str | Path", schema: int):
        super().__init__(root)
        self.schema = schema

    def _paths(self, key: str) -> tuple[Path, ...]:
        return (self.root / key[:2] / f"{key}.json",)

    @staticmethod
    def _digest(entry: dict) -> str:
        payload = {k: v for k, v in sorted(entry.items())
                   if k != "digest"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def _encode(self, value: dict, meta: dict[str, Any] | None
                ) -> tuple[str, list[bytes]]:
        doc = dict(value)
        doc["schema"] = self.schema
        doc["digest"] = self._digest(doc)
        return doc["digest"], [json.dumps(doc, sort_keys=True).encode()]

    def _check(self, key: str, blob: bytes) -> dict:
        entry = json.loads(blob)
        if not isinstance(entry, dict) \
                or entry.get("schema") != self.schema \
                or entry.get("digest") != self._digest(entry):
            raise ValueError(f"{key}: stale or corrupt entry")
        return entry

    def _decode(self, checked: dict) -> dict:
        del checked["digest"]
        return checked
