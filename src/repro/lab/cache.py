"""Content-addressed artifact store backing resumable runs.

Every job's result is cached under a key derived from the job name, its
canonical parameters, the code fingerprint of its task function, and —
for jobs that consume dependency results — the artifact digests of its
dependencies (a Merkle-style chain).  Re-invoking a sweep therefore
skips completed jobs, and a killed run resumes where it left off.

Artifacts live in ``.lab_cache/<key[:2]>/<key>.pkl`` next to a small
JSON sidecar with provenance metadata.  Writes are atomic (temp file +
``os.replace``) so a kill mid-write never leaves a truncated artifact:
a corrupt or unreadable entry is treated as a miss.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import pickle
import json
import threading
from pathlib import Path
from typing import Any, Callable

from .job import Job, canonical_params

__all__ = ["ArtifactStore", "code_fingerprint", "cache_key", "MISS"]

#: Sentinel for "not in the cache" (``None`` is a valid artifact).
MISS = object()

#: Bump to invalidate every cached artifact after a change that the
#: per-function fingerprint cannot see (e.g. a core algorithm edit).
CACHE_SCHEMA = 1


def code_fingerprint(fn: Callable[..., Any]) -> str:
    """A short digest of the task function's identity and source.

    Editing the task function invalidates its cached artifacts.  The
    fingerprint intentionally does not chase transitive callees; bump
    :data:`CACHE_SCHEMA` (or clear ``.lab_cache/``) after changing the
    algorithms underneath the tasks.
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
    """Pickled artifacts addressed by content key under one root."""

    def __init__(self, root: "str | Path" = ".lab_cache"):
        self.root = Path(root)

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.root / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def has(self, key: str) -> bool:
        return self._paths(key)[0].exists()

    def get(self, key: str, default: Any = MISS) -> Any:
        """The cached artifact, or ``default`` on miss/corruption.

        A truncated or corrupt pickle (killed writer on a pre-atomic
        store, bit rot, hand editing) is *evicted* and reported as a
        miss — the same evict-and-recompute policy as the proof cache —
        so one bad entry costs a re-run instead of crashing the whole
        grid.  ``pickle.loads`` on garbage can raise nearly anything
        (``UnpicklingError``, ``EOFError``, ``ValueError``, ``KeyError``,
        ``MemoryError`` on absurd length prefixes, ...), so anything but
        a plain read miss counts as corruption.
        """
        path, _ = self._paths(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return default
        try:
            return pickle.loads(blob)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.evict(key)
            return default

    def meta(self, key: str) -> dict[str, Any] | None:
        _, meta_path = self._paths(key)
        try:
            return json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, value: Any,
            meta: dict[str, Any] | None = None) -> str:
        """Store ``value`` atomically; returns its artifact digest."""
        path, meta_path = self._paths(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        self._atomic_write(path, blob)
        doc = dict(meta or {})
        doc["artifact_digest"] = digest
        self._atomic_write(meta_path,
                           json.dumps(doc, sort_keys=True).encode())
        return digest

    def digest(self, key: str) -> str | None:
        """The stored artifact digest, recomputing if the sidecar died."""
        doc = self.meta(key)
        if doc and "artifact_digest" in doc:
            return doc["artifact_digest"]
        path, _ = self._paths(key)
        try:
            return hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return None

    def evict(self, key: str) -> None:
        for path in self._paths(key):
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _atomic_write(path: Path, blob: bytes) -> None:
        """Temp file + ``os.replace``.  The temp name is unique per
        process *and* thread (the ``workqueue`` backend and serve thread
        workers put the same key from one pid), and a failed write never
        leaves the temp file behind."""
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident():x}.tmp")
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
