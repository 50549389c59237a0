"""Structured run manifests and progress telemetry.

Every orchestrated run writes ``results/runs/<run_id>/manifest.json``
recording, per job: parameters, derived seed, status, attempt count,
wall time, peak RSS (when the platform exposes it), cache key, and
artifact digest.  The manifest replaces ad-hoc append-only text files
as the machine-readable record of an experiment, and
:func:`validate_manifest` keeps its schema honest in tests and CI.
"""

from __future__ import annotations

import datetime
import json
import os
from pathlib import Path
from typing import Any

from repro.flow import validate_trace

from .cache import atomic_write

__all__ = ["MANIFEST_SCHEMA_VERSION", "new_run_id", "write_manifest",
           "load_manifest", "validate_manifest", "merge_manifests",
           "JOB_STATUSES"]

MANIFEST_SCHEMA_VERSION = 1

#: Terminal job states.  ``ok``/``cached`` are successes; ``failed``
#: exhausted its retry budget; ``skipped`` had a failed dependency;
#: ``cancelled`` was in flight when the runner itself was torn down
#: (Ctrl-C / ``request_shutdown``) — the job did not fail on its own.
JOB_STATUSES = ("ok", "cached", "failed", "skipped", "cancelled")

_REQUIRED_RUN_KEYS = ("schema_version", "run_id", "created",
                      "root_seed", "workers", "wall_time_s", "counts",
                      "jobs")
_REQUIRED_JOB_KEYS = ("params", "seed", "status", "attempts",
                      "wall_time_s")


def new_run_id(prefix: str = "run") -> str:
    """A sortable, collision-resistant run identifier."""
    stamp = datetime.datetime.now(datetime.timezone.utc)
    return (f"{prefix}-{stamp.strftime('%Y%m%dT%H%M%S')}"
            f"-{os.getpid()}")


def write_manifest(run_dir: "str | Path", doc: dict[str, Any]) -> Path:
    """Atomically write ``manifest.json`` under ``run_dir``."""
    path = Path(run_dir) / "manifest.json"
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True)
                        + "\n").encode())
    return path


def load_manifest(path: "str | Path") -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def build_manifest(*, run_id: str, root_seed: int, workers: Any,
                   wall_time_s: float,
                   jobs: dict[str, dict[str, Any]],
                   backend: str = "local",
                   extra: dict[str, Any] | None = None
                   ) -> dict[str, Any]:
    """Assemble a schema-conformant manifest document."""
    counts = {status: 0 for status in JOB_STATUSES}
    for entry in jobs.values():
        status = entry.get("status", "failed")
        counts[status] = counts.get(status, 0) + 1
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "run_id": run_id,
        "created": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "root_seed": root_seed,
        "workers": workers,
        "backend": backend,
        "wall_time_s": round(wall_time_s, 6),
        "counts": counts,
        "jobs": jobs,
    }
    if extra:
        for key, value in extra.items():
            doc.setdefault(key, value)
    return doc


def merge_manifests(docs: "list[dict[str, Any]]", *,
                    run_id: "str | None" = None) -> dict[str, Any]:
    """Combine per-host manifests of one split sweep into one document.

    A grid split across hosts (each running its slice of the job graph)
    yields one manifest per run; this folds them into a single
    schema-valid manifest.  Job names must not collide across slices
    — a collision means two hosts ran the same job, which is a
    partitioning bug worth loud failure.
    Wall time is the max (slices ran concurrently), ``workers`` the
    sum of integer worker counts, and ``backend``/``root_seed`` are
    carried through when the slices agree (else marked ``mixed``).
    """
    if not docs:
        raise ValueError("merge_manifests needs at least one manifest")
    jobs: dict[str, dict[str, Any]] = {}
    sources: list[str] = []
    for doc in docs:
        for name, entry in doc.get("jobs", {}).items():
            if name in jobs:
                raise ValueError(
                    f"job {name!r} appears in more than one manifest "
                    f"(overlapping sweep slices?)")
            jobs[name] = entry
        sources.append(str(doc.get("run_id", "?")))

    def agreed(key: str, default: Any) -> Any:
        values = {json.dumps(doc.get(key, default), sort_keys=True)
                  for doc in docs}
        return docs[0].get(key, default) if len(values) == 1 \
            else "mixed"

    worker_counts = [doc.get("workers") for doc in docs]
    workers: Any = (sum(w for w in worker_counts if isinstance(w, int))
                    or agreed("workers", "serial"))
    merged = build_manifest(
        run_id=run_id or f"merged-{'+'.join(sources)}",
        root_seed=agreed("root_seed", 0),
        workers=workers,
        wall_time_s=max(float(doc.get("wall_time_s", 0.0))
                        for doc in docs),
        jobs=jobs,
        backend=agreed("backend", "local"),
        extra={"merged_from": sources})
    return merged


def validate_manifest(doc: dict[str, Any]) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["manifest is not an object"]
    for key in _REQUIRED_RUN_KEYS:
        if key not in doc:
            errors.append(f"missing run key {key!r}")
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc.get('schema_version')!r} != "
            f"{MANIFEST_SCHEMA_VERSION}")
    jobs = doc.get("jobs")
    if not isinstance(jobs, dict):
        errors.append("jobs is not an object")
        return errors
    for name, entry in jobs.items():
        if not isinstance(entry, dict):
            errors.append(f"job {name!r} entry is not an object")
            continue
        for key in _REQUIRED_JOB_KEYS:
            if key not in entry:
                errors.append(f"job {name!r} missing key {key!r}")
        status = entry.get("status")
        if status not in JOB_STATUSES:
            errors.append(f"job {name!r} has bad status {status!r}")
        if status == "failed" and not entry.get("error"):
            errors.append(f"failed job {name!r} records no error")
        diagnostics = entry.get("diagnostics")
        if diagnostics is not None:
            if not isinstance(diagnostics, dict) \
                    or not isinstance(diagnostics.get("diagnostics"),
                                      list):
                errors.append(f"job {name!r} diagnostics entry is not "
                              f"a lint report")
        trace = entry.get("trace")
        if trace is not None:
            for problem in validate_trace(trace):
                errors.append(f"job {name!r} trace: {problem}")
    counts = doc.get("counts")
    if isinstance(counts, dict) and isinstance(jobs, dict):
        if sum(counts.get(s, 0) for s in JOB_STATUSES) != len(jobs):
            errors.append("counts do not sum to the number of jobs")
    try:
        json.dumps(doc)
    except TypeError as exc:
        errors.append(f"manifest is not JSON-serializable: {exc}")
    return errors
