"""repro.lab — parallel experiment orchestration.

The paper's tables are embarrassingly parallel (circuit x config)
grids of ``run_ced_flow`` invocations.  This subsystem runs such grids
through one scheduling loop on a ``concurrent.futures`` executor
chosen by backend name (``local`` process pool, in-process
``workqueue`` thread pool; ``workers="serial"`` runs jobs inline) with
deterministic per-job seeds, a content-addressed artifact cache
(``.lab_cache/``) that makes killed runs resumable, and structured run
manifests under ``results/runs/<run_id>/``; :func:`merge_manifests`
folds the manifests of a sweep split across hosts back into one
document.

:class:`ArtifactStore` (:mod:`repro.lab.cache`) is the repo's one
store core — atomic writes (:func:`atomic_write`), digest-verified
reads that evict a corrupt entry, mtime-guarded pruning, stats — with a
pickle codec (flow checkpoints, lab results) and a self-digested JSON
codec (:class:`JsonStore`), on which :class:`ProofCache` and the ``cli
analyze`` summary cache are key schemes.

Task functions live in :mod:`repro.lab.tasks` (imported lazily — it
pulls in the whole flow stack).
"""

from .cache import (MISS, ArtifactStore, JsonStore,  # noqa: F401
                    atomic_write, cache_key, code_fingerprint)
from .executor import (BACKEND_ENV, BACKENDS,  # noqa: F401
                       WORKERS_ENV, JobResult, JobTimeout, LabRun,
                       LabRunner, resolve_backend, resolve_workers,
                       run_jobs)
from .job import (Job, JobGraph, canonical_params,  # noqa: F401
                  derive_seed)
from .manifest import (JOB_STATUSES,  # noqa: F401
                       MANIFEST_SCHEMA_VERSION, build_manifest,
                       load_manifest, merge_manifests, new_run_id,
                       validate_manifest, write_manifest)
from .proofs import ConeFingerprinter, ProofCache  # noqa: F401

__all__ = [
    "Job", "JobGraph", "derive_seed", "canonical_params",
    "ArtifactStore", "JsonStore", "MISS", "atomic_write", "cache_key",
    "code_fingerprint",
    "JobResult", "JobTimeout", "LabRun", "LabRunner", "run_jobs",
    "resolve_workers", "WORKERS_ENV",
    "BACKENDS", "resolve_backend", "BACKEND_ENV",
    "MANIFEST_SCHEMA_VERSION", "JOB_STATUSES", "build_manifest",
    "load_manifest", "merge_manifests", "new_run_id",
    "validate_manifest", "write_manifest",
    "ProofCache", "ConeFingerprinter",
]
