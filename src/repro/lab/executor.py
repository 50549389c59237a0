"""Scheduler/executor: ready jobs onto a ``concurrent.futures`` pool.

``LabRunner`` runs a :class:`~repro.lab.job.JobGraph` through one
scheduling loop on an executor chosen by backend name (:data:`BACKENDS`)
— the default ``local`` process pool, or the in-process ``workqueue``
thread pool for many-small-jobs grids, where process-pool pickling
overhead dominates the work itself — or, with ``workers="serial"``, an
inline executor that runs each job in the calling thread.  Jobs get
per-job timeouts enforced inside the worker via ``SIGALRM``, bounded
retry on failure, and graceful partial-failure semantics: a failed job
marks its transitive dependents ``skipped`` instead of aborting the
whole grid.  Completed artifacts land in the content-addressed
:class:`~repro.lab.cache.ArtifactStore`, so re-invoking the same grid
skips finished jobs and a killed run resumes where it left off.  Every
run writes a structured manifest under ``results/runs/<run_id>/``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from concurrent.futures import (FIRST_COMPLETED, CancelledError, Executor,
                                Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .cache import MISS, ArtifactStore, cache_key
from .job import Job, JobGraph
from .manifest import build_manifest, new_run_id, write_manifest

__all__ = ["JobResult", "LabRun", "LabRunner", "run_jobs",
           "resolve_workers", "JobTimeout", "WORKERS_ENV",
           "BACKENDS", "BACKEND_ENV", "resolve_backend"]

#: Environment knob for the worker count; ``serial`` or an integer.
WORKERS_ENV = "REPRO_LAB_WORKERS"

#: Environment knob selecting the executor backend by name.
BACKEND_ENV = "REPRO_LAB_BACKEND"

#: The backend names :func:`resolve_backend` accepts.
BACKENDS = ("local", "workqueue")


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its timeout."""


def resolve_workers(value: "int | str | None" = None) -> "int | str":
    """Worker count from the argument, env, or ``cpu_count() - 1``.

    Returns the string ``"serial"`` (run jobs inline, no subprocesses —
    the debugging escape hatch) or an integer >= 2.  ``0``/``1`` map to
    serial: a one-worker pool only adds pickling overhead.

    An unparseable value — from the argument or from
    ``REPRO_LAB_WORKERS`` — raises a structured
    :class:`~repro.approx.ConfigError` naming the bad value, so the CLI
    can reject it as exit 2 with a JSON document instead of dying on a
    bare ``ValueError`` traceback.
    """
    source = "workers"
    if value is None:
        value = os.environ.get(WORKERS_ENV)
        if value is not None:
            source = WORKERS_ENV
    if value is None:
        value = max(1, (os.cpu_count() or 2) - 1)
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "serial":
            return "serial"
        try:
            value = int(text)
        except ValueError:
            from repro.approx import ConfigError
            raise ConfigError(
                f"invalid worker count {value!r} "
                f"(expected an integer or 'serial')",
                field_name=source, value=value) from None
    return "serial" if value <= 1 else int(value)


def resolve_backend(value: "str | None" = None) -> str:
    """Backend name from the argument, env, or the ``local`` default.

    Unknown names raise a structured
    :class:`~repro.approx.ConfigError` (CLI: exit 2 with JSON), naming
    whether the bad value came from the argument or the environment.
    """
    source = "backend"
    if value is None:
        value = os.environ.get(BACKEND_ENV)
        if value is not None:
            source = BACKEND_ENV
    if value is None:
        return "local"
    name = value.strip().lower()
    if name not in BACKENDS:
        from repro.approx import ConfigError
        raise ConfigError(
            f"unknown lab backend {value!r} "
            f"(known: {', '.join(BACKENDS)})",
            field_name=source, value=value)
    return name


class _InlineExecutor(Executor):
    """Runs each job in the calling thread, inside :meth:`submit`.

    The future holds the outcome or whatever the call raised, a
    ``KeyboardInterrupt`` included, so an interrupt mid-job reaches the
    runner when it collects the future, like one from a pool worker.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def _alarm(signum, frame):
    raise JobTimeout()


def _disarm_alarm() -> None:
    """Disarm the job interval timer.

    A separate function so tests can intercept the instant between the
    job body returning and the timer being cleared — the race window in
    which a near-deadline alarm must not turn a finished job into a
    timeout.
    """
    signal.setitimer(signal.ITIMER_REAL, 0.0)


def _restore_itimer(old: "tuple[float, float] | None",
                    elapsed: float) -> None:
    """Re-arm a pre-existing interval timer, net of our elapsed time.

    The caller (e.g. an outer harness with its own watchdog) had
    ``old = (seconds_remaining, interval)`` on the clock when the job
    borrowed SIGALRM; give it back what is left, never less than a tick
    so an already-due alarm still fires.
    """
    if old is not None and old[0] > 0:
        signal.setitimer(signal.ITIMER_REAL,
                         max(old[0] - elapsed, 1e-6), old[1])


def _peak_rss_kb() -> "int | None":
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return int(usage.ru_maxrss)  # KiB on Linux
    except (ImportError, ValueError, OSError):
        return None


def _execute_payload(fn: Callable[..., Any], params: dict[str, Any],
                     timeout: "float | None",
                     dep_results: "dict[str, Any] | None"
                     ) -> tuple[str, Any, float, "int | None"]:
    """Run one job in this process; never raises across the boundary.

    Returns ``(status, payload, wall_time_s, peak_rss_kb)`` where
    ``status`` is ``ok``/``error``/``timeout`` and ``payload`` is the
    value or the error string.  The timeout is enforced with a real
    interval timer so a hung job cannot wedge the worker; any
    pre-existing SIGALRM handler and timer are saved and restored (the
    timer net of the time this job consumed), and a job that finishes
    within epsilon of its deadline is reported ``ok`` even if the alarm
    fires in the window before the timer is disarmed.
    """
    start = time.perf_counter()
    # SIGALRM can only be armed on the main thread; the workqueue
    # backend's thread pool runs jobs to completion instead of
    # interrupting them.
    use_alarm = bool(timeout) and hasattr(signal, "SIGALRM") \
        and threading.current_thread() is threading.main_thread()
    old_handler = old_timer = None
    completed, value = False, None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _alarm)
        old_timer = signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        kwargs = dict(params)
        if dep_results is not None:
            kwargs["dep_results"] = dep_results
        try:
            value = fn(**kwargs)
            completed = True
        finally:
            # Disarm right here, not in the outer finally: the alarm
            # must not fire while the outcome is being packaged.
            if use_alarm:
                _disarm_alarm()
        status, payload = "ok", value
    except JobTimeout:
        if completed:
            # The job finished; the alarm merely won the race to the
            # disarm call.  Its value stands.
            status, payload = "ok", value
        else:
            status = "timeout"
            payload = f"timed out after {timeout:.1f}s"
    except Exception as exc:
        status = "error"
        payload = (f"{type(exc).__name__}: {exc}\n"
                   + traceback.format_exc(limit=8)[-2000:])
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
            _restore_itimer(old_timer, time.perf_counter() - start)
    wall = time.perf_counter() - start
    return status, payload, wall, _peak_rss_kb()


@dataclass
class JobResult:
    """Terminal record of one job in a run."""

    name: str
    status: str          # ok | cached | failed | skipped | cancelled
    value: Any = None
    error: "str | None" = None
    attempts: int = 0
    wall_time_s: float = 0.0
    peak_rss_kb: "int | None" = None
    seed: "int | None" = None
    cache_key: "str | None" = None
    artifact_digest: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class LabRun:
    """Everything a finished run produced."""

    run_id: str
    results: dict[str, JobResult]
    wall_time_s: float
    manifest_path: "Path | None" = None
    workers: "int | str" = "serial"
    backend: str = "local"

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results.values():
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def value(self, name: str) -> Any:
        """The job's value; raises with its recorded error if it failed."""
        result = self.results[name]
        if not result.ok:
            raise RuntimeError(
                f"job {name!r} {result.status}: {result.error}")
        return result.value

    def values(self) -> dict[str, Any]:
        """name -> value for successful jobs only."""
        return {n: r.value for n, r in self.results.items() if r.ok}


def _default_log(message: str) -> None:
    print(message, flush=True)


@dataclass
class LabRunner:
    """Configured executor for job graphs.

    ``workers`` follows :func:`resolve_workers` (argument > env >
    ``cpu_count() - 1``); ``cache=None`` disables artifact caching;
    ``results_dir=None`` disables manifest writing.
    """

    workers: "int | str | None" = None
    #: Execution backend name (``local``/``workqueue``);
    #: ``None`` falls back to ``REPRO_LAB_BACKEND`` then ``local``.
    backend: "str | None" = None
    cache: "ArtifactStore | None" = field(
        default_factory=ArtifactStore)
    results_dir: "str | Path | None" = "results"
    log: "Callable[[str], None] | None" = _default_log
    default_timeout: "float | None" = None
    default_retries: int = 0
    manifest_extra: "dict[str, Any] | None" = None
    #: Set by :meth:`request_shutdown`; polled between scheduling steps.
    _shutdown: threading.Event = field(default_factory=threading.Event,
                                       init=False, repr=False)

    def request_shutdown(self) -> None:
        """Ask a run in progress to stop (thread-safe, idempotent).

        In-flight jobs are recorded as ``cancelled`` — not ``failed`` —
        never-started jobs are left out of the manifest, and
        :meth:`run` still writes the manifest before returning.
        """
        self._shutdown.set()

    def run(self, graph: JobGraph, run_id: "str | None" = None
            ) -> LabRun:
        graph.validate()
        workers = resolve_workers(self.workers)
        backend_name = resolve_backend(self.backend)
        run_id = run_id or new_run_id()
        start = time.perf_counter()
        results: dict[str, JobResult] = {}
        total = len(graph)
        self._emit(f"[lab] run {run_id}: {total} jobs, "
                   f"workers={workers}, backend={backend_name}")
        interrupt: "BaseException | None" = None
        if workers == "serial":
            executor: Executor = _InlineExecutor()
        elif backend_name == "local":
            executor = ProcessPoolExecutor(max_workers=workers)
        else:
            # Jobs in a thread pool cannot be interrupted (SIGALRM is
            # main-thread-only): a timeout there is best-effort, and a
            # hung job keeps its thread.
            executor = ThreadPoolExecutor(max_workers=workers)
        try:
            self._run_backend(graph, results, executor)
        except (KeyboardInterrupt, SystemExit) as exc:
            # Pool teardown (Ctrl-C or a harness kill): the manifest
            # below records what actually happened — in-flight jobs as
            # ``cancelled``, finished ones with their real status —
            # and the interrupt continues on its way.
            interrupt = exc
        wall = time.perf_counter() - start
        run = LabRun(run_id=run_id, results=results, wall_time_s=wall,
                     workers=workers, backend=backend_name)
        run.manifest_path = self._write_manifest(graph, run)
        counts = ", ".join(f"{k}={v}"
                           for k, v in sorted(run.counts().items()))
        if interrupt is not None:
            self._emit(f"[lab] run {run_id} interrupted after "
                       f"{wall:.2f}s ({counts}); manifest written")
            raise interrupt
        self._emit(f"[lab] run {run_id} done in {wall:.2f}s ({counts})")
        return run

    # -- shared helpers --------------------------------------------------
    def _emit(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _seed_of(self, graph: JobGraph, job: Job) -> int:
        seed = job.params.get("seed")
        return seed if isinstance(seed, int) \
            else graph.seed_for(job.name)

    def _key_of(self, job: Job, results: dict[str, JobResult]
                ) -> str:
        digests = {d: results[d].artifact_digest or ""
                   for d in job.deps} if job.pass_deps else None
        return cache_key(job, digests)

    def _try_cache(self, graph: JobGraph, job: Job,
                   results: dict[str, JobResult]) -> "JobResult | None":
        if self.cache is None:
            return None
        key = self._key_of(job, results)
        value = self.cache.get(key, MISS)
        if value is MISS:
            return None
        return JobResult(
            name=job.name, status="cached", value=value,
            seed=self._seed_of(graph, job), cache_key=key,
            artifact_digest=self.cache.digest(key))

    def _dep_results(self, job: Job, results: dict[str, JobResult]
                     ) -> "dict[str, Any] | None":
        if not job.pass_deps:
            return None
        return {d: results[d].value for d in job.deps}

    def _finish(self, graph: JobGraph, job: Job, attempts: int,
                outcome: tuple[str, Any, float, "int | None"],
                results: dict[str, JobResult]) -> JobResult:
        status, payload, wall, rss = outcome
        seed = self._seed_of(graph, job)
        if status == "ok":
            key = digest = None
            if self.cache is not None:
                key = self._key_of(job, results)
                digest = self.cache.put(key, payload, meta={
                    "job": job.name, "params": job.params,
                    "wall_time_s": round(wall, 6)})
            result = JobResult(
                name=job.name, status="ok", value=payload,
                attempts=attempts, wall_time_s=wall, peak_rss_kb=rss,
                seed=seed, cache_key=key, artifact_digest=digest)
        else:
            result = JobResult(
                name=job.name, status="failed", error=str(payload),
                attempts=attempts, wall_time_s=wall, peak_rss_kb=rss,
                seed=seed)
        results[job.name] = result
        return result

    def _skip_dependents(self, graph: JobGraph, name: str,
                         results: dict[str, JobResult],
                         total: int) -> None:
        for child in graph.dependents_of(name):
            if child not in results:
                results[child] = JobResult(
                    name=child, status="skipped",
                    error=f"dependency {name!r} failed",
                    seed=graph.seed_for(child))
                self._progress(results[child], len(results), total)

    def _progress(self, result: JobResult, done: int, total: int
                  ) -> None:
        bits = [f"[lab] {done}/{total} {result.name}: "
                f"{result.status}"]
        if result.status in ("ok", "failed"):
            bits.append(f"wall={result.wall_time_s:.2f}s")
        if result.attempts > 1:
            bits.append(f"attempts={result.attempts}")
        if result.status == "failed" and result.error:
            bits.append(f"error={result.error.splitlines()[0]}")
        self._emit(" ".join(bits))

    def _retries_of(self, job: Job) -> int:
        return job.retries if job.retries else self.default_retries

    def _timeout_of(self, job: Job) -> "float | None":
        return job.timeout if job.timeout else self.default_timeout

    def _cancel(self, graph: JobGraph, name: str,
                results: dict[str, JobResult], total: int) -> None:
        """Record an in-flight job interrupted by pool teardown."""
        results[name] = JobResult(
            name=name, status="cancelled",
            error="interrupted by pool teardown",
            seed=graph.seed_for(name))
        self._progress(results[name], len(results), total)

    # -- scheduling loop -------------------------------------------------
    def _run_backend(self, graph: JobGraph,
                     results: dict[str, JobResult],
                     executor: Executor) -> None:
        """Drive the graph on ``executor``, then shut it down.

        Every mode runs this one loop.  A pool runs the whole ready set
        at once; the serial executor runs each job inside ``submit``, so
        the loop harvests it (or the interrupt it raised) before
        starting the next.
        """
        total = len(graph)
        pending = set(graph.names)
        running: dict[Future, tuple[str, int]] = {}
        torn_down = False

        def submit(job: Job, attempts: int) -> "Future | None":
            try:
                future = executor.submit(
                    _execute_payload, job.fn, job.params,
                    self._timeout_of(job),
                    self._dep_results(job, results))
            except Exception as exc:  # broken or shut-down pool
                results[job.name] = JobResult(
                    name=job.name, status="failed",
                    error=f"submit failed: {exc}",
                    attempts=attempts,
                    seed=graph.seed_for(job.name))
                return None
            running[future] = (job.name, attempts)
            return future

        def schedule_ready() -> bool:
            """Launch/cache-resolve every ready job; True if moved.

            The pass stops at a shutdown request, and once a job it
            launched has already finished (serial mode), so no job
            starts before a finished one is harvested.
            """
            if any(future.done() for future in running):
                return False       # e.g. a serial retry: harvest
            progressed = False
            in_flight = {name for name, _ in running.values()}
            for name in sorted(pending):
                if self._shutdown.is_set():
                    break
                if name in in_flight or name in results:
                    continue
                job = graph.job(name)
                if not all(d in results for d in job.deps):
                    continue
                if not all(results[d].ok for d in job.deps):
                    results[name] = JobResult(
                        name=name, status="skipped",
                        error="dependency failed",
                        seed=graph.seed_for(name))
                    pending.discard(name)
                    self._progress(results[name], len(results),
                                   total)
                    progressed = True
                    continue
                cached = self._try_cache(graph, job, results)
                if cached is not None:
                    results[name] = cached
                    pending.discard(name)
                    self._progress(cached, len(results), total)
                    progressed = True
                    continue
                future = submit(job, 1)
                if future is None:
                    pending.discard(name)
                    self._skip_dependents(graph, name, results, total)
                    self._progress(results[name], len(results),
                                   total)
                    continue
                progressed = True
                if future.done():
                    break
            return progressed

        def teardown(current: "str | None" = None) -> None:
            """Record in-flight jobs cancelled; the executor is
            then shut down without waiting for them."""
            nonlocal torn_down
            if current is not None:
                self._cancel(graph, current, results, total)
            for name, _ in running.values():
                if name not in results:
                    self._cancel(graph, name, results, total)
            running.clear()
            pending.clear()
            torn_down = True

        try:
            while pending or running:
                moved = schedule_ready()
                if self._shutdown.is_set():
                    teardown()
                    return
                if not running:
                    if moved:
                        continue    # cache hits may unblock more
                    # Nothing runnable and nothing running:
                    # remaining jobs are unreachable (defensive;
                    # validate() should have caught cycles).
                    for name in sorted(pending):
                        if name not in results:
                            results[name] = JobResult(
                                name=name, status="skipped",
                                error="unreachable",
                                seed=graph.seed_for(name))
                    pending.clear()
                    break
                # Harvest without blocking while the ready set
                # still moves; otherwise the timeout keeps
                # request_shutdown() responsive.
                finished, _ = wait(running,
                                   return_when=FIRST_COMPLETED,
                                   timeout=0 if moved else 0.25)
                for future in finished:
                    name, attempts = running.pop(future)
                    job = graph.job(name)
                    try:
                        outcome = future.result()
                    except CancelledError:
                        # Torn down before it ran: not a failure.
                        self._cancel(graph, name, results, total)
                        pending.discard(name)
                        continue
                    except (KeyboardInterrupt, SystemExit):
                        # The interrupt surfaced through the
                        # worker; this job (and every other
                        # in-flight one) was a teardown victim,
                        # not a spurious failure.
                        teardown(current=name)
                        raise
                    except Exception as exc:
                        # e.g. BrokenProcessPool: the worker died
                        # on its own — a real failure.
                        outcome = ("error",
                                   f"{type(exc).__name__}: {exc}",
                                   0.0, None)
                    if outcome[0] != "ok" \
                            and attempts <= self._retries_of(job):
                        self._emit(f"[lab] retry {name} "
                                   f"(attempt {attempts + 1})")
                        submit(job, attempts + 1)
                        continue
                    result = self._finish(graph, job, attempts,
                                          outcome, results)
                    pending.discard(name)
                    if not result.ok:
                        self._skip_dependents(graph, name, results,
                                              total)
                    self._progress(result, len(results), total)
        except (KeyboardInterrupt, SystemExit):
            # An interrupt delivered to the parent while waiting.
            teardown()
            raise
        finally:
            executor.shutdown(wait=not torn_down,
                              cancel_futures=torn_down)

    # -- manifest --------------------------------------------------------
    def _write_manifest(self, graph: JobGraph, run: LabRun
                        ) -> "Path | None":
        if self.results_dir is None:
            return None
        entries: dict[str, dict[str, Any]] = {}
        for name in graph.topological_order():
            result = run.results.get(name)
            if result is None:
                continue
            job = graph.job(name)
            entries[name] = {
                "params": job.params,
                "deps": list(job.deps),
                "seed": result.seed,
                "status": result.status,
                "attempts": result.attempts,
                "wall_time_s": round(result.wall_time_s, 6),
                "peak_rss_kb": result.peak_rss_kb,
                "cache_key": result.cache_key,
                "artifact_digest": result.artifact_digest,
                "error": result.error,
            }
            # Surface static-verification results next to the job so
            # manifest readers need not unpack the cached artifact.
            if isinstance(result.value, dict) \
                    and isinstance(result.value.get("lint"), dict):
                entries[name]["diagnostics"] = result.value["lint"]
            # Likewise the per-pass flow trace (wall times, cache
            # hit/miss counters, resume status).
            if isinstance(result.value, dict) \
                    and isinstance(result.value.get("trace"), dict):
                entries[name]["trace"] = result.value["trace"]
        doc = build_manifest(
            run_id=run.run_id, root_seed=graph.root_seed,
            workers=run.workers, wall_time_s=run.wall_time_s,
            jobs=entries, backend=run.backend,
            extra=self.manifest_extra)
        run_dir = Path(self.results_dir) / "runs" / run.run_id
        return write_manifest(run_dir, doc)


def run_jobs(jobs: "list[Job] | JobGraph", *,
             root_seed: int = 2008,
             run_id: "str | None" = None,
             **runner_kwargs: Any) -> LabRun:
    """Convenience wrapper: build a graph (if needed) and run it."""
    graph = jobs if isinstance(jobs, JobGraph) \
        else JobGraph(jobs, root_seed=root_seed)
    return LabRunner(**runner_kwargs).run(graph, run_id=run_id)
