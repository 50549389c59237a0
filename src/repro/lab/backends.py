"""Execution backends for the lab scheduler.

The :class:`~repro.lab.executor.LabRunner` scheduling loop (dependency
resolution, caching, retries, skip/cancel taxonomy, manifests) is
backend-agnostic: it submits :class:`JobRequest` payloads and collects
``(status, payload, wall_time_s, peak_rss_kb)`` outcome tuples from
:class:`concurrent.futures.Future` handles.  This module supplies the
backends behind that seam:

* ``local`` — a :class:`PoolBackend` over a ``ProcessPoolExecutor``;
* ``workqueue`` — a :class:`PoolBackend` over a ``ThreadPoolExecutor``
  for many-small-jobs grids, where process-pool pickling overhead
  dominates the work itself;
* ``workers="serial"`` — a :class:`PoolBackend` over an inline
  executor that runs each job in the calling thread as it is
  submitted (the debugging mode, whatever the backend name);
* ``tcp`` — a stdlib-only coordinator/worker pair over asyncio sockets
  reusing the serve HTTP framing (:mod:`repro.serve.protocol`): the
  coordinator embeds in the runner process, workers
  (``python -m repro.lab.worker``) lease jobs over HTTP, heartbeat
  while running, and return results through a shared content-addressed
  :class:`~repro.lab.cache.ArtifactStore` (the transfer medium).
  Stragglers are re-dispatched after a heartbeat lapse; a worker death
  beyond the re-dispatch budget resolves the job as a structured
  ``failed``.  Workers are spawned on loopback by default; remote
  machines join the same grid by running the worker module against the
  coordinator's host/port with the store on a shared filesystem.  The
  coordinator runs named module-level callables sent by the runner —
  point it only at hosts you trust with code execution.

Backends are selected by name (:data:`BACKENDS`) with
``LabRunner(backend=...)`` or the ``REPRO_LAB_BACKEND`` environment
variable.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from dataclasses import dataclass, field
from typing import Any, Callable

from .cache import MISS, ArtifactStore

__all__ = ["JobRequest", "ExecutorBackend", "PoolBackend", "TcpBackend",
           "BACKENDS", "create_backend", "resolve_backend",
           "BACKEND_ENV"]

#: Environment knob selecting the executor backend by name.
BACKEND_ENV = "REPRO_LAB_BACKEND"

#: The backend names :func:`resolve_backend` accepts.
BACKENDS = ("local", "tcp", "workqueue")

#: tcp tuning: worker heartbeat period, the silence after which a lease
#: is presumed dead, and how often one job may be re-dispatched.
HEARTBEAT_S = 0.25
STALE_AFTER_S = 4.0
MAX_REDISPATCH = 1


@dataclass
class JobRequest:
    """One job as handed to a backend: everything needed to run it."""

    name: str
    fn: Callable[..., Any]
    params: dict[str, Any]
    timeout: "float | None" = None
    dep_results: "dict[str, Any] | None" = None


class ExecutorBackend:
    """Protocol of a lab execution backend.

    A backend is a context manager (``__enter__`` provisions workers,
    ``__exit__`` releases them); between the two, :meth:`submit`
    accepts :class:`JobRequest` payloads and returns futures resolving
    to ``_execute_payload`` outcome tuples.  ``submit`` may raise when
    a request cannot cross the backend's boundary (unpicklable
    callable, non-module-level function for ``tcp``); the runner
    records that as a failed submission.
    """

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def submit(self, request: JobRequest) -> Future:
        raise NotImplementedError

    def shutdown(self, cancel_futures: bool = False) -> None:
        raise NotImplementedError


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


def create_backend(name: str, workers: "int | str", *,
                   cache: "ArtifactStore | None" = None,
                   log: "Callable[[str], None] | None" = None
                   ) -> ExecutorBackend:
    """The backend ``name`` with ``workers`` workers.

    ``workers="serial"`` (see :func:`~repro.lab.resolve_workers`) runs
    jobs inline whatever the name.  ``cache`` and ``log`` are the
    runner's artifact store and log callable; only ``tcp`` uses them.
    """
    name = resolve_backend(name)
    if workers == "serial":
        return PoolBackend(_InlineExecutor())
    if name == "tcp":
        return TcpBackend(int(workers), cache=cache, log=log)
    pool = ProcessPoolExecutor if name == "local" \
        else ThreadPoolExecutor
    return PoolBackend(pool(max_workers=int(workers)))


# ----------------------------------------------------------------------
# local, workqueue and serial: one concurrent.futures executor each
# ----------------------------------------------------------------------
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


class PoolBackend(ExecutorBackend):
    """A ``concurrent.futures.Executor`` running ``_execute_payload``.

    Jobs in a thread pool cannot be interrupted (SIGALRM is
    main-thread-only), so there a timeout is best-effort and a hung job
    keeps its thread.
    """

    def __init__(self, executor: Executor):
        self._pool: "Executor | None" = executor

    def submit(self, request: JobRequest) -> Future:
        from .executor import _execute_payload
        return self._pool.submit(
            _execute_payload, request.fn, request.params,
            request.timeout, request.dep_results)

    def shutdown(self, cancel_futures: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=not cancel_futures,
                                cancel_futures=cancel_futures)
            self._pool = None


# ----------------------------------------------------------------------
# tcp: coordinator/worker over asyncio sockets (serve framing)
# ----------------------------------------------------------------------
def fn_reference(fn: Callable[..., Any]) -> str:
    """``module:qualname`` of a module-level callable.

    The wire protocol ships functions by reference, exactly like the
    pickle-by-reference contract the process pool already imposes;
    closures and lambdas cannot cross and are rejected at submit time.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise TypeError(
            f"tcp backend needs a module-level callable, got {fn!r}")
    return f"{module}:{qualname}"


def resolve_fn_reference(ref: str) -> Callable[..., Any]:
    """Import the callable a :func:`fn_reference` string names."""
    import importlib
    module_name, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref} is not callable")
    return obj


def _transfer_key(kind: str, token: str) -> str:
    """Content address of a transfer blob in the shared store."""
    return hashlib.sha256(f"lab-xfer\x1f{kind}\x1f{token}"
                          .encode()).hexdigest()


@dataclass
class _TcpJob:
    """Coordinator-side state of one submitted job."""

    name: str
    spec: dict[str, Any]
    future: Future
    submitted: float
    dispatches: int = 0
    leases: dict[str, "_TcpLease"] = field(default_factory=dict)


@dataclass
class _TcpLease:
    """One dispatch of a job to one worker."""

    token: str
    worker: str
    job: _TcpJob
    last_beat: float


class TcpBackend(ExecutorBackend):
    """Coordinator for the distributed ``tcp`` backend.

    The coordinator is an asyncio HTTP server (the serve wire framing)
    hosted on a background thread of the runner process.  Workers poll
    ``POST /v1/lab/lease`` for work, ``POST /v1/lab/heartbeat`` while
    running, and ``POST /v1/lab/complete`` with the outcome; ``ok``
    payloads travel through the shared content-addressed artifact
    store, never inline on the socket.  The monitor task re-dispatches
    a job whose lease went silent (straggler or killed worker) up to
    :data:`MAX_REDISPATCH` times — first completion wins — and beyond
    that resolves it as a structured error so the runner records
    ``failed`` and the rest of the grid completes.  Dead spawned
    workers are respawned (at most ``2 * workers`` times) the way serve
    respawns dead shards.

    Transfer keys and lease tokens carry a per-instance nonce, so runs
    sharing one store (the default ``.lab_cache``) never read each
    other's dependency or result blobs for a same-named job; each blob
    is evicted once consumed.
    """

    def __init__(self, workers: int, cache=None, log=None, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.workers = max(int(workers), 1)
        self.host = host
        self.port = port                 # 0 = pick a free port
        self.log = log
        self._nonce = os.urandom(8).hex()
        if cache is not None:
            self.store = cache
            self._own_store_root = None
        else:
            import tempfile
            self._own_store_root = tempfile.mkdtemp(prefix="lab-tcp-")
            self.store = ArtifactStore(self._own_store_root)
        self._queue: "collections.deque[_TcpJob]" = collections.deque()
        self._jobs: dict[str, _TcpJob] = {}
        self._leases: dict[str, _TcpLease] = {}
        self._procs: dict[str, subprocess.Popen] = {}
        self._spawned = 0          # monotonic: worker ids never reused
        self._respawns = 0
        self._loop = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._stopping = False
        self._start_error: "BaseException | None" = None

    # -- lifecycle (runner thread) ---------------------------------------
    def __enter__(self) -> "TcpBackend":
        self._thread = threading.Thread(target=self._loop_main,
                                        name="lab-tcp-coordinator",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("tcp coordinator did not start")
        if self._start_error is not None:
            raise RuntimeError(
                f"tcp coordinator failed to start: {self._start_error}")
        for _ in range(self.workers):
            self._spawn_worker()
        return self

    def _spawn_worker(self) -> None:
        wid = f"w{self._spawned}"
        self._spawned += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p) + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.lab.worker",
             "--host", self.host, "--port", str(self.port),
             "--worker-id", wid, "--store", str(self.store.root)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self._procs[wid] = proc
        self._emit(f"[lab:tcp] spawned worker {wid} (pid {proc.pid})")

    def _emit(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def submit(self, request: JobRequest) -> Future:
        ref = fn_reference(request.fn)       # raises on non-importable
        spec = {
            "name": request.name,
            "fn": ref,
            "params": request.params,
            "timeout": request.timeout,
            "deps_key": None,
        }
        if request.dep_results is not None:
            deps_key = _transfer_key(
                "deps", f"{self._nonce}/{request.name}")
            self.store.put(deps_key, request.dep_results)
            spec["deps_key"] = deps_key
        future: Future = Future()
        job = _TcpJob(name=request.name, spec=spec, future=future,
                      submitted=time.monotonic())
        self._loop.call_soon_threadsafe(self._enqueue, job)
        return future

    def shutdown(self, cancel_futures: bool = False) -> None:
        if self._loop is None:
            return
        self._stopping = True
        if cancel_futures:
            for job in list(self._jobs.values()):
                job.future.cancel()
        loop = self._loop
        try:
            loop.call_soon_threadsafe(self._request_stop)
        except RuntimeError:
            pass                             # loop already closed
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        if self._thread is not None:
            self._thread.join(timeout=10)
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._procs.clear()
        self._loop = None
        self._thread = None

    # -- event loop (coordinator thread) ---------------------------------
    def _loop_main(self) -> None:
        import asyncio

        async def main() -> None:
            from repro.serve.protocol import (HttpError, error_response,
                                              json_response,
                                              read_request,
                                              write_response)

            stop = asyncio.Event()
            self._stop_event = stop

            async def handle(reader, writer):
                try:
                    while True:
                        try:
                            request = await read_request(reader)
                        except HttpError as exc:
                            error_response(writer, exc.status,
                                           "bad_request", str(exc),
                                           keep_alive=False)
                            break
                        if request is None:
                            break
                        status, doc = self._route(request)
                        if doc is None:
                            write_response(writer, status, b"",
                                           keep_alive=True)
                        else:
                            json_response(writer, status, doc)
                        await writer.drain()
                        if not request.keep_alive:
                            break
                except (ConnectionError, asyncio.IncompleteReadError,
                        OSError):
                    pass
                except asyncio.CancelledError:
                    # Coordinator shutdown cancelled us mid-read; end
                    # the task normally so the stream protocol's
                    # done-callback does not log a spurious exception.
                    pass
                finally:
                    try:
                        writer.close()
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

            server = await asyncio.start_server(
                handle, host=self.host, port=self.port)
            self.port = server.sockets[0].getsockname()[1]
            monitor = asyncio.ensure_future(self._monitor(stop))
            self._started.set()
            await stop.wait()
            monitor.cancel()
            server.close()
            await server.wait_closed()
            # Drain handler tasks for connections still open (workers
            # mid-poll) so the loop closes without pending-task noise.
            me = asyncio.current_task()
            others = [t for t in asyncio.all_tasks() if t is not me]
            for task in others:
                task.cancel()
            await asyncio.gather(*others, return_exceptions=True)

        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(main())
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
        finally:
            loop.close()

    def _request_stop(self) -> None:
        self._stop_event.set()

    # -- coordinator state transitions (loop thread only) ----------------
    def _enqueue(self, job: _TcpJob) -> None:
        if self._stopping or job.future.cancelled():
            job.future.cancel()
            return
        self._jobs[job.name] = job
        self._queue.append(job)

    def _resolve(self, job: _TcpJob, outcome: tuple) -> None:
        for token in list(job.leases):
            self._leases.pop(token, None)
        job.leases.clear()
        self._jobs.pop(job.name, None)
        if job.spec["deps_key"] is not None:
            self.store.evict(job.spec["deps_key"])
        if not job.future.done():
            job.future.set_result(outcome)

    def _route(self, request) -> "tuple[int, dict | None]":
        path, method = request.path, request.method
        if path == "/v1/lab/health" and method == "GET":
            return 200, {"status": "ok", "queued": len(self._queue),
                         "leased": len(self._leases)}
        if path == "/v1/lab/lease" and method == "POST":
            return self._handle_lease(request)
        if path == "/v1/lab/heartbeat" and method == "POST":
            return self._handle_heartbeat(request)
        if path == "/v1/lab/complete" and method == "POST":
            return self._handle_complete(request)
        return 404, {"error": "not_found", "path": path}

    @staticmethod
    def _body(request) -> dict:
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {}
        return doc if isinstance(doc, dict) else {}

    def _handle_lease(self, request) -> "tuple[int, dict | None]":
        worker = str(self._body(request).get("worker", "?"))
        if self._stopping:
            return 200, {"shutdown": True}
        while self._queue:
            job = self._queue.popleft()
            if job.future.cancelled() or job.future.done():
                self._jobs.pop(job.name, None)
                continue
            job.dispatches += 1
            token = f"{self._nonce}/{job.name}@{job.dispatches}"
            lease = _TcpLease(token=token, worker=worker, job=job,
                              last_beat=time.monotonic())
            self._leases[token] = lease
            job.leases[token] = lease
            return 200, {"job": token, **job.spec}
        return 204, None

    def _handle_heartbeat(self, request) -> "tuple[int, dict]":
        doc = self._body(request)
        lease = self._leases.get(str(doc.get("job", "")))
        if lease is None:
            # The job completed elsewhere (re-dispatch won) or was
            # cancelled; tell the worker to stop wasting cycles on it.
            return 200, {"abandon": True}
        lease.last_beat = time.monotonic()
        return 200, {"ok": True}

    def _handle_complete(self, request) -> "tuple[int, dict]":
        doc = self._body(request)
        token = str(doc.get("job", ""))
        result_key = str(doc.get("result_key", ""))
        lease = self._leases.pop(token, None)
        job = lease.job if lease is not None else None
        if job is not None:
            job.leases.pop(token, None)
        if job is None or job.future.done():
            if result_key:                     # duplicate completion
                self.store.evict(result_key)
            return 200, {"ignored": True}
        status = str(doc.get("status", "error"))
        wall = float(doc.get("wall_time_s", 0.0))
        rss = doc.get("peak_rss_kb")
        if status == "ok":
            value = self.store.get(result_key, MISS)
            self.store.evict(result_key)
            if value is MISS:
                outcome = ("error",
                           f"worker {lease.worker} reported ok but the "
                           f"result artifact is missing/corrupt",
                           wall, rss)
            else:
                outcome = ("ok", value, wall, rss)
        else:
            outcome = (status, str(doc.get("error", "worker error")),
                       wall, rss)
        self._resolve(job, outcome)
        return 200, {"ok": True}

    async def _monitor(self, stop) -> None:
        import asyncio
        while not stop.is_set():
            await asyncio.sleep(HEARTBEAT_S)
            now = time.monotonic()
            dead_workers = set()
            for wid, proc in list(self._procs.items()):
                if proc.poll() is None:
                    continue
                dead_workers.add(wid)
                del self._procs[wid]
                if not self._stopping \
                        and self._respawns < 2 * self.workers:
                    self._respawns += 1
                    self._emit(f"[lab:tcp] worker {wid} died "
                               f"(exit {proc.returncode}); respawning")
                    try:
                        self._spawn_worker()
                    except OSError as exc:
                        self._emit(f"[lab:tcp] respawn failed: {exc}")
            for token, lease in list(self._leases.items()):
                died = lease.worker in dead_workers
                stale = now - lease.last_beat > STALE_AFTER_S
                if not died and not stale:
                    continue
                self._leases.pop(token, None)
                job = lease.job
                job.leases.pop(token, None)
                if job.future.done():
                    continue
                why = (f"worker {lease.worker} died"
                       if died else
                       f"worker {lease.worker} heartbeat lost "
                       f"(> {STALE_AFTER_S:.1f}s)")
                if job.dispatches <= MAX_REDISPATCH \
                        and not self._stopping:
                    self._emit(f"[lab:tcp] {why}; re-dispatching "
                               f"{job.name}")
                    self._queue.append(job)
                else:
                    self._resolve(job, (
                        "error",
                        f"{why} after {job.dispatches} dispatch(es)",
                        now - job.submitted, None))

