"""CED-synthesis-as-a-service: the asyncio application.

One :class:`CedService` owns the listening socket, the job registry,
the admission controller (bounded queue + per-tenant token buckets),
per-shard priority queues with one dispatcher task each, and the
:class:`~repro.serve.pool.WorkerPool` of warm workers.  The HTTP API:

==========================  =========================================
``POST   /v1/jobs``         submit a circuit (JSON envelope or raw
                            BLIF body); 202 with the job id, 429 on
                            backpressure/quota, 503 while draining
``GET    /v1/jobs``         recent jobs (most recent first)
``GET    /v1/jobs/<id>``    job state document
``GET    /v1/jobs/<id>/result``  the finished flow record
                            (``CedFlowResult.to_dict()``); 409 until
                            the job is terminal
``GET    /v1/jobs/<id>/events``  chunked NDJSON progress stream
                            (state changes + per-pass events), closed
                            after the terminal event
``DELETE /v1/jobs/<id>``    cancel a queued job (409 once running)
``GET    /v1/healthz``      liveness + drain state
``GET    /v1/stats``        counters: queue, admission, tenants,
                            warm/cold outcomes, on-disk size of the
                            proof cache and the checkpoint store
==========================  =========================================

Graceful drain (SIGTERM or :meth:`CedService.request_drain`): stop
accepting connections, answer in-flight submissions with 503, let every
queued and running job finish (bounded by ``drain_timeout_s``), shut
the workers down, then release :attr:`CedService.stopped`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

from .jobs import JobRegistry, ServeJob
from .pool import BACKENDS, WorkerPool
from .protocol import (HttpError, HttpRequest, end_chunked,
                       error_response, json_response, read_request,
                       start_chunked, write_chunk)
from .quota import AdmissionController

__all__ = ["ServeConfig", "CedService"]

#: Sentinel closing a shard's dispatcher queue.
_CLOSE = (float("inf"), -1, None)


def _disk_usage(store) -> dict:
    """A store's on-disk totals.  Its hit/miss counters are left out:
    the workers that read and write the store keep their own."""
    stats = store.stats()
    return {key: stats[key] for key in ("root", "entries", "bytes")}


@dataclass
class ServeConfig:
    """Everything the service's behavior is parameterized on."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    backend: str = "process"            # process | thread
    state_dir: str = ".serve_cache"
    #: Bound on jobs admitted but not yet running (backpressure).
    max_queue: int = 16
    tenant_rate: float = 8.0            # tokens/second per tenant
    tenant_burst: float = 16.0
    retention: int = 256
    max_body_bytes: int = 8 * 1024 * 1024
    drain_timeout_s: float = 60.0
    default_words: int = 2
    default_seed: int = 2008
    #: Server-side budget rails: act as the default when a request
    #: names no budget and as the hard cap when it does.
    budget_deadline_s: float | None = None
    budget_bdd_nodes: int | None = None
    budget_sat_conflicts: int | None = None
    budget_repair_rounds: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


class CedService:
    """The long-running service; one instance per listening socket."""

    def __init__(self, config: ServeConfig | None = None,
                 log=None):
        self.config = config or ServeConfig()
        self.log = log
        self.registry = JobRegistry(retention=self.config.retention)
        self.admission = AdmissionController(
            capacity=self.config.max_queue,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst)
        self.pool = WorkerPool(
            self.config.workers, self.config.state_dir,
            on_event=self._event_from_worker,
            backend=self.config.backend)
        self.counters = {
            "submitted": 0, "accepted": 0, "completed": 0,
            "failed": 0, "cancelled": 0,
            "rejected_queue_full": 0, "rejected_quota": 0,
            "rejected_draining": 0, "rejected_invalid": 0,
            "warm_done": 0, "cold_done": 0,
        }
        self.queued = 0
        self.queue_depth_max = 0
        self.in_flight = 0
        self.draining = False
        self.started_at: float | None = None
        self.stopped = asyncio.Event()
        self._seq = itertools.count()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._shard_queues: list[asyncio.PriorityQueue] = []
        self._dispatchers: list[asyncio.Task] = []
        self._drain_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    def _emit(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.started_at = time.monotonic()
        backend = self.pool.start()
        if backend != self.config.backend:
            self._emit(f"[serve] backend fell back to {backend!r}")
        self._shard_queues = [asyncio.PriorityQueue()
                              for _ in self.pool.shards]
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch(i))
            for i in range(len(self._shard_queues))]
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self._emit(f"[serve] listening on {self.config.host}:"
                   f"{self.port} ({len(self.pool.shards)} "
                   f"{backend} workers, queue bound "
                   f"{self.config.max_queue})")

    def request_drain(self) -> None:
        """Thread/signal-safe entry to the graceful drain."""
        assert self._loop is not None, "service not started"
        self._loop.call_soon_threadsafe(self._begin_drain)

    def _begin_drain(self) -> None:
        if self.draining:
            return
        self.draining = True
        self._emit(f"[serve] draining: {self.queued} queued, "
                   f"{self.in_flight} running")
        # The listener stays open until the drain completes: new
        # submissions get an explicit 503 (so load balancers fail
        # over), and clients can keep collecting finished results.
        self._drain_task = asyncio.ensure_future(self._finish_drain())

    async def _finish_drain(self) -> None:
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline:
            if self.queued == 0 and self.in_flight == 0:
                break
            await asyncio.sleep(0.02)
        # Whatever is still queued past the timeout is cancelled (the
        # dispatcher skips cancelled jobs when it pops them).
        for job in list(self.registry.jobs.values()):
            if job.state == "queued":
                self._finish_job(job, "cancelled",
                                 reason="drain timeout")
        for queue in self._shard_queues:
            queue.put_nowait(_CLOSE)
        await asyncio.gather(*self._dispatchers,
                             return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.close)
        if self._server is not None:
            self._server.close()
            with suppress(Exception):
                await self._server.wait_closed()
        self._emit("[serve] drained cleanly")
        self.stopped.set()

    async def run_until_stopped(self) -> None:
        """``start()`` + block until a drain completes."""
        await self.start()
        await self.stopped.wait()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _derived_budget(self, requested: dict | None) -> dict | None:
        """Per-request guard budget from request + server rails.

        Server values are both the default (request silent) and the
        ceiling (request asks for more): the effective limit is the
        smaller of the two, so a tenant can tighten but never loosen
        the operator's rails.
        """
        requested = requested or {}
        rails = {
            "deadline_s": self.config.budget_deadline_s,
            "bdd_node_cap": self.config.budget_bdd_nodes,
            "sat_conflict_cap": self.config.budget_sat_conflicts,
            "repair_round_cap": self.config.budget_repair_rounds,
        }
        caps: dict = {}
        for key, rail in rails.items():
            asked = requested.get(key)
            if asked is not None:
                asked = float(asked) if key == "deadline_s" \
                    else int(asked)
                if asked < 0:
                    raise HttpError(400, f"budget.{key} must be >= 0")
            if asked is None:
                effective = rail
            elif rail is None:
                effective = asked
            else:
                effective = min(asked, rail)
            if effective is not None:
                caps[key] = effective
        return caps or None

    def _enqueue(self, job: ServeJob) -> None:
        self.queued += 1
        self.queue_depth_max = max(self.queue_depth_max, self.queued)
        self._shard_queues[job.shard].put_nowait(
            (job.priority, next(self._seq), job))

    async def _dispatch(self, shard: int) -> None:
        """One-at-a-time feeder of this shard's worker."""
        queue = self._shard_queues[shard]
        while True:
            item = await queue.get()
            if item[2] is None:
                break
            job: ServeJob = item[2]
            self.queued -= 1
            if job.terminal:             # cancelled while queued
                continue
            self.in_flight += 1
            job.add_event("dispatch", shard=shard)
            self.pool.submit(shard, {"job_id": job.job_id,
                                     "blif": job.blif,
                                     "params": job.params})
            await self._await_job(job, shard)

    async def _await_job(self, job: ServeJob, shard: int) -> None:
        waiter = asyncio.ensure_future(job.finished.wait())
        try:
            while True:
                done, _ = await asyncio.wait({waiter}, timeout=0.5)
                if done:
                    return
                if not self.pool.alive(shard):
                    self._finish_job(
                        job, "failed",
                        error="worker process died mid-job",
                        error_type="WorkerDied")
                    self.pool.respawn(shard)
                    return
        finally:
            waiter.cancel()
            with suppress(asyncio.CancelledError):
                await waiter

    def _finish_job(self, job: ServeJob, state: str, **payload) -> None:
        if job.terminal:
            return
        if state == "failed":
            job.error = payload.get("error")
            job.error_type = payload.get("error_type")
            self.counters["failed"] += 1
        elif state == "cancelled":
            self.counters["cancelled"] += 1
        job.transition(state, **payload)
        self.registry.note_finished(job)

    # -- worker events (arrive on the drain thread) ----------------------
    def _event_from_worker(self, event: dict) -> None:
        if self._loop is None or self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._on_event, event)

    def _on_event(self, event: dict) -> None:
        kind = event.get("kind")
        if kind == "worker_exit":
            return
        job = self.registry.get(event.get("job_id", ""))
        if job is None or job.terminal:
            return
        if kind == "started":
            job.transition("running", shard=event.get("shard"))
        elif kind == "pass":
            job.add_event("pass", **{
                k: event[k] for k in ("pass", "status", "wall_time_s",
                                      "cache") if k in event})
        elif kind == "done":
            self.in_flight -= 1
            job.result = event.get("result")
            job.stats = {k: event[k]
                         for k in ("flow_seconds", "cache_totals",
                                   "resumed_passes", "warm")
                         if k in event}
            self.counters["completed"] += 1
            self.counters["warm_done" if event.get("warm")
                          else "cold_done"] += 1
            job.transition("done", warm=bool(event.get("warm")),
                           flow_seconds=event.get("flow_seconds"))
            self.registry.note_finished(job)
        elif kind == "failed":
            self.in_flight -= 1
            detail = {}
            if isinstance(event.get("detail"), dict):
                detail["detail"] = event["detail"]
            self._finish_job(job, "failed",
                             error=event.get("error"),
                             error_type=event.get("error_type"),
                             **detail)

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes)
                except HttpError as exc:
                    error_response(writer, exc.status, "bad_request",
                                   str(exc), keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                streamed = await self._route(request, writer)
                await writer.drain()
                if streamed or not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(self, request: HttpRequest, writer) -> bool:
        """Dispatch one request; True when the response was streamed."""
        method, path = request.method, request.path.rstrip("/")
        try:
            if path == "/v1/jobs" and method == "POST":
                self._submit(request, writer)
            elif path == "/v1/jobs" and method == "GET":
                self._list_jobs(request, writer)
            elif path == "/v1/healthz" and method == "GET":
                json_response(writer, 200, self._health_doc())
            elif path == "/v1/stats" and method == "GET":
                json_response(writer, 200, self._stats_doc())
            elif path.startswith("/v1/jobs/"):
                return await self._job_route(request, writer, path)
            else:
                error_response(writer, 404, "not_found",
                               f"no route for {method} {path}")
        except HttpError as exc:
            error_response(writer, exc.status, "bad_request", str(exc),
                           **exc.detail)
        except Exception as exc:      # pragma: no cover - last resort
            error_response(writer, 500, "internal_error",
                           f"{type(exc).__name__}: {exc}")
        return False

    async def _job_route(self, request: HttpRequest, writer,
                         path: str) -> bool:
        parts = path.split("/")        # "", "v1", "jobs", id[, leaf]
        job_id, leaf = parts[3], parts[4] if len(parts) > 4 else ""
        job = self.registry.get(job_id)
        if job is None:
            error_response(writer, 404, "unknown_job",
                           f"no job {job_id!r}")
            return False
        if leaf == "" and request.method == "GET":
            json_response(writer, 200, job.to_dict())
        elif leaf == "" and request.method == "DELETE":
            self._cancel(job, writer)
        elif leaf == "result" and request.method == "GET":
            if job.state == "done":
                json_response(writer, 200, job.to_dict(
                    with_result=True))
            elif job.terminal:
                error_response(writer, 409, "job_" + job.state,
                               job.error or f"job {job.state}",
                               error_type=job.error_type)
            else:
                error_response(writer, 409, "job_not_finished",
                               f"job is {job.state}",
                               state=job.state)
        elif leaf == "events" and request.method == "GET":
            await self._stream_events(job, request, writer)
            return True
        else:
            error_response(writer, 405, "method_not_allowed",
                           f"{request.method} on {path}")
        return False

    # -- submission ------------------------------------------------------
    def _parse_submission(self, request: HttpRequest) -> tuple[str,
                                                               dict]:
        """(blif, params) from a JSON envelope or a raw BLIF body."""
        content_type = request.headers.get("content-type", "")
        if "json" in content_type:
            doc = request.json()
            if not isinstance(doc, dict) or \
                    not isinstance(doc.get("blif"), str):
                raise HttpError(400, "JSON submissions need a string "
                                     "'blif' field")
            blif = doc["blif"]
            source = doc
        else:                          # raw BLIF; knobs via the query
            blif = request.body.decode("utf-8", "replace")
            source = dict(request.query)
        if not blif.strip():
            raise HttpError(400, "empty circuit submission")

        def pick(key, default, cast):
            value = source.get(key, default)
            try:
                return cast(value)
            except (TypeError, ValueError):
                raise HttpError(400, f"bad value for {key!r}: "
                                     f"{value!r}")

        params = {
            "words": pick("words", self.config.default_words, int),
            "seed": pick("seed", self.config.default_seed, int),
            "share_logic": pick("share_logic", False,
                                lambda v: str(v).lower()
                                in ("1", "true", "yes")),
            "min_approx_pct": pick("min_approx_pct", 25.0, float),
        }
        if params["words"] < 1:
            raise HttpError(400, "words must be >= 1")
        direction = str(source.get("direction", "auto"))
        if direction not in ("auto", "0", "1"):
            raise HttpError(400, f"bad direction {direction!r}")
        if isinstance(source, dict) and \
                isinstance(source.get("directions"), dict):
            params["directions"] = {
                str(po): int(d)
                for po, d in source["directions"].items()}
        elif direction in ("0", "1"):
            params["directions"] = {"__all__": int(direction)}
        if isinstance(source, dict) and \
                isinstance(source.get("config"), dict):
            params["config"] = dict(source["config"])

        # Engine / error-budget selection: top-level fields (or query
        # keys on raw-BLIF submissions) fold into the config object and
        # are validated *here*, so a bad combination costs a structured
        # 400 instead of queue space and a failed job.
        config = params.get("config", {})
        if source.get("engine") is not None:
            config["engine"] = str(source["engine"])
        error_obj = source.get("error")
        if error_obj is not None and not isinstance(error_obj, dict):
            raise HttpError(400, "error must be an object with "
                                 "metric/bound", field="error")
        if error_obj is not None:
            config["error"] = dict(error_obj)
        elif any(k in source for k in ("error_metric", "error_bound",
                                       "error_exact_threshold")):
            error_kw = {"metric": str(source.get("error_metric", "")),
                        "bound": pick("error_bound", -1.0, float)}
            if "error_exact_threshold" in source:
                error_kw["exact_threshold"] = pick(
                    "error_exact_threshold", 12, int)
            config["error"] = error_kw
        if config:
            from repro.approx import ApproxConfig, ConfigError
            try:
                ApproxConfig.from_dict(config)
            except ConfigError as exc:
                detail = {k: v for k, v in exc.to_dict().items()
                          if k in ("field", "value")}
                raise HttpError(400, f"config: {exc.message}", **detail)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"config: {exc}")
            params["config"] = config

        requested_budget = source.get("budget") \
            if isinstance(source, dict) else None
        if requested_budget is not None and \
                not isinstance(requested_budget, dict):
            raise HttpError(400, "budget must be an object")
        budget = self._derived_budget(requested_budget)
        if budget is not None:
            params["budget"] = budget

        tenant = str(source.get("tenant", "") or "anonymous")[:64]
        priority = pick("priority", 10, int)
        params["_tenant"] = tenant
        params["_priority"] = max(0, min(int(priority), 100))
        return blif, params

    def _submit(self, request: HttpRequest, writer) -> None:
        self.counters["submitted"] += 1
        if self.draining:
            self.counters["rejected_draining"] += 1
            error_response(writer, 503, "draining",
                           "service is draining; resubmit elsewhere",
                           keep_alive=False)
            return
        blif, params = self._parse_submission(request)
        tenant = params.pop("_tenant")
        priority = params.pop("_priority")

        # Validate the circuit before burning queue space or tokens.
        from repro.network import BlifError, parse_blif
        try:
            network = parse_blif(blif, source="submission")
        except BlifError as exc:
            self.counters["rejected_invalid"] += 1
            raise HttpError(400, f"invalid BLIF: {exc}")
        if params.get("directions") == {"__all__": 0} or \
                params.get("directions") == {"__all__": 1}:
            value = params["directions"]["__all__"]
            params["directions"] = {po: value
                                    for po in network.outputs}

        verdict = self.admission.admit(tenant, self.queued)
        if not verdict:
            self.counters["rejected_queue_full"
                          if verdict.reason == "queue_full"
                          else "rejected_quota"] += 1
            error_response(
                writer, 429, verdict.reason,
                "queue is full" if verdict.reason == "queue_full"
                else f"tenant {tenant!r} is over its request quota",
                retry_after_s=verdict.retry_after_s,
                queued=self.queued, capacity=self.admission.capacity)
            return

        shard = self.pool.shard_of(blif)
        job = self.registry.create(tenant=tenant, priority=priority,
                                   blif=blif, params=params,
                                   shard=shard)
        self.counters["accepted"] += 1
        self._enqueue(job)
        json_response(writer, 202, {
            "job_id": job.job_id, "state": job.state, "shard": shard,
            "tenant": tenant, "priority": priority,
            "links": {
                "self": f"/v1/jobs/{job.job_id}",
                "result": f"/v1/jobs/{job.job_id}/result",
                "events": f"/v1/jobs/{job.job_id}/events",
            }})

    def _cancel(self, job: ServeJob, writer) -> None:
        if job.terminal:
            json_response(writer, 200, job.to_dict())
            return
        if job.state == "running":
            error_response(writer, 409, "job_running",
                           "running jobs cannot be cancelled")
            return
        self._finish_job(job, "cancelled", reason="client request")
        json_response(writer, 200, job.to_dict())

    def _list_jobs(self, request: HttpRequest, writer) -> None:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise HttpError(400, "bad limit")
        json_response(writer, 200, {
            "jobs": [job.to_dict()
                     for job in self.registry.recent(limit)],
            "counts": self.registry.counts()})

    # -- streaming -------------------------------------------------------
    async def _stream_events(self, job: ServeJob,
                             request: HttpRequest, writer) -> None:
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            raise HttpError(400, "bad since")
        start_chunked(writer)
        index = 0
        try:
            while True:
                while index < len(job.events):
                    event = job.events[index]
                    index += 1
                    if event["seq"] < since:
                        continue
                    write_chunk(writer, (json.dumps(
                        event, sort_keys=True) + "\n").encode())
                await writer.drain()
                if job.terminal and index >= len(job.events):
                    break
                job.changed.clear()
                if index < len(job.events):
                    continue           # raced with a new event
                with suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(job.changed.wait(),
                                           timeout=1.0)
            end_chunked(writer)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass                       # client went away mid-stream

    # -- documents -------------------------------------------------------
    def _health_doc(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.queued,
            "in_flight": self.in_flight,
            "workers": len(self.pool.shards),
            "backend": self.pool.backend,
        }

    def _stats_doc(self) -> dict:
        from repro.lab import ArtifactStore, ProofCache
        state_dir = Path(self.config.state_dir)
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else 0.0)
        return {
            "uptime_s": round(uptime, 3),
            "status": "draining" if self.draining else "ok",
            "workers": len(self.pool.shards),
            "backend": self.pool.backend,
            "queue": {"depth": self.queued,
                      "max_depth": self.queue_depth_max,
                      "capacity": self.admission.capacity,
                      "in_flight": self.in_flight},
            "counters": dict(self.counters),
            "admission": self.admission.snapshot(),
            "registry": self.registry.counts(),
            "proof_cache": _disk_usage(ProofCache(state_dir / "proofs")),
            "checkpoints": _disk_usage(
                ArtifactStore(state_dir / "checkpoints")),
        }
