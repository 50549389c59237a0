"""Sharded warm workers: persistent processes running CED flows.

Each shard is one long-lived worker (a spawned process by default, a
thread with the ``thread`` backend for tests and semaphore-less
sandboxes).  Its *warm state* is on disk: a checkpoint
:class:`~repro.lab.cache.ArtifactStore` and the cross-process proof
cache (:mod:`repro.lab.proofs`), both shared by every shard through
atomic content-addressed writes.  In memory a worker keeps nothing
between requests but the loaded code: each request runs on a fresh
:class:`~repro.flow.AnalysisContext`, so a worker's footprint is one
flow's, however many circuits it has served.

Requests are routed to shards by circuit content digest, so repeated
submissions of one circuit keep their store traffic on one worker.
Workers stream progress back over a single event queue: a
``started`` event on dispatch, one ``pass`` event per completed flow
pass (fed by ``run_ced_flow``'s ``on_pass`` hook), and a terminal
``done``/``failed`` event carrying the full
``CedFlowResult.to_dict()`` document or the structured error.

The module is importable by spawned children, so the worker entry
point and the flow-execution body live at module level and touch no
asyncio state.
"""

from __future__ import annotations

import hashlib
import queue as queue_mod
import threading
import time
import traceback
from pathlib import Path

__all__ = ["WorkerPool", "WorkerState", "shard_of", "run_flow_request",
           "BACKENDS"]

BACKENDS = ("process", "thread")


def shard_of(blif: str, shards: int) -> int:
    """Stable shard index of a circuit: same content, same worker."""
    digest = hashlib.sha256(blif.encode()).hexdigest()
    return int(digest[:8], 16) % max(shards, 1)


class WorkerState:
    """One worker's store locations and job count (lives inside it)."""

    def __init__(self, shard: int, state_dir: str):
        self.shard = shard
        self.state_dir = Path(state_dir)
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.proof_dir = self.state_dir / "proofs"
        self.jobs_run = 0


def _pass_event(job_id: str, record) -> dict:
    cache = {kind: dict(counters)
             for kind, counters in record.cache.items()}
    return {"kind": "pass", "job_id": job_id, "pass": record.name,
            "status": record.status,
            "wall_time_s": round(record.wall_time_s, 6),
            "cache": cache}


def run_flow_request(req: dict, state: WorkerState, emit) -> None:
    """Execute one submission inside the worker; never raises.

    ``emit`` receives plain JSON-safe event dicts; the terminal one is
    always ``done`` or ``failed``.
    """
    job_id = req["job_id"]
    params = dict(req.get("params") or {})
    emit({"kind": "started", "job_id": job_id, "shard": state.shard})
    try:
        from repro.approx import ApproxConfig
        from repro.ced import run_ced_flow
        from repro.guard import Budget, BudgetExceeded
        from repro.network import parse_blif

        net = parse_blif(req["blif"], source=f"job:{job_id}")
        words = int(params.get("words", 2))
        seed = int(params.get("seed", 2008))
        config_kw = dict(params.get("config") or {})
        config_kw.setdefault("seed", seed)
        caps = {k: v for k, v in (params.get("budget") or {}).items()
                if v is not None}
        budget = Budget(**caps) if caps else None
        directions = params.get("directions")
        if directions is not None:
            directions = {po: int(d) for po, d in directions.items()}
        start = time.perf_counter()
        try:
            flow = run_ced_flow(
                net, config=ApproxConfig.from_dict(config_kw),
                share_logic=bool(params.get("share_logic", False)),
                reliability_words=words, coverage_words=words,
                seed=seed, directions=directions,
                min_approx_pct=float(params.get("min_approx_pct",
                                                25.0)),
                lint_level=params.get("lint_level", "off"),
                checkpoint_dir=str(state.checkpoint_dir),
                proof_cache_dir=str(state.proof_dir),
                budget=budget,
                on_pass=lambda rec: emit(_pass_event(job_id, rec)))
        except BudgetExceeded as exc:
            emit({"kind": "failed", "job_id": job_id,
                  "error": str(exc),
                  "error_type": type(exc).__name__,
                  "detail": exc.to_dict()})
            return
        elapsed = time.perf_counter() - start
        state.jobs_run += 1
        doc = flow.to_dict()
        totals = flow.trace.cache_totals() if flow.trace else {}
        resumed = sum(1 for rec in flow.trace.passes
                      if rec.status == "resumed") if flow.trace else 0
        # "Warm" means the run was served from persistent state: passes
        # resumed from checkpoints.  (Proof-cache hits alone don't
        # qualify — a cold flow re-reads entries it just wrote.)
        emit({"kind": "done", "job_id": job_id, "result": doc,
              "flow_seconds": round(elapsed, 6),
              "cache_totals": totals,
              "resumed_passes": resumed,
              "warm": resumed > 0
              or totals.get("checkpoint", {}).get("hits", 0) > 0})
    except Exception as exc:          # worker must survive any request
        emit({"kind": "failed", "job_id": job_id,
              "error": f"{type(exc).__name__}: {exc}",
              "error_type": type(exc).__name__,
              "traceback": traceback.format_exc(limit=8)[-2000:]})


def _worker_main(shard: int, request_q, event_q, state_dir: str) -> None:
    """Worker loop (process or thread): requests in, events out."""
    state = WorkerState(shard, state_dir)
    while True:
        req = request_q.get()
        if req is None:               # drain sentinel
            break
        run_flow_request(req, state, event_q.put)
    event_q.put({"kind": "worker_exit", "shard": shard,
                 "jobs_run": state.jobs_run})


class _Shard:
    """Parent-side handle of one worker (process or thread)."""

    def __init__(self, index: int, backend: str, state_dir: str,
                 event_q, mp_ctx=None):
        self.index = index
        self.backend = backend
        self.state_dir = state_dir
        self.event_q = event_q
        self.mp_ctx = mp_ctx
        self.request_q = None
        self.runner = None
        self.dispatched = 0
        self._spawn()

    def _spawn(self) -> None:
        args_of = lambda q: (self.index, q, self.event_q,  # noqa: E731
                             self.state_dir)
        if self.backend == "process":
            self.request_q = self.mp_ctx.Queue()
            self.runner = self.mp_ctx.Process(
                target=_worker_main, args=args_of(self.request_q),
                name=f"serve-worker-{self.index}", daemon=True)
        else:
            self.request_q = queue_mod.Queue()
            self.runner = threading.Thread(
                target=_worker_main, args=args_of(self.request_q),
                name=f"serve-worker-{self.index}", daemon=True)
        self.runner.start()

    def alive(self) -> bool:
        return self.runner.is_alive()

    def respawn(self) -> None:
        """Replace a dead worker (warm disk state survives)."""
        if self.alive():
            return
        self._spawn()

    def submit(self, req: dict) -> None:
        self.dispatched += 1
        self.request_q.put(req)

    def close(self) -> None:
        try:
            self.request_q.put(None)
        except (OSError, ValueError):
            pass

    def join(self, timeout: float) -> None:
        self.runner.join(timeout)
        if self.backend == "process" and self.runner.is_alive():
            self.runner.terminate()
            self.runner.join(2.0)


class WorkerPool:
    """All shards plus the event-drain thread.

    ``on_event`` is called from the drain thread for every worker
    event; the app bridges it onto the asyncio loop.  ``backend``
    selects real worker processes (``process``, the default) or
    in-process threads (``thread`` — no multiprocessing primitives,
    used by tests and as an automatic fallback in sandboxes where
    semaphores are unavailable).
    """

    def __init__(self, workers: int, state_dir: str | Path,
                 on_event, backend: str = "process"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.workers = max(int(workers), 1)
        self.state_dir = str(state_dir)
        self.on_event = on_event
        self.backend = backend
        self.shards: list[_Shard] = []
        self.event_q = None
        self._drainer: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> str:
        """Spawn every shard; returns the backend actually in use."""
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        if self.backend == "process":
            try:
                import multiprocessing
                mp_ctx = multiprocessing.get_context("spawn")
                self.event_q = mp_ctx.Queue()
                self.shards = [
                    _Shard(i, "process", self.state_dir, self.event_q,
                           mp_ctx)
                    for i in range(self.workers)]
            except (ImportError, OSError, PermissionError):
                # No multiprocessing primitives here (common in
                # sandboxes): fall back to warm threads.
                self.backend = "thread"
                self.shards = []
        if self.backend == "thread":
            self.event_q = queue_mod.Queue()
            self.shards = [
                _Shard(i, "thread", self.state_dir, self.event_q)
                for i in range(self.workers)]
        self._drainer = threading.Thread(target=self._drain,
                                         name="serve-event-drain",
                                         daemon=True)
        self._drainer.start()
        return self.backend

    def _drain(self) -> None:
        while True:
            event = self.event_q.get()
            if event is None:
                break
            try:
                self.on_event(event)
            except Exception:
                # An event consumer bug must not kill the drain loop.
                traceback.print_exc()

    def shard_of(self, blif: str) -> int:
        return shard_of(blif, len(self.shards))

    def submit(self, shard: int, req: dict) -> None:
        self.shards[shard].submit(req)

    def alive(self, shard: int) -> bool:
        return self.shards[shard].alive()

    def respawn(self, shard: int) -> None:
        self.shards[shard].respawn()

    def close(self, timeout: float = 10.0) -> None:
        """Graceful worker shutdown: drain sentinels, join, terminate."""
        for shard in self.shards:
            shard.close()
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            shard.join(max(deadline - time.monotonic(), 0.1))
        if self.event_q is not None:
            self.event_q.put(None)
        if self._drainer is not None:
            self._drainer.join(5.0)
