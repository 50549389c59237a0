"""Lab TCP worker: lease jobs, heartbeat, report outcomes.

``python -m repro.lab.worker --host H --port P --store DIR`` joins the
grid a :class:`~repro.lab.backends.TcpBackend` coordinator is serving.
The loop is deliberately dumb: poll ``/v1/lab/lease``, run the job with
the same ``_execute_payload`` body the local pool uses (timeouts,
captured tracebacks, peak-RSS accounting all included), heartbeat from
a side thread while it runs, drop the result into the shared
content-addressed artifact store, and ``/v1/lab/complete`` with the
result key.  Any coordinator disappearance (connection refused/reset)
means the run is over and the worker exits cleanly — workers never
outlive the grid.

Remote machines run this module directly against a reachable
coordinator with the store root on a shared filesystem; the spawned
loopback workers the backend manages use exactly this entry point.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time

from .backends import HEARTBEAT_S, _transfer_key, resolve_fn_reference
from .cache import MISS, ArtifactStore

__all__ = ["main", "WorkerLoop"]

#: Pause between lease polls while the queue is empty, and the socket
#: timeout of one request to the coordinator.
POLL_S = 0.05
HTTP_TIMEOUT_S = 10.0


class _CoordinatorGone(Exception):
    """The coordinator stopped answering: the run is over."""


class WorkerLoop:
    """One worker process's lease/run/complete loop."""

    def __init__(self, host: str, port: int, worker_id: str,
                 store: ArtifactStore):
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.store = store

    # -- wire ------------------------------------------------------------
    def _post(self, path: str, doc: dict) -> "tuple[int, dict]":
        """One POST on a fresh connection; simple beats clever here."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=HTTP_TIMEOUT_S)
        try:
            body = json.dumps(doc).encode("utf-8")
            try:
                conn.request("POST", path, body=body,
                             headers={"Content-Type":
                                      "application/json"})
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionError, http.client.HTTPException,
                    OSError) as exc:
                raise _CoordinatorGone(str(exc)) from exc
            if response.status == 204 or not raw:
                return response.status, {}
            try:
                return response.status, json.loads(raw.decode("utf-8"))
            except ValueError:
                return response.status, {}
        finally:
            conn.close()

    # -- one job ---------------------------------------------------------
    def _run_job(self, spec: dict) -> None:
        from .executor import _execute_payload

        token = spec["job"]
        stop_beat = threading.Event()

        def beat() -> None:
            while not stop_beat.wait(HEARTBEAT_S):
                try:
                    _, doc = self._post("/v1/lab/heartbeat",
                                        {"worker": self.worker_id,
                                         "job": token})
                except _CoordinatorGone:
                    return
                if doc.get("abandon"):
                    return          # job re-dispatched or cancelled

        beater = threading.Thread(target=beat, daemon=True,
                                  name="lab-worker-heartbeat")
        beater.start()
        started = time.perf_counter()
        try:
            fn = resolve_fn_reference(spec["fn"])
            dep_results = None
            if spec.get("deps_key"):
                dep_results = self.store.get(spec["deps_key"], MISS)
                if dep_results is MISS:
                    raise RuntimeError(
                        f"dependency payload {spec['deps_key']} "
                        f"missing from the shared store")
            outcome = _execute_payload(fn, spec.get("params") or {},
                                       spec.get("timeout"), dep_results)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            outcome = ("error", f"{type(exc).__name__}: {exc}",
                       time.perf_counter() - started, None)
        finally:
            stop_beat.set()
        beater.join(timeout=2 * HEARTBEAT_S)

        status, payload, wall, rss = outcome
        report = {"worker": self.worker_id, "job": token,
                  "status": status, "wall_time_s": wall,
                  "peak_rss_kb": rss}
        if status == "ok":
            result_key = _transfer_key("result", token)
            self.store.put(result_key, payload,
                           meta={"job": token,
                                 "worker": self.worker_id})
            report["result_key"] = result_key
        else:
            report["error"] = str(payload)
        self._post("/v1/lab/complete", report)

    # -- main loop -------------------------------------------------------
    def run_forever(self) -> int:
        while True:
            try:
                status, doc = self._post("/v1/lab/lease",
                                         {"worker": self.worker_id})
            except _CoordinatorGone:
                return 0
            if doc.get("shutdown"):
                return 0
            if status != 200 or "job" not in doc:
                time.sleep(POLL_S)
                continue
            try:
                self._run_job(doc)
            except _CoordinatorGone:
                return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lab.worker",
        description="lab TCP backend worker process")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--store", required=True,
                        help="shared artifact-store root "
                             "(the result transfer medium)")
    args = parser.parse_args(argv)
    worker_id = args.worker_id
    if worker_id is None:
        import os
        worker_id = f"pid{os.getpid()}"
    loop = WorkerLoop(args.host, args.port, worker_id,
                      ArtifactStore(args.store))
    return loop.run_forever()


if __name__ == "__main__":                       # pragma: no cover
    raise SystemExit(main())
