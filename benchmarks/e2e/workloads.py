"""The four workloads and the end-to-end metrics every one reports.

==================  =====================================================
``cold-exact``      x1, i2, frg2: one ``run_ced_flow`` per circuit, each
                    in a fresh interpreter with the default context and
                    no stores (what ``repro.cli ced`` does).  The BDD
                    proves every output, so the time goes to global BDD
                    builds, implication checks, the static rung and cube
                    selection.
``cold-degraded``   dalu, i10, run the same way.  The pair-BDD build
                    overflows its node budget and the check degrades to
                    simulation: a change that helps exact circuits but
                    costs degraded ones shows here.
``warm-resubmit``   tiny .. frg2 resubmitted as BLIF text to one
                    persistent context per circuit over a filled
                    checkpoint store and proof cache (a serve worker's
                    warm state).  Every pass resumes, so the time goes to
                    pass fingerprints, unpickling and parsing; cold-path
                    changes should not move it.
``serve-mixed``     ``repro.cli serve`` with one process worker, two
                    closed-loop clients with one request in flight each:
                    five of every six requests resubmit tiny .. x1, one
                    is the next circuit of the fresh pool (a cold flow
                    that writes checkpoints and proofs).  The only
                    workload with HTTP, queueing and store writes.
==================  =====================================================

A cold round runs every circuit once and a serve block sends every
warm circuit plus one fresh circuit; runs measure whole rounds (warm,
cold) or blocks (serve) until ``--seconds`` would be exceeded, and at
least one.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import common
import tracing

WORKLOADS = {
    "cold-exact": ("x1", "i2", "frg2"),
    "cold-degraded": ("dalu", "i10"),
    "warm-resubmit": ("tiny", "cmb", "cordic", "term1", "x1", "i2",
                      "frg2"),
    "serve-mixed": ("tiny", "cmb", "cordic", "term1", "x1"),
}

#: (name, unit, better) of the end-to-end metrics, reported on every
#: workload.  A latency sample is one flow: a cold ``run_ced_flow``
#: call, a warm parse plus flow, or a serve job from submit to its
#: terminal event.  No tail percentile: a cold run has 2 to 9 samples,
#: too few for one (the run document keeps every sample).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("round_s", "s", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Serve-layer metrics of the traced serve run, from the job documents
#: and the client.
SERVE_METRICS = (
    ("serve.calls", "count", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.busy_s", "s", "lower"),
    ("serve.overhead_ms_p50", "ms", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.stats_ms", "ms", "lower"),
)

PER_LAYER = tracing.LAYER_METRICS + SERVE_METRICS

#: Set-ups per warm or serve run; ``setup_s`` is their median.  Cold
#: runs set up once per flow (interpreter start, imports, parsing).
#: Two, not more: one warm store fill takes 6 s.
SETUP_REPEATS = 2

CLIENTS = 2
STATS_CALLS = 5
#: Bounds on any one wait, so a hung flow or server fails the run well
#: inside the three minutes a run may take.
CHILD_TIMEOUT_S = 120
CLIENT_TIMEOUT_S = 60
SERVER_WAIT_S = 60
TERMINAL = ("done", "failed", "cancelled")


class Run:
    """Samples and outcomes of one workload run over ``texts``."""

    def __init__(self, name: str, texts: dict[str, str]):
        self.name = name
        self.texts = texts
        self.shas = {n: common.sha256(text) for n, text in texts.items()}
        self.golden = common.load_golden()
        #: circuit (or ``fresh``) -> latency samples, seconds.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.setup: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        #: circuit -> digests of the checked flow records seen.
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.measure_s = 0.0
        self.peak_rss_mb = 0.0
        self.trace: dict | None = None
        self.serve: dict[str, float] = {}
        self._lock = threading.Lock()

    def outcome(self, name: str, record: dict | None,
                seconds: float | None = None, problem: str | None = None,
                key: str | None = None) -> None:
        """One attempted operation on circuit ``name``.

        Its latency sample (if timed) and record digest are filed under
        ``key`` (default ``name``); it failed when ``problem`` is given,
        no record came back, or the record misses the golden.
        """
        key = key or name
        with self._lock:
            self.attempted += 1
            if seconds is not None:
                self.samples[key].append(seconds)
            if record is None:
                problem = problem or f"{name}: no result"
            else:
                self.digests[key].add(common.record_digest(record))
                problem = problem or common.check_record(
                    name, self.shas[name], record, self.golden.get(name))
            if problem:
                self.errors.append(problem)

    def end_to_end(self) -> dict[str, float]:
        latencies = [x for v in self.samples.values() for x in v]
        return {
            "setup_s": statistics.median(self.setup),
            "round_s": sum(statistics.median(v)
                           for v in self.samples.values()),
            "latency_ms_p50": 1000 * statistics.median(latencies),
            "jobs_per_s": len(latencies) / self.measure_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        metrics = tracing.layer_metrics(self.trace)
        metrics.update({name: self.serve.get(name, 0.0)
                        for name, _, _ in SERVE_METRICS})
        return metrics

    def circuits(self) -> dict[str, dict]:
        return {name: {"n": len(v), "median_s": statistics.median(v),
                       "samples_s": v,
                       "records": sorted(self.digests[name])}
                for name, v in sorted(self.samples.items())}


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _failure(where: str) -> str:
    return f"{where}: {traceback.format_exc(limit=4).strip()[-800:]}"


# ----------------------------------------------------------------------
# cold-exact / cold-degraded
# ----------------------------------------------------------------------
def run_cold(run: Run, circuits, seed: int, seconds: float,
             trace: bool, spans: Path | None) -> None:
    """Each flow in a fresh interpreter, circuit order rotated by round."""
    offset = random.Random(seed).randrange(len(circuits))
    start = perf_counter()
    last_round = 0.0
    rnd = 0
    while rnd == 0 or perf_counter() - start + last_round <= seconds:
        began = perf_counter()
        k = (offset + rnd) % len(circuits)
        for name in circuits[k:] + circuits[:k]:
            cmd = [sys.executable, str(common.HERE / "child.py"), "flow",
                   str(common.circuit_path(name)),
                   "--flow-id", f"{run.name}/{name}/{rnd}"]
            if trace:
                cmd.append("--trace")
                if spans is not None:
                    cmd += ["--spans", str(spans)]
            _cold_flow(run, name, cmd)
        last_round = perf_counter() - began
        rnd += 1
    run.measure_s = perf_counter() - start
    run.peak_rss_mb = _children_rss_mb()


def _cold_flow(run: Run, name: str, cmd: list[str]) -> None:
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.outcome(name, None, problem=f"{name}: cold flow timed out")
        return
    if proc.returncode != 0:
        run.outcome(name, None,
                    problem=f"{name}: cold flow exited "
                            f"{proc.returncode}: {proc.stderr[-800:]}")
        return
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    run.setup.append(doc["ready_at"] - spawned)
    run.outcome(name, doc["record"], seconds=doc["flow_s"])
    if "trace" in doc:
        run.trace = tracing.merge(run.trace, doc["trace"])


# ----------------------------------------------------------------------
# warm-resubmit
# ----------------------------------------------------------------------
def run_warm(run: Run, circuits, seed: int, seconds: float, trace: bool,
             spans: Path | None, work: Path) -> None:
    began = perf_counter()
    from repro.ced import run_ced_flow
    from repro.flow import AnalysisContext
    from repro.network import blif
    import_s = perf_counter() - began

    def flow(name: str, ctx, state: Path):
        # ``blif.parse_blif`` is looked up per call so a traced run sees
        # the wrapped parser.
        return run_ced_flow(blif.parse_blif(run.texts[name]), ctx=ctx,
                            checkpoint_dir=state / "checkpoints",
                            proof_cache_dir=state / "proofs",
                            **common.FLOW_KW)

    for k in range(SETUP_REPEATS):
        state = work / f"state-{k}"
        began = perf_counter()
        contexts = {}
        for name in circuits:
            contexts[name] = AnalysisContext()
            try:
                record = common.record_of(
                    flow(name, contexts[name], state).to_dict())
            except Exception:
                run.outcome(name, None,
                            problem=_failure(f"{name} store fill"))
                continue
            run.outcome(name, record)
        run.setup.append(import_s + perf_counter() - began)

    tracer = tracing.install() if trace else None
    rng = random.Random(seed)
    order = list(circuits)
    start = perf_counter()
    rnd = 0
    while rnd == 0 or perf_counter() - start < seconds:
        rng.shuffle(order)
        for name in order:
            flow_id = f"{run.name}/{name}/{rnd}"
            began = perf_counter()
            try:
                with tracer.root(flow_id) if tracer else nullcontext():
                    result = flow(name, contexts[name], state)
            except Exception:
                run.outcome(name, None, problem=_failure(flow_id))
                continue
            elapsed = perf_counter() - began
            rerun = [rec.name for rec in result.trace.passes
                     if rec.status != "resumed"]
            run.outcome(name, common.record_of(result.to_dict()),
                        seconds=elapsed,
                        problem=f"{flow_id}: passes {rerun} re-ran"
                        if rerun else None)
        rnd += 1
    run.measure_s = perf_counter() - start
    run.peak_rss_mb = _self_rss_mb()
    if tracer is not None:
        run.trace = tracer.report()
        if spans is not None:
            tracer.write_spans(spans)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Server:
    """A ``repro.cli serve`` subprocess on a free port.

    Untraced it is the CLI itself with process workers; traced it runs
    through ``child.py serve`` with thread workers, so the worker's
    layer spans land in the server process, which writes them to
    ``trace_dump`` after draining.
    """

    def __init__(self, state: Path, trace_dump: Path | None = None):
        args = ["--port", "0", "--workers", "1", "--state-dir",
                str(state), "--max-queue", "64",
                "--tenant-rate", "1000000", "--tenant-burst", "1000000",
                "--words", str(common.WORDS),
                "--seed", str(common.FLOW_SEED)]
        if trace_dump is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args,
                   "--backend", "process"]
        else:
            cmd = [sys.executable, str(common.HERE / "child.py"), "serve",
                   "--trace-out", str(trace_dump), "--", *args,
                   "--backend", "thread"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(common.SRC), env.get("PYTHONPATH")) if p)
        self.log: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        # Its own session, so a forced stop reaches the worker too.
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._wait_listening(SERVER_WAIT_S)

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server did not start: "
                                   + " | ".join(self.log[-5:]))
            match = re.search(r"listening on [^:]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def stop(self) -> None:
        """SIGTERM drains the server; waits until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_WAIT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self._reader.join(10)


def _serve_job(client, blif: str) -> tuple[float, str, dict]:
    """Submit and follow the event stream until the job ends.

    Returns the latency to the terminal event, the terminal state and
    the job document (with the flow record once ``done``).
    """
    began = perf_counter()
    job_id = client.submit(blif, words=common.WORDS,
                           seed=common.FLOW_SEED)["job_id"]
    state = None
    for event in client.events(job_id):
        if event.get("kind") == "state" and event.get("state") in TERMINAL:
            state = event["state"]
            latency = perf_counter() - began
    if state is None:
        raise RuntimeError("event stream ended before the job did")
    doc = client.result(job_id) if state == "done" else client.job(job_id)
    return latency, state, doc


def run_serve(run: Run, circuits, seed: int, seconds: float,
              trace: bool, spans: Path | None, work: Path) -> None:
    began = perf_counter()
    from repro.serve import ServeClient, ServeError
    import_s = perf_counter() - began
    server = None
    dump = work / "trace-dump.json"
    try:
        for k in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            began = perf_counter()
            server = Server(work / f"state-{k}", dump if trace else None)
            client = ServeClient(port=server.port, timeout=CLIENT_TIMEOUT_S)
            for name in circuits:
                try:
                    _, state, doc = _serve_job(client, run.texts[name])
                except (ServeError, OSError, RuntimeError):
                    run.outcome(name, None,
                                problem=_failure(f"{name} warm fill"))
                    continue
                if state != "done":
                    run.outcome(name, None,
                                problem=f"{name} warm fill: job {state}")
                    continue
                run.outcome(name, common.record_of(doc["result"]))
            client.close()
            run.setup.append(import_s + perf_counter() - began)
        measured = _serve_measure(run, server.port, circuits, seed,
                                  seconds)
        if trace:
            client = ServeClient(port=server.port, timeout=CLIENT_TIMEOUT_S)
            stats_s = []
            for _ in range(STATS_CALLS):
                t0 = perf_counter()
                client.stats()
                stats_s.append(perf_counter() - t0)
            client.close()
            run.serve["serve.stats_ms"] = \
                1000 * statistics.median(stats_s)
    finally:
        if server is not None:
            server.stop()
    run.peak_rss_mb = _children_rss_mb()
    if trace:
        tracer = tracing.Tracer.load(json.loads(dump.read_text()))
        run.trace = tracer.report(flows=measured)
        if spans is not None:
            tracer.write_spans(spans, flows=measured)


def _block(seed: int, circuits, fresh: list[str], block: int) -> list:
    """The requests of one block: every warm circuit plus a fresh one.

    Fresh circuits are taken from the pool in order (cycling only when
    a run outlasts the pool), so every run does the same cold work; the
    seed decides where in the block it goes.
    """
    labels = list(circuits) + [fresh[block % len(fresh)]]
    random.Random(seed * 100003 + block).shuffle(labels)
    return labels


def _serve_measure(run: Run, port: int, circuits, seed: int,
                   seconds: float) -> set[str]:
    """Closed-loop clients until ``seconds`` pass (one block at least).

    Returns the job ids measured.
    """
    from repro.serve import ServeClient, ServeError
    fresh = common.fresh_names()
    block_size = len(circuits) + 1
    lock = threading.Lock()
    issued = [0]
    measured: set[str] = set()
    extras: dict[str, float] = defaultdict(float)
    overheads: list[float] = []
    start = perf_counter()

    def client_loop() -> None:
        client = ServeClient(port=port, timeout=CLIENT_TIMEOUT_S)
        try:
            while True:
                with lock:
                    if issued[0] % block_size == 0 and issued[0] and \
                            perf_counter() - start >= seconds:
                        return
                    index = issued[0]
                    issued[0] += 1
                block, pos = divmod(index, block_size)
                name = _block(seed, circuits, fresh, block)[pos]
                try:
                    latency, state, doc = _serve_job(client,
                                                     run.texts[name])
                except ServeError as exc:
                    with lock:
                        extras["serve.rejected"] += 1
                    run.outcome(name, None,
                                problem=f"{name}: HTTP {exc.status}")
                    continue
                except (OSError, RuntimeError):
                    run.outcome(name, None, problem=_failure(name))
                    continue
                if state != "done":
                    run.outcome(name, None,
                                problem=f"{name}: job {state}: "
                                        f"{doc.get('error')}")
                    continue
                overhead = latency - doc["wall_time_s"]
                with lock:
                    measured.add(doc["job_id"])
                    extras["serve.calls"] += 1
                    extras["serve.queue_wait_s"] += doc["queue_time_s"]
                    extras["serve.busy_s"] += doc["stats"]["flow_seconds"]
                    extras["serve.self_s"] += overhead
                    overheads.append(overhead)
                fresh_job = name not in circuits
                run.outcome(name, common.record_of(doc["result"]),
                            seconds=latency,
                            key="fresh" if fresh_job else name,
                            problem=None if fresh_job or doc["stats"]["warm"]
                            else f"{name}: resubmission not served warm")
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, daemon=True)
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.measure_s = perf_counter() - start
    run.serve.update(extras)
    if overheads:
        run.serve["serve.overhead_ms_p50"] = \
            1000 * statistics.median(overheads)
    return measured


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 circuits=None, spans: Path | None = None) -> Run:
    """Set up and measure one workload; the work dir is removed after."""
    circuits = tuple(circuits or WORKLOADS[name])
    names = list(circuits)
    if name == "serve-mixed":
        names += common.fresh_names()
    run = Run(name, {n: common.circuit_path(n).read_text()
                     for n in names})
    work = common.ROOT / ".e2e_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if name.startswith("cold-"):
            run_cold(run, circuits, seed, seconds, trace, spans)
        elif name == "warm-resubmit":
            run_warm(run, circuits, seed, seconds, trace, spans, work)
        elif name == "serve-mixed":
            run_serve(run, circuits, seed, seconds, trace, spans, work)
        else:
            raise KeyError(f"unknown workload {name!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return run
