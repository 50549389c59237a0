"""Pool-teardown semantics: interrupted jobs are ``cancelled``.

Regression tests for the executor shutdown path: a job in flight when
the runner is torn down (Ctrl-C, or a programmatic
``request_shutdown``) must be recorded as ``cancelled`` in the
manifest — not as a spurious ``failed`` with a pickling traceback —
and the manifest must still be written.  A worker dying on its own
(BrokenProcessPool) stays ``failed``; that contract is pinned by
tests/guard/test_chaos.py.
"""

import json
import threading
import time

import pytest

from repro.lab import Job, JobGraph, LabRunner
from repro.lab.manifest import validate_manifest

from .helpers import raise_keyboard_interrupt, spin, square


def quiet_runner(**kwargs):
    kwargs.setdefault("log", None)
    kwargs.setdefault("cache", None)
    return LabRunner(**kwargs)


def read_manifest(results_dir, run_id):
    path = results_dir / "runs" / run_id / "manifest.json"
    assert path.exists(), "manifest missing after teardown"
    return json.loads(path.read_text())


class TestInterruptPool:
    def test_interrupted_job_recorded_cancelled(self, tmp_path):
        graph = JobGraph([
            Job("boom", raise_keyboard_interrupt),
            Job("slow", spin, params={"seconds": 3.0}),
        ])
        runner = quiet_runner(workers=2,
                              results_dir=tmp_path / "results")
        with pytest.raises(KeyboardInterrupt):
            runner.run(graph, run_id="interrupted")
        doc = read_manifest(tmp_path / "results", "interrupted")
        assert validate_manifest(doc) == []
        statuses = {name: entry["status"]
                    for name, entry in doc["jobs"].items()}
        assert statuses["boom"] == "cancelled"
        # The sibling in flight was a teardown victim, not a failure.
        assert statuses.get("slow") in ("cancelled", None) \
            or statuses["slow"] == "ok"
        for entry in doc["jobs"].values():
            if entry["status"] == "cancelled":
                assert "teardown" in entry["error"]
                assert "pickl" not in (entry["error"] or "").lower()
        assert doc["counts"]["cancelled"] >= 1
        assert doc["counts"]["failed"] == 0

    def test_interrupt_in_serial_mode(self, tmp_path):
        graph = JobGraph([
            Job("ok", square, params={"x": 3}),
            Job("boom", raise_keyboard_interrupt),
            Job("never", square, params={"x": 4}),
        ])
        runner = quiet_runner(workers="serial",
                              results_dir=tmp_path / "results")
        with pytest.raises(KeyboardInterrupt):
            runner.run(graph, run_id="serial-int")
        doc = read_manifest(tmp_path / "results", "serial-int")
        assert validate_manifest(doc) == []
        statuses = {name: entry["status"]
                    for name, entry in doc["jobs"].items()}
        assert statuses["boom"] == "cancelled"
        # Jobs finished before the interrupt keep their real status;
        # never-started jobs are simply absent (order within the
        # graph's topological order is not promised for peers).
        assert statuses.get("ok") in ("ok", "cancelled", None)
        assert statuses.get("never") in ("cancelled", None)
        assert doc["counts"]["failed"] == 0


class TestRequestShutdown:
    def test_pool_run_stops_and_writes_manifest(self, tmp_path):
        graph = JobGraph([
            Job(f"spin{i}", spin, params={"seconds": 1.0})
            for i in range(4)])
        runner = quiet_runner(workers=2,
                              results_dir=tmp_path / "results")
        box = {}

        def target():
            box["run"] = runner.run(graph, run_id="shutdown")

        thread = threading.Thread(target=target)
        thread.start()
        time.sleep(0.4)
        runner.request_shutdown()
        thread.join(30)
        assert not thread.is_alive(), "run() did not return"
        run = box["run"]
        assert run.manifest_path is not None
        doc = read_manifest(tmp_path / "results", "shutdown")
        assert validate_manifest(doc) == []
        counts = run.counts()
        assert counts.get("cancelled", 0) >= 1
        assert counts.get("failed", 0) == 0
        for result in run.results.values():
            if result.status == "cancelled":
                assert result.error == "interrupted by pool teardown"
                assert not result.ok

    def test_serial_run_stops_between_jobs(self, tmp_path):
        graph = JobGraph([
            Job("a", square, params={"x": 2}),
            Job("b", square, params={"x": 3}),
        ])
        runner = quiet_runner(workers="serial",
                              results_dir=tmp_path / "results")
        runner.request_shutdown()        # set before the run starts
        run = runner.run(graph, run_id="serial-stop")
        assert run.results == {}         # nothing ran, nothing failed
        doc = read_manifest(tmp_path / "results", "serial-stop")
        assert validate_manifest(doc) == []
        assert doc["jobs"] == {}

    def test_serial_job_requesting_shutdown_stops_the_run(self,
                                                          tmp_path):
        runner = quiet_runner(workers="serial",
                              results_dir=tmp_path / "results")
        ran = []

        def record(name):
            ran.append(name)
            return name

        def stop(name):
            runner.request_shutdown()
            return record(name)

        graph = JobGraph([
            Job("a", stop, params={"name": "a"}),
            Job("b", record, params={"name": "b"}),
            Job("c", record, params={"name": "c"}),
            Job("d", record, params={"name": "d"}, deps=("a",)),
        ])
        run = runner.run(graph, run_id="serial-self-stop")
        assert ran == ["a"]              # no ready job started after it
        # The job finished but was never harvested: a teardown victim.
        assert {n: r.status for n, r in run.results.items()} \
            == {"a": "cancelled"}
        doc = read_manifest(tmp_path / "results", "serial-self-stop")
        assert validate_manifest(doc) == []
        assert list(doc["jobs"]) == ["a"]
