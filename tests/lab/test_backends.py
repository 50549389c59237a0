"""Backend parity: serial, local and workqueue run the same grids.

The contract: the backend changes *where* jobs execute, never *what*
they compute or how the runner accounts for them.  Every backend must
produce bit-identical job results for the same graph, schema-valid
manifests naming the backend, and the same failure taxonomy.
"""

import threading

import pytest

from repro.lab import (BACKEND_ENV, BACKENDS, ArtifactStore, Job,
                       JobGraph, LabRunner, load_manifest,
                       merge_manifests, resolve_backend,
                       validate_manifest)
from repro.approx import ConfigError

from .helpers import add_seeded, always_fail, combine, spin, square

#: The execution modes under test.  ``serial`` is a worker count, not a
#: backend name: it runs jobs inline under the default ``local`` name.
MODES = BACKENDS + ("serial",)


#: A manifest as a run on the retired ``tcp`` backend recorded it.
TCP_MANIFEST = {
    "backend": "tcp",
    "counts": {"cached": 0, "cancelled": 0, "failed": 0, "ok": 1,
               "skipped": 0},
    "created": "2026-10-20T01:12:43.511650+00:00",
    "jobs": {
        "sq-7": {
            "artifact_digest": None, "attempts": 1, "cache_key": None,
            "deps": [], "error": None, "params": {"x": 7},
            "peak_rss_kb": 42220, "seed": 967169646, "status": "ok",
            "wall_time_s": 6e-06,
        },
    },
    "root_seed": 9,
    "run_id": "tcp-recorded",
    "schema_version": 1,
    "wall_time_s": 0.95983,
    "workers": 2,
}


def backend_name(mode):
    return "local" if mode == "serial" else mode


def runner_for(backend, tmp_path, **kwargs):
    kwargs.setdefault("workers", "serial" if backend == "serial" else 2)
    kwargs.setdefault("log", None)
    kwargs.setdefault("cache",
                      ArtifactStore(tmp_path / backend / "cache"))
    kwargs.setdefault("results_dir", tmp_path / backend / "results")
    return LabRunner(backend=backend_name(backend), **kwargs)


def demo_graph():
    jobs = [Job(name=f"sq-{i}", fn=square, params={"x": i})
            for i in range(5)]
    jobs.append(Job(name="seeded", fn=add_seeded, params={"x": 10}))
    jobs.append(Job(name="sum", fn=combine, params={},
                    deps=("sq-2", "sq-3"), pass_deps=True))
    return JobGraph(jobs, root_seed=77)


class TestBackendParity:
    def test_all_backends_bit_identical(self, tmp_path):
        records = {}
        for backend in MODES:
            run = runner_for(backend, tmp_path).run(demo_graph())
            assert run.backend == backend_name(backend)
            records[backend] = {
                name: (result.status, result.value, result.seed)
                for name, result in run.results.items()}
            doc = load_manifest(run.manifest_path)
            assert validate_manifest(doc) == []
            assert doc["backend"] == backend_name(backend)
        reference = records["local"]
        assert reference["sum"] == ("ok", 4 + 9, reference["sum"][2])
        for backend in MODES[1:]:
            assert records[backend] == reference

    @pytest.mark.parametrize("backend", MODES)
    def test_failure_taxonomy(self, backend, tmp_path):
        graph = JobGraph([
            Job(name="good", fn=square, params={"x": 4}),
            Job(name="bad", fn=always_fail, params={}),
            Job(name="downstream", fn=square, params={"x": 5},
                deps=("bad",)),
        ], root_seed=3)
        run = runner_for(backend, tmp_path).run(graph)
        statuses = {n: r.status for n, r in run.results.items()}
        assert statuses == {"good": "ok", "bad": "failed",
                            "downstream": "skipped"}
        assert "always fails" in run.results["bad"].error
        doc = load_manifest(run.manifest_path)
        assert validate_manifest(doc) == []
        assert doc["counts"]["failed"] == 1

    @pytest.mark.parametrize("backend", MODES)
    def test_cancelled_taxonomy_on_shutdown(self, backend, tmp_path):
        graph = JobGraph([
            Job(name=f"spin-{i}", fn=spin, params={"seconds": 5.0})
            for i in range(3)
        ], root_seed=3)
        runner = runner_for(backend, tmp_path, cache=None)
        timer = threading.Timer(0.5, runner.request_shutdown)
        timer.start()
        try:
            run = runner.run(graph)
        finally:
            timer.cancel()
        statuses = {r.status for r in run.results.values()}
        assert "cancelled" in statuses
        assert statuses <= {"cancelled", "ok"}
        doc = load_manifest(run.manifest_path)
        assert validate_manifest(doc) == []

    @pytest.mark.parametrize("backend", MODES)
    def test_caching_resumes_across_backends(self, backend, tmp_path):
        # A cache written by one backend serves any other: results are
        # content-addressed, not backend-addressed.
        cache = ArtifactStore(tmp_path / "shared-cache")
        first = runner_for("local", tmp_path, cache=cache,
                           results_dir=None).run(demo_graph())
        again = runner_for(backend, tmp_path, cache=cache,
                           results_dir=None).run(demo_graph())
        assert all(r.status == "cached"
                   for r in again.results.values())
        assert again.values() == first.values()


class TestLocalResilience:
    def test_unshippable_fn_fails_only_its_job(self, tmp_path):
        # A lambda cannot be pickled to a pool worker: its future
        # carries the pickling error, the job is failed and its sibling
        # still runs.
        graph = JobGraph([
            Job(name="lambda", fn=lambda: 1, params={}),
            Job(name="fine", fn=square, params={"x": 2}),
        ], root_seed=5)
        run = runner_for("local", tmp_path).run(graph)
        assert run.results["lambda"].status == "failed"
        assert "pickle" in run.results["lambda"].error
        assert run.results["fine"].status == "ok"
        assert run.results["fine"].value == 4


class TestMergeManifests:
    def test_split_sweep_merges_into_one_valid_manifest(self, tmp_path):
        slices = []
        for half, names in enumerate((range(0, 3), range(3, 6))):
            graph = JobGraph(
                [Job(name=f"sq-{i}", fn=square, params={"x": i})
                 for i in names], root_seed=9)
            run = runner_for("local", tmp_path / f"h{half}").run(graph)
            slices.append(load_manifest(run.manifest_path))
        merged = merge_manifests(slices, run_id="merged-test")
        assert validate_manifest(merged) == []
        assert merged["run_id"] == "merged-test"
        assert sorted(merged["jobs"]) == [f"sq-{i}" for i in range(6)]
        assert merged["counts"]["ok"] == 6
        assert merged["workers"] == 4          # 2 + 2
        assert merged["backend"] == "local"
        assert len(merged["merged_from"]) == 2

    def test_recorded_tcp_manifest_still_validates_and_merges(
            self, tmp_path):
        # Runs recorded under results/runs/ before the tcp backend was
        # removed stay usable: valid, and mergeable with a new slice.
        assert validate_manifest(TCP_MANIFEST) == []
        graph = JobGraph([Job(name="sq-0", fn=square, params={"x": 0})],
                         root_seed=9)
        run = runner_for("local", tmp_path).run(graph)
        merged = merge_manifests([TCP_MANIFEST,
                                  load_manifest(run.manifest_path)])
        assert validate_manifest(merged) == []
        assert sorted(merged["jobs"]) == ["sq-0", "sq-7"]
        assert merged["backend"] == "mixed"
        assert merged["workers"] == 4

    def test_overlapping_slices_are_rejected(self, tmp_path):
        graph = JobGraph([Job(name="sq-0", fn=square,
                              params={"x": 0})], root_seed=9)
        run = runner_for("local", tmp_path).run(graph)
        doc = load_manifest(run.manifest_path)
        with pytest.raises(ValueError, match="more than one manifest"):
            merge_manifests([doc, doc])

    def test_merge_needs_input(self):
        with pytest.raises(ValueError):
            merge_manifests([])


class TestBackendSelection:
    def test_unknown_backend_is_config_error(self):
        with pytest.raises(ConfigError) as excinfo:
            resolve_backend("carrier-pigeon")
        doc = excinfo.value.to_dict()
        assert doc["error"] == "config"
        assert doc["field"] == "backend"
        assert "carrier-pigeon" in doc["message"]

    def test_env_selects_and_is_named_on_error(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "workqueue")
        assert resolve_backend() == "workqueue"
        for bad in ("bogus", "tcp"):
            monkeypatch.setenv(BACKEND_ENV, bad)
            with pytest.raises(ConfigError) as excinfo:
                resolve_backend()
            doc = excinfo.value.to_dict()
            assert doc["field"] == BACKEND_ENV
            assert "(known: local, workqueue)" in doc["message"]

    def test_default_is_local(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "local"
        assert resolve_backend("WorkQueue") == "workqueue"
        with pytest.raises(ConfigError) as excinfo:
            resolve_backend("TCP")
        assert "local, workqueue" in excinfo.value.to_dict()["message"]
