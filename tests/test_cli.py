"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.network import read_blif


@pytest.fixture
def blif_path(tmp_path):
    path = tmp_path / "demo.blif"
    path.write_text("""
.model demo
.inputs a b c
.outputs y z
.names a b t1
11 1
.names t1 c y
1- 1
-0 1
.names a c z
11 1
.end
""")
    return path


class TestInfo:
    def test_prints_structure(self, blif_path, capsys):
        assert main(["info", "--blif", str(blif_path)]) == 0
        out = capsys.readouterr().out
        assert "inputs   : 3" in out
        assert "outputs  : 2" in out
        assert "mapped" in out


class TestSynth:
    def test_writes_correct_approximation(self, blif_path, tmp_path,
                                          capsys):
        out_path = tmp_path / "approx.blif"
        code = main(["synth", "--blif", str(blif_path),
                     "--out", str(out_path),
                     "--cube-drop-threshold", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "correct       : True" in out
        approx = read_blif(out_path)
        assert set(approx.outputs) == {"y", "z"}

    def test_forced_direction(self, blif_path, tmp_path, capsys):
        out_path = tmp_path / "approx.blif"
        assert main(["synth", "--blif", str(blif_path),
                     "--out", str(out_path), "--direction", "1"]) == 0
        out = capsys.readouterr().out
        assert "1-approximation" in out

    def test_synthesized_blif_is_an_implication(self, blif_path,
                                                tmp_path):
        out_path = tmp_path / "approx.blif"
        main(["synth", "--blif", str(blif_path), "--out", str(out_path),
              "--direction", "1", "--cube-drop-threshold", "0.3"])
        original = read_blif(blif_path)
        approx = read_blif(out_path)
        for m in range(8):
            values = {pi: bool(m >> i & 1)
                      for i, pi in enumerate(original.inputs)}
            o = original.evaluate_outputs(values)
            a = approx.evaluate_outputs(
                {pi: values[pi] for pi in approx.inputs})
            for po in original.outputs:
                assert (not a[po]) or o[po], (po, values)


class TestCed:
    def test_report(self, blif_path, capsys):
        assert main(["ced", "--blif", str(blif_path),
                     "--words", "2"]) == 0
        out = capsys.readouterr().out
        assert "achieved CED coverage" in out
        assert "area overhead" in out

    def test_share_logic_flag(self, blif_path, capsys):
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--share-logic"]) == 0
        assert "shared gates" in capsys.readouterr().out

    def test_writes_generator(self, blif_path, tmp_path, capsys):
        out_path = tmp_path / "gen.blif"
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--out", str(out_path)]) == 0
        assert out_path.exists()


class TestCedJson:
    def test_machine_readable_report(self, blif_path, capsys):
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["circuit"] == "demo"
        summary = doc["summary"]
        for key in ("gates", "area_overhead_pct", "ced_coverage_pct",
                    "max_ced_coverage_pct", "approximation_pct"):
            assert key in summary
        # The summary round-trips losslessly through JSON.
        assert json.loads(json.dumps(summary)) == summary
        assert doc["coverage"]["runs"] > 0
        assert set(doc["directions"]) == {"y", "z"}

    def test_json_matches_summary_json(self, blif_path, capsys):
        from repro.approx import ApproxConfig
        from repro.ced import run_ced_flow
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        flow = run_ced_flow(read_blif(blif_path),
                            config=ApproxConfig(seed=2008),
                            reliability_words=2, coverage_words=2,
                            seed=2008)
        assert json.loads(flow.summary_json()) == doc["summary"]


class TestCedBudget:
    def test_chaos_run_reports_budget_and_exits_zero(self, blif_path,
                                                     capsys):
        assert main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--chaos", "bdd-overflow,sat-exhausted",
                     "--budget-deadline", "600", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["budget_report"]
        assert report["chaos"] == ["bdd-overflow", "sat-exhausted"]
        assert report["degraded"] is True
        assert doc["trace"]["budget"] == report

    def test_text_report_mentions_budget(self, blif_path, capsys):
        assert main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--chaos", "sat-exhausted"]) == 0
        out = capsys.readouterr().out
        assert "budget                : engine=conformance" in out

    def test_deadline_zero_exits_with_budget_status(self, blif_path,
                                                    capsys):
        from repro.cli import EXIT_BUDGET_EXCEEDED
        code = main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--budget-deadline", "0"])
        assert code == EXIT_BUDGET_EXCEEDED == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DeadlineExceeded"
        assert "flow entry" in err["message"]

    def test_no_budget_flags_mean_no_budget(self, blif_path, capsys):
        assert main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "budget_report" not in doc


class TestSweep:
    def _sweep(self, tmp_path, *extra):
        return ["sweep", "--circuits", "tiny", "--words", "1",
                "--results-dir", str(tmp_path / "results"),
                "--cache-dir", str(tmp_path / "cache"),
                "--quiet", *extra]

    def test_grid_runs_and_writes_manifest(self, tmp_path, capsys):
        from repro.lab import load_manifest, validate_manifest
        code = main(self._sweep(
            tmp_path, "--workers", "2", "--run-id", "s1",
            "--dc-thresholds", "0.25,0.5"))
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny/dc0.25/drop0.02" in out
        assert "manifest:" in out
        doc = load_manifest(
            tmp_path / "results" / "runs" / "s1" / "manifest.json")
        assert validate_manifest(doc) == []
        assert len(doc["jobs"]) == 2
        assert all(j["status"] == "ok" for j in doc["jobs"].values())

    def test_rerun_resumes_from_cache(self, tmp_path, capsys):
        from repro.lab import load_manifest
        assert main(self._sweep(tmp_path, "--workers", "serial",
                                "--run-id", "first")) == 0
        capsys.readouterr()
        assert main(self._sweep(tmp_path, "--workers", "serial",
                                "--run-id", "second")) == 0
        capsys.readouterr()
        doc = load_manifest(tmp_path / "results" / "runs" / "second"
                            / "manifest.json")
        statuses = [j["status"] for j in doc["jobs"].values()]
        assert statuses == ["cached"]

    def test_serial_and_parallel_identical(self, tmp_path, capsys):
        summaries = {}
        for label, workers in (("serial", "serial"), ("pool", "2")):
            code = main(self._sweep(
                tmp_path, "--workers", workers, "--json", "--no-cache",
                "--run-id", label, "--dc-thresholds", "0.25,0.5"))
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            summaries[label] = {name: job["summary"]
                                for name, job in doc["jobs"].items()}
        assert summaries["serial"] == summaries["pool"]

    def test_failed_job_reported_not_fatal(self, tmp_path, capsys):
        code = main(["sweep", "--circuits", "tiny,doesnotexist",
                     "--words", "1", "--workers", "serial",
                     "--results-dir", str(tmp_path / "results"),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--quiet", "--json", "--run-id", "partial"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"]["tiny"]["status"] == "ok"
        assert doc["jobs"]["doesnotexist"]["status"] == "failed"
        assert "KeyError" in doc["jobs"]["doesnotexist"]["error"]

    def test_per_job_seeds(self, tmp_path, capsys):
        from repro.lab import derive_seed, load_manifest
        assert main(self._sweep(
            tmp_path, "--workers", "serial", "--per-job-seeds",
            "--run-id", "seeded", "--seed", "42")) == 0
        doc = load_manifest(tmp_path / "results" / "runs" / "seeded"
                            / "manifest.json")
        entry = doc["jobs"]["tiny"]
        assert entry["params"]["seed"] == derive_seed(42, "tiny")


class TestGen:
    def test_exports_benchmark(self, tmp_path, capsys):
        out_path = tmp_path / "cmb.blif"
        assert main(["gen", "--name", "cmb",
                     "--out", str(out_path)]) == 0
        net = read_blif(out_path)
        assert len(net.inputs) == 16
        assert len(net.outputs) == 4

    def test_unknown_benchmark_raises(self, tmp_path):
        with pytest.raises(KeyError):
            main(["gen", "--name", "nope",
                  "--out", str(tmp_path / "x.blif")])


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestCache:
    def _populate(self, blif_path, proof_dir):
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--proof-cache-dir", str(proof_dir)]) == 0

    def test_stats_and_prune(self, blif_path, tmp_path, capsys):
        proof_dir = tmp_path / "proofs"
        self._populate(blif_path, proof_dir)
        capsys.readouterr()
        assert main(["cache", "--dir", str(proof_dir), "--json",
                     "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0 and stats["bytes"] > 0
        assert main(["cache", "--dir", str(proof_dir), "--json",
                     "prune", "--max-size", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == stats["entries"]
        assert report["kept_entries"] == 0

    def test_json_flag_accepted_after_subcommand(self, blif_path,
                                                 tmp_path, capsys):
        # ``cache stats --json`` (flag trailing the subcommand) must
        # work exactly like ``cache --json stats``.
        proof_dir = tmp_path / "proofs"
        self._populate(blif_path, proof_dir)
        capsys.readouterr()
        assert main(["cache", "--dir", str(proof_dir), "stats",
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert main(["cache", "--dir", str(proof_dir), "prune",
                     "--max-size", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == stats["entries"]

    def test_stats_and_prune_on_checkpoint_store(self, blif_path,
                                                 tmp_path, capsys):
        # The same subcommands serve a checkpoint store (.pkl artifacts
        # with JSON sidecars) with no extra flag.
        store_dir = tmp_path / "checkpoints"
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--checkpoint-dir", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "--dir", str(store_dir), "stats"]) == 0
        assert capsys.readouterr().out.startswith("artifact store")
        assert main(["cache", "--dir", str(store_dir), "stats",
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        pickles = sorted(store_dir.glob("*/*.pkl"))
        assert stats["entries"] == len(pickles) > 0
        assert stats["bytes"] == sum(
            p.stat().st_size for p in store_dir.glob("*/*"))
        assert main(["cache", "--dir", str(store_dir), "prune",
                     "--stale", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "root": str(store_dir), "removed_stale": 0,
            "kept_entries": stats["entries"]}
        # A checkpoint failing its digest is stale; only it goes.
        victim = pickles[0]
        victim.write_bytes(victim.read_bytes()[:-1] + b"\x00")
        os.utime(victim, (1000, 1000))
        assert main(["cache", "--dir", str(store_dir), "prune",
                     "--stale", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed_stale"] == 1
        assert report["kept_entries"] == stats["entries"] - 1
        assert not victim.exists()
        assert not victim.with_suffix(".json").exists()
        assert main(["cache", "--dir", str(store_dir), "prune",
                     "--max-size", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == stats["entries"] - 1
        assert list(store_dir.glob("*/*")) == []

    def test_stats_without_json_is_text(self, tmp_path, capsys):
        assert main(["cache", "--dir", str(tmp_path / "none"),
                     "stats"]) == 0
        out = capsys.readouterr().out
        assert "proof cache" in out and "0 entries" in out

    def test_bad_size_suffix_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "--dir", str(tmp_path), "prune",
                  "--max-size", "10Q"])

    def test_corrupted_entry_reproved_transparently(self, blif_path,
                                                    tmp_path, capsys):
        # A flipped verdict with a stale digest must be detected,
        # evicted, and re-proved — never served.
        proof_dir = tmp_path / "proofs"
        self._populate(blif_path, proof_dir)
        capsys.readouterr()
        entries = sorted(proof_dir.glob("*/*.json"))
        assert entries
        victim = next(p for p in entries
                      if "holds" in json.loads(p.read_text()))
        doc = json.loads(victim.read_text())
        doc["holds"] = not doc["holds"]     # digest now mismatches
        victim.write_text(json.dumps(doc))
        assert main(["ced", "--blif", str(blif_path), "--words", "2",
                     "--proof-cache-dir", str(proof_dir),
                     "--json"]) == 0
        rerun = json.loads(capsys.readouterr().out)
        assert rerun["summary"]["approximation_pct"] > 0
        # The tampered entry was replaced by a fresh, valid proof.
        fresh = json.loads(victim.read_text())
        from repro.lab import ProofCache
        assert fresh["digest"] == ProofCache._digest(fresh)


class TestServe:
    def test_parser_flags_and_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3",
             "--backend", "thread", "--state-dir", "/tmp/x",
             "--budget-deadline", "30"])
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 0 and args.workers == 3
        assert args.backend == "thread"
        assert args.budget_deadline == 30.0
        assert args.max_queue == 16
        assert args.tenant_rate == 8.0 and args.tenant_burst == 16.0
        assert args.drain_timeout == 60.0
        assert args.words == 2 and args.seed == 2008

    def test_config_construction_matches_flags(self):
        from repro.serve import ServeConfig
        config = ServeConfig(port=0, workers=4, backend="thread",
                             budget_deadline_s=10.0)
        assert config.budget_deadline_s == 10.0
        with pytest.raises(ValueError):
            ServeConfig(backend="fibers")
        with pytest.raises(ValueError):
            ServeConfig(workers=0)


class TestAnalyze:
    def test_text_report(self, blif_path, capsys):
        assert main(["analyze", "--blif", str(blif_path)]) == 0
        out = capsys.readouterr().out
        assert "circuit   : demo" in out
        assert "constants" in out
        assert "fixpoint" in out

    def test_json_report_shape(self, blif_path, capsys):
        assert main(["analyze", "--blif", str(blif_path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["circuit"] == "demo"
        for key in ("constants", "dead_cones", "sdc_cubes",
                    "structural_duplicates", "unateness",
                    "probability_intervals", "fixpoint"):
            assert key in doc

    def test_cache_round_trip(self, blif_path, tmp_path, capsys):
        cache = tmp_path / "acache"
        assert main(["analyze", "--blif", str(blif_path),
                     "--cache-dir", str(cache), "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["analyze", "--blif", str(blif_path),
                     "--cache-dir", str(cache)]) == 0
        assert "[cached]" in capsys.readouterr().out
        assert main(["analyze", "--blif", str(blif_path),
                     "--cache-dir", str(cache), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == cold


class TestLintSarif:
    @pytest.fixture
    def dirty_path(self, tmp_path):
        # k is constant 0, so t is too: guaranteed lint findings.
        path = tmp_path / "dirty.blif"
        path.write_text("""
.model dirty
.inputs a b
.outputs y
.names k
.names a k t
11 1
.names t b y
1- 1
-1 1
.end
""")
        return path

    def test_sarif_log_is_written_and_valid(self, dirty_path,
                                            tmp_path, capsys):
        from repro.lint import validate_sarif
        log = tmp_path / "out.sarif"
        assert main(["lint", "--blif", str(dirty_path),
                     "--sarif", str(log)]) == 0
        doc = json.loads(log.read_text())
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"]

    def test_baseline_suppresses_known_findings(self, dirty_path,
                                                tmp_path, capsys):
        from repro.lint import new_results
        base = tmp_path / "baseline.sarif"
        assert main(["lint", "--blif", str(dirty_path),
                     "--sarif", str(base)]) == 0
        capsys.readouterr()
        log = tmp_path / "rerun.sarif"
        assert main(["lint", "--blif", str(dirty_path),
                     "--sarif", str(log), "--baseline", str(base)]) == 0
        captured = capsys.readouterr()
        assert "suppressed by baseline" in captured.err
        assert new_results(json.loads(log.read_text())) == []

    def test_unreadable_baseline_exits_2(self, dirty_path, tmp_path,
                                         capsys):
        code = main(["lint", "--blif", str(dirty_path),
                     "--baseline", str(tmp_path / "missing.sarif")])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_unwritable_sarif_path_exits_2(self, dirty_path, tmp_path,
                                           capsys):
        code = main(["lint", "--blif", str(dirty_path), "--sarif",
                     str(tmp_path / "no" / "such" / "dir.sarif")])
        assert code == 2
        assert "cannot write SARIF log" in capsys.readouterr().err


class TestSweepConfigErrors:
    """Bad runtime configuration exits 2 with a JSON document, not a
    traceback — scripts driving sweeps can parse the failure."""

    def test_bogus_workers_exits_2_with_json(self, tmp_path, capsys):
        code = main(["sweep", "--circuits", "tiny",
                     "--workers", "bogus", "--no-cache", "--quiet",
                     "--results-dir", str(tmp_path / "results")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "config"
        assert doc["field"] == "workers"
        assert "bogus" in doc["value"]

    def test_bogus_env_workers_exits_2(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_LAB_WORKERS", "not-a-number")
        code = main(["sweep", "--circuits", "tiny", "--no-cache",
                     "--quiet",
                     "--results-dir", str(tmp_path / "results")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["field"] == "REPRO_LAB_WORKERS"

    def test_bogus_backend_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--circuits", "tiny",
                     "--backend", "smoke-signals", "--workers",
                     "serial", "--no-cache", "--quiet",
                     "--results-dir", str(tmp_path / "results")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "config"
        assert doc["field"] == "backend"

    def test_tcp_backend_exits_2_listing_known(self, tmp_path, capsys):
        code = main(["sweep", "--circuits", "tiny", "--backend", "tcp",
                     "--workers", "serial", "--no-cache", "--quiet",
                     "--results-dir", str(tmp_path / "results")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "config"
        assert doc["field"] == "backend"
        assert "(known: local, workqueue)" in doc["message"]


class TestBadBlif:
    """A malformed --blif exits 2 with a JSON document on stderr, not a
    traceback from deep inside the flow."""

    @pytest.mark.parametrize("text, needle", [
        (".model m\n.inputs a b\n.outputs\n.names a b y\n11 1\n.end\n",
         "no primary outputs"),
        (".model m\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end\n",
         "fanin 'q' is never defined"),
    ])
    def test_ced_exits_2_with_json(self, tmp_path, capsys, text, needle):
        path = tmp_path / "bad.blif"
        path.write_text(text)
        assert main(["ced", "--blif", str(path), "--words", "1"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "blif"
        assert needle in doc["message"]
        assert str(path) in doc["message"]
