"""CLI engine selection, error flags, exit-2 config errors, prune --stale."""

import json

import pytest

from repro.cli import EXIT_CONFIG_ERROR, main
from repro.lab.proofs import PROOF_SCHEMA, ProofCache


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


class TestEngineFlags:
    def test_resub_run_reports_engine_and_error(self, blif_path,
                                                capsys):
        code = main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--engine", "resub", "--error-metric", "er",
                     "--error-bound", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine                : resub" in out
        assert "error                 : er" in out
        assert "within" in out

    def test_json_report_carries_engine_and_report(self, blif_path,
                                                   capsys):
        code = main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--json", "--engine", "resub",
                     "--error-metric", "er", "--error-bound", "0.1",
                     "--error-exact-threshold", "10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "resub"
        assert doc["error_report"]["within"] is True
        assert doc["error_report"]["budget_spent"][
            "exact_threshold"] == 10

    def test_default_engine_is_cube(self, blif_path, capsys):
        code = main(["ced", "--blif", str(blif_path), "--words", "1",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "cube"
        assert "error_report" not in doc


class TestConfigErrors:
    def check(self, argv, field, capsys):
        assert main(argv) == EXIT_CONFIG_ERROR
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "config"
        assert doc["field"] == field
        return doc

    def test_unknown_engine_exits_2(self, blif_path, capsys):
        doc = self.check(["ced", "--blif", str(blif_path),
                          "--engine", "nope"], "engine", capsys)
        assert "nope" in doc["message"]

    def test_resub_without_error_exits_2(self, blif_path, capsys):
        self.check(["ced", "--blif", str(blif_path),
                    "--engine", "resub"], "error", capsys)

    def test_cube_with_error_exits_2(self, blif_path, capsys):
        self.check(["ced", "--blif", str(blif_path),
                    "--error-metric", "er", "--error-bound", "0.1"],
                   "error", capsys)

    def test_bound_without_metric_exits_2(self, blif_path, capsys):
        self.check(["ced", "--blif", str(blif_path),
                    "--engine", "resub", "--error-bound", "0.1"],
                   "error.metric", capsys)

    def test_bad_metric_exits_2(self, blif_path, capsys):
        doc = self.check(["ced", "--blif", str(blif_path),
                          "--engine", "resub",
                          "--error-metric", "mse",
                          "--error-bound", "0.1"],
                         "error.metric", capsys)
        assert "mse" in doc["message"]

    def test_exact_threshold_above_limit_exits_2(self, blif_path,
                                                 capsys):
        doc = self.check(["ced", "--blif", str(blif_path),
                          "--engine", "resub",
                          "--error-metric", "er", "--error-bound", "0.1",
                          "--error-exact-threshold", "40"],
                         "error.exact_threshold", capsys)
        assert doc["value"] == "40"

    def test_synth_shares_the_flags(self, blif_path, tmp_path, capsys):
        self.check(["synth", "--blif", str(blif_path),
                    "--out", str(tmp_path / "o.blif"),
                    "--engine", "nope"], "engine", capsys)


class TestCachePruneStale:
    def test_prune_stale_sweeps_old_schema(self, tmp_path, capsys):
        cache = ProofCache(tmp_path / "proofs")
        cache.put("aa" + "0" * 62, {"kind": "implication",
                                    "holds": True})
        stale_dir = tmp_path / "proofs" / "bb"
        stale_dir.mkdir(parents=True)
        (stale_dir / ("bb" + "0" * 62 + ".json")).write_text(
            json.dumps({"kind": "implication", "holds": True,
                        "schema": PROOF_SCHEMA - 1, "digest": "x"}))
        code = main(["cache", "--dir", str(tmp_path / "proofs"),
                     "prune", "--stale", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed_stale"] == 1
        assert doc["kept_entries"] == 1

    def test_prune_without_criteria_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "--dir", str(tmp_path / "proofs"), "prune"])

    def test_prune_stale_and_size_compose(self, tmp_path, capsys):
        cache = ProofCache(tmp_path / "proofs")
        for i in range(3):
            cache.put(f"a{i}" + "0" * 62, {"kind": "implication",
                                           "n": i})
        code = main(["cache", "--dir", str(tmp_path / "proofs"),
                     "prune", "--stale", "--max-size", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed_stale"] == 0
        assert doc["removed"] == 3
