"""Integration: lint levels in the flows, CLI, manifests, registry."""

import json

import pytest

from repro.approx import ApproxConfig, synthesize_approximation
from repro.bench import tiny_benchmark
from repro.ced import run_ced_flow
from repro.cli import main
from repro.lab.manifest import build_manifest, validate_manifest
from repro.lab.tasks import ced_flow_task
from repro.lint import (Diagnostic, LintError, LintReport, Severity,
                        all_rules, check_certificate)


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------

EXPECTED_RULES = {
    "net.undefined-fanin", "net.cycle", "net.undefined-output",
    "net.duplicate-output", "net.cube-width", "net.duplicate-fanin",
    "net.duplicate-cube", "net.contained-cube", "net.dangling-node",
    "net.unused-input", "net.no-outputs",
    "net.const-node", "net.const-redundant", "net.structural-dup",
    "net.dead-cone", "net.unread-fanin", "net.const-po",
    "pair.io-mismatch", "pair.direction-missing", "pair.direction-value",
    "pair.untyped-node", "pair.po-type", "pair.dc-read",
    "pair.ex-changed", "pair.direction-local", "pair.cube-unjustified",
    "pair.po-implication",
    "pair.error-bound", "pair.error-claim",
    "flow.direction-values", "flow.fault-sites", "flow.nonintrusive",
    "flow.output-preserved", "flow.checker-missing", "flow.trc-tree",
}


def test_registry_matches_the_documented_catalog():
    assert {r.rule_id for r in all_rules()} == EXPECTED_RULES


def test_every_rule_has_a_firing_test():
    # Keep the mutation-test files honest: each registered rule id must
    # be asserted on somewhere in this directory.
    from pathlib import Path
    here = Path(__file__).parent
    corpus = "".join(p.read_text() for p in here.glob("test_*.py"))
    untested = [r.rule_id for r in all_rules()
                if f'"{r.rule_id}"' not in corpus]
    assert untested == []


# ----------------------------------------------------------------------
# ApproxConfig.lint_level
# ----------------------------------------------------------------------

def test_approx_config_rejects_unknown_level():
    with pytest.raises(ValueError, match="lint level"):
        ApproxConfig(lint_level="pedantic")


def test_synthesis_attaches_report_at_warn():
    net = tiny_benchmark()
    directions = {po: 1 for po in net.outputs}
    result = synthesize_approximation(
        net, directions, ApproxConfig(lint_level="warn"))
    assert result.lint is not None
    assert result.lint.ok
    result = synthesize_approximation(net, directions, ApproxConfig())
    assert result.lint is None


def test_synthesis_strict_passes_on_clean_result():
    net = tiny_benchmark()
    directions = {po: 0 for po in net.outputs}
    result = synthesize_approximation(
        net, directions, ApproxConfig(lint_level="strict"))
    assert result.lint is not None and result.lint.ok


def test_lint_error_names_rules():
    report = LintReport(diagnostics=[
        Diagnostic("net.cycle", Severity.ERROR, "boom", "c", "", "", {}),
        Diagnostic("net.cycle", Severity.ERROR, "boom", "c", "", "", {}),
    ])
    err = LintError(report)
    assert err.report is report
    assert "2 error(s)" in str(err) and "net.cycle" in str(err)


# ----------------------------------------------------------------------
# run_ced_flow lint_level / certificate_dir
# ----------------------------------------------------------------------

def test_flow_lint_level_and_certificates(tmp_path):
    flow = run_ced_flow(tiny_benchmark(), reliability_words=1,
                        coverage_words=1, power_words=1,
                        lint_level="warn", certificate_dir=tmp_path)
    assert flow.lint is not None and flow.lint.ok
    assert flow.to_dict()["lint"]["ok"] is True
    paths = sorted(tmp_path.glob("*.cert.json"))
    assert paths, "flow emitted no certificate files"
    for path in paths:
        assert check_certificate(json.loads(path.read_text())) == []


def test_flow_rejects_unknown_lint_level():
    with pytest.raises(ValueError, match="lint level"):
        run_ced_flow(tiny_benchmark(), lint_level="loud")


def test_ced_flow_task_carries_diagnostics():
    record = ced_flow_task("tiny", words=1, lint_level="warn")
    assert record["lint"]["ok"] is True
    assert isinstance(record["lint"]["diagnostics"], list)


# ----------------------------------------------------------------------
# Manifest diagnostics entries
# ----------------------------------------------------------------------

def _manifest_with(diagnostics):
    job = {"params": {}, "seed": 1, "status": "ok", "attempts": 1,
           "wall_time_s": 0.0}
    if diagnostics is not None:
        job["diagnostics"] = diagnostics
    return build_manifest(run_id="r", root_seed=1, workers=1,
                          wall_time_s=0.0, jobs={"j": job})


def test_manifest_accepts_lint_reports():
    doc = _manifest_with({"ok": True, "diagnostics": []})
    assert validate_manifest(doc) == []
    assert validate_manifest(_manifest_with(None)) == []


def test_manifest_rejects_malformed_diagnostics():
    errors = validate_manifest(_manifest_with(["not", "a", "report"]))
    assert any("diagnostics" in e for e in errors)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_lint_text(capsys):
    assert main(["lint", "--circuit", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_json(capsys):
    assert main(["lint", "--circuit", "tiny", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["counts"]["error"] == 0


def test_cli_lint_strict_fails_on_warnings(tmp_path, capsys):
    path = tmp_path / "dup.blif"
    path.write_text(".model dup\n.inputs a b\n.outputs f\n"
                    ".names a b f\n11 1\n11 1\n.end\n")
    assert main(["lint", "--blif", str(path)]) == 0
    assert main(["lint", "--blif", str(path), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "net.duplicate-cube" in out


def test_cli_lint_certificates_need_flow(tmp_path, capsys):
    code = main(["lint", "--circuit", "tiny",
                 "--certificates", str(tmp_path)])
    assert code == 2


def test_cli_lint_flow_writes_certificates(tmp_path, capsys):
    code = main(["lint", "--circuit", "tiny", "--flow", "--words", "1",
                 "--certificates", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate" in out
    assert sorted(tmp_path.glob("*.cert.json"))
