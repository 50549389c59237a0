"""The end-to-end CED flow (paper Fig. 2 + Sec 3).

``run_ced_flow`` runs every stage — quick synthesis and mapping,
reliability analysis (approximation directions), approximate logic
synthesis, mapping of the check symbol generator, checker assembly, and
fault-injection evaluation — as named passes on the
:class:`~repro.flow.PassManager`.  The passes share one
:class:`~repro.flow.AnalysisContext`, so the global BDDs the synthesis
checker builds are reused by the approximation-percentage metric and
the lint re-prover instead of being rebuilt per stage; every pass
leaves wall time and cache counters in the result's
:class:`~repro.flow.FlowTrace`, and — when a checkpoint directory is
given — persists its outputs so a killed run resumes mid-pipeline.

It returns everything the paper's tables report — area/power overhead,
CED coverage (achieved and maximum), approximation percentage, and
delays — bit-identical to the pre-pass-manager monolith.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import dataclasses
import json

from repro.approx import ApproxConfig, ApproxResult
from repro.approx.engine import get_engine
from repro.flow import (AnalysisContext, FlowContext, FlowTrace, Pass,
                        PassManager, PassRecord, flow_token)
from repro.guard import Budget, apply_chaos, parse_chaos
from repro.network import Network, write_blif
from repro.reliability import ReliabilityReport, analyze_reliability
from repro.synth import SynthesisScript, QUICK_SCRIPT
from repro.synth.netlist import MappedNetlist

from .architecture import CedAssembly, build_ced
from .coverage import CoverageResult, evaluate_ced


@dataclass
class CedFlowResult:
    """All artifacts and measurements of one CED flow run."""

    original: Network
    original_mapped: MappedNetlist
    approx_result: ApproxResult
    approx_mapped: MappedNetlist
    assembly: CedAssembly
    reliability: ReliabilityReport
    coverage: CoverageResult
    approximation_pct: float
    metrics: dict[str, float] = field(default_factory=dict)
    #: Static-verification report (repro.lint), when requested.
    lint: object | None = None
    #: Per-pass instrumentation of the run (wall time, cache counters).
    trace: FlowTrace | None = None
    #: Resource-governance record (plain dict,
    #: :meth:`repro.guard.BudgetReport.to_dict`) when the run was
    #: budget-governed.
    budget_report: dict | None = None

    def summary(self) -> dict[str, float]:
        """The Table 1/2 row for this run (native JSON-safe types)."""
        return {
            "gates": int(self.original_mapped.gate_count),
            "area_overhead_pct":
                float(self.metrics["area_overhead_pct"]),
            "power_overhead_pct":
                float(self.metrics["power_overhead_pct"]),
            "approximation_pct": float(self.approximation_pct),
            "max_ced_coverage_pct": float(
                100 * self.reliability.max_ced_coverage),
            "ced_coverage_pct": float(self.coverage.coverage),
            "delay_change_pct":
                float(self.metrics["delay_change_pct"]),
            "shared_gates": int(self.assembly.shared_gates),
        }

    def to_dict(self) -> dict:
        """Machine-readable record of the run.

        Everything the tables and run manifests need, as plain JSON
        types — the summary row, the full metrics dict, per-output
        approximation directions, checking provenance, the raw
        fault-campaign counters, and the per-pass flow trace.
        """
        return {
            "circuit": self.original.name,
            "nodes": int(self.original.num_nodes),
            "inputs": len(self.original.inputs),
            "outputs": len(self.original.outputs),
            "summary": self.summary(),
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "directions": {po: int(d) for po, d
                           in self.assembly.directions.items()},
            "engine": self.approx_result.engine,
            **({"error_report": self.approx_result.error_report}
               if self.approx_result.error_report is not None else {}),
            "check_method": self.approx_result.check_method,
            "all_correct": bool(self.approx_result.all_correct),
            "repair_rounds": int(self.approx_result.repair_rounds),
            "checker_pairs": len(self.assembly.checker_pairs),
            "coverage": {
                "runs": int(self.coverage.runs),
                "error_runs": int(self.coverage.error_runs),
                "detected_error_runs":
                    int(self.coverage.detected_error_runs),
                "detected_runs": int(self.coverage.detected_runs),
                "false_alarms": int(self.coverage.false_alarms),
                "golden_invalid": int(self.coverage.golden_invalid),
            },
            **({"trace": self.trace.to_dict()}
               if self.trace is not None else {}),
            **({"lint": self.lint.to_dict()}
               if self.lint is not None else {}),
            **({"budget_report": self.budget_report}
               if self.budget_report is not None else {}),
        }

    def summary_json(self, **dumps_kwargs) -> str:
        """``summary()`` as a JSON document (round-trips losslessly)."""
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.summary(), **dumps_kwargs)


# ----------------------------------------------------------------------
# The CED pipeline as passes
# ----------------------------------------------------------------------
class MapOriginalPass(Pass):
    """Technology-map the original network (the circuit under CED)."""

    name = "map-original"
    provides = ("original_mapped",)
    checkpoint = ("original_mapped",)

    def __init__(self, script: SynthesisScript):
        self.script = script

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        mapped = self.script.run(ctx.network)
        record.stats["gates"] = mapped.gate_count
        return {"original_mapped": mapped}


class ReliabilityPass(Pass):
    """Error-direction profile -> approximation direction per PO."""

    name = "reliability"
    requires = ("original_mapped",)
    provides = ("reliability", "directions")
    checkpoint = ("reliability", "directions")

    def __init__(self, n_words: int, seed: int,
                 directions: dict[str, int] | None):
        self.n_words = n_words
        self.seed = seed
        self.directions = directions

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        reliability = analyze_reliability(
            ctx["original_mapped"], n_words=self.n_words,
            seed=self.seed, ctx=ctx.analysis)
        directions = self.directions if self.directions is not None \
            else reliability.approximations
        record.stats.update({"runs": reliability.runs,
                             "error_runs": reliability.error_runs})
        return {"reliability": reliability, "directions": directions}


class SynthesizeApproxPass(Pass):
    """Approximate synthesis, dispatched through the engine registry.

    ``config.engine`` picks the registered
    :class:`~repro.approx.engine.ApproxEngine`; the engine's own
    flow entry point handles quality policy (the cube engine's
    quality-floor retry ladder, the resub engine's error bound) and
    records engine identity plus error budget spent in the trace.
    """

    name = "synthesize"
    requires = ("directions",)
    provides = ("approx_result", "per_output_pct", "approximation_pct")
    checkpoint = ("approx_result", "per_output_pct",
                  "approximation_pct")

    def __init__(self, config: ApproxConfig, min_approx_pct: float):
        self.config = config
        self.min_approx_pct = min_approx_pct

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        engine = get_engine(self.config.engine)
        approx_result, per_output_pct = engine.synthesize_with_floor(
            ctx.network, ctx["directions"], self.config,
            self.min_approx_pct, ctx=ctx.analysis, record=record,
            budget=ctx.budget)
        approximation_pct = (sum(per_output_pct.values())
                             / len(per_output_pct)) if per_output_pct \
            else 100.0
        return {"approx_result": approx_result,
                "per_output_pct": per_output_pct,
                "approximation_pct": approximation_pct}


class MapApproxPass(Pass):
    """Technology-map the approximate check symbol generator."""

    name = "map-approx"
    requires = ("approx_result",)
    provides = ("approx_mapped",)
    checkpoint = ("approx_mapped",)

    def __init__(self, script: SynthesisScript):
        self.script = script

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        mapped = self.script.run(ctx["approx_result"].approx)
        record.stats["gates"] = mapped.gate_count
        return {"approx_mapped": mapped}


class AssembleCedPass(Pass):
    """Wire checkers and the two-rail checker tree (non-intrusive)."""

    name = "assemble"
    requires = ("original_mapped", "approx_mapped", "directions")
    provides = ("assembly",)
    checkpoint = ("assembly",)

    def __init__(self, share_logic: bool, share_loss_budget: float):
        self.share_logic = share_logic
        self.share_loss_budget = share_loss_budget

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        assembly = build_ced(ctx["original_mapped"],
                             ctx["approx_mapped"], ctx["directions"],
                             share_logic=self.share_logic,
                             share_loss_budget=self.share_loss_budget)
        record.stats.update({
            "shared_gates": assembly.shared_gates,
            "checker_pairs": len(assembly.checker_pairs),
        })
        return {"assembly": assembly}


class CoveragePass(Pass):
    """Stuck-at fault-injection campaign against the CED assembly."""

    name = "coverage"
    requires = ("assembly",)
    provides = ("coverage",)
    checkpoint = ("coverage",)

    def __init__(self, n_words: int, seed: int):
        self.n_words = n_words
        self.seed = seed

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        coverage = evaluate_ced(ctx["assembly"], n_words=self.n_words,
                                seed=self.seed, ctx=ctx.analysis)
        record.stats.update({
            "runs": coverage.runs,
            "error_runs": coverage.error_runs,
            "detected_error_runs": coverage.detected_error_runs,
        })
        return {"coverage": coverage}


class MetricsPass(Pass):
    """Area/power/delay overheads (the Table 1/2 accounting)."""

    name = "metrics"
    requires = ("original_mapped", "approx_mapped", "assembly")
    provides = ("metrics",)
    checkpoint = ("metrics",)

    def __init__(self, n_words: int, seed: int):
        self.n_words = n_words
        self.seed = seed

    def run(self, ctx: FlowContext, record: PassRecord) -> dict:
        original_mapped = ctx["original_mapped"]
        approx_mapped = ctx["approx_mapped"]
        assembly = ctx["assembly"]
        switching = ctx.analysis.switching
        base_power = switching(original_mapped, n_words=self.n_words,
                               seed=self.seed)
        approx_power = switching(approx_mapped, n_words=self.n_words,
                                 seed=self.seed)
        total_power = switching(assembly.netlist, n_words=self.n_words,
                                seed=self.seed)
        base_delay = original_mapped.delay()
        approx_delay = approx_mapped.delay()
        shared = assembly.shared_gates
        metrics = {
            # The paper's accounting: the check symbol generator only
            # (the checkers/TRC tree are conventional CED plumbing,
            # identical across schemes, and excluded — see DESIGN.md).
            "area_overhead_pct": 100.0
            * (approx_mapped.gate_count - shared)
            / max(original_mapped.gate_count, 1),
            "power_overhead_pct": 100.0 * approx_power
            / max(base_power, 1e-9),
            "area_overhead_with_checkers_pct": 100.0
            * assembly.overhead_gates
            / max(original_mapped.gate_count, 1),
            "power_overhead_with_checkers_pct": 100.0
            * (total_power - base_power) / max(base_power, 1e-9),
            "delay_change_pct": 100.0 * (approx_delay - base_delay)
            / max(base_delay, 1e-9),
            "original_delay": base_delay,
            "approx_delay": approx_delay,
            "original_gates": float(original_mapped.gate_count),
            "approx_gates": float(approx_mapped.gate_count),
            "overhead_gates": float(assembly.overhead_gates),
        }
        return {"metrics": metrics}


def ced_flow_passes(config: ApproxConfig,
                    script: SynthesisScript,
                    share_logic: bool, share_loss_budget: float,
                    reliability_words: int, coverage_words: int,
                    power_words: int, seed: int,
                    directions: dict[str, int] | None,
                    min_approx_pct: float) -> list[Pass]:
    """The standard CED pipeline, in dependency order."""
    return [
        MapOriginalPass(script),
        ReliabilityPass(reliability_words, seed, directions),
        SynthesizeApproxPass(config, min_approx_pct),
        MapApproxPass(script),
        AssembleCedPass(share_logic, share_loss_budget),
        CoveragePass(coverage_words, seed + 7),
        MetricsPass(power_words, seed),
    ]


def _checkpoint_setup(network: Network, checkpoint_dir,
                      params: dict) -> tuple[object | None, str | None]:
    """Open the content-addressed store and derive the flow token."""
    if checkpoint_dir is None:
        return None, None
    # Imported lazily: repro.lab imports the ced layer.
    from repro.lab.cache import ArtifactStore
    store = ArtifactStore(checkpoint_dir)
    token = flow_token(write_blif(network), params)
    return store, token


def run_ced_flow(network: Network,
                 config: ApproxConfig | None = None,
                 script: SynthesisScript = QUICK_SCRIPT,
                 share_logic: bool = False,
                 share_loss_budget: float = 0.10,
                 reliability_words: int = 4,
                 coverage_words: int = 4,
                 power_words: int = 8,
                 seed: int = 2008,
                 directions: dict[str, int] | None = None,
                 min_approx_pct: float = 25.0,
                 lint_level: str = "off",
                 certificate_dir=None,
                 ctx: AnalysisContext | None = None,
                 checkpoint_dir=None,
                 proof_cache_dir=None,
                 budget: Budget | None = None,
                 chaos=(),
                 on_pass=None
                 ) -> CedFlowResult:
    """Run the complete approximate-logic CED flow on a network.

    ``directions`` overrides reliability analysis when provided (useful
    for controlled experiments); otherwise the dominant error direction
    of every output picks its approximation type, as in the paper.

    ``min_approx_pct`` is a per-output quality floor: when an output's
    approximation percentage falls below it (e.g. the cone collapsed to
    a constant), synthesis is retried with progressively gentler
    settings — the practical face of the paper's fine-grained
    overhead/coverage knob.  Set to 0 to disable.

    ``lint_level`` runs the static verifier (repro.lint) over the
    finished flow: "warn" attaches the report (with implication
    certificates) to the result, "strict" also raises LintError on
    error diagnostics.  ``certificate_dir`` writes the certificates as
    JSON files.

    ``ctx`` supplies a shared :class:`~repro.flow.AnalysisContext`
    (one is created per run otherwise); ``checkpoint_dir`` persists
    each pass's outputs to a content-addressed store there, so an
    identical re-run — including one that was killed mid-pipeline —
    resumes after the last completed pass.

    ``proof_cache_dir`` attaches a cross-process proof cache
    (:class:`repro.lab.proofs.ProofCache`): per-PO implication verdicts
    and approximation percentages are keyed by cone fingerprint, so a
    warm run serves them from disk instead of re-proving.  Only exact
    (BDD/SAT) verdicts are cached, keeping results bit-identical with
    or without the cache; the knob is deliberately *not* part of the
    checkpoint token for the same reason.

    ``budget`` makes the run resource-governed: synthesis walks the
    degradation ladder (BDD -> SAT -> conformance-only) instead of
    raising on overflow/exhaustion, every pass polls the deadline, and
    the result carries a structured ``budget_report``.  A ``deadline_s``
    of 0 fails fast at flow entry with
    :class:`~repro.guard.DeadlineExceeded`.  ``chaos`` injects
    deterministic resource faults (see :mod:`repro.guard.chaos`) for
    testing; it implies a budget.

    ``on_pass`` is a live-progress observer: it is called with each
    completed :class:`~repro.flow.PassRecord` (including the lint
    record) right after the record joins the trace.  The serve layer
    streams these to clients; the hook must not mutate the record.
    """
    if lint_level not in ("off", "warn", "strict"):
        raise ValueError(f"unknown lint level {lint_level!r}")
    chaos = parse_chaos(chaos)
    budget = apply_chaos(budget, chaos)
    config = config or ApproxConfig(seed=seed)
    analysis = ctx if ctx is not None else AnalysisContext()
    if proof_cache_dir is not None:
        # Imported lazily: repro.lab imports the ced layer.
        from pathlib import Path

        from repro.lab.proofs import ProofCache
        if analysis.proofs is None or \
                analysis.proofs.root != Path(proof_cache_dir):
            analysis.proofs = ProofCache(proof_cache_dir)
    params = {
        "script": script.name,
        "config": dataclasses.asdict(config),
        "share_logic": share_logic,
        "share_loss_budget": share_loss_budget,
        "reliability_words": reliability_words,
        "coverage_words": coverage_words,
        "power_words": power_words,
        "seed": seed,
        "directions": directions,
        "min_approx_pct": min_approx_pct,
        # Budget/chaos separate the checkpoint key space: a governed
        # (possibly degraded) run must never be resumed from — or
        # poison — an ungoverned run's checkpoints.
        "budget": budget.describe() if budget is not None else None,
        "chaos": list(chaos),
    }
    if budget is not None:
        budget.start()
        # deadline_s=0 contract: fail fast with a structured error
        # before any pass runs.
        budget.check_deadline("flow entry")
        analysis.guard = budget
    try:
        store, token = _checkpoint_setup(network, checkpoint_dir, params)
        passes = ced_flow_passes(config, script, share_logic,
                                 share_loss_budget, reliability_words,
                                 coverage_words, power_words, seed,
                                 directions, min_approx_pct)
        flow_ctx = FlowContext(network, params=params, analysis=analysis,
                               budget=budget)
        try:
            PassManager(passes, store=store, token=token,
                        on_record=on_pass).run(flow_ctx)
        finally:
            # Lint (and any later consumer of the shared context) re-proves
            # from scratch; an expired deadline must not abort it.
            analysis.guard = None

        result = CedFlowResult(
            original=network,
            original_mapped=flow_ctx["original_mapped"],
            approx_result=flow_ctx["approx_result"],
            approx_mapped=flow_ctx["approx_mapped"],
            assembly=flow_ctx["assembly"],
            reliability=flow_ctx["reliability"],
            coverage=flow_ctx["coverage"],
            approximation_pct=flow_ctx["approximation_pct"],
            metrics=flow_ctx["metrics"],
            trace=flow_ctx.trace)
        if budget is not None:
            report = budget.report.to_dict()
            flow_ctx.trace.budget = report
            result.budget_report = report
        if lint_level != "off":
            # Imported lazily: repro.lint imports the approx layer.  Lint
            # runs outside the manager (it consumes the assembled result)
            # but is traced like any pass, reusing the shared pair BDDs.
            from repro.lint import LintError, lint_flow
            record = PassRecord(name="lint")
            before = analysis.snapshot()
            start = time.perf_counter()
            result.lint = lint_flow(result, certificate_dir=certificate_dir,
                                    ctx=analysis)
            record.wall_time_s = time.perf_counter() - start
            record.cache = AnalysisContext.delta(before, analysis.snapshot())
            record.stats["diagnostics"] = len(result.lint.diagnostics)
            flow_ctx.trace.add(record)
            if on_pass is not None:
                on_pass(record)
            if lint_level == "strict" and not result.lint.ok:
                raise LintError(result.lint)
        return result
    finally:
        # Nothing can hit this flow's identity-keyed state again (every
        # caller that reuses a context parses a fresh network), so a
        # context kept across flows must not pin it.
        analysis.release()
