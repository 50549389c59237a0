"""Lint engine: contexts, entry points, and the strict-mode error.

Three entry points, one per scope:

* :func:`lint_network` — structural rules over one network;
* :func:`lint_pair` — structural rules over both networks plus the
  approximation-semantics rules (and per-PO implication proofs with
  optional certificates);
* :func:`lint_flow` — everything above plus the CED assembly rules,
  over a complete :class:`~repro.ced.flow.CedFlowResult`.
"""

from __future__ import annotations

from repro.approx.prover import PairSemantics
from repro.network import Network

from . import analyzerules as _analyzerules  # noqa: F401 (registers rules)
from . import approxrules as _approxrules    # noqa: F401
from . import errorrules as _errorrules      # noqa: F401
from . import flowrules as _flowrules        # noqa: F401
from . import structural as _structural      # noqa: F401
from .certificates import (build_certificate, build_error_certificate,
                           write_certificates)
from .diagnostics import Diagnostic, LintReport
from .registry import rules_for

LINT_LEVELS = ("off", "warn", "strict")


class LintError(RuntimeError):
    """Raised by strict-mode guards when error diagnostics exist."""

    def __init__(self, report: LintReport):
        self.report = report
        errors = report.errors()
        rules = sorted({d.rule for d in errors})
        super().__init__(
            f"lint found {len(errors)} error(s) ({', '.join(rules)})")


class NetworkContext:
    """Context for structural rules over one network."""

    def __init__(self, network: Network, circuit: str | None = None):
        self.network = network
        self.circuit = circuit if circuit is not None else network.name
        self._analyses = None

    def analyses(self):
        """Lazy :class:`~repro.analyze.NetworkAnalyses` bundle.

        Built at most once per lint run; the dataflow-backed rules all
        share the same fixpoint solutions.  Returns None for ill-formed
        networks (undefined fanins, combinational cycles) — those are
        the structural rules' findings, and the fixpoint engine needs a
        well-defined DAG to run on at all.
        """
        if self._analyses is None:
            net = self.network
            broken = any(not net.signal_exists(f)
                         for node in net.nodes.values()
                         for f in node.fanins) or self.stuck_nodes()
            if broken:
                return None
            from repro.analyze import NetworkAnalyses
            self._analyses = NetworkAnalyses(net)
        return self._analyses

    def stuck_nodes(self) -> set[str]:
        """Nodes on (or fed only through) a combinational cycle.

        Unlike ``Network.topological_order`` this ignores undefined
        fanins, so missing signals surface as ``net.undefined-fanin``
        rather than masquerading as a cycle.
        """
        net = self.network
        defined = set(net.nodes)
        pending: dict[str, int] = {}
        readers: dict[str, list[str]] = {}
        ready: list[str] = []
        for name, node in net.nodes.items():
            deps = [f for f in node.fanins if f in defined]
            pending[name] = len(deps)
            for dep in deps:
                readers.setdefault(dep, []).append(name)
            if not deps:
                ready.append(name)
        placed = 0
        while ready:
            name = ready.pop()
            placed += 1
            for reader in readers.get(name, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
        if placed == len(net.nodes):
            return set()
        return {n for n, count in pending.items() if count > 0}


class PairContext:
    """Context for approximation-semantics rules over a pair."""

    def __init__(self, original: Network, approx: Network,
                 types: dict, directions: dict[str, int],
                 claimed_method: str | None = None,
                 claimed_correct: dict[str, bool] | None = None,
                 circuit: str | None = None,
                 bdd_node_budget: int = 300_000,
                 sat_conflict_budget: int = 200_000,
                 ctx=None, error_spec=None, error_report=None):
        self.original = original
        self.approx = approx
        self.types = types
        self.directions = directions
        self.claimed_method = claimed_method
        self.claimed_correct = claimed_correct or {}
        self.circuit = circuit if circuit is not None else original.name
        self.bdd_node_budget = bdd_node_budget
        self.sat_conflict_budget = sat_conflict_budget
        self.ctx = ctx
        #: ErrorSpec of an error-constrained pair (engine "resub" and
        #: friends): switches the ERROR-severity contract from
        #: pair.po-implication to the pair.error-bound family.
        self.error_spec = error_spec
        #: The synthesis run's own error report (ApproxResult
        #: .error_report), cross-checked by pair.error-claim.
        self.error_report = error_report
        #: The lint run's own re-measurement (ErrorEvaluation), filled
        #: by the error-bound rules; feeds certificate emission.
        self._error_evaluation = None
        self._semantics: PairSemantics | None = None

    def semantics(self) -> PairSemantics:
        """The pair's prover: BDDs first, SAT when they overflow."""
        if self._semantics is None:
            self._semantics = PairSemantics(
                self.original, self.approx, ("bdd", "sat"),
                bdd_node_budget=self.bdd_node_budget,
                sat_conflict_budget=self.sat_conflict_budget,
                ctx=self.ctx)
        return self._semantics


class FlowContext:
    """Context for CED-assembly rules."""

    def __init__(self, assembly, circuit: str | None = None):
        self.assembly = assembly
        self.circuit = circuit if circuit is not None \
            else assembly.original.name


def _run_scope(scope: str, ctx) -> list[Diagnostic]:
    sink: list[Diagnostic] = []
    for lint_rule in rules_for(scope):
        lint_rule.run(ctx, sink)
    # Deterministic order regardless of rule iteration internals: SARIF
    # fingerprint baselines and golden reports must not churn when a
    # rule reorders its emissions.
    sink.sort(key=lambda d: (d.rule, d.circuit, d.location, d.message))
    return sink


def lint_network(network: Network,
                 circuit: str | None = None) -> LintReport:
    """Structural lint of one network."""
    ctx = NetworkContext(network, circuit)
    return LintReport(diagnostics=_run_scope("network", ctx))


def lint_pair(original: Network, approx: Network, types: dict,
              directions: dict[str, int],
              claimed_method: str | None = None,
              claimed_correct: dict[str, bool] | None = None,
              circuit: str | None = None,
              certificates: bool = False,
              bdd_node_budget: int = 300_000,
              sat_conflict_budget: int = 200_000,
              ctx=None, error_spec=None,
              error_report=None) -> LintReport:
    """Structural + approximation-semantics lint of a pair.

    ``claimed_method``/``claimed_correct`` are the synthesis run's own
    claims (``ApproxResult.check_method``/``.correctness``); a refuted
    implication is an error only when an exact proof was claimed.
    ``error_spec`` marks an error-constrained pair: the per-PO
    implication rule stands down and the ``pair.error-bound`` family
    re-measures the metric against the bound instead.  With
    ``certificates=True`` every proved implication — and, for
    error-constrained pairs, the soundly re-measured ``error <= bound``
    verdict — is recorded as an offline-checkable certificate in
    ``report.certificates``.
    """
    name = circuit if circuit is not None else original.name
    report = lint_network(original, circuit=name)
    report.extend(lint_network(approx, circuit=f"{name}/approx"))
    pair_ctx = PairContext(original, approx, types, directions,
                           claimed_method=claimed_method,
                           claimed_correct=claimed_correct, circuit=name,
                           bdd_node_budget=bdd_node_budget,
                           sat_conflict_budget=sat_conflict_budget,
                           ctx=ctx, error_spec=error_spec,
                           error_report=error_report)
    report.diagnostics.extend(_run_scope("pair", pair_ctx))
    if certificates:
        verdicts = pair_ctx.semantics().verdicts
        for (po, direction), proof in verdicts.items():
            if proof.holds is True and not proof.stats.get("trivial"):
                report.certificates.append(build_certificate(
                    original, approx, po, direction, proof))
        evaluation = pair_ctx._error_evaluation
        if evaluation is not None and evaluation.sound \
                and evaluation.within:
            report.certificates.append(build_error_certificate(
                original, approx, evaluation, circuit=name))
    return report


def lint_approx_result(original: Network, result,
                       **kwargs) -> LintReport:
    """:func:`lint_pair` with the claims taken from an ApproxResult."""
    error_report = getattr(result, "error_report", None)
    error_spec = None
    if error_report is not None:
        from repro.approx.config import ErrorSpec
        error_spec = ErrorSpec(
            metric=error_report["metric"],
            bound=error_report["bound"],
            exact_threshold=int(error_report.get(
                "budget_spent", {}).get("exact_threshold", 12)))
    return lint_pair(original, result.approx, result.types,
                     result.output_approximations,
                     claimed_method=result.check_method,
                     claimed_correct=result.correctness,
                     error_spec=error_spec, error_report=error_report,
                     **kwargs)


def lint_assembly(assembly, circuit: str | None = None) -> LintReport:
    """CED-assembly rules only (non-intrusiveness, checkers, TRC)."""
    ctx = FlowContext(assembly, circuit=circuit)
    return LintReport(diagnostics=_run_scope("flow", ctx))


def lint_flow(flow, certificate_dir=None, certificates: bool = True,
              circuit: str | None = None,
              bdd_node_budget: int = 300_000,
              sat_conflict_budget: int = 200_000,
              ctx=None) -> LintReport:
    """Full lint of a :class:`~repro.ced.flow.CedFlowResult`.

    Runs the pair lint on the original/approximate networks (with
    implication certificates) and the assembly rules on the CED
    netlist.  ``certificate_dir`` additionally writes each certificate
    as a JSON file.
    """
    name = circuit if circuit is not None else flow.original.name
    report = lint_approx_result(
        flow.original, flow.approx_result, circuit=name,
        certificates=certificates, bdd_node_budget=bdd_node_budget,
        sat_conflict_budget=sat_conflict_budget, ctx=ctx)
    report.extend(lint_assembly(flow.assembly, circuit=name))
    if certificate_dir is not None and report.certificates:
        write_certificates(report.certificates, certificate_dir)
    return report
