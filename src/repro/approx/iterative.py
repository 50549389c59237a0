"""The iterative cube-selection algorithm (paper Sec 2.2).

Pipeline:

1. assign types (Sec 2.1.1 preprocessing);
2. *approximation of SOPs*: every node's phase SOP is reduced by freely
   discarding insignificant cubes;
3. *ensuring correctness*: primary outputs are checked for the
   implication condition by :class:`~repro.approx.prover.PairSemantics`
   (the prover lint uses too); incorrect outputs trigger a backward
   traversal to *sources* of incorrect approximation — incorrectly
   approximated nodes whose fanins are all correct — which are repaired
   with ODC-based cube selection first and exact cube selection second.

Exact selection at a source provably restores correctness (the paper's
theorem), so the loop terminates; a round bound with a restore-exact
fallback guards the simulation-checked path.

:func:`_ladder` turns ``config.check`` and the budget into the
prover's engine ladder.  Ungoverned, ``auto`` checks on global BDDs
and falls to simulation when they overflow.  Under a
:class:`repro.guard.Budget` the check runs as a *degradation ladder*
(DESIGN.md §12): global BDDs first, incremental SAT when the BDDs
overflow their capped budget, and — when SAT's conflict budget or the
deadline runs out too — a last-resort rebuild using only exact
per-node conformance selection, which is correct by construction (the
paper's implication theorem) and needs no checking engine at all.  The
prover records each rung in the budget's
:class:`~repro.guard.BudgetReport`; with no budget, every code path is
bit-identical to the ungoverned flow.  Per-PO verdicts are served from
and stored in the proof cache by the prover; a run whose every output
is served builds no engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.bdd import BddOverflowError
from repro.cubes import Cover, minimize
from repro.guard import Budget, DeadlineExceeded
from repro.network import (Network, eliminate, propagate_constants,
                           strash, sweep, trim_unread_fanins)
from repro.sat.solver import SatBudgetExhausted, require_decided

from repro.flow import AnalysisContext

from .config import ApproxConfig
from .cube_selection import (exact_select, implement_phase, odc_select,
                             phase_cover)
from .prover import PairSemantics
from .types import NodeType, assign_types


@dataclass
class ApproxResult:
    """Output of approximate synthesis."""

    approx: Network
    types: dict[str, NodeType]
    output_approximations: dict[str, int]
    #: Per-output correctness: True means the implication was verified
    #: (exactly under BDD checking, statistically under simulation).
    correctness: dict[str, bool]
    check_method: str
    repair_rounds: int = 0
    repaired_nodes: dict[str, str] = field(default_factory=dict)
    dropped_cubes: int = 0
    restored_cones: list[str] = field(default_factory=list)
    #: Static-verification report, when ApproxConfig.lint_level != "off".
    lint: object | None = None
    #: Registered engine that produced this result.
    engine: str = "cube"
    #: Error-constrained engines attach the final
    #: :meth:`~repro.approx.metrics.ErrorEvaluation.to_dict` here;
    #: implication-exact engines leave it None.
    error_report: dict | None = None

    @property
    def all_correct(self) -> bool:
        return all(self.correctness.values())


def synthesize_approximation(network: Network,
                             output_approximations: dict[str, int],
                             config: ApproxConfig | None = None,
                             ctx: AnalysisContext | None = None,
                             budget: Budget | None = None
                             ) -> ApproxResult:
    """Synthesize an approximate logic circuit for ``network``.

    ``output_approximations`` maps every primary output to 0 or 1: the
    approximation direction (0-approximation detects 0->1 errors at that
    output, 1-approximation detects 1->0 errors).  The returned network
    shares the primary-input names and output names of the original.

    ``ctx`` shares analysis state (global BDDs, probabilities) across
    calls and flow stages; results are bit-identical with or without it
    (BDD canonicity — see :mod:`repro.flow.analysis`).

    ``budget`` enables resource governance: the correctness check runs
    as a degradation ladder (BDD -> SAT -> conformance-only rebuild)
    instead of letting an engine exhaust raise, with every rung
    recorded in ``budget.report``.  With ``budget=None`` (the default)
    behavior is bit-identical to the ungoverned algorithm.
    """
    config = config or ApproxConfig()
    ctx = ctx if ctx is not None else AnalysisContext()
    if budget is not None:
        budget.start()
        ctx.guard = budget
    probs = ctx.probabilities(network, n_words=config.prob_words,
                              seed=config.seed)
    types = assign_types(network, output_approximations, config, probs)

    approx = network.copy("approx")
    dropped = _reduce_all_sops(approx, types, probs, config)

    repaired: dict[str, str] = {}
    repair_stage: dict[str, int] = {}
    restored: list[str] = []
    rounds = 0
    try:
        if budget is not None:
            budget.check_deadline("synthesize entry")
        prover = PairSemantics(
            network, approx, _ladder(config, budget),
            bdd_node_budget=config.bdd_node_budget,
            sat_conflict_budget=None, ctx=ctx, budget=budget,
            sim_words=config.sim_check_words, seed=config.seed)
        max_rounds = config.max_repair_rounds if budget is None \
            else budget.repair_cap(config.max_repair_rounds)
        while rounds < max_rounds:
            if budget is not None:
                budget.check_deadline("repair round")
            incorrect = [po for po in network.outputs
                         if not _holds(prover, po,
                                       output_approximations[po])]
            if not incorrect:
                break
            rounds += 1
            sources = _find_sources(network, prover, types, incorrect)
            if not sources:
                # POs disagree but no internal source is isolatable
                # (can happen under statistical checking): restore the
                # cones.
                for po in incorrect:
                    _restore_cone(network, approx, po)
                    restored.append(po)
                prover.refresh()
                continue
            for name in sources:
                stage = repair_stage.get(name, 0)
                action = _repair_node(network, approx, types, name,
                                      stage, config)
                repaired[name] = action
                repair_stage[name] = stage + 1
            prover.refresh()
        else:
            # Round budget exhausted: make remaining outputs exact.
            for po in network.outputs:
                if not _holds(prover, po, output_approximations[po]):
                    _restore_cone(network, approx, po)
                    restored.append(po)
            prover.refresh()

        correctness = {po: _holds(prover, po, output_approximations[po])
                       for po in network.outputs}
        check_method = prover.conclude()
    except (BddOverflowError, SatBudgetExhausted,
            DeadlineExceeded) as exc:
        if budget is None:
            raise
        # Last rung of the degradation ladder: rebuild from the
        # original applying only exact per-node conformance selection —
        # correct by construction (the paper's implication theorem), so
        # no checking engine is needed.  Partial repairs are discarded.
        _record_engine_failure(budget, exc)
        approx, dropped = _conformance_fallback(network, types, probs,
                                                config, budget)
        correctness = {po: True for po in network.outputs}
        check_method = "conformance"
    _resynthesize(approx, budget)
    result = ApproxResult(
        approx=approx,
        types=types,
        output_approximations=dict(output_approximations),
        correctness=correctness,
        check_method=check_method,
        repair_rounds=rounds,
        repaired_nodes=repaired,
        dropped_cubes=dropped,
        restored_cones=restored)
    if config.lint_level != "off":
        # Imported lazily: repro.lint imports repro.approx at top level.
        from repro.lint import LintError, lint_approx_result
        result.lint = lint_approx_result(network, result)
        if config.lint_level == "strict" and not result.lint.ok:
            raise LintError(result.lint)
    return result


def _resynthesize(approx: Network, budget: Budget | None = None) -> None:
    """Function-preserving cleanup of the approximate network.

    Cube selection leaves constants, unread fanins, single-fanout
    chains, and redundant SOPs behind; re-optimizing them is where much
    of the paper's area saving comes from (their flow hands the
    approximate network back to the synthesis tool).

    An expired ``budget`` deadline truncates the per-node minimization
    and skips the eliminate sweep: both are optimizations, so the
    result stays functionally identical, just less compact.
    """
    governed = budget is not None
    if governed and budget.expired:
        budget.report.skip("resynthesize", "deadline expired")
    propagate_constants(approx)
    trim_unread_fanins(approx)
    sweep(approx)
    for name in approx.topological_order():
        node = approx.nodes[name]
        if node.fanins:
            approx.replace_cover(
                name, minimize(node.cover, budget=budget))
    trim_unread_fanins(approx)
    if not (governed and budget.expired):
        eliminate(approx, max_support=8, max_cubes=12)
    propagate_constants(approx)
    strash(approx)
    sweep(approx)


def _conformance_fallback(network: Network, types: dict[str, NodeType],
                          probs: dict[str, float], config: ApproxConfig,
                          budget: Budget) -> tuple[Network, int]:
    """The ladder's last rung: conformance-only re-synthesis.

    Rebuilds the approximation from the original, reducing ZERO/ONE
    nodes with exact conformance selection only and keeping EX/DC nodes
    exact.  By the paper's implication theorem every node (hence every
    PO) is then a correct approximation of its type by construction —
    no BDD, SAT, or simulation check is required, so this rung cannot
    itself exhaust an engine.
    """
    fallback = dataclasses.replace(config, stage1="conformance",
                                   collapse_dc=False,
                                   reduce_ex_nodes=False)
    approx = network.copy("approx")
    dropped = _reduce_all_sops(approx, types, probs, fallback)
    budget.report.rung("conformance", "selected")
    return approx, dropped


def _record_engine_failure(budget: Budget, exc: Exception) -> None:
    """Record why the checking engine gave up, without duplicating the
    ladder events already written at the failure site."""
    report = budget.report
    if isinstance(exc, BddOverflowError):
        resource, event = "bdd_nodes", ("bdd", "overflow")
    elif isinstance(exc, SatBudgetExhausted):
        resource, event = "sat_conflicts", ("sat", "exhausted")
    else:
        resource, event = "deadline", None
        if report.engine is not None:
            event = (report.engine, "deadline")
    report.exhaust(resource, message=str(exc))
    if event is not None:
        last = report.ladder[-1] if report.ladder else None
        if last is None or (last["engine"], last["outcome"]) != event:
            report.rung(*event)


# ----------------------------------------------------------------------
# Stage 1: free SOP reduction
# ----------------------------------------------------------------------
def _reduce_all_sops(approx: Network, types: dict[str, NodeType],
                     probs: dict[str, float],
                     config: ApproxConfig) -> int:
    """Stage-1 reduction of every node's phase SOP.

    Type-0/1 nodes go through cube selection (conformance and/or
    significance dropping, per ``config.stage1``); DC nodes collapse to
    their most likely constant; EX nodes optionally get significance
    dropping only (any damage is repaired later).
    """
    dropped = 0
    for name in approx.topological_order():
        node = approx.nodes[name]
        node_type = types[name]
        if not node.fanins:
            continue
        if node_type is NodeType.DC and config.collapse_dc:
            value = probs[name] >= 0.5
            dropped += len(node.cover)
            approx.replace_node(
                name, [], Cover.one(0) if value else Cover.zero(0))
            continue
        if node_type is NodeType.EX and not config.reduce_ex_nodes:
            continue
        fanin_probs = [probs[f] for f in node.fanins]
        phase = phase_cover(node.cover, node_type)
        before = len(phase)
        if node_type in (NodeType.ZERO, NodeType.ONE) and \
                config.stage1 in ("conformance", "both"):
            fanin_types = [NodeType.EX if approx.is_input(f)
                           else types[f] for f in node.fanins]
            phase = exact_select(phase, fanin_types)
        if config.stage1 in ("significance", "both") and len(phase) > 1:
            phase, _ = _drop_insignificant(phase, fanin_probs, config)
        dropped += before - len(phase)
        approx.replace_cover(name, implement_phase(phase, node_type))
    trim_unread_fanins(approx)
    return dropped


def _drop_insignificant(phase: Cover, fanin_probs: list[float],
                        config: ApproxConfig) -> tuple[Cover, int]:
    if config.cube_drop_threshold <= 0.0 or len(phase) <= 1:
        return phase, 0
    total = max(phase.probability(fanin_probs), 1e-12)
    kept = []
    for cube in phase.cubes:
        mass = Cover(phase.n, [cube]).probability(fanin_probs)
        if mass / total >= config.cube_drop_threshold:
            kept.append(cube)
    if not kept:
        # Keep the single most significant cube rather than collapsing
        # the node to a constant outright; repair may still shrink it.
        best = max(phase.cubes, key=lambda c: Cover(
            phase.n, [c]).probability(fanin_probs))
        kept = [best]
    return Cover(phase.n, kept), len(phase) - len(kept)


# ----------------------------------------------------------------------
# Stage 2: correctness
# ----------------------------------------------------------------------
def _ladder(config: ApproxConfig, budget: Budget | None) -> tuple[str, ...]:
    """The prover's engines, in order.

    Ungoverned, ``auto`` falls from BDDs to simulation and a pinned
    engine stands alone.  Under a budget (the degradation ladder,
    DESIGN.md §12) BDDs fall to SAT and an exhausted SAT to the
    caller's conformance rebuild: graceful completion outranks a
    ``bdd`` pin, and only ``check="sim"`` keeps the statistical rung.
    """
    if config.check == "sim":
        return ("sim",)
    if budget is None:
        return {"sat": ("sat",), "bdd": ("bdd",)}.get(config.check,
                                                       ("bdd", "sim"))
    if "sat-exhausted" in budget.report.chaos:
        # The chaos rig must hit the SAT rung deterministically; BDDs
        # that happen to fit their cap would mask the injection.
        budget.report.skip("bdd checker",
                          "chaos sat-exhausted routes past the BDD rung")
        return ("sat",)
    return ("sat",) if config.check == "sat" else ("bdd", "sat")


def _holds(prover: PairSemantics, name: str, direction: int) -> bool:
    # An undecided SAT query raises, so the governed ladder degrades
    # instead of reading "unknown" as a verdict.
    return require_decided(prover.implication(name, direction).holds,
                           f"implication check for {name!r}")


def node_correct(prover: PairSemantics, types: dict[str, NodeType],
                 name: str) -> bool:
    """Whether ``name`` is a correct approximation of its type."""
    node_type = types[name]
    if node_type is NodeType.DC:
        return True
    if node_type is NodeType.EX:
        return prover.equal(name)
    return _holds(prover, name, 1 if node_type is NodeType.ONE else 0)


def _find_sources(network: Network, prover: PairSemantics,
                  types: dict[str, NodeType],
                  incorrect_pos: list[str]) -> list[str]:
    """Sources of incorrect approximation in the cones of bad outputs."""
    cone = network.transitive_fanin(
        [po for po in incorrect_pos if not network.is_input(po)])
    sources = []
    for name in network.topological_order():
        if name not in cone or node_correct(prover, types, name):
            continue
        node = network.nodes[name]
        if all(network.is_input(f) or node_correct(prover, types, f)
               for f in node.fanins):
            sources.append(name)
    return sources


def _repair_node(network: Network, approx: Network,
                 types: dict[str, NodeType], name: str, stage: int,
                 config: ApproxConfig) -> str:
    """Repair one source node.  Returns the action taken.

    The repair ladder: ODC-based cube selection, then exact cube
    selection (provably correct when the fanins are correct), then —
    should a node still be incorrect, which can happen for EX nodes
    whose fanins are only directionally correct — restoring its entire
    transitive fanin cone to exact logic.  The final rung guarantees
    progress unconditionally.
    """
    node_type = types[name]
    original = network.nodes[name]
    if node_type in (NodeType.EX, NodeType.DC):
        if stage == 0:
            approx.replace_node(name, list(original.fanins),
                                original.cover.copy())
            return "restore"
        _restore_cone(network, approx, name)
        return "restore-cone"
    fanin_types = [NodeType.EX if network.is_input(f) else types[f]
                   for f in original.fanins]
    phase = phase_cover(original.cover, node_type)
    if stage == 0 and config.odc_in_repair:
        selected = odc_select(phase, fanin_types)
        approx.replace_node(name, list(original.fanins),
                            implement_phase(selected, node_type))
        return "odc"
    if stage <= 1:
        selected = exact_select(phase, fanin_types)
        approx.replace_node(name, list(original.fanins),
                            implement_phase(selected, node_type))
        return "exact"
    _restore_cone(network, approx, name)
    return "restore-cone"


def _restore_cone(network: Network, approx: Network, po: str) -> None:
    """Make the whole cone of ``po`` exact (the always-correct fallback)."""
    if network.is_input(po):
        return
    cone = network.transitive_fanin([po])
    node_type = type(next(iter(network.nodes.values())))
    touched = []
    for name in network.topological_order():
        if name in cone:
            node = network.nodes[name]
            # Restoring original nodes cannot create cycles (the
            # original network is acyclic), so the per-node
            # replace_node acyclicity re-check is skipped.
            approx.nodes[name] = node_type(name, list(node.fanins),
                                           node.cover.copy())
            touched.append(name)
    if touched:
        approx._invalidate(touched=touched)
