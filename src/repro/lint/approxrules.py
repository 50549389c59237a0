"""Approximation-semantics lint rules over an original/approximate pair.

Layer 2 of the verifier: the type assignment (Sec 2.1.1) and cube
selection (Sec 2.1.2) invariants.  Internal-node rules are warnings by
design — the synthesis loop only *guarantees* the per-PO implication
(Sec 2.2); internal nodes may be individually "incorrect" yet globally
masked, which is legitimate.  The per-PO implication itself
(``pair.po-implication``) is the error-severity rule, re-proved from
scratch by :class:`~repro.approx.prover.PairSemantics`.
"""

from __future__ import annotations

from repro.approx.cube_selection import (conforms, feasible_subspace,
                                         phase_cover)
from repro.approx.types import NodeType
from repro.bdd import BddManager, BddOverflowError
from repro.lab.proofs import EXACT_ENGINES

from .diagnostics import Severity
from .registry import rule

#: Local per-node checks build a BDD over the node's fanins; beyond
#: this width they are skipped (soundness is unaffected — these are
#: warning-level redundancy checks, and real covers stay narrow).
MAX_LOCAL_VARS = 16


@rule("pair.io-mismatch", "pair", Severity.ERROR,
      "approximate network shares the original PI/PO names")
def io_mismatch(ctx, emit):
    if set(ctx.approx.inputs) != set(ctx.original.inputs):
        extra = sorted(set(ctx.approx.inputs) - set(ctx.original.inputs))
        missing = sorted(set(ctx.original.inputs)
                         - set(ctx.approx.inputs))
        emit(f"primary inputs differ (extra: {extra[:5]}, "
             f"missing: {missing[:5]})",
             hint="approximate synthesis must keep the PI space")
    if list(ctx.approx.outputs) != list(ctx.original.outputs):
        emit(f"primary outputs differ: {ctx.approx.outputs[:5]} vs "
             f"{ctx.original.outputs[:5]}")


@rule("pair.direction-missing", "pair", Severity.ERROR,
      "every primary output has an approximation direction")
def direction_missing(ctx, emit):
    for po in ctx.original.outputs:
        if po not in ctx.directions:
            emit(f"output {po!r} has no approximation direction",
                 location=f"po:{po}")


@rule("pair.direction-value", "pair", Severity.ERROR,
      "approximation directions are 0 or 1")
def direction_value(ctx, emit):
    for po, direction in ctx.directions.items():
        if direction not in (0, 1):
            emit(f"direction for {po!r} is {direction!r}, not 0/1",
                 location=f"po:{po}")


@rule("pair.untyped-node", "pair", Severity.ERROR,
      "the type assignment covers every original node")
def untyped_node(ctx, emit):
    for name in ctx.original.nodes:
        if name not in ctx.types:
            emit(f"node {name!r} has no assigned type",
                 location=f"node:{name}",
                 hint="re-run assign_types on the original network")


@rule("pair.po-type", "pair", Severity.WARNING,
      "PO driver types are consistent with the chosen directions")
def po_type(ctx, emit):
    # resolve_type can never answer DC or the opposite direction for a
    # node that received a PO request, so such a type is inconsistent.
    for po in ctx.original.outputs:
        if ctx.original.is_input(po) or po not in ctx.types:
            continue
        direction = ctx.directions.get(po)
        if direction not in (0, 1):
            continue
        allowed = {NodeType.ONE if direction == 1 else NodeType.ZERO,
                   NodeType.EX}
        if ctx.types[po] not in allowed:
            emit(f"output {po!r} is typed {ctx.types[po].value} but has "
                 f"direction {direction}",
                 location=f"po:{po}",
                 hint="PO requests make resolve_type answer the "
                      "direction's type or EX")


@rule("pair.dc-read", "pair", Severity.WARNING,
      "DC-typed fanins are read only where Eq. 1 permits")
def dc_read(ctx, emit):
    # Conforming cubes leave DC fanins unread (Sec 2.1.2); Eq. 1 only
    # permits reads where the fanin is locally unobservable.  The check
    # runs on the *phase* cover the selection actually produced — a
    # 0-approximated node stores its re-complemented cover, which may
    # legitimately re-introduce literals — and skips nodes kept (or
    # restored) exact.
    for name, node in ctx.approx.nodes.items():
        dc_pos = [i for i, f in enumerate(node.fanins)
                  if ctx.types.get(f) is NodeType.DC]
        if not dc_pos:
            continue
        pair = _comparable(ctx, name)
        if pair is None:
            continue
        orig, apx = pair
        node_type = ctx.types.get(name)
        if node_type not in (NodeType.ONE, NodeType.ZERO):
            continue  # changed EX nodes are pair.ex-changed's business
        try:
            mgr = BddManager(len(node.fanins))
            if mgr.from_cover(orig.cover) == mgr.from_cover(apx.cover):
                continue  # node left (or restored) exact
            phase_fn = mgr.from_cover(phase_cover(orig.cover, node_type))
            fanin_types = [NodeType.EX if ctx.original.is_input(f)
                           else ctx.types.get(f, NodeType.EX)
                           for f in node.fanins]
            feasible = feasible_subspace(mgr, phase_fn, fanin_types)
            apx_phase = phase_cover(apx.cover, node_type)
            for j, cube in enumerate(apx_phase.cubes):
                read = [node.fanins[i] for i in dc_pos
                        if cube.literal(i) != "-"]
                if not read:
                    continue
                if mgr.implies(mgr.from_cube(cube), feasible):
                    continue  # ODC-justified read (Eq. 1)
                emit(f"node {name!r}: phase cube {j} reads DC-typed "
                     f"fanin(s) {read[:5]} outside the Eq. 1 feasible "
                     f"subspace",
                     location=f"node:{name}/cube:{j}",
                     hint="DC fanins may only be read where locally "
                          "unobservable")
        except BddOverflowError:
            continue


def _comparable(ctx, name):
    """Original/approx node pair with identical fanins, or None.

    Resynthesis renames and rewires nodes; local semantic rules only
    apply where the node survived with its original interface.
    """
    orig = ctx.original.nodes.get(name)
    apx = ctx.approx.nodes.get(name)
    if orig is None or apx is None or orig.fanins != apx.fanins:
        return None
    if len(orig.fanins) > MAX_LOCAL_VARS:
        return None
    return orig, apx


@rule("pair.ex-changed", "pair", Severity.WARNING,
      "EX-typed nodes keep their exact local function")
def ex_changed(ctx, emit):
    for name, node_type in ctx.types.items():
        if node_type is not NodeType.EX:
            continue
        pair = _comparable(ctx, name)
        if pair is None:
            continue
        orig, apx = pair
        mgr = BddManager(len(orig.fanins))
        if mgr.from_cover(orig.cover) != mgr.from_cover(apx.cover):
            emit(f"EX node {name!r} changed its local function",
                 location=f"node:{name}",
                 hint="EX nodes must stay bit-identical; rely on the "
                      "repair loop or type the node 0/1")


@rule("pair.direction-local", "pair", Severity.WARNING,
      "approximated nodes respect their direction locally")
def direction_local(ctx, emit):
    # Both exact and ODC selection shrink the phase function, so the
    # local implication (ONE: apx => orig on-set; ZERO: orig => apx)
    # holds for every selected cover.
    for name, node_type in ctx.types.items():
        if node_type not in (NodeType.ONE, NodeType.ZERO):
            continue
        pair = _comparable(ctx, name)
        if pair is None:
            continue
        orig, apx = pair
        mgr = BddManager(len(orig.fanins))
        f = mgr.from_cover(orig.cover)
        g = mgr.from_cover(apx.cover)
        ok = mgr.implies(g, f) if node_type is NodeType.ONE \
            else mgr.implies(f, g)
        if not ok:
            emit(f"type-{node_type.value} node {name!r} breaks the "
                 f"local implication "
                 f"({'apx => orig' if node_type is NodeType.ONE else 'orig => apx'})",
                 location=f"node:{name}",
                 hint="the selected phase cover must shrink, never "
                      "grow, the phase function")


@rule("pair.cube-unjustified", "pair", Severity.WARNING,
      "selected cubes are exact-conforming or ODC-justified (Eq. 1)")
def cube_unjustified(ctx, emit):
    for name, node_type in ctx.types.items():
        if node_type not in (NodeType.ONE, NodeType.ZERO):
            continue
        pair = _comparable(ctx, name)
        if pair is None:
            continue
        orig, apx = pair
        fanin_types = [NodeType.EX if ctx.original.is_input(f)
                       else ctx.types.get(f, NodeType.EX)
                       for f in orig.fanins]
        try:
            mgr = BddManager(len(orig.fanins))
            orig_phase = phase_cover(orig.cover, node_type)
            phase_fn = mgr.from_cover(orig_phase)
            apx_phase = phase_cover(apx.cover, node_type)
            if mgr.from_cover(apx_phase) == phase_fn:
                continue  # node left (or restored) exact: always correct
            feasible = feasible_subspace(mgr, phase_fn, fanin_types)
            for i, cube in enumerate(apx_phase.cubes):
                if conforms(cube, fanin_types):
                    continue
                if mgr.implies(mgr.from_cube(cube), feasible):
                    continue
                emit(f"node {name!r}: phase cube {i} "
                     f"({cube.to_string()}) neither conforms to the "
                     f"fanin types nor lies in the Eq. 1 feasible "
                     f"subspace",
                     location=f"node:{name}/cube:{i}",
                     hint="re-select with exact_select or odc_select")
        except BddOverflowError:
            continue


@rule("pair.po-implication", "pair", Severity.ERROR,
      "per-PO implication G => F (1-approx) / F => G (0-approx) holds")
def po_implication(ctx, emit):
    # Error-constrained pairs (engine "resub") deliberately break the
    # implication; their ERROR-severity contract is pair.error-bound.
    if getattr(ctx, "error_spec", None) is not None:
        return
    # No shared PI space, no proof: pair.io-mismatch already fired.
    if set(ctx.approx.inputs) != set(ctx.original.inputs):
        return
    for po in ctx.original.outputs:
        direction = ctx.directions.get(po)
        if direction not in (0, 1):
            continue  # pair.direction-missing/-value already fired
        if not ctx.approx.signal_exists(po):
            continue  # pair.io-mismatch already fired
        proof = ctx.semantics().implication(po, direction)
        if proof.holds is True:
            continue
        condition = "G => F" if direction == 1 else "F => G"
        if proof.holds is None:
            emit(f"output {po!r}: implication {condition} undecided "
                 f"within the {proof.method.upper()} budget",
                 location=f"po:{po}", severity=Severity.INFO,
                 data={"stats": proof.stats})
            continue
        # Refuted.  Exactly-checked flows claimed a proof, so this is
        # an error; simulation-checked (or admittedly incorrect) runs
        # only ever claimed statistical confidence.
        exact_claim = ctx.claimed_method in EXACT_ENGINES \
            and ctx.claimed_correct.get(po, True)
        severity = Severity.ERROR if exact_claim else Severity.WARNING
        witness = ctx.semantics().witness(po, direction).witness
        emit(f"output {po!r}: implication {condition} does not hold "
             f"({proof.method.upper()} counterexample found)",
             location=f"po:{po}", severity=severity,
             hint="repair the cone (exact cube selection at the "
                  "sources provably restores correctness)",
             data={"witness": witness, "stats": proof.stats})
