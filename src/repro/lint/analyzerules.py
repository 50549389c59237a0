"""Lint rules backed by the :mod:`repro.analyze` dataflow analyses.

The structural rules in :mod:`repro.lint.structural` check local,
syntactic well-formedness; the rules here consume *fixpoint solutions*
(constant propagation, observability, structural hashing, SDC
computation) and therefore see facts no single-node inspection can:
nodes whose function is provably constant, cubes that can never fire,
cones that are byte-identical duplicates, logic masked at every primary
output.  All of them are network-scope rules: the paper's Sec 2.2
implication obligation is re-proved exactly by ``pair.po-implication``
(:mod:`repro.lint.approxrules`), not by these analyses.
"""

from __future__ import annotations

from .diagnostics import Severity
from .registry import rule


@rule("net.const-node", "network", Severity.WARNING,
      "no node with fanins computes a provably constant function")
def const_node(ctx, emit):
    analyses = ctx.analyses()
    if analyses is None:
        return
    for name, value in sorted(analyses.constants.items()):
        node = ctx.network.nodes.get(name)
        if node is None or not node.fanins:
            # Explicit constant nodes (e.g. collapsed DC nodes) are
            # intentional; only redundant logic is worth flagging.
            continue
        emit(f"node {name!r} reads {len(node.fanins)} signal(s) but "
             f"always evaluates to {value}",
             location=f"node:{name}",
             hint="replace the node by the constant and sweep its cone",
             data={"constant": value})


@rule("net.const-redundant", "network", Severity.WARNING,
      "no cube is unsatisfiable under proven-constant fanins (SDC)")
def const_redundant(ctx, emit):
    analyses = ctx.analyses()
    if analyses is None:
        return
    for name, cubes in sorted(analyses.sdc_cubes().items()):
        for index in cubes:
            emit(f"node {name!r}: cube {index} conflicts with a "
                 f"proven-constant fanin and can never fire",
                 location=f"node:{name}/cube:{index}",
                 hint="drop the cube; the satisfiability don't-care "
                      "makes it unreachable")


@rule("net.structural-dup", "network", Severity.INFO,
      "no two nodes root byte-identical cone structures")
def structural_dup(ctx, emit):
    analyses = ctx.analyses()
    if analyses is None:
        return
    for group in analyses.duplicate_classes():
        members = sorted(group)
        emit(f"nodes {members} compute identical functions "
             f"(structurally equal cones)",
             location=f"node:{members[0]}",
             hint="merge the duplicates and rewire their fanouts",
             data={"nodes": members})


@rule("net.dead-cone", "network", Severity.WARNING,
      "no PO-reaching node is provably unobservable at every output")
def dead_cone(ctx, emit):
    analyses = ctx.analyses()
    if analyses is None:
        return
    for name in sorted(analyses.dead_cones()):
        emit(f"node {name!r} feeds primary-output logic but is masked "
             f"(zero observability) at every output",
             location=f"node:{name}",
             hint="the cone is dead logic; sweep it")


@rule("net.unread-fanin", "network", Severity.INFO,
      "every declared fanin is read by at least one cube")
def unread_fanin(ctx, emit):
    analyses = ctx.analyses()
    if analyses is None:
        return
    for name, positions in sorted(analyses.unread_fanins().items()):
        node = ctx.network.nodes[name]
        signals = [node.fanins[i] for i in positions]
        emit(f"node {name!r} declares but never reads {signals}",
             location=f"node:{name}",
             hint="trim the unread fanins "
                  "(repro.network.trim_unread_fanins)",
             data={"positions": list(positions)})


@rule("net.const-po", "network", Severity.WARNING,
      "no primary output is stuck at a proven constant")
def const_po(ctx, emit):
    analyses = ctx.analyses()
    if analyses is None:
        return
    constants = analyses.constants
    for po in ctx.network.outputs:
        if ctx.network.is_input(po) or po not in constants:
            continue
        node = ctx.network.nodes.get(po)
        explicit = node is not None and not node.fanins
        emit(f"output {po!r} is constant {constants[po]}",
             location=f"po:{po}",
             severity=Severity.INFO if explicit else Severity.WARNING,
             hint="" if explicit
             else "a stuck output usually means over-approximation "
                  "collapsed the whole cone",
             data={"constant": constants[po]})

