"""Concrete abstract-interpretation domains over Boolean networks.

Every analysis here is *sound by over-approximation*: a definite answer
(constant value, unateness direction, probability bound, structural
equality, unobservability) is a theorem about the circuit; "top" only
ever means "unknown".  That is what lets the analysis-backed lint rules
act on these results soundly.

Domains:

* :class:`ConstantAnalysis` — which signals compute a constant 0/1
  regardless of inputs (constants propagate through cofactored covers).
* :class:`UnatenessAnalysis` — per-signal pair of PI bitmasks:
  "may depend positively / negatively on PI i".  An unset bit is a
  proof of unateness (or independence) in that input.
* :class:`ProbabilityIntervalAnalysis` — sound [lo, hi] bounds on
  P(signal = 1) via Fréchet inequalities, valid under *any* input
  correlation structure given the PI marginals (no independence
  assumption, unlike the simulation estimate it brackets).
* :class:`StructuralHashAnalysis` — canonical cone hashes (cut-based
  redundancy detection); equal hashes are confirmed exactly with
  :func:`cones_structurally_equal` before anything acts on them.
* :class:`ObservabilityAnalysis` — backward PO-reachability masks
  blocked by constant readers and unread fanin positions; a zero mask
  on a PO-reaching signal is an ODC proof (dead cone).
* :func:`sdc_redundant_cubes` — per-node satisfiability don't-cares:
  cubes that conflict with a proven-constant fanin.
"""

from __future__ import annotations

import hashlib

from repro.cubes import Cover
from repro.network import Network

from .fixpoint import DataflowAnalysis
from .lattice import (BOTTOM, TOP, BitsetPairLattice, FlatLattice,
                      IntervalLattice)

#: Cost caps for exact two-level reasoning inside transfer functions.
#: Tautology/containment checks are exponential in the worst case; the
#: analyses stay sound by answering "unknown" beyond these bounds.
TAUT_VAR_LIMIT = 12
TAUT_CUBE_LIMIT = 64


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------
class ConstantAnalysis(DataflowAnalysis):
    """Forward constant propagation; values are 0, 1, or TOP."""

    name = "constants"
    direction = "forward"

    def lattice(self, network: Network) -> FlatLattice:
        return FlatLattice()

    def boundary(self, network: Network, signal: str):
        return TOP

    def transfer(self, network: Network, signal: str, fanin_values):
        node = network.nodes[signal]
        cover = node.cover
        if not node.fanins:
            return 0 if cover.is_zero() else 1
        for i, value in enumerate(fanin_values):
            if value in (0, 1):
                cover = cover.cofactor(i, value)
        if cover.is_zero():
            return 0
        if any(c.num_literals == 0 for c in cover.cubes):
            return 1
        # Residual support after cofactoring; a full tautology check is
        # only worth it (and affordable) on small remaining covers.
        if (cover.support.bit_count() <= TAUT_VAR_LIMIT
                and len(cover.cubes) <= TAUT_CUBE_LIMIT
                and cover.is_tautology()):
            return 1
        return TOP


def constant_signals(values: dict[str, object]) -> dict[str, int]:
    """The proven-constant subset of a ConstantAnalysis solution."""
    return {name: value for name, value in values.items()
            if value in (0, 1)}


# ----------------------------------------------------------------------
# Parity / unateness
# ----------------------------------------------------------------------
class UnatenessAnalysis(DataflowAnalysis):
    """May-depend masks with polarity over the PI index space.

    A signal's value is ``(pos_mask, neg_mask)``: bit ``i`` of
    ``pos_mask`` is set when some syntactic path from PI ``i`` to the
    signal has positive composite polarity (even number of inverting
    literals), and likewise for ``neg_mask``.  If bit ``i`` is set in
    neither mask the signal provably does not depend on PI ``i``; set
    in exactly one, the signal is provably unate in it.
    """

    name = "unateness"
    direction = "forward"

    def lattice(self, network: Network) -> BitsetPairLattice:
        return BitsetPairLattice(len(network.inputs))

    def boundary(self, network: Network, signal: str):
        index = network.inputs.index(signal)
        return (1 << index, 0)

    def transfer(self, network: Network, signal: str, fanin_values):
        node = network.nodes[signal]
        pos = neg = 0
        for i, value in enumerate(fanin_values):
            if value is BOTTOM:
                continue
            fp, fn = (0, 0) if value is TOP else value
            if value is TOP:
                fp = fn = (1 << len(network.inputs)) - 1
            used_pos = used_neg = False
            for cube in node.cover.cubes:
                lit = cube.literal(i)
                if lit == "1":
                    used_pos = True
                elif lit == "0":
                    used_neg = True
            if used_pos:
                pos |= fp
                neg |= fn
            if used_neg:
                pos |= fn
                neg |= fp
        return (pos, neg)


def unate_summary(network: Network,
                  values: dict[str, object]) -> dict[str, dict]:
    """Per-PO unateness classification from an analysis solution."""
    out: dict[str, dict] = {}
    for po in network.outputs:
        value = values.get(po)
        if value in (BOTTOM, TOP) or value is None:
            continue
        pos, neg = value
        both = pos & neg
        out[po] = {
            "positive_unate": (pos & ~neg).bit_count(),
            "negative_unate": (neg & ~pos).bit_count(),
            "binate": both.bit_count(),
            "independent": len(network.inputs)
            - (pos | neg).bit_count(),
        }
    return out


# ----------------------------------------------------------------------
# Signal-probability intervals
# ----------------------------------------------------------------------
class ProbabilityIntervalAnalysis(DataflowAnalysis):
    """Sound [lo, hi] bounds on P(signal = 1) via Fréchet inequalities.

    For a cube (an AND of literals) with literal probabilities bounded
    by [l_i, h_i]: P >= max(0, sum(l_i) - (k - 1)) and P <= min(h_i).
    For a cover (an OR of cubes): P >= max(cube lows) and
    P <= min(1, sum(cube highs)).  Both directions hold for arbitrary
    dependence between the operands, so the bounds are valid even
    though reconvergent fanout correlates internal signals.
    """

    name = "probability"
    direction = "forward"

    def __init__(self, pi_probability: float = 0.5):
        self.pi_probability = float(pi_probability)

    def lattice(self, network: Network) -> IntervalLattice:
        return IntervalLattice()

    def boundary(self, network: Network, signal: str):
        p = self.pi_probability
        return (p, p)

    def transfer(self, network: Network, signal: str, fanin_values):
        node = network.nodes[signal]
        if not node.fanins:
            value = 0.0 if node.cover.is_zero() else 1.0
            return (value, value)
        if node.cover.is_zero():
            return (0.0, 0.0)
        lo = 0.0
        hi_sum = 0.0
        for cube in node.cover.cubes:
            c_lo, c_hi = 1.0, 1.0
            lo_sum, k = 0.0, 0
            for i in range(cube.n):
                lit = cube.literal(i)
                if lit == "-":
                    continue
                value = fanin_values[i]
                f_lo, f_hi = (0.0, 1.0) if value in (BOTTOM, TOP) \
                    else value
                if lit == "0":
                    f_lo, f_hi = 1.0 - f_hi, 1.0 - f_lo
                lo_sum += f_lo
                c_hi = min(c_hi, f_hi)
                k += 1
            c_lo = max(0.0, lo_sum - (k - 1)) if k else 1.0
            c_lo = min(c_lo, c_hi)
            lo = max(lo, c_lo)
            hi_sum += c_hi
        hi = min(1.0, hi_sum)
        return (min(lo, hi), hi)


# ----------------------------------------------------------------------
# Structural hashing
# ----------------------------------------------------------------------
class StructuralHashAnalysis(DataflowAnalysis):
    """Canonical cone digests: equal digests mean (up to hash
    collision) byte-identical cone structure over identically named
    PIs.  Collision paranoia is handled by the exact confirmation in
    :func:`cones_structurally_equal` — nothing trusts the hash alone.
    """

    name = "structure"
    direction = "forward"

    def lattice(self, network: Network) -> FlatLattice:
        return FlatLattice()

    def boundary(self, network: Network, signal: str):
        return _digest("pi|" + signal)

    def transfer(self, network: Network, signal: str, fanin_values):
        node = network.nodes[signal]
        rows = ";".join(sorted(node.cover.to_strings()))
        parts = ",".join(str(v) for v in fanin_values)
        return _digest(f"node|{rows}|{parts}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def structural_classes(network: Network,
                       values: dict[str, object]) -> list[list[str]]:
    """Groups of nodes with identical cone structure (size >= 2).

    Hash groups are re-confirmed pairwise against the group leader with
    the exact recursive comparison, so a (cosmically unlikely) hash
    collision degrades to a smaller group, never a wrong one.  Groups
    and members come out in topological order for deterministic lint
    output.
    """
    by_hash: dict[object, list[str]] = {}
    for name in network.topological_order():
        by_hash.setdefault(values.get(name), []).append(name)
    classes = []
    for digest, members in by_hash.items():
        if digest in (BOTTOM, TOP) or len(members) < 2:
            continue
        leader = members[0]
        confirmed = [leader] + [
            m for m in members[1:]
            if cones_structurally_equal(network, leader, network, m)]
        if len(confirmed) >= 2:
            classes.append(confirmed)
    return classes


def cones_structurally_equal(net_a: Network, root_a: str,
                             net_b: Network, root_b: str) -> bool:
    """Exact recursive structural equality of two cones.

    Matches node-for-node: identical sorted cover rows and pairwise
    structurally equal fanins (in fanin order); PIs match by name.
    Internal node names are ignored, which makes the check usable
    across a resynthesized pair.  Structural equality implies
    functional equality (it is syntactic identity of the DAGs).
    """
    memo: dict[tuple[str, str], bool] = {}

    def eq(a: str, b: str) -> bool:
        key = (a, b)
        cached = memo.get(key)
        if cached is not None:
            return cached
        a_is_pi = net_a.is_input(a)
        b_is_pi = net_b.is_input(b)
        if a_is_pi or b_is_pi:
            result = a_is_pi and b_is_pi and a == b
            memo[key] = result
            return result
        node_a, node_b = net_a.nodes[a], net_b.nodes[b]
        memo[key] = False  # cycle guard; networks are DAGs anyway
        result = (len(node_a.fanins) == len(node_b.fanins)
                  and sorted(node_a.cover.to_strings())
                  == sorted(node_b.cover.to_strings())
                  and all(eq(fa, fb) for fa, fb
                          in zip(node_a.fanins, node_b.fanins)))
        memo[key] = result
        return result

    return eq(root_a, root_b)


# ----------------------------------------------------------------------
# Observability (ODC) and satisfiability (SDC) don't-cares
# ----------------------------------------------------------------------
class ObservabilityAnalysis(DataflowAnalysis):
    """Backward PO-observability masks.

    A signal's value is a bitmask over PO indices: bit ``j`` set means
    the signal *may* be observable at PO ``j``.  Bit ``j`` clear is a
    proof of unobservability: every path to that PO is blocked by a
    proven-constant reader or by a fanin position no cube of the
    reader actually reads.  ``constants`` (a ConstantAnalysis solution
    subset) sharpens the result; pass ``{}`` for the purely structural
    variant.
    """

    name = "observability"
    direction = "backward"

    def __init__(self, constants: dict[str, int] | None = None):
        self.constants = constants or {}

    def lattice(self, network: Network) -> BitsetPairLattice:
        return BitsetPairLattice(len(network.outputs))

    def boundary(self, network: Network, signal: str):
        return 0

    def transfer(self, network: Network, signal: str, reader_values):
        mask = 0
        for j, po in enumerate(network.outputs):
            if po == signal:
                mask |= 1 << j
        for reader, value in reader_values:
            if value is BOTTOM or not value:
                continue
            node = network.nodes[reader]
            # Fix every proven-constant fanin EXCEPT the signal itself.
            # Cofactoring by the signal's own constant would be
            # circular: the whole point of observability is to bound
            # what happens when this signal takes the *other* value,
            # and a reader whose constancy derives from the signal
            # (e.g. an OR the constant-1 signal saturates) does NOT
            # block it.
            cover = node.cover
            for i, fanin in enumerate(node.fanins):
                if fanin != signal:
                    fixed = self.constants.get(fanin)
                    if fixed in (0, 1):
                        cover = cover.cofactor(i, fixed)
            if _residual_constant(cover) is not None:
                continue  # constant independently of the signal
            for i, fanin in enumerate(node.fanins):
                if fanin != signal:
                    continue
                if any(c.has_literal(i) for c in cover.cubes):
                    mask |= value
        return mask


def _residual_constant(cover: Cover) -> int | None:
    """0/1 when the (partially cofactored) cover is provably constant,
    else None — the same three-tier check ConstantAnalysis uses."""
    if cover.is_zero():
        return 0
    if any(c.num_literals == 0 for c in cover.cubes):
        return 1
    if (cover.support.bit_count() <= TAUT_VAR_LIMIT
            and len(cover.cubes) <= TAUT_CUBE_LIMIT
            and cover.is_tautology()):
        return 1
    return None


def sdc_redundant_cubes(network: Network,
                        constants: dict[str, int]
                        ) -> dict[str, list[int]]:
    """Per-node cube indices made unsatisfiable by constant fanins.

    A cube requiring fanin ``f = 1`` while ``f`` provably computes 0
    (or vice versa) can never fire — a satisfiability don't-care the
    resynthesis pass would eventually sweep, surfaced here as an
    analysis fact.
    """
    redundant: dict[str, list[int]] = {}
    for name in network.topological_order():
        node = network.nodes[name]
        if not node.fanins:
            continue
        dead = []
        for idx, cube in enumerate(node.cover.cubes):
            for i, fanin in enumerate(node.fanins):
                value = constants.get(fanin)
                if value is None:
                    continue
                lit = cube.literal(i)
                if (lit == "1" and value == 0) or \
                        (lit == "0" and value == 1):
                    dead.append(idx)
                    break
        if dead:
            redundant[name] = dead
    return redundant


def unread_fanin_positions(network: Network) -> dict[str, list[int]]:
    """Fanin positions no cube of the node's cover ever reads."""
    unread: dict[str, list[int]] = {}
    for name in network.topological_order():
        node = network.nodes[name]
        if not node.fanins:
            continue
        support = node.cover.support
        dead = [i for i in range(len(node.fanins))
                if not support >> i & 1]
        if dead:
            unread[name] = dead
    return unread
