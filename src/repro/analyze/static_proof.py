"""Static discharge of the paper's per-PO implication condition.

The Sec 2.2 check asks, per primary output: does ``G => F`` hold
(1-approximation; ``F => G`` for direction 0), where F is the original
PO function and G the approximate one?  The flow normally answers with
BDDs or SAT.  Many implications, however, are decidable *structurally*,
because the synthesis builds G from F by directional per-node edits:
cubes dropped from a cover, nodes collapsed to constants, cones left
untouched.  :class:`StaticDischarger` proves exactly those cases with
abstract interpretation — no BDD node, no SAT clause:

1. **Constants** — if either side is proven constant in the direction
   that makes the implication vacuous (G ≡ 0 or F ≡ 1 for direction 1),
   it holds; two *conflicting* constants refute it outright, with an
   explicit witness.
2. **Structural equality** — byte-identical cone structure over shared
   PIs (hash-guided, exactly confirmed) gives F ≡ G.
3. **Directional relations** — a forward abstract interpretation over
   the name-matched pair assigns every approx signal a relation in
   {EQ, LE, GE, TOP} to its original counterpart, composing per-fanin
   relations through the node's syntactic polarity with cube-wise
   cover containment.  A PO relation of LE proves direction 1, GE
   proves direction 0.

Every positive or negative answer is a theorem (the analyses only ever
over-approximate toward "unknown").  :mod:`repro.lint` uses them for
``"static"`` certificates and its pair rules.  The synthesis flow does
not: its checker builds the pair BDDs anyway, so a discharged query
would only skip one cheap ``implies``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cubes import Cover, Cube
from repro.network import Network

from .context import NetworkAnalyses
from .domains import cones_structurally_equal, cover_implies
from .lattice import (REL_EQ, REL_GE, REL_LE, REL_TOP,
                      compose_relations, flip_relation)


@dataclass
class StaticProof:
    """Outcome of one static implication attempt.

    ``holds`` is True (proved), False (refuted, with a concrete
    ``witness`` assignment) or None (not statically decidable — the
    caller falls through to BDD/SAT).  ``reason`` names the discharge
    rule for certificates, stats, and lint messages.
    """

    holds: bool | None
    reason: str
    detail: dict = field(default_factory=dict)
    witness: dict[str, bool] | None = None


class StaticDischarger:
    """Implication prover over one original/approximate network pair.

    Analyses are pulled from per-network :class:`NetworkAnalyses`
    bundles (shareable through the flow's ``AnalysisContext``), and the
    relational map is computed once per approx version, lazily.
    """

    def __init__(self, original: Network, approx: Network,
                 original_analyses: NetworkAnalyses | None = None,
                 approx_analyses: NetworkAnalyses | None = None):
        self.original = original
        self.approx = approx
        self.oa = original_analyses if original_analyses is not None \
            else NetworkAnalyses(original)
        self.aa = approx_analyses if approx_analyses is not None \
            else NetworkAnalyses(approx)
        self._relations: dict[str, str] | None = None
        self._rel_version: int | None = None
        #: Discharge attempts by outcome reason (includes "unknown").
        self.stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def implication(self, po: str, direction: int) -> StaticProof:
        """Try to statically decide the Sec 2.2 condition for one PO."""
        proof = self._implication(po, direction)
        self.stats[proof.reason] = self.stats.get(proof.reason, 0) + 1
        return proof

    def _implication(self, po: str, direction: int) -> StaticProof:
        original, approx = self.original, self.approx
        if original.is_input(po) and approx.is_input(po):
            return StaticProof(True, "shared-pi")

        # Rule 1: constants make the implication vacuous or absurd.
        co = self._const(self.oa, original, po)
        ca = self._const(self.aa, approx, po)
        if direction == 1:                      # need G => F
            if ca == 0:
                return StaticProof(True, "const",
                                   {"approx_const": 0})
            if co == 1:
                return StaticProof(True, "const",
                                   {"original_const": 1})
            if ca == 1 and co == 0:
                return StaticProof(False, "const-conflict",
                                   {"approx_const": 1,
                                    "original_const": 0},
                                   witness=self._any_input())
        else:                                   # need F => G
            if co == 0:
                return StaticProof(True, "const",
                                   {"original_const": 0})
            if ca == 1:
                return StaticProof(True, "const",
                                   {"approx_const": 1})
            if co == 1 and ca == 0:
                return StaticProof(False, "const-conflict",
                                   {"original_const": 1,
                                    "approx_const": 0},
                                   witness=self._any_input())

        # Rule 2: structurally identical cones compute equal functions.
        if self._structurally_equal(po):
            return StaticProof(True, "struct-eq")

        # Rule 3: directional relation composed across the pair.
        rel = self.relations().get(po, REL_TOP)
        if direction == 1 and rel in (REL_EQ, REL_LE):
            return StaticProof(True, "relation", {"relation": rel})
        if direction == 0 and rel in (REL_EQ, REL_GE):
            return StaticProof(True, "relation", {"relation": rel})
        return StaticProof(None, "unknown", {"relation": rel})

    def discharge_rate(self) -> dict:
        """Stats summary: attempts, discharges, per-reason counts."""
        total = sum(self.stats.values())
        solved = total - self.stats.get("unknown", 0)
        return {
            "attempts": total,
            "discharged": solved,
            "rate": round(solved / total, 4) if total else 0.0,
            "reasons": dict(sorted(self.stats.items())),
        }

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    @staticmethod
    def _const(bundle: NetworkAnalyses, network: Network,
               signal: str) -> int | None:
        if network.is_input(signal):
            return None
        return bundle.constants.get(signal)

    def _any_input(self) -> dict[str, bool]:
        """With both sides constant, every assignment is a witness."""
        return {pi: False for pi in self.original.inputs}

    # ------------------------------------------------------------------
    # Structural equality
    # ------------------------------------------------------------------
    def _structurally_equal(self, po: str) -> bool:
        ho = self.oa.structure_hashes.get(po)
        ha = self.aa.structure_hashes.get(po)
        if ho is None or ha is None or ho != ha:
            return False
        return cones_structurally_equal(self.original, po,
                                        self.approx, po)

    # ------------------------------------------------------------------
    # Relational abstract interpretation
    # ------------------------------------------------------------------
    def relations(self) -> dict[str, str]:
        """Relation of every approx signal to its original namesake.

        One forward topological pass over the approx network; the
        solution is memoized per approx mutation version.
        """
        if self._relations is not None \
                and self._rel_version == self.approx.version:
            return self._relations
        original, approx = self.original, self.approx
        rel: dict[str, str] = {}
        orig_inputs = set(original.inputs)
        for pi in approx.inputs:
            rel[pi] = REL_EQ if pi in orig_inputs else REL_TOP
        o_consts = self.oa.constants
        a_consts = self.aa.constants
        for name in approx.topological_order():
            rel[name] = self._node_relation(
                name, rel, o_consts, a_consts)
        self._relations = rel
        self._rel_version = self.approx.version
        return rel

    def _node_relation(self, name: str, rel: dict[str, str],
                       o_consts: dict[str, int],
                       a_consts: dict[str, int]) -> str:
        original, approx = self.original, self.approx
        onode = original.nodes.get(name)
        anode = approx.nodes[name]

        # Constant information works regardless of structure drift.
        ca = a_consts.get(name)
        co = o_consts.get(name) if onode is not None else None
        const_rel = _relation_from_constants(ca, co)
        if const_rel == REL_EQ:
            return REL_EQ

        if onode is None:
            return const_rel
        fanins = list(onode.fanins)
        a_cover = anode.cover
        if list(anode.fanins) != fanins:
            # Cube selection trims unread fanins and DC collapse empties
            # the list; re-express the approx cover over the original
            # fanin list (trimmed positions become don't-cares) so the
            # comparison stays positional.
            a_cover = _expand_cover(anode.cover, list(anode.fanins),
                                    fanins)
            if a_cover is None:
                return const_rel

        # Step 1: A(approx fanins) vs A(original fanins), through the
        # approx cover's syntactic polarity in each fanin.
        step1 = REL_EQ
        for i, fanin in enumerate(fanins):
            r = rel.get(fanin, REL_TOP)
            if r == REL_EQ:
                continue
            used_pos = used_neg = False
            for cube in a_cover.cubes:
                lit = cube.literal(i)
                if lit == "1":
                    used_pos = True
                elif lit == "0":
                    used_neg = True
            if not used_pos and not used_neg:
                continue                      # fanin not actually read
            if used_pos and used_neg:
                step1 = REL_TOP               # binate: direction lost
                break
            through = r if used_pos else flip_relation(r)
            step1 = _meet_directions(step1, through)
            if step1 == REL_TOP:
                break

        # Step 2: A(x) vs O(x) — same inputs, different covers.
        step2 = _cover_relation(a_cover, onode.cover)

        combined = compose_relations(step1, step2)
        return _best_relation(combined, const_rel)


def _expand_cover(cover, fanins: list[str],
                  target_fanins: list[str]):
    """Rewrite ``cover`` over ``target_fanins`` (a fanin superset).

    Positions absent from ``fanins`` become don't-cares; returns None
    when alignment is ambiguous (duplicate names) or impossible (a
    fanin with no counterpart), sending the caller to the constant
    fallback.
    """
    position: dict[str, int] = {}
    for j, f in enumerate(target_fanins):
        if f in position:
            return None
        position[f] = j
    if len(set(fanins)) != len(fanins):
        return None
    try:
        mapping = [position[f] for f in fanins]
    except KeyError:
        return None
    n = len(target_fanins)
    cubes = []
    for cube in cover.cubes:
        ones = zeros = 0
        for i, j in enumerate(mapping):
            if cube.ones >> i & 1:
                ones |= 1 << j
            if cube.zeros >> i & 1:
                zeros |= 1 << j
        cubes.append(Cube(n, ones, zeros))
    return Cover(n, cubes)


def _relation_from_constants(ca: int | None, co: int | None) -> str:
    """Relation implied by proven constants (approx vs original)."""
    if ca is not None and co is not None:
        if ca == co:
            return REL_EQ
        return REL_LE if ca < co else REL_GE
    if ca == 0 or co == 1:
        return REL_LE
    if ca == 1 or co == 0:
        return REL_GE
    return REL_TOP


def _meet_directions(acc: str, through: str) -> str:
    """Combine per-fanin directional contributions.

    All fanins must push the same way: mixing a <=-contribution with a
    >=-contribution says nothing about the node output.
    """
    if acc == REL_EQ:
        return through
    if through == REL_EQ or through == acc:
        return acc
    return REL_TOP


def _cover_relation(a_cover, b_cover) -> str:
    """Syntactic relation between two covers over the same fanins."""
    rows_a = sorted(a_cover.to_strings())
    rows_b = sorted(b_cover.to_strings())
    if rows_a == rows_b:
        return REL_EQ
    a_implies_b = cover_implies(a_cover, b_cover)
    b_implies_a = cover_implies(b_cover, a_cover)
    if a_implies_b and b_implies_a:
        return REL_EQ
    if a_implies_b:
        return REL_LE
    if b_implies_a:
        return REL_GE
    return REL_TOP


def _best_relation(a: str, b: str) -> str:
    """The more informative of two *sound* relation facts.

    Both arguments are theorems about the same pair of signals, so the
    tighter one wins; EQ beats LE/GE beats TOP.  LE and GE together
    would mean EQ, but the meet of independently derived LE and GE is
    only taken when one side is EQ already — returning the non-TOP one
    otherwise keeps the function simple and still sound.
    """
    rank = {REL_EQ: 0, REL_LE: 1, REL_GE: 1, REL_TOP: 2}
    return a if rank[a] <= rank[b] else b
