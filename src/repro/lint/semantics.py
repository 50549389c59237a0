"""The proof engine behind flow-level lint rules.

:class:`PairSemantics` re-verifies the paper's per-PO implication
condition (Sec 2.2) independently of whatever checker the synthesis run
used: the static-discharge analyses first (constant/containment/
relational dataflow over the pair — certificates of kind ``"static"``),
then global BDDs over the shared primary-input space (exact, and the
proof doubles as a BDD witness), falling back to the CDCL SAT solver
(the implication holds iff the miter ``G & !F`` is UNSAT) when the BDD
node budget blows up.  Every query returns a :class:`ProofResult` with
enough provenance to build an offline-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bdd import BddOverflowError
from repro.flow import AnalysisContext
from repro.network import GlobalBdds, Network, dfs_input_order


@dataclass
class ProofResult:
    """Outcome of one implication query.

    ``holds`` is True (proved), False (refuted, ``witness`` holds a
    violating input assignment) or None (undecided within budget).
    """

    holds: bool | None
    method: str                     # "bdd" | "sat" | "static"
    stats: dict = field(default_factory=dict)
    witness: dict[str, bool] | None = None


class PairSemantics:
    """Implication prover for an original/approximate network pair."""

    def __init__(self, original: Network, approx: Network,
                 bdd_node_budget: int = 300_000,
                 sat_conflict_budget: int = 200_000,
                 ctx: AnalysisContext | None = None,
                 static: bool = True):
        self.original = original
        self.approx = approx
        self.bdd_node_budget = bdd_node_budget
        self.sat_conflict_budget = sat_conflict_budget
        self.ctx = ctx
        self.static = static
        self._encoder = None
        self._bdds = None
        self._bdd_failed = False
        self._bdd_inputs: list[str] = []
        self._static_discharger = None
        # Cross-process proof cache (repro.lab.proofs): re-verification
        # of a cone pair an earlier run already proved is served from
        # disk, and the pair BDDs are then never built at all.
        self._proofs = getattr(ctx, "proofs", None)
        self._fp = None

    def _bdd_pair(self) -> GlobalBdds | None:
        """The pair BDDs, built lazily once; None after an overflow."""
        if self._bdds is None and not self._bdd_failed:
            try:
                if self.ctx is not None:
                    # Reuse the flow's pair manager (canonicity keeps
                    # the re-proofs identical to a from-scratch build).
                    bdds = self.ctx.pair_bdds(self.original, self.approx,
                                              self.bdd_node_budget)
                else:
                    bdds = GlobalBdds(dfs_input_order(self.original),
                                      max_nodes=self.bdd_node_budget)
                    bdds.add_network(self.original, prefix="o_")
                    bdds.add_network(self.approx, prefix="a_")
                self._bdds = bdds
                self._bdd_inputs = list(bdds.inputs)
            except BddOverflowError:
                self._bdd_failed = True  # SAT takes over lazily
        return self._bdds

    @property
    def method(self) -> str:
        return "sat" if self._bdd_failed else "bdd"

    def _sat_encoder(self):
        if self._encoder is None:
            from repro.sat import NetworkEncoder
            encoder = NetworkEncoder(self.original.inputs)
            encoder.add_network(self.original, prefix="o_")
            encoder.add_network(self.approx, prefix="a_")
            self._encoder = encoder
        return self._encoder

    def implication(self, po: str, direction: int) -> ProofResult:
        """Check the paper's condition for one primary output.

        Direction 1 (1-approximation): ``G => F`` — the approximate
        function implies the original.  Direction 0: ``F => G``.
        """
        if self.original.is_input(po):
            # An output wired straight to a PI has an exact "cone".
            return ProofResult(True, self.method, {"trivial": True})
        static = self._static_proof(po, direction)
        if static is not None:
            # Not stored in the proof cache: synthesis serves only exact
            # engines' verdicts, and the analyses re-decide this cheaply.
            return static
        cached = self._cached_proof(po, direction)
        if cached is not None:
            return cached
        if self._bdd_pair() is not None:
            try:
                proof = self._bdd_implication(po, direction)
            except BddOverflowError:
                proof = self._sat_implication(po, direction)
        else:
            proof = self._sat_implication(po, direction)
        self._store_proof(po, direction, proof)
        return proof

    def _static_proof(self, po: str,
                      direction: int) -> ProofResult | None:
        """Decide by dataflow analysis alone, before any engine runs.

        Returns None when the analyses cannot decide (the engines take
        over).  A decided verdict is a theorem — these proofs are
        re-checkable offline without BDDs or SAT, which is what makes
        ``"static"`` certificates cheap to audit.
        """
        if not self.static:
            return None
        if self._static_discharger is None:
            from repro.analyze import StaticDischarger
            if self.ctx is not None:
                self._static_discharger = StaticDischarger(
                    self.original, self.approx,
                    self.ctx.analyses(self.original),
                    self.ctx.analyses(self.approx))
            else:
                self._static_discharger = StaticDischarger(
                    self.original, self.approx)
        proof = self._static_discharger.implication(
            po, 1 if direction == 1 else 0)
        if proof.holds is None:
            return None
        return ProofResult(proof.holds, "static",
                           {"reason": proof.reason, **proof.detail},
                           witness=proof.witness)

    def _proof_key(self, po: str, direction: int) -> str:
        from repro.lab.proofs import ConeFingerprinter, implication_key
        if self._fp is None:
            self._fp = ConeFingerprinter()
        return implication_key(self._fp, self.original, self.approx,
                               po, 1 if direction == 1 else 0)

    def _cached_proof(self, po: str,
                      direction: int) -> ProofResult | None:
        if self._proofs is None:
            return None
        from repro.lab.proofs import EXACT_ENGINES
        entry = self._proofs.get(self._proof_key(po, direction))
        if entry is None or entry.get("engine") not in EXACT_ENGINES \
                or entry.get("holds") is not True:
            # Refuted or undecided entries are re-proved live: a
            # certificate-grade refutation needs a fresh witness.
            return None
        return ProofResult(True, entry["engine"], {"proof_cache": True})

    def _store_proof(self, po: str, direction: int,
                     proof: ProofResult) -> None:
        from repro.lab.proofs import EXACT_ENGINES
        if self._proofs is None or proof.holds is None \
                or proof.method not in EXACT_ENGINES:
            return
        self._proofs.put(self._proof_key(po, direction), {
            "kind": "implication", "po": po,
            "direction": 1 if direction == 1 else 0,
            "holds": bool(proof.holds), "engine": proof.method})

    def _bdd_implication(self, po: str, direction: int) -> ProofResult:
        bdds = self._bdds
        mgr = bdds.manager
        f = bdds.function("o_" + po)
        g = bdds.function("a_" + po)
        bad = mgr.and_(g, mgr.not_(f)) if direction == 1 \
            else mgr.and_(f, mgr.not_(g))
        stats = {"bdd_nodes": int(mgr.num_nodes)}
        if bad == mgr.zero:
            return ProofResult(True, "bdd", stats)
        witness = self._bdd_witness(mgr.any_sat(bad))
        return ProofResult(False, "bdd", stats, witness)

    def _bdd_witness(self, minterm: int | None) -> dict[str, bool] | None:
        if minterm is None:
            return None
        return {pi: bool(minterm >> i & 1)
                for i, pi in enumerate(self._bdd_inputs)}

    def _sat_implication(self, po: str, direction: int) -> ProofResult:
        encoder = self._sat_encoder()
        solver = encoder.solver
        before = (solver.conflicts, solver.decisions, solver.propagations)
        if direction == 1:
            holds = encoder.implication_holds(
                "a_" + po, "o_" + po, max_conflicts=self.sat_conflict_budget)
        else:
            holds = encoder.implication_holds(
                "o_" + po, "a_" + po, max_conflicts=self.sat_conflict_budget)
        stats = {
            "conflicts": solver.conflicts - before[0],
            "decisions": solver.decisions - before[1],
            "propagations": solver.propagations - before[2],
        }
        witness = None
        if holds is False:
            pair = ("a_" + po, "o_" + po) if direction == 1 \
                else ("o_" + po, "a_" + po)
            witness = encoder.counterexample(*pair)
        return ProofResult(holds, "sat", stats, witness)
