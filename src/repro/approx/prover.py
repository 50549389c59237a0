"""The implication prover shared by synthesis and lint (paper Sec 2.2).

The paper's correctness story is one query: does ``G => F``
(1-approximation) or ``F => G`` (0-approximation) hold at a node or
primary output of an original/approximate pair?  :class:`PairSemantics`
answers it for the iterative repair loop and for ``repro.lint`` alike,
deciding three concerns in one place:

* **Ladder.**  The caller names the engines to try, in order:
  ``"bdd"`` (global BDDs of both networks over the shared inputs),
  ``"sat"`` (incremental CDCL queries on a miter encoding) and
  ``"sim"`` (bit-parallel random simulation — statistical).  An engine
  is built on the first query that needs one.  A BDD overflow, at that
  build, on :meth:`refresh` or mid-query, moves to the next rung, and
  raises on the last one.  Under a :class:`~repro.guard.Budget` every
  rung selected and every overflow is recorded in ``budget.report``,
  and a zero SAT conflict cap (the ``sat-exhausted`` chaos rig) raises
  :class:`~repro.sat.solver.SatBudgetExhausted` instead of selecting
  SAT.  An undecided SAT query returns ``holds=None``.
* **Proof cache.**  Primary-output queries consult ``ctx.proofs`` (the
  cross-process :class:`~repro.lab.proofs.ProofCache`) while the rung
  in use is exact: cached ``bdd``/``sat`` verdicts, refuted ones
  included, are served, and fresh exact verdicts are stored.  Verdicts
  are content-addressed by cone fingerprint, so a served verdict is
  the one the engine would recompute.  Chaos-rigged budgets bypass the
  cache, so the rigged rung really runs.
* **Memo.**  One verdict per ``(name, direction)``, kept until
  :meth:`refresh`.

Verdicts carry no counterexample; :meth:`witness` re-proves one query
live on an exact rung and attaches a violating input assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bdd import BddOverflowError
from repro.flow import AnalysisContext
from repro.guard import Budget
from repro.lab.proofs import EXACT_ENGINES, ConeFingerprinter, implication_key
from repro.network import Network
from repro.sat.solver import SatBudgetExhausted, require_decided
from repro.sim import get_simulator


@dataclass
class ProofResult:
    """Outcome of one implication query.

    ``holds`` is True (proved), False (refuted) or None (undecided
    within budget).  ``witness`` is a violating input assignment, set
    only by :meth:`PairSemantics.witness`.
    """

    holds: bool | None
    method: str                     # "bdd" | "sat" | "sim"
    stats: dict = field(default_factory=dict)
    witness: dict[str, bool] | None = None


class PairSemantics:
    """Implication prover for an original/approximate network pair.

    ``bdd_node_budget`` and ``sat_conflict_budget`` cap the BDD and SAT
    rungs (``None`` = unlimited); under ``budget`` they merge with its
    caps and SAT also honors its deadline.  ``sim_words`` and ``seed``
    drive the simulation rung.  ``ctx`` shares the pair BDDs and
    carries the proof cache.
    """

    def __init__(self, original: Network, approx: Network,
                 ladder: tuple[str, ...] = ("bdd", "sat"), *,
                 bdd_node_budget: int | None = 300_000,
                 sat_conflict_budget: int | None = 200_000,
                 ctx: AnalysisContext | None = None,
                 budget: Budget | None = None,
                 sim_words: int = 64, seed: int = 2008):
        if not ladder or not set(ladder) <= {"bdd", "sat", "sim"}:
            raise ValueError(f"bad prover ladder {ladder!r}")
        self.original = original
        self.approx = approx
        self.ladder = tuple(ladder)
        self.ctx = ctx if ctx is not None else AnalysisContext()
        self.budget = budget
        self.sim_words = sim_words
        self.seed = seed
        governed = budget is not None
        self.bdd_cap = budget.bdd_cap(bdd_node_budget) if governed \
            else bdd_node_budget
        self.max_conflicts = budget.sat_cap(sat_conflict_budget) \
            if governed else sat_conflict_budget
        #: The engine in use; None until a query needs one.
        self.engine: str | None = None
        self._rung = 0
        self._bdds = None
        self._encoder = None
        self._deadline = None
        self._sim = None
        self._approx_sim = None
        #: One verdict per (name, direction) since the last refresh.
        self.verdicts: dict[tuple[str, int], ProofResult] = {}
        proofs = self.ctx.proofs
        if self.ladder[0] not in EXACT_ENGINES or (
                governed and budget.report.chaos):
            proofs = None
        self._proofs = proofs
        self._fp = ConeFingerprinter() if proofs is not None else None
        self._outputs = set(original.outputs)
        self._served: set[str] = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def method(self) -> str:
        """The engine in use; with none built, ``"bdd"`` unless a
        verdict served from the proof cache was proved by SAT."""
        if self.engine is not None:
            return self.engine
        return "sat" if "sat" in self._served else "bdd"

    def implication(self, name: str, direction: int) -> ProofResult:
        """Direction 1: ``G => F`` (the approximate function implies
        the original).  Direction 0: ``F => G``."""
        key = (name, 1 if direction == 1 else 0)
        proof = self.verdicts.get(key)
        if proof is None:
            proof = self._decide(*key)
            self.verdicts[key] = proof
        return proof

    def equal(self, name: str) -> bool:
        """``F == G`` at ``name``; an undecided SAT query raises."""
        engine = self._engine()
        if engine == "bdd":
            return self._bdds.function("o_" + name) == \
                self._bdds.function("a_" + name)
        if engine == "sat":
            return require_decided(
                self._encoder.equivalent("o_" + name, "a_" + name,
                                         self.max_conflicts,
                                         self._deadline),
                f"equivalence check for {name!r}")
        o, a = self._rows(name)
        return bool(np.array_equal(o, a))

    def witness(self, name: str, direction: int) -> ProofResult:
        """Re-prove one query live, bypassing the memo and the proof
        cache; a refuted result carries a violating input assignment.

        Exact rungs only.  The SAT rung searches without its conflict
        cap: callers ask for witnesses of refutations the capped query
        already found.
        """
        direction = 1 if direction == 1 else 0
        if self.original.is_input(name):
            return ProofResult(True, self.method, {"trivial": True})
        if self._engine() == "sim":
            raise ValueError("the statistical rung gives no witnesses")
        return self._run(self._WITNESS, name, direction)

    def refresh(self) -> None:
        """Re-read the approximate network after it changed."""
        self.verdicts.clear()
        if self.engine is not None:
            self._build("refresh")

    def conclude(self) -> str:
        """The method to report for this run.

        With no engine built, every query was answered by the proof
        cache (recorded as such under a budget) — or needed no engine at
        all, when it is built now for the attribution.
        """
        if self.engine is None:
            if self._proofs is None:
                self._engine()
            elif self.budget is not None:
                self.budget.report.rung(self.method, "selected",
                                        proof_cache=True)
        return self.method

    # ------------------------------------------------------------------
    # Proof cache and engine dispatch
    # ------------------------------------------------------------------
    def _decide(self, name: str, direction: int) -> ProofResult:
        if self.original.is_input(name):
            # An output wired straight to a PI has an exact "cone".
            return ProofResult(True, self.method, {"trivial": True})
        key = None
        if self._proofs is not None and name in self._outputs \
                and self.ladder[self._rung] in EXACT_ENGINES:
            key = implication_key(self._fp, self.original, self.approx,
                                  name, direction)
            entry = self._proofs.get(key)
            if entry is not None and entry.get("engine") in EXACT_ENGINES:
                self._served.add(entry["engine"])
                return ProofResult(bool(entry["holds"]), entry["engine"],
                                   {"proof_cache": True})
        proof = self._run(self._IMPLIES, name, direction)
        if key is not None and proof.holds is not None \
                and proof.method in EXACT_ENGINES:
            self._proofs.put(key, {
                "kind": "implication", "po": name, "direction": direction,
                "holds": bool(proof.holds), "engine": proof.method})
        return proof

    def _run(self, table, name: str, direction: int) -> ProofResult:
        while True:
            engine = self._engine()
            try:
                return table[engine](self, name, direction)
            except BddOverflowError:
                if not self._fall("query"):
                    raise

    def _engine(self) -> str:
        if self.engine is None:
            self._build(None)
        return self.engine

    def _build(self, where: str | None) -> None:
        """(Re)build the current rung's engine, moving down the ladder
        on a BDD overflow; ``selected`` is recorded on entering a rung."""
        while True:
            rung = self.ladder[self._rung]
            try:
                self._BUILD[rung](self)
            except BddOverflowError:
                if not self._fall(where):
                    raise
                continue
            if rung != self.engine and self.budget is not None:
                detail = {"bdd": {"node_cap": self.bdd_cap},
                          "sat": {"max_conflicts": self.max_conflicts},
                          "sim": {}}[rung]
                self.budget.report.rung(rung, "selected", **detail)
            self.engine = rung
            return

    def _fall(self, where: str | None) -> bool:
        """Leave the overflowed BDD rung; False when it was the last."""
        if self.budget is not None:
            at = {"where": where} if where else {}
            self.budget.report.rung("bdd", "overflow",
                                    node_cap=self.bdd_cap, **at)
            self.budget.report.exhaust("bdd_nodes", cap=self.bdd_cap,
                                       **at)
        self._bdds = None
        self.engine = None
        if self._rung + 1 == len(self.ladder):
            return False
        self._rung += 1
        return True

    # ------------------------------------------------------------------
    # Rungs
    # ------------------------------------------------------------------
    def _build_bdd(self) -> None:
        # The shared pair manager: each refresh recomputes only the
        # cones that changed, and canonicity keeps every verdict equal
        # to a fresh build's.
        self._bdds = self.ctx.pair_bdds(self.original, self.approx,
                                        self.bdd_cap)

    def _build_sat(self) -> None:
        from repro.sat import NetworkEncoder
        if self.budget is not None and self.max_conflicts is not None \
                and self.max_conflicts <= 0:
            raise SatBudgetExhausted(
                "SAT conflict budget is zero: the SAT rung cannot decide "
                "anything")
        encoder = NetworkEncoder(self.original.inputs)
        encoder.add_network(self.original, prefix="o_")
        encoder.add_network(self.approx, prefix="a_")
        self._encoder = encoder
        self._deadline = self.budget.deadline() \
            if self.budget is not None else None

    def _build_sim(self) -> None:
        if self._sim is None:
            orig_sim = get_simulator(self.original)
            rng = np.random.default_rng(self.seed)
            pi_words = orig_sim.random_inputs(rng, self.sim_words)
            self._sim = (orig_sim, pi_words, orig_sim.run(pi_words))
        pi_words = self._sim[1]
        approx_sim = get_simulator(self.approx)
        # Input rows must align with the original's input ordering.
        reorder = [self.original.inputs.index(pi)
                   for pi in approx_sim.input_names]
        self._approx_sim = (approx_sim, approx_sim.run(pi_words[reorder]))

    def _rows(self, name: str):
        orig_sim, _, orig_values = self._sim
        approx_sim, approx_values = self._approx_sim
        return (orig_values[orig_sim.index[name]],
                approx_values[approx_sim.index[name]])

    @staticmethod
    def _pair(name: str, direction: int) -> tuple[str, str]:
        """(antecedent, consequent) signals of the implication."""
        return ("a_" + name, "o_" + name) if direction == 1 \
            else ("o_" + name, "a_" + name)

    def _implies_bdd(self, name: str, direction: int) -> ProofResult:
        antecedent, consequent = self._pair(name, direction)
        mgr = self._bdds.manager
        holds = mgr.implies(self._bdds.function(antecedent),
                            self._bdds.function(consequent))
        return ProofResult(holds, "bdd", {"bdd_nodes": int(mgr.num_nodes)})

    def _implies_sat(self, name: str, direction: int) -> ProofResult:
        solver = self._encoder.solver
        before = (solver.conflicts, solver.decisions, solver.propagations)
        holds = self._encoder.implication_holds(
            *self._pair(name, direction), self.max_conflicts,
            self._deadline)
        return ProofResult(holds, "sat", {
            "conflicts": solver.conflicts - before[0],
            "decisions": solver.decisions - before[1],
            "propagations": solver.propagations - before[2],
        })

    def _implies_sim(self, name: str, direction: int) -> ProofResult:
        o, a = self._rows(name)
        bad = a & ~o if direction == 1 else o & ~a
        return ProofResult(not bad.any(), "sim")

    def _witness_bdd(self, name: str, direction: int) -> ProofResult:
        antecedent, consequent = self._pair(name, direction)
        mgr = self._bdds.manager
        bad = mgr.and_(self._bdds.function(antecedent),
                       mgr.not_(self._bdds.function(consequent)))
        stats = {"bdd_nodes": int(mgr.num_nodes)}
        minterm = mgr.any_sat(bad)
        if minterm is None:
            return ProofResult(True, "bdd", stats)
        return ProofResult(False, "bdd", stats, {
            pi: bool(minterm >> i & 1)
            for i, pi in enumerate(self._bdds.inputs)})

    def _witness_sat(self, name: str, direction: int) -> ProofResult:
        cex = self._encoder.counterexample(*self._pair(name, direction))
        return ProofResult(cex is None, "sat", {}, cex)

    _BUILD = {"bdd": _build_bdd, "sat": _build_sat, "sim": _build_sim}
    _IMPLIES = {"bdd": _implies_bdd, "sat": _implies_sat,
                "sim": _implies_sim}
    _WITNESS = {"bdd": _witness_bdd, "sat": _witness_sat}
