"""Shared, invalidation-aware analysis state for flow pipelines.

An :class:`AnalysisContext` memoizes the expensive artifacts every flow
stage keeps rebuilding from scratch — global BDDs of the
original/approximate pair, compiled simulator tapes, signal
probabilities, switching activity — keyed by each circuit's monotonic
mutation :attr:`~repro.network.Network.version`.  A repair that touches
one node therefore refreshes only the touched fanout cone of the "a\\_"
BDD functions (via :meth:`GlobalBdds.update_network`) instead of
triggering a wholesale rebuild, and downstream metrics/lint stages
reuse the checker's manager outright.

Correctness rests on BDD canonicity: a reused manager returns the same
functions (hence the same implication verdicts and minterm
probabilities) a fresh build would, so every consumer stays
bit-identical to its pre-context behavior.  The one divergence risk —
a shared manager hitting its node budget where a fresh build would not,
because it still holds garbage from earlier stages — is handled by
retrying exactly once with a from-scratch build before letting
:class:`~repro.bdd.BddOverflowError` escape.

What a context keeps across flows: only its content-keyed memos
(probabilities, switching activity), its hit/miss counters and its
attached proof cache.  ``run_ced_flow`` calls :meth:`release` when it
ends, dropping the pair BDDs and digest memos, which are keyed on the
identity of networks no later flow will see.
"""

from __future__ import annotations

import hashlib

from repro.bdd import BddOverflowError
from repro.network import GlobalBdds, Network, dfs_input_order
from repro.sim import (get_simulator, signal_probabilities,
                       simulator_cache_stats, switching_activity)

#: Artifact kinds tracked by the hit/miss counters.  The dataflow
#: analyses of ``repro.analyze`` are not a kind: flows never run them,
#: and lint builds one bundle per network it checks.
CACHE_KINDS = ("global_bdds", "simulator", "probabilities",
               "switching", "checkpoint", "proofs")


def _serialize_circuit(circuit) -> str:
    """Canonical text form of a circuit for content-keyed memoization.

    Two circuits with equal serializations compute identical signal
    probabilities and switching activity, whatever their object
    identity — this is what lets a re-loaded benchmark hit the caches
    a previous load populated.
    """
    lines = ["inputs:" + ",".join(circuit.inputs)]
    if hasattr(circuit, "gates"):       # MappedNetlist
        lines.append("library:" + circuit.library.name)
        for name in circuit.topological_order():
            gate = circuit.gates[name]
            lines.append(
                f"{name}<{gate.cell.name}<{','.join(gate.fanins)}")
        lines.append("pos:" + ",".join(
            f"{po}={sig}"
            for po, sig in sorted(circuit.po_signals.items())))
    else:                               # Network
        for name in circuit.topological_order():
            node = circuit.nodes[name]
            lines.append(f"{name}<{','.join(node.fanins)}"
                         f"<{';'.join(node.cover.to_strings())}")
        lines.append("outputs:" + ",".join(circuit.outputs))
    return "\n".join(lines)


class AnalysisContext:
    """Version-keyed memo of expensive analyses for one flow run.

    ``enabled=False`` turns every lookup into a fresh computation
    (counted as a miss) — the before/after switch the flow-performance
    benchmark uses to measure what the sharing buys.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Optional :class:`repro.guard.Budget` propagated onto every
        #: pair-BDD manager served by this context, so long builds poll
        #: the wall-clock deadline cooperatively.  Set (and cleared) by
        #: the governed flow; ``None`` means no enforcement.
        self.guard = None
        self.stats: dict[str, dict[str, int]] = {
            kind: {"hits": 0, "misses": 0} for kind in CACHE_KINDS}
        #: Single pair-BDD slot: one context serves one flow run, whose
        #: stages all compare the same original against evolving
        #: approximations.
        self._pair: dict | None = None
        #: Completed "o\_"-side build of the current original, plus a
        #: manager mark taken right after it: lets a later "fresh" pair
        #: build resume bit-exactly after the o\_ phase even when the
        #: a\_ side previously overflowed the budget.
        self._o_entry: dict | None = None
        #: Negative result: the original's own build overflowed at this
        #: budget, so any request at the same version with an equal or
        #: smaller budget must overflow identically (builds are
        #: deterministic and budget-independent until the cap trips).
        self._o_fail: dict | None = None
        #: Content-keyed memos: the key embeds a digest of the circuit
        #: itself, so an equal circuit loaded as a *different object*
        #: (a warm serve-style run) still hits.
        self._probs: dict[tuple, dict] = {}
        self._switching: dict[tuple, float] = {}
        #: Digest memo per live object: (circuit, version, token).
        self._tokens: dict[int, tuple] = {}
        self._sim_baseline = simulator_cache_stats()
        #: Optional :class:`repro.lab.proofs.ProofCache` consulted by
        #: the iterative checker and lint for per-PO implication
        #: verdicts; ``None`` (the default) keeps flows hermetic.
        self.proofs = None

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _hit(self, kind: str) -> None:
        self.stats[kind]["hits"] += 1

    def _miss(self, kind: str) -> None:
        self.stats[kind]["misses"] += 1

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Deep copy of the counters, folding in simulator-cache deltas
        accumulated since the context was created."""
        snap = {kind: dict(counters)
                for kind, counters in self.stats.items()}
        now = simulator_cache_stats()
        for key in ("hits", "misses"):
            delta = now[key] - self._sim_baseline[key]
            snap["simulator"][key] += max(delta, 0)
        if self.proofs is not None:
            snap["proofs"]["hits"] += self.proofs.hits
            snap["proofs"]["misses"] += self.proofs.misses
            snap["proofs"]["evictions"] = snap["proofs"].get(
                "evictions", 0) + self.proofs.evictions
        return snap

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Non-zero counter movement between two snapshots, by kind."""
        moved: dict = {}
        for kind, counters in after.items():
            base = before.get(kind, {})
            changed = {k: v - base.get(k, 0) for k, v in counters.items()
                       if v - base.get(k, 0)}
            if changed:
                moved[kind] = changed
        return moved

    def release(self) -> None:
        """Drop the state keyed on live objects of the flow just run.

        The pair-BDD manager, the overflow verdicts and the digest
        memo all match on object identity, so once a flow's networks
        are gone nothing can hit them; dropping them lets the networks
        (and the simulator tapes cached for them) be freed.  The
        content-keyed memos and ``proofs`` stay: an equal circuit
        parsed again still hits those.
        """
        self._pair = None
        self._o_entry = None
        self._o_fail = None
        self._tokens.clear()

    def bdd_nodes(self) -> int | None:
        """Node count of the live pair-BDD manager, if any."""
        if self._pair is None:
            return None
        return int(self._pair["bdds"].manager.num_nodes)

    # ------------------------------------------------------------------
    # Pair BDDs (original vs approximate, shared PI space)
    # ------------------------------------------------------------------
    def pair_bdds(self, original: Network, approx: Network,
                  budget: int | None = None) -> GlobalBdds:
        """Global BDDs of ``original`` ("o\\_") and ``approx`` ("a\\_").

        The manager is kept across calls; an ``approx`` that mutated
        since the last call has only the changed cones recomputed, and
        a *different* approx object (a fresh synthesis attempt) rebuilds
        only the "a\\_" side, reusing every "o\\_" function.  Any change
        to ``original`` drops the entry (its DFS input order — the BDD
        variable order — could shift).
        """
        entry = self._pair
        # A cached entry may serve a request without a budget (no cap
        # to trip) or with one at least as large as the entry's own (a
        # fresh build at a larger cap succeeds identically).  Smaller
        # budgets go through _fresh_pair, which replays the build
        # exactly (fail-fast or manager rollback) so an overflow a
        # fresh build would hit is never masked.
        compatible = budget is None or (
            entry is not None and entry["budget"] is not None
            and budget >= entry["budget"])
        if (not self.enabled or entry is None
                or entry["original"] is not original
                or entry["orig_version"] != original.version
                or not compatible):
            return self._fresh_pair(original, approx, budget)
        try:
            bdds: GlobalBdds = entry["bdds"]
            bdds.manager.guard = self.guard
            if entry["approx"] is not approx:
                self._drop_prefix(bdds, "a_")
                bdds.add_network(approx, prefix="a_")
            else:
                changed = approx.changed_signals(entry["approx_version"])
                if changed is None:
                    self._drop_prefix(bdds, "a_")
                    bdds.add_network(approx, prefix="a_")
                elif changed:
                    bdds.update_network(approx, prefix="a_",
                                        changed=changed)
            entry["approx"] = approx
            entry["approx_version"] = approx.version
            self._hit("global_bdds")
            return bdds
        except BddOverflowError:
            # The shared manager may carry garbage from earlier stages;
            # a fresh build gets one clean shot before overflow escapes.
            return self._fresh_pair(original, approx, budget)

    def _fresh_pair(self, original: Network, approx: Network,
                    budget: int | None) -> GlobalBdds:
        self._pair = None
        fail = self._o_fail
        if (self.enabled and fail is not None
                and fail["original"] is original
                and fail["version"] == original.version
                and budget is not None and budget <= fail["budget"]):
            # Known-doomed build: the o_ side overflowed at a budget at
            # least this large.  The build sequence is deterministic and
            # independent of the cap, so replaying it would overflow at
            # the same point — fail fast instead.
            self._hit("global_bdds")
            raise BddOverflowError(
                f"BDD node budget of {budget} exceeded "
                "(cached overflow verdict)")
        oentry = self._o_entry
        if (self.enabled and oentry is not None
                and oentry["original"] is original
                and oentry["orig_version"] == original.version):
            if budget is not None and oentry["o_created"] > budget:
                # The o_ side alone is known to allocate more nodes
                # than this budget allows; a fresh build must overflow
                # before ever reaching the approx.
                self._hit("global_bdds")
                raise BddOverflowError(
                    f"BDD node budget of {budget} exceeded "
                    "(cached overflow verdict)")
            # Rewind the manager to the state a fresh build would be in
            # right after the o_ phase, then build only the a_ side.
            bdds: GlobalBdds = oentry["bdds"]
            bdds.manager.guard = self.guard
            bdds.manager.rollback(oentry["mark"])
            bdds.manager.max_nodes = budget
            self._drop_prefix(bdds, "a_")
            self._hit("global_bdds")
            bdds.add_network(approx, prefix="a_")
            self._pair = {
                "bdds": bdds,
                "original": original,
                "orig_version": original.version,
                "approx": approx,
                "approx_version": approx.version,
                "budget": budget,
            }
            return bdds
        self._miss("global_bdds")
        bdds = GlobalBdds(dfs_input_order(original), max_nodes=budget)
        bdds.manager.guard = self.guard
        try:
            bdds.add_network(original, prefix="o_")
        except BddOverflowError:
            if self.enabled and budget is not None:
                self._o_fail = {"original": original,
                                "version": original.version,
                                "budget": budget}
            raise
        if self.enabled:
            self._o_entry = {
                "bdds": bdds,
                "mark": bdds.manager.mark(),
                "original": original,
                "orig_version": original.version,
                "o_created": bdds.manager.num_nodes,
            }
        bdds.add_network(approx, prefix="a_")
        if self.enabled:
            self._pair = {
                "bdds": bdds,
                "original": original,
                "orig_version": original.version,
                "approx": approx,
                "approx_version": approx.version,
                "budget": budget,
            }
        return bdds

    @staticmethod
    def _drop_prefix(bdds: GlobalBdds, prefix: str) -> None:
        for key in [k for k in bdds.functions if k.startswith(prefix)]:
            del bdds.functions[key]

    # ------------------------------------------------------------------
    # Simulators / probabilities / switching activity
    # ------------------------------------------------------------------
    def simulator(self, circuit):
        """Version-aware compiled simulator (delegates to the global
        :func:`~repro.sim.get_simulator` cache)."""
        return get_simulator(circuit)

    def _content_token(self, circuit) -> str:
        """Digest of the circuit's content, memoized per live object.

        Keying memos on this token (instead of object identity) is what
        makes re-loaded-but-equal circuits warm cache hits; the
        per-object ``(circuit, version)`` memo keeps the serialization
        cost to one pass per mutation, not one per lookup.
        """
        obj = id(circuit)
        memo = self._tokens.get(obj)
        version = getattr(circuit, "version", None)
        if memo is not None and memo[0] is circuit and memo[1] == version:
            return memo[2]
        token = hashlib.sha256(
            _serialize_circuit(circuit).encode()).hexdigest()
        self._tokens[obj] = (circuit, version, token)
        return token

    def probabilities(self, network, n_words: int = 32,
                      seed: int = 2008) -> dict[str, float]:
        """Memoized :func:`~repro.sim.signal_probabilities`."""
        key = (self._content_token(network), n_words, seed)
        cached = self._probs.get(key)
        if self.enabled and cached is not None:
            self._hit("probabilities")
            return cached
        self._miss("probabilities")
        probs = signal_probabilities(network, n_words=n_words, seed=seed)
        if self.enabled:
            self._probs[key] = probs
        return probs

    def switching(self, circuit, n_words: int = 16, seed: int = 2008,
                  weighted: bool = False) -> float:
        """Memoized :func:`~repro.sim.switching_activity`."""
        key = (self._content_token(circuit), n_words, seed, weighted)
        cached = self._switching.get(key)
        if self.enabled and cached is not None:
            self._hit("switching")
            return cached
        self._miss("switching")
        value = switching_activity(circuit, n_words=n_words, seed=seed,
                                   weighted=weighted)
        if self.enabled:
            self._switching[key] = value
        return value
