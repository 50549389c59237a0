"""Error-constrained resubstitution engine (``engine="resub"``).

Unlike the paper's cube-selection flow — which keeps every primary
output implication-correct and trades only *coverage* — this engine
deliberately changes output functions, as long as the measured error
stays within an :class:`~repro.approx.config.ErrorSpec` budget
(SGALS-style simulation-guided greedy search, arXiv:2505.16769, over
the ER/MED/WCE metrics of arXiv:2205.03267).

The candidate -> score -> commit/rollback loop:

1. *Propose*: simulation signatures nominate rewrites — nodes that are
   almost constant (const-0/1 replacement), signal pairs with equal or
   complementary signatures (wire resubstitution).  Candidates are
   ordered by estimated freed cone size.
2. *Score*: each candidate is applied tentatively and the error metric
   is re-estimated with a cheap screening evaluation (exhaustive on
   small input spaces, bit-parallel sampling otherwise); candidates
   that blow the budget roll back immediately via
   :meth:`~repro.network.Network.replace_node` (which also rejects
   cycle-creating rewires).
3. *Validate*: the surviving network is measured with the two-tier
   evaluator (:func:`~repro.approx.metrics.evaluate_error`); while the
   conservative value exceeds the bound, commits are undone in reverse
   order — at zero commits the error is zero, so the final result
   always satisfies the bound.

The bound guarantee therefore never rests on the screening estimates.
"""

from __future__ import annotations

import numpy as np

from repro.network import Network
from repro.cubes import Cover
from repro.sim import exhaustive_inputs, get_simulator, popcount

from .engine import ApproxEngine


#: Screening cap: candidates tried per synthesis run.
MAX_CANDIDATES = 128

#: Near-constant nomination threshold on the signature one-rate.
CONST_RATE = 0.25


class _Candidate:
    __slots__ = ("target", "fanins", "cover", "est_rate", "gain", "kind")

    def __init__(self, target, fanins, cover, est_rate, gain, kind):
        self.target = target
        self.fanins = fanins
        self.cover = cover
        self.est_rate = est_rate
        self.gain = gain
        self.kind = kind


def _signatures(network: Network, n_words: int, seed: int):
    sim = get_simulator(network)
    rng = np.random.default_rng(seed)
    pi = sim.random_inputs(rng, n_words)
    values = sim.run(pi)
    return sim, values


def _propose(network: Network, n_words: int,
             seed: int) -> list[_Candidate]:
    """Signature-nominated rewrite candidates, best first."""
    sim, values = _signatures(network, n_words, seed)
    total = 64 * n_words
    cone_sizes = {name: len(network.transitive_fanin([name]))
                  for name in network.nodes}
    by_sig: dict[bytes, str] = {}
    order = network.topological_order()
    candidates: list[_Candidate] = []
    for name in order:
        sig = values[sim.index[name]]
        ones = popcount(sig)
        rate = ones / total
        gain = cone_sizes[name]
        if rate <= CONST_RATE:
            candidates.append(_Candidate(
                name, [], Cover.zero(0), rate, gain, "const0"))
        if 1.0 - rate <= CONST_RATE:
            candidates.append(_Candidate(
                name, [], Cover.one(0), 1.0 - rate, gain, "const1"))
        key = sig.tobytes()
        inv_key = (~sig).tobytes()
        # Earlier (topologically) signal with the same signature: a
        # rewire candidate with estimated rate 0 (cycle-free because
        # the donor precedes the target).
        donor = by_sig.get(key)
        if donor is not None and donor != name:
            candidates.append(_Candidate(
                name, [donor], Cover.literal(1, 0, 1), 0.0, gain,
                "resub"))
        donor = by_sig.get(inv_key)
        if donor is not None and donor != name:
            candidates.append(_Candidate(
                name, [donor], Cover.literal(1, 0, 0), 0.0, gain,
                "resub-inv"))
        by_sig.setdefault(key, name)
    for pi_name in network.inputs:
        by_sig.setdefault(
            values[sim.index[pi_name]].tobytes(), pi_name)
    candidates.sort(key=lambda c: (c.est_rate, -c.gain, c.target,
                                   c.kind))
    return candidates[:MAX_CANDIDATES]


def _screen_value(original: Network, approx: Network, spec,
                  n_words: int, seed: int) -> float:
    """Cheap (possibly unsound) metric estimate for candidate scoring."""
    from .metrics import _error_words
    n = len(original.inputs)
    if n <= spec.exact_threshold:
        pi = exhaustive_inputs(n)
        n_vectors = 1 << n
    else:
        sim_o = get_simulator(original)
        rng = np.random.default_rng(seed)
        pi = sim_o.random_inputs(rng, n_words)
        n_vectors = 64 * n_words
    diff_counts, any_count, _ = _error_words(
        original, approx, pi, n_vectors, magnitudes=False)
    if spec.metric == "er":
        return any_count / n_vectors
    rates = {po: diff_counts[po] / n_vectors for po in original.outputs}
    if spec.metric == "med":
        return float(sum((1 << i) * rates[po]
                         for i, po in enumerate(original.outputs)))
    return float(sum((1 << i) for i, po in enumerate(original.outputs)
                     if rates[po] > 0.0))


class ResubEngine(ApproxEngine):
    """Greedy error-constrained resubstitution under an ErrorSpec."""

    name = "resub"

    def synthesize(self, network: Network, directions: dict[str, int],
                   config, ctx=None, budget=None):
        from repro.flow import AnalysisContext
        from repro.network import NetworkError

        from .iterative import ApproxResult, _resynthesize
        from .metrics import evaluate_error
        from .types import assign_types

        spec = config.error
        if spec is None:
            from .config import ConfigError
            raise ConfigError("engine 'resub' requires an error spec",
                              field_name="error")
        ctx = ctx if ctx is not None else AnalysisContext()
        if budget is not None:
            budget.start()
        approx = network.copy()
        probs = ctx.probabilities(network, n_words=config.prob_words,
                                  seed=config.seed)
        types = assign_types(network, directions, config, probs)
        candidates = _propose(approx, config.sim_check_words,
                              config.seed)
        commits: list[tuple[str, list[str], Cover]] = []
        for cand in candidates:
            if budget is not None:
                budget.check_deadline("resub-candidates")
            if cand.target not in approx.nodes:
                continue
            node = approx.nodes[cand.target]
            saved = (list(node.fanins), node.cover.copy())
            try:
                approx.replace_node(cand.target, cand.fanins, cand.cover)
            except NetworkError:
                continue  # cycle-creating rewire; propose() missed it
            value = _screen_value(network, approx, spec,
                                  config.sim_check_words, config.seed)
            if value <= spec.bound:
                commits.append((cand.target, *saved))
            else:
                approx.replace_node(cand.target, *saved)
        cap = config.bdd_node_budget if budget is None \
            else budget.bdd_cap(config.bdd_node_budget)
        evaluation = evaluate_error(network, approx, spec,
                                    bdd_node_budget=cap,
                                    seed=config.seed, ctx=ctx,
                                    budget=budget)
        undone = 0
        # The guarantee: the conservative (exact or upper-bounded)
        # value must satisfy the bound; undoing every commit reaches
        # zero error, so this loop always terminates within budget.
        while not evaluation.within and commits:
            target, fanins, cover = commits.pop()
            approx.replace_node(target, fanins, cover)
            undone += 1
            evaluation = evaluate_error(network, approx, spec,
                                        bdd_node_budget=cap,
                                        seed=config.seed, ctx=ctx,
                                        budget=budget)
        # Resynthesis is function-preserving, so the measured error is
        # unchanged under the exact tiers; the Monte-Carlo tier's
        # structural zero-rate filter is texture-sensitive though, so
        # the cleaned network is attested by its own evaluation and
        # only adopted when that attestation still meets the bound.
        cleaned = approx.copy()
        _resynthesize(cleaned, budget)
        final_eval = evaluate_error(network, cleaned, spec,
                                    bdd_node_budget=cap,
                                    seed=config.seed, ctx=ctx,
                                    budget=budget)
        if final_eval.within:
            approx = cleaned
            evaluation = final_eval
        report = evaluation.to_dict()
        report["commits"] = len(commits)
        report["undone"] = undone
        report["candidates"] = len(candidates)
        result = ApproxResult(
            approx=approx,
            types=types,
            output_approximations=dict(directions),
            # Per-PO claim: the PO's own difference rate is within the
            # whole-circuit budget (trivially true when the aggregate
            # bound holds for er; informative for med/wce).
            correctness={po: bool(evaluation.within)
                         for po in network.outputs},
            check_method=f"error-{evaluation.method}",
            engine=self.name,
            error_report=report)
        if config.lint_level != "off":
            from repro.lint import LintError, lint_approx_result
            result.lint = lint_approx_result(network, result)
            if config.lint_level == "strict" and not result.lint.ok:
                raise LintError(result.lint)
        return result
