"""Metrics for approximate circuits.

*Approximation percentage* (paper Sec 2): the fraction of minterms of
the exact function's protected minterm space that the approximate
function covers — 1-minterms under a 1-approximation, 0-minterms under a
0-approximation — optionally weighted by input probabilities.

*Area / power / delay overheads* compare mapped netlists, matching the
paper's Table 1/2 reporting (area = gate count, power = switching
activity, delay = critical path).

*Error metrics* (:func:`evaluate_error`): ER / MED / WCE of an
approximate network against the exact one, for the error-constrained
engines.  Two-tier evaluation: exact — exhaustive simulation on the
compiled batched simulator up to ``exact_threshold`` inputs, exact BDD
``sat_count`` sweeps beyond it where the metric permits — and
Monte-Carlo upper bounds (Hoeffding) on the simulator when the BDDs
overflow their node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bdd import BddOverflowError
from repro.flow import AnalysisContext
from repro.network import GlobalBdds, Network, dfs_input_order
from repro.sim import (exhaustive_inputs, get_simulator, popcount,
                       switching_activity)
from repro.synth.netlist import MappedNetlist


def approximation_percentage(original: Network, approx: Network,
                             output: str, direction: int,
                             method: str = "auto",
                             bdd_node_budget: int = 500_000,
                             n_words: int = 256,
                             seed: int = 2008,
                             ctx: AnalysisContext | None = None) -> float:
    """Approximation percentage of one output, in percent.

    For a 1-approximation G of F: ``100 * |G & F| / |F|``; for a
    0-approximation: ``100 * |!G & !F| / |!F|``.  Inputs are uniform
    (the paper's assumption).  ``method`` is "bdd", "sim", or "auto".
    ``ctx`` reuses a shared pair-BDD manager (bit-identical results).
    """
    if method not in ("bdd", "sim", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("bdd", "auto"):
        try:
            return _approx_pct_bdd(original, approx, output, direction,
                                   bdd_node_budget, ctx)
        except BddOverflowError:
            if method == "bdd":
                raise
    return _approx_pct_sim(original, approx, output, direction, n_words,
                           seed)


def _pair_bdds(original, approx, budget, ctx):
    if ctx is not None:
        return ctx.pair_bdds(original, approx, budget)
    bdds = GlobalBdds(dfs_input_order(original), max_nodes=budget)
    bdds.add_network(original, prefix="o_")
    bdds.add_network(approx, prefix="a_")
    return bdds


def _approx_pct_bdd(original, approx, output, direction, budget,
                    ctx=None) -> float:
    bdds = _pair_bdds(original, approx, budget, ctx)
    mgr = bdds.manager
    prefix_o = "" if original.is_input(output) else "o_"
    prefix_a = "" if approx.is_input(output) else "a_"
    f = bdds.function(prefix_o + output)
    g = bdds.function(prefix_a + output)
    if direction == 0:
        f, g = mgr.not_(f), mgr.not_(g)
    denom = mgr.probability(f)
    if denom == 0.0:
        return 100.0
    return 100.0 * mgr.probability(mgr.and_(f, g)) / denom


def _approx_pct_sim(original, approx, output, direction, n_words,
                    seed) -> float:
    sim_o = get_simulator(original)
    sim_a = get_simulator(approx)
    rng = np.random.default_rng(seed)
    pi = sim_o.random_inputs(rng, n_words)
    reorder = [original.inputs.index(p) for p in sim_a.input_names]
    vo = sim_o.run(pi)[sim_o.index[output]]
    va = sim_a.run(pi[reorder])[sim_a.index[output]]
    if direction == 0:
        vo, va = ~vo, ~va
    denom = popcount(vo)
    if denom == 0:
        return 100.0
    return 100.0 * popcount(vo & va) / denom


def approximation_percentages(original: Network, approx: Network,
                              directions: dict[str, int],
                              method: str = "auto",
                              bdd_node_budget: int = 500_000,
                              n_words: int = 256,
                              seed: int = 2008,
                              ctx: AnalysisContext | None = None
                              ) -> dict[str, float]:
    """Approximation percentage of every output, sharing one manager.

    Far cheaper than calling :func:`approximation_percentage` per
    output: the global BDDs (or the simulation run) are built once.
    With ``ctx``, the manager is additionally shared with the synthesis
    checker and lint prover across the whole flow.
    """
    if method in ("bdd", "auto"):
        # Content-addressed pct cache: a warm run whose cone pairs are
        # unchanged serves every percentage without touching a manager.
        proofs = getattr(ctx, "proofs", None)
        fingerprints = None
        cached_pcts: dict[str, float] = {}
        if proofs is not None:
            from repro.lab.proofs import ConeFingerprinter, pct_key
            fingerprints = ConeFingerprinter()
            for po, direction in directions.items():
                key = pct_key(fingerprints, original, approx, po,
                              1 if direction == 1 else 0)
                entry = proofs.get(key)
                if entry is not None \
                        and entry.get("kind") == "approx_pct":
                    cached_pcts[po] = float(entry["pct"])
        todo = [po for po in directions if po not in cached_pcts]
        if not todo:
            return {po: cached_pcts[po] for po in directions}
        try:
            bdds = _pair_bdds(original, approx, bdd_node_budget, ctx)
            mgr = bdds.manager
            fs, gs = [], []
            for po in todo:
                prefix_o = "" if original.is_input(po) else "o_"
                prefix_a = "" if approx.is_input(po) else "a_"
                f = bdds.function(prefix_o + po)
                g = bdds.function(prefix_a + po)
                if directions[po] == 0:
                    f, g = mgr.not_(f), mgr.not_(g)
                fs.append(f)
                gs.append(g)
            covered = [mgr.and_(f, g) for f, g in zip(fs, gs)]
            # One memo shared by every root: the cones of one circuit's
            # outputs overlap, so each node is weighed once.
            probs = mgr.probability_many(fs + covered)
            result = dict(cached_pcts)
            for i, po in enumerate(todo):
                denom = probs[i]
                pct = 100.0 if denom == 0.0 else \
                    100.0 * probs[len(todo) + i] / denom
                result[po] = pct
                if proofs is not None:
                    key = pct_key(fingerprints, original, approx, po,
                                  1 if directions[po] == 1 else 0)
                    proofs.put(key, {"kind": "approx_pct", "po": po,
                                     "pct": pct, "engine": "bdd"})
            return {po: result[po] for po in directions}
        except BddOverflowError:
            if method == "bdd":
                raise
    sim_o = get_simulator(original)
    sim_a = get_simulator(approx)
    rng = np.random.default_rng(seed)
    pi = sim_o.random_inputs(rng, n_words)
    reorder = [original.inputs.index(p) for p in sim_a.input_names]
    values_o = sim_o.run(pi)
    values_a = sim_a.run(pi[reorder])
    result = {}
    for po, direction in directions.items():
        vo = values_o[sim_o.index[po]]
        va = values_a[sim_a.index[po]]
        if direction == 0:
            vo, va = ~vo, ~va
        denom = popcount(vo)
        result[po] = 100.0 if denom == 0 else \
            100.0 * popcount(vo & va) / denom
    return result


def mean_approximation_percentage(original: Network, approx: Network,
                                  directions: dict[str, int],
                                  **kwargs) -> float:
    """Average approximation percentage over all primary outputs."""
    pcts = approximation_percentages(original, approx, directions,
                                     **kwargs)
    return sum(pcts.values()) / len(pcts) if pcts else 100.0


# ----------------------------------------------------------------------
# Error metrics (ER / MED / WCE) for error-constrained engines
# ----------------------------------------------------------------------
#: One-sided confidence for Monte-Carlo upper bounds (Hoeffding).
MC_CONFIDENCE = 0.999


@dataclass
class ErrorEvaluation:
    """Result of one error-metric evaluation.

    ``value`` is the metric's measured value when ``exact``, otherwise
    an upper bound: mathematically sound when ``sound`` (BDD-derived
    MED/WCE bounds, structural WCE bounds), statistical at
    ``confidence`` otherwise (Monte-Carlo tiers).  ``per_output`` maps
    every PO to its bit-difference rate (a fraction);
    ``per_output_counts`` additionally gives the exact rate as integer
    ``(count, total)`` pairs when an exact tier ran.
    """

    metric: str
    value: float
    bound: float
    exact: bool
    sound: bool
    method: str
    confidence: float = 1.0
    per_output: dict[str, float] = field(default_factory=dict)
    per_output_counts: dict[str, tuple[int, int]] | None = None
    weights: dict[str, int] = field(default_factory=dict)
    #: Evaluation work performed (vectors simulated, tier taken) —
    #: reported to the flow trace as error budget spent.
    work: dict = field(default_factory=dict)

    @property
    def within(self) -> bool:
        """Conservative verdict: the (bounded) value meets the bound."""
        return self.value <= self.bound

    def to_dict(self) -> dict:
        doc = {
            "metric": self.metric,
            "value": float(self.value),
            "bound": float(self.bound),
            "within": bool(self.within),
            "exact": bool(self.exact),
            "sound": bool(self.sound),
            "method": self.method,
            "confidence": float(self.confidence),
            "per_output": {po: float(r)
                           for po, r in self.per_output.items()},
            "weights": {po: int(w) for po, w in self.weights.items()},
            "budget_spent": dict(self.work),
        }
        if self.per_output_counts is not None:
            doc["per_output_counts"] = {
                po: [int(c), int(t)]
                for po, (c, t) in self.per_output_counts.items()}
        return doc


def _unpack_bits(words: np.ndarray, n_vectors: int) -> np.ndarray:
    """Word array -> 0/1 array of length ``n_vectors`` (v = w*64+b)."""
    shifts = np.arange(64, dtype=np.uint64)
    bits = (words[:, None] >> shifts[None, :]) & np.uint64(1)
    return bits.reshape(-1)[:n_vectors].astype(np.int64)


def _error_words(original: Network, approx: Network,
                 pi_words: np.ndarray, n_vectors: int,
                 magnitudes: bool = True):
    """Per-PO diff bits and integer error magnitudes for a vector set.

    Returns ``(diff_counts, any_count, abs_err)`` where ``abs_err`` is
    an object-dtype array of arbitrary-precision ``|O - A|`` values
    (outputs read as an unsigned integer, ``original.outputs`` order,
    LSB first), or None with ``magnitudes=False`` (ER needs none).
    """
    sim_o = get_simulator(original)
    sim_a = get_simulator(approx)
    reorder = [original.inputs.index(p) for p in sim_a.input_names]
    values_o = sim_o.run(pi_words)
    values_a = sim_a.run(pi_words[reorder])
    diff_counts: dict[str, int] = {}
    any_diff = np.zeros(pi_words.shape[1], dtype=np.uint64)
    err = np.zeros(n_vectors, dtype=object) if magnitudes else None
    for i, po in enumerate(original.outputs):
        vo = values_o[sim_o.index[po]]
        va = values_a[sim_a.index[po]]
        delta = vo ^ va
        any_diff |= delta
        delta_bits = _unpack_bits(delta, n_vectors)
        diff_counts[po] = int(np.count_nonzero(delta_bits))
        if magnitudes:
            signed = (_unpack_bits(vo, n_vectors)
                      - _unpack_bits(va, n_vectors)).astype(object)
            err = err + signed * (1 << i)
    # Mask bits beyond n_vectors before counting whole-word diffs.
    any_bits = _unpack_bits(any_diff, n_vectors)
    return (diff_counts, int(np.count_nonzero(any_bits)),
            np.abs(err) if magnitudes else None)


def _identical_cones(original: Network, approx: Network) -> set[str]:
    """POs whose cone is byte-identical in both networks.

    A sound zero-rate filter for the Monte-Carlo tier: an untouched
    cone cannot differ on any vector.
    """
    from repro.lab.proofs import ConeFingerprinter
    fp = ConeFingerprinter()
    return {po for po in original.outputs
            if fp.cone(original, po) == fp.cone(approx, po)}


def _eval_exhaustive(original, approx, spec, weights) -> ErrorEvaluation:
    n = len(original.inputs)
    n_vectors = 1 << n
    pi = exhaustive_inputs(n)
    diff_counts, any_count, abs_err = _error_words(
        original, approx, pi, n_vectors,
        magnitudes=spec.metric != "er")
    per_output = {po: diff_counts[po] / n_vectors
                  for po in original.outputs}
    counts = {po: (diff_counts[po], n_vectors)
              for po in original.outputs}
    if spec.metric == "er":
        value = any_count / n_vectors
    elif spec.metric == "med":
        value = float(sum(abs_err)) / n_vectors
    else:  # wce
        value = float(max(abs_err, default=0))
    return ErrorEvaluation(
        metric=spec.metric, value=value, bound=spec.bound, exact=True,
        sound=True, method="exhaustive", per_output=per_output,
        per_output_counts=counts, weights=weights,
        work={"vectors": n_vectors, "tier": "exhaustive"})


def _eval_bdd(original, approx, spec, weights, node_budget,
              ctx) -> ErrorEvaluation:
    # Content-addressed per-PO difference rates: warm runs over
    # unchanged cone pairs serve exact counts without a manager (the
    # aggregate er probability still needs one, so the short-circuit
    # only fires for the bounded med/wce metrics).
    proofs = getattr(ctx, "proofs", None)
    fingerprints = None
    cached: dict[str, tuple[int, int]] = {}
    if proofs is not None:
        from repro.lab.proofs import ConeFingerprinter, error_key
        fingerprints = ConeFingerprinter()
        for po in original.outputs:
            key = error_key(fingerprints, original, approx, po,
                            "diff-rate", engine="resub")
            entry = proofs.get(key)
            if entry is not None and entry.get("kind") == "error_metric":
                cached[po] = (int(entry["count"]), int(entry["total"]))
    if spec.metric != "er" and len(cached) == len(original.outputs):
        total = max(t for _, t in cached.values())
        counts = {po: (c * (total // t), total)
                  for po, (c, t) in cached.items()}
        per_output = {po: c / t for po, (c, t) in counts.items()}
        work = {"tier": "bdd", "cached_outputs": len(cached)}
    else:
        bdds = _pair_bdds(original, approx, node_budget, ctx)
        mgr = bdds.manager
        xors = []
        for po in original.outputs:
            prefix_o = "" if original.is_input(po) else "o_"
            prefix_a = "" if approx.is_input(po) else "a_"
            xors.append(mgr.xor_(bdds.function(prefix_o + po),
                                 bdds.function(prefix_a + po)))
        total = 1 << mgr.num_vars
        sat_counts = [int(c) for c in mgr.sat_count_many(xors)]
        per_output = {po: sat_counts[i] / total
                      for i, po in enumerate(original.outputs)}
        counts = {po: (sat_counts[i], total)
                  for i, po in enumerate(original.outputs)}
        work = {"tier": "bdd", "bdd_vars": mgr.num_vars,
                "cached_outputs": len(cached)}
        if proofs is not None:
            for po in original.outputs:
                if po in cached:
                    continue
                key = error_key(fingerprints, original, approx, po,
                                "diff-rate", engine="resub")
                proofs.put(key, {"kind": "error_metric", "po": po,
                                 "metric": "diff-rate",
                                 "count": counts[po][0],
                                 "total": counts[po][1],
                                 "engine": "bdd"})
    if spec.metric == "er":
        value = mgr.sat_count(mgr.or_many(xors)) / total
        exact = True
        method = "bdd"
    elif spec.metric == "med":
        # Sound bound: |O - A| <= sum_i 2^i |o_i - a_i|, so
        # E|O - A| <= sum_i 2^i * r_i.
        value = float(sum(weights[po] * per_output[po]
                          for po in original.outputs))
        exact = False
        method = "bdd-bound"
    else:  # wce: every never-differing bit contributes nothing.
        value = float(sum(weights[po] for po in original.outputs
                          if per_output[po] > 0.0))
        exact = False
        method = "bdd-bound"
    return ErrorEvaluation(
        metric=spec.metric, value=value, bound=spec.bound, exact=exact,
        sound=True, method=method, per_output=per_output,
        per_output_counts=counts, weights=weights, work=work)


def _eval_mc(original, approx, spec, weights, n_words,
             seed) -> ErrorEvaluation:
    sim_o = get_simulator(original)
    rng = np.random.default_rng(seed)
    pi = sim_o.random_inputs(rng, n_words)
    n_vectors = 64 * n_words
    diff_counts, any_count, abs_err = _error_words(
        original, approx, pi, n_vectors, magnitudes=False)
    # A byte-identical cone has rate exactly 0 — no statistical slack.
    frozen = _identical_cones(original, approx)
    per_output = {po: diff_counts[po] / n_vectors
                  for po in original.outputs}
    live = [po for po in original.outputs if po not in frozen]
    delta = 1.0 - MC_CONFIDENCE
    if spec.metric == "er":
        eps = math.sqrt(math.log(1.0 / delta) / (2.0 * n_vectors))
        value = min(any_count / n_vectors + (eps if live else 0.0), 1.0)
    elif spec.metric == "med":
        # Union bound over the live POs' Hoeffding intervals, then the
        # linear MED bound over the bounded per-PO rates.
        eps = math.sqrt(math.log(max(len(live), 1) / delta)
                        / (2.0 * n_vectors))
        value = float(sum(
            weights[po] * min(per_output[po]
                              + (eps if po in live else 0.0), 1.0)
            for po in original.outputs))
    else:  # wce: structural bound — only touched cones can ever differ.
        value = float(sum(weights[po] for po in live))
    return ErrorEvaluation(
        metric=spec.metric, value=value, bound=spec.bound, exact=False,
        sound=spec.metric == "wce", method="mc",
        confidence=1.0 if spec.metric == "wce" else MC_CONFIDENCE,
        per_output=per_output, weights=weights,
        work={"vectors": n_vectors, "tier": "mc",
              "frozen_outputs": len(frozen)})


def evaluate_error(original: Network, approx: Network, spec,
                   bdd_node_budget: int = 500_000,
                   n_words: int = 256, seed: int = 2008,
                   ctx: AnalysisContext | None = None,
                   budget=None) -> ErrorEvaluation:
    """ER / MED / WCE of ``approx`` against ``original``.

    Two tiers: exact — exhaustive simulation when the input count is at
    most ``spec.exact_threshold``, exact BDD ``sat_count`` sweeps
    beyond it (ER stays exact; MED/WCE become sound upper bounds from
    per-PO difference rates) — and Monte-Carlo upper bounds on the
    compiled simulator when the BDDs overflow.  ``budget`` threads the
    guard: the BDD node cap is merged, the deadline is polled, and a
    forced fall to simulation is recorded as a degradation rung.
    """
    if list(original.outputs) != list(approx.outputs):
        raise ValueError("error metrics need matching output lists")
    weights = {po: 1 << i for i, po in enumerate(original.outputs)}
    if budget is not None:
        budget.check_deadline("error-metrics")
    if len(original.inputs) <= spec.exact_threshold:
        evaluation = _eval_exhaustive(original, approx, spec, weights)
    else:
        cap = bdd_node_budget if budget is None \
            else budget.bdd_cap(bdd_node_budget)
        try:
            evaluation = _eval_bdd(original, approx, spec, weights, cap,
                                   ctx)
        except BddOverflowError:
            if budget is not None:
                budget.report.rung("sim", "selected",
                                   where="error-metrics",
                                   reason="bdd-overflow")
                budget.check_deadline("error-metrics")
            evaluation = _eval_mc(original, approx, spec, weights,
                                  n_words, seed)
    # The tier split must be reproducible offline (certificates).
    evaluation.work["exact_threshold"] = spec.exact_threshold
    return evaluation


def area_overhead(original: MappedNetlist,
                  extra_gates: int | MappedNetlist) -> float:
    """Extra gates as a percentage of the original gate count."""
    extra = extra_gates.gate_count if isinstance(extra_gates,
                                                 MappedNetlist) \
        else extra_gates
    if original.gate_count == 0:
        return 0.0
    return 100.0 * extra / original.gate_count


def power_overhead_pct(original: MappedNetlist, combined,
                       n_words: int = 16, seed: int = 2008) -> float:
    """Extra switching activity as a percentage of the original's."""
    base = switching_activity(original, n_words=n_words, seed=seed)
    total = switching_activity(combined, n_words=n_words, seed=seed)
    if base <= 0:
        return 0.0
    return 100.0 * (total - base) / base


def delay_change_pct(original: MappedNetlist,
                     other: MappedNetlist) -> float:
    """Critical-path delay of ``other`` relative to ``original``, in %.

    Negative values mean the other circuit is faster (the paper reports
    approximate circuits 38% faster on average and parity predictors
    51% slower).
    """
    base = original.delay()
    if base <= 0:
        return 0.0
    return 100.0 * (other.delay() - base) / base
