"""Global observability estimation.

The global observability of a signal is the probability that toggling it
changes some primary output.  It ranks gates by how much a fault at that
gate matters — the criticality measure that drives partial duplication
[10] and provides the analytic reliability view of [14].

Both estimators run on the stem-region campaign
(:func:`~repro.sim.observed_faults`): one golden simulation, one toggle
per fanout stem, and every signal's output changes derived from its
stem's.
"""

from __future__ import annotations

import numpy as np

from repro.sim import WORD_BITS, bit_count, get_simulator, observed_faults


def global_observabilities(circuit, n_words: int = 16,
                           seed: int = 2008,
                           signals: list[str] | None = None
                           ) -> dict[str, float]:
    """Monte Carlo global observability of each signal.

    Returns, for each signal, the fraction of random vectors on which
    inverting the signal changes at least one primary output.
    """
    sim = get_simulator(circuit)
    rng = np.random.default_rng(seed)
    golden = sim.run(sim.random_inputs(rng, n_words))
    if signals is None:
        signals = list(sim.signals)
    site_rows = _site_rows(sim, signals)
    counts = _change_counts(sim, golden, site_rows, ~golden[site_rows])
    return {signals[i]: int(counts[i]) / (n_words * WORD_BITS)
            for i in _level_order(sim, signals)}


def error_contributions(circuit, n_words: int = 8,
                        seed: int = 2008) -> dict[str, float]:
    """Per-gate expected error contribution under the stuck-at model.

    For gate g with output probability p and global observability o, a
    random stuck-at fault (sa0 or sa1 equally likely) is excited with
    probability p/2 + (1-p)/2 = 1/2 and, once excited, propagates with
    probability ~o.  We estimate the product directly by simulating both
    stuck values, which also captures excitation/propagation correlation.
    """
    sim = get_simulator(circuit)
    rng = np.random.default_rng(seed)
    golden = sim.run(sim.random_inputs(rng, n_words))
    gates = sim.signals[sim.num_inputs:]
    gate_rows = _site_rows(sim, gates)
    # Two lanes per signal: stuck-at-0 and stuck-at-1.
    forced = np.zeros((2 * len(gates), n_words), dtype=np.uint64)
    forced[1::2] = ~np.uint64(0)
    counts = _change_counts(sim, golden, np.repeat(gate_rows, 2), forced)
    return {gates[i]: int(counts[2 * i] + counts[2 * i + 1])
            / (2 * n_words * WORD_BITS)
            for i in _level_order(sim, gates)}


def _site_rows(sim, signals) -> np.ndarray:
    return np.fromiter((sim.index[s] for s in signals), dtype=np.intp,
                       count=len(signals))


def _level_order(sim, signals) -> list[int]:
    """Signal positions by logic level (stable): the report's key order.

    Callers sum these dicts' values, so the order is part of the
    result.
    """
    return sorted(range(len(signals)),
                  key=lambda i: sim.site_level(signals[i]))


def _change_counts(sim, golden: np.ndarray, site_rows: np.ndarray,
                   forced: np.ndarray) -> np.ndarray:
    """Per lane, the vectors on which forcing a site changes some PO."""
    counts = np.zeros(len(site_rows), dtype=np.int64)
    golden_out = sim.outputs_of(golden)[:, None, :]
    for lanes, faulty in observed_faults(sim, golden, site_rows, forced,
                                         sim.output_indices):
        any_change = np.bitwise_or.reduce(faulty ^ golden_out, axis=0)
        counts[lanes] = bit_count(any_change).sum(axis=1, dtype=np.int64)
    return counts
