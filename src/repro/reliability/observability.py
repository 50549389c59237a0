"""Global observability estimation.

The global observability of a signal is the probability that toggling it
changes some primary output.  It ranks gates by how much a fault at that
gate matters — the criticality measure that drives partial duplication
[10] and provides the analytic reliability view of [14].

Both estimators batch their injections on the compiled simulation tape:
signals are grouped into lanes that share one golden simulation, so the
whole sweep costs a handful of vectorized passes instead of one Python
cone walk per signal.
"""

from __future__ import annotations

import numpy as np

from repro.sim import (DEFAULT_BATCH, WORD_BITS, batched, bit_count,
                       get_simulator)


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
    result: dict[str, float] = {}
    for batch in batched(signals, sim):
        site_rows = _site_rows(sim, batch)
        counts = _change_counts(sim, golden, site_rows, ~golden[site_rows])
        for name, count in zip(batch, counts):
            result[name] = int(count) / (n_words * WORD_BITS)
    return result


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
    result: dict[str, float] = {}
    # Two lanes per signal: stuck-at-0 and stuck-at-1.
    for batch in batched(sim.signals[sim.num_inputs:], sim,
                         size=DEFAULT_BATCH // 2):
        site_rows = np.repeat(_site_rows(sim, batch), 2)
        forced = np.zeros((len(site_rows), n_words), dtype=np.uint64)
        forced[1::2] = ~np.uint64(0)
        counts = _change_counts(sim, golden, site_rows, forced)
        for name, sa0, sa1 in zip(batch, counts[0::2], counts[1::2]):
            result[name] = int(sa0 + sa1) / (2 * n_words * WORD_BITS)
    return result


def _site_rows(sim, signals) -> np.ndarray:
    return np.fromiter((sim.index[s] for s in signals), dtype=np.intp,
                       count=len(signals))


def _change_counts(sim, golden: np.ndarray, site_rows: np.ndarray,
                   forced: np.ndarray) -> np.ndarray:
    """Per lane, the vectors on which forcing a site changes some PO."""
    scratch = sim.run_forced_batch(golden, site_rows, forced)
    golden_out = sim.outputs_of(golden)
    diff = scratch[sim.output_indices] ^ golden_out[:, None, :]
    any_change = np.bitwise_or.reduce(diff, axis=0)        # (B, W)
    return bit_count(any_change).sum(axis=1, dtype=np.int64)
