"""Fault-simulation campaigns.

Implements the paper's evaluation loop: simulate random input vectors
against every single stuck-at fault and classify the resulting primary
output errors by direction (0->1 vs 1->0).  Bit-parallel words make each
(fault, word) simulation cover 64 runs of the paper's campaign.

Every campaign draws one vector block and runs one golden simulation,
shared by all faults, and reads the faulty values of the rows it
scores from :func:`observed_faults`: each fanout stem is toggled once
on the compiled tape, and every fault inside the stem's fanout-free
region is derived from that toggle and the golden values (critical
path tracing).  Faults are independent, so neither the stem grouping
nor the block order changes a result.  The overlay interpreter
(:meth:`BitSimulator.run_forced`) is the single-fault reference this
path is tested against, and :meth:`BitSimulator.run_stuck_batch` (one
full tape lane per fault) the full-cube one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .faults import Fault, fault_list
from .simulator import (WORD_BITS, BitSimulator, bit_count, get_simulator,
                        popcount)

#: Stems toggled together in one batched tape pass.
DEFAULT_BATCH = 32


@dataclass
class OutputErrorStats:
    """Per-output error-direction counts across a campaign."""

    zero_to_one: int = 0
    one_to_zero: int = 0

    @property
    def total(self) -> int:
        return self.zero_to_one + self.one_to_zero

    @property
    def dominant_direction(self) -> str:
        """'0->1' or '1->0', whichever occurred more often."""
        return "0->1" if self.zero_to_one >= self.one_to_zero else "1->0"

    @property
    def skew(self) -> float:
        """Fraction of errors in the dominant direction (0.5 .. 1.0)."""
        if self.total == 0:
            return 1.0
        return max(self.zero_to_one, self.one_to_zero) / self.total


@dataclass
class FaultSimReport:
    """Aggregate result of a fault-injection campaign."""

    runs: int
    error_runs: int
    per_output: dict[str, OutputErrorStats] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        return self.error_runs / self.runs if self.runs else 0.0


def observed_faults(sim: BitSimulator, golden: np.ndarray, site_rows,
                    forced, observe):
    """Faulty values of the ``observe`` rows, one fault per lane.

    Fault ``i`` forces row ``site_rows[i]`` to ``forced[i]`` (shape
    (F, n_words)) against the vectors of ``golden``.  Yields ``(lanes,
    values)`` blocks: ``lanes`` indexes the faults, ``values`` (O,
    len(lanes), n_words) holds their faulty values at the ``observe``
    rows (duplicates allowed).  Every fault appears in exactly one
    block, and faults never interact, so block order never changes a
    tally.

    The faults are not simulated one by one.  A fault inside the
    fanout-free region of a stem (see
    :meth:`BitSimulator.fanout_free_regions`) reaches the rest of the
    circuit only through that stem, and it flips the stem exactly on
    the vectors where it is excited (``forced ^ golden[site]``) and
    every gate between site and stem passes the change on (``obs``).
    On those vectors the circuit computes what it computes with the
    stem inverted; elsewhere it computes the golden values.  So each
    distinct stem is toggled once, through
    :meth:`BitSimulator.run_forced_batch` in level-sorted groups of
    :data:`DEFAULT_BATCH`, and each fault's observed values are
    ``golden ^ (toggle difference & flip mask)``.  Only one group's
    toggle cube is alive at a time, and each block is at most that
    cube's size.
    """
    site_rows = np.asarray(site_rows, dtype=np.intp)
    forced = np.asarray(forced, dtype=np.uint64)
    observe = np.asarray(observe, dtype=np.intp)
    if site_rows.size == 0:
        return
    stem_of, obs = sim.fanout_free_regions(golden, observe)
    site_stems = stem_of[site_rows]
    flips = (forced ^ golden[site_rows]) & obs[site_rows]      # (F, W)
    is_stem = np.zeros(len(sim.signals), dtype=bool)
    is_stem[site_stems] = True
    stems = np.flatnonzero(is_stem)
    stems = stems[np.argsort(sim._level_of_row[stems], kind="stable")]
    slot = np.empty(len(sim.signals), dtype=np.intp)
    slot[stems] = np.arange(stems.size)
    fault_slot = slot[site_stems]
    order = np.argsort(fault_slot, kind="stable")
    bounds = np.searchsorted(fault_slot[order],
                             np.arange(0, stems.size + DEFAULT_BATCH,
                                       DEFAULT_BATCH))
    golden_obs = golden[observe][:, None, :]                 # (O, 1, W)
    # Lanes per block, so a block is no larger than a toggle cube.
    width = max(DEFAULT_BATCH,
                len(sim.signals) * DEFAULT_BATCH // max(observe.size, 1))
    for group, start in enumerate(range(0, stems.size, DEFAULT_BATCH)):
        toggled = stems[start:start + DEFAULT_BATCH]
        delta = sim.run_forced_batch(golden, toggled,
                                     ~golden[toggled])[observe]
        delta ^= golden_obs                                  # (O, G, W)
        for first in range(bounds[group], bounds[group + 1], width):
            lanes = order[first:min(first + width, bounds[group + 1])]
            values = delta[:, fault_slot[lanes] - start, :]
            values &= flips[lanes]
            values ^= golden_obs
            yield lanes, values


def run_campaign(circuit, n_words: int = 8, seed: int = 2008,
                 faults: list[Fault] | None = None) -> FaultSimReport:
    """Fault-simulate ``circuit`` and tally output error directions.

    Every fault is simulated against the same ``n_words * 64`` random
    vectors.  An *error run* is a (vector, fault) pair for which at
    least one primary output differs from the golden value.
    """
    sim = get_simulator(circuit)
    if faults is None:
        faults = fault_list(circuit)
    rng = np.random.default_rng(seed)
    golden = sim.run(sim.random_inputs(rng, n_words))
    golden_out = sim.outputs_of(golden)            # (P, W)
    lifted = golden_out[:, None, :]
    report = FaultSimReport(runs=len(faults) * n_words * WORD_BITS,
                            error_runs=0)
    n_outputs = len(sim.output_names)
    zero_to_one = np.zeros(n_outputs, dtype=np.int64)
    one_to_zero = np.zeros(n_outputs, dtype=np.int64)
    site_rows, forced = sim.stuck_words(faults, n_words)
    for _, faulty in observed_faults(sim, golden, site_rows, forced,
                                     sim.output_indices):
        diff = faulty ^ lifted
        report.error_runs += popcount(np.bitwise_or.reduce(diff, axis=0))
        zero_to_one += bit_count(diff & ~lifted).sum(axis=(1, 2),
                                                     dtype=np.int64)
        one_to_zero += bit_count(diff & lifted).sum(axis=(1, 2),
                                                    dtype=np.int64)
    for po, up, down in zip(sim.output_names, zero_to_one, one_to_zero):
        report.per_output[po] = OutputErrorStats(int(up), int(down))
    return report
