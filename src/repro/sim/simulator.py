"""Bit-parallel logic simulation.

Simulates :class:`~repro.network.Network` or
:class:`~repro.synth.netlist.MappedNetlist` circuits 64 input vectors at
a time using numpy uint64 words.  This is the engine behind reliability
analysis, CED-coverage campaigns, and switching-activity power
estimation — the roles the authors' fault-injection framework played.

Two evaluation paths coexist:

* a **compiled tape**: the circuit is lowered once into flat numpy index
  arrays grouped by logic level (literal indices, complement masks, and
  ``reduceat`` segment offsets), so :meth:`BitSimulator.run` evaluates a
  whole level with four vectorized calls instead of per-cube Python
  loops.  The tape also supports *batched* faulty evaluation
  (:meth:`BitSimulator.run_forced_batch`): many forced rows share one
  golden simulation and are re-evaluated together along an extra lane
  axis.  Campaigns force only fanout stems there:
  :meth:`BitSimulator.fanout_free_regions` maps every row to its stem
  and to the vectors on which flipping the row flips the stem, which
  is all a fault inside the stem's fanout-free region needs (see
  :func:`repro.sim.faultsim.observed_faults`).
* the original **interpreter** (:meth:`BitSimulator.run_interpreted` and
  the overlay-based :meth:`BitSimulator.run_forced`), kept both as the
  reference oracle for equivalence tests and for sparse single-fault
  queries where a cone overlay beats a full batched pass.

Fault injection uses transitive-fanout overlays: a stuck-at value is
forced on one signal and only its fanout cone is re-evaluated, the rest
of the circuit aliasing the golden values.

Because every flow stage (reliability, coverage, power, masking,
observability) simulates the same handful of circuits, compiled
simulators are cached per circuit object via :func:`get_simulator`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.network import Network
from repro.synth.netlist import MappedNetlist

WORD_BITS = 64
#: Largest input count :func:`exhaustive_inputs` enumerates (2^24
#: vectors, 2 MiB per signal row).
MAX_EXHAUSTIVE_INPUTS = 24
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class _TapeLevel:
    """One logic level of the compiled instruction tape.

    Literals of all cubes of all (non-constant) gates in the level are
    concatenated into ``lit_idx``/``lit_inv``; ``cube_starts`` segments
    them into cubes (AND-reduced) and ``gate_cube_starts`` segments the
    cube terms into gates (OR-reduced).  Constant gates — empty covers
    (0) and tautology cubes (1) — are materialized separately because
    ``reduceat`` cannot express empty segments.
    """

    lit_idx: np.ndarray          # (L,) intp   signal row per literal
    lit_inv: np.ndarray          # (L,) uint64 0 or ~0 xor-mask
    cube_starts: np.ndarray      # (C,) intp   literal offset per cube
    gate_cube_starts: np.ndarray  # (G,) intp  cube offset per gate
    gate_out: np.ndarray         # (G,) intp   output row per gate
    const_out: np.ndarray        # (K,) intp   rows of constant gates
    const_vals: np.ndarray       # (K,) uint64 their values


class BitSimulator:
    """A compiled, index-based simulator for one circuit."""

    def __init__(self, circuit: Network | MappedNetlist):
        # No reference to ``circuit`` is kept: the simulator cache is
        # weakly keyed on it, and a value pinning its key would never
        # be dropped.
        if isinstance(circuit, MappedNetlist):
            inputs = circuit.inputs
            order = circuit.topological_order()
            local = {name: (circuit.gates[name].fanins,
                            circuit.gates[name].cell.cover)
                     for name in order}
            self.output_names = list(circuit.outputs)
            output_signals = [circuit.po_signals[po]
                              for po in circuit.outputs]
        elif isinstance(circuit, Network):
            inputs = circuit.inputs
            order = circuit.topological_order()
            local = {name: (circuit.nodes[name].fanins,
                            circuit.nodes[name].cover)
                     for name in order}
            self.output_names = list(circuit.outputs)
            output_signals = list(circuit.outputs)
        else:
            raise TypeError(f"cannot simulate {type(circuit).__name__}")

        self.signals: list[str] = list(inputs) + list(order)
        self.index: dict[str, int] = {s: i for i, s in
                                      enumerate(self.signals)}
        self.num_inputs = len(inputs)
        self.input_names = list(inputs)
        self.output_indices = [self.index[s] for s in output_signals]

        # Compile each step to (out_idx, [(pos_idx_tuple, neg_idx_tuple)]).
        self.steps: list[tuple[int, list[tuple[tuple[int, ...],
                                               tuple[int, ...]]]]] = []
        for name in order:
            fanins, cover = local[name]
            fanin_idx = [self.index[f] for f in fanins]
            cubes = []
            for cube in cover.cubes:
                pos = tuple(fanin_idx[i] for i in range(cube.n)
                            if cube.ones >> i & 1)
                neg = tuple(fanin_idx[i] for i in range(cube.n)
                            if cube.zeros >> i & 1)
                cubes.append((pos, neg))
            self.steps.append((self.index[name], cubes))
        self._step_of: dict[int, int] = {
            out: i for i, (out, _) in enumerate(self.steps)}

        # Fanout adjacency on indices, for fault cones.
        self._readers: list[list[int]] = [[] for _ in self.signals]
        self._step_fanins: list[tuple[int, ...]] = []
        for out, cubes in self.steps:
            seen: set[int] = set()
            ordered: list[int] = []
            for pos, neg in cubes:
                for idx in pos + neg:
                    if idx not in seen:
                        seen.add(idx)
                        ordered.append(idx)
                        self._readers[idx].append(out)
            self._step_fanins.append(tuple(ordered))
        self._tfo_cache: dict[int, list[int]] = {}
        self._regions: tuple | None = None   # see fanout_free_regions
        self._compile_tape()

    # ------------------------------------------------------------------
    # Tape compilation
    # ------------------------------------------------------------------
    def _compile_tape(self) -> None:
        """Lower the steps into levelized flat-array form."""
        level = np.zeros(len(self.signals), dtype=np.intp)
        for (out, _), fanins in zip(self.steps, self._step_fanins):
            level[out] = max((level[f] for f in fanins), default=0) + 1
        self._level_of_row = level

        by_level: dict[int, list[int]] = {}
        for si, (out, _) in enumerate(self.steps):
            by_level.setdefault(int(level[out]), []).append(si)
        max_level = max(by_level, default=0)

        self._tape: list[_TapeLevel] = []
        for lvl_no in range(1, max_level + 1):
            lit_idx: list[int] = []
            lit_inv: list[np.uint64] = []
            cube_starts: list[int] = []
            gate_cube_starts: list[int] = []
            gate_out: list[int] = []
            const_out: list[int] = []
            const_vals: list[np.uint64] = []
            n_cubes = 0
            for si in by_level.get(lvl_no, ()):
                out, cubes = self.steps[si]
                if not cubes:
                    const_out.append(out)
                    const_vals.append(np.uint64(0))
                    continue
                if any(not pos and not neg for pos, neg in cubes):
                    const_out.append(out)      # tautology cube wins
                    const_vals.append(_ALL_ONES)
                    continue
                gate_cube_starts.append(n_cubes)
                gate_out.append(out)
                for pos, neg in cubes:
                    cube_starts.append(len(lit_idx))
                    for idx in pos:
                        lit_idx.append(idx)
                        lit_inv.append(np.uint64(0))
                    for idx in neg:
                        lit_idx.append(idx)
                        lit_inv.append(_ALL_ONES)
                    n_cubes += 1
            self._tape.append(_TapeLevel(
                lit_idx=np.asarray(lit_idx, dtype=np.intp),
                lit_inv=np.asarray(lit_inv, dtype=np.uint64),
                cube_starts=np.asarray(cube_starts, dtype=np.intp),
                gate_cube_starts=np.asarray(gate_cube_starts,
                                            dtype=np.intp),
                gate_out=np.asarray(gate_out, dtype=np.intp),
                const_out=np.asarray(const_out, dtype=np.intp),
                const_vals=np.asarray(const_vals, dtype=np.uint64)))

    @property
    def depth(self) -> int:
        """Number of logic levels in the compiled tape."""
        return len(self._tape)

    def site_level(self, signal: str) -> int:
        """Logic level of a signal (0 for primary inputs)."""
        return int(self._level_of_row[self.index[signal]])

    def _run_tape(self, values: np.ndarray, first_level: int = 0) -> None:
        """Evaluate tape levels ``first_level..`` in place.

        ``values`` has shape (S, C) where C is any flattened column
        count (words, or lanes x words for batched evaluation).
        """
        for lvl in self._tape[first_level:]:
            self._eval_level(lvl, values)

    @staticmethod
    def _eval_level(lvl: _TapeLevel, values: np.ndarray,
                    out: np.ndarray | None = None) -> None:
        """Evaluate one level reading ``values``, writing ``out``
        (``values`` itself by default) at the level's output rows."""
        if out is None:
            out = values
        if lvl.lit_idx.size:
            lits = values[lvl.lit_idx]
            np.bitwise_xor(lits, lvl.lit_inv[:, None], out=lits)
            terms = np.bitwise_and.reduceat(lits, lvl.cube_starts,
                                            axis=0)
            out[lvl.gate_out] = np.bitwise_or.reduceat(
                terms, lvl.gate_cube_starts, axis=0)
        if lvl.const_out.size:
            out[lvl.const_out] = lvl.const_vals[:, None]

    # ------------------------------------------------------------------
    # Input generation
    # ------------------------------------------------------------------
    def random_inputs(self, rng: np.random.Generator,
                      n_words: int) -> np.ndarray:
        """Uniform random input words, shape (num_inputs, n_words)."""
        return rng.integers(0, 1 << 64, size=(self.num_inputs, n_words),
                            dtype=np.uint64)

    # ------------------------------------------------------------------
    # Golden simulation
    # ------------------------------------------------------------------
    def run(self, pi_words: np.ndarray) -> np.ndarray:
        """Simulate; returns values for all signals, shape (S, n_words).

        Uses the compiled tape; bit-identical to
        :meth:`run_interpreted`.
        """
        values = self._alloc_values(pi_words)
        self._run_tape(values)
        return values

    def run_interpreted(self, pi_words: np.ndarray) -> np.ndarray:
        """Reference interpreter: the original per-cube evaluation loop.

        Kept as the equivalence-test oracle and for before/after
        benchmarking of the compiled tape.
        """
        values = self._alloc_values(pi_words)
        n_words = pi_words.shape[1]
        for out, cubes in self.steps:
            values[out] = _eval_cubes(cubes, values, n_words)
        return values

    def _alloc_values(self, pi_words: np.ndarray) -> np.ndarray:
        if pi_words.shape[0] != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input rows, "
                f"got {pi_words.shape[0]}")
        values = np.zeros((len(self.signals), pi_words.shape[1]),
                          dtype=np.uint64)
        values[:self.num_inputs] = pi_words
        return values

    def outputs_of(self, values: np.ndarray) -> np.ndarray:
        return values[self.output_indices]

    # ------------------------------------------------------------------
    # Faulty simulation — batched (compiled tape)
    # ------------------------------------------------------------------
    def run_forced_batch(self, golden: np.ndarray,
                         site_rows: np.ndarray,
                         forced: np.ndarray) -> np.ndarray:
        """Re-simulate many forced-value faults against one golden run.

        ``site_rows`` (B,) are signal row indices, ``forced`` (B,
        n_words) the value each lane forces on its site.  Returns the
        full faulty value cube of shape (S, B, n_words): lane ``b``
        holds the circuit's values with ``site_rows[b]`` forced to
        ``forced[b]``, all lanes sharing ``golden``'s input vectors.

        Levels below the shallowest fault site are not re-evaluated
        (they cannot change), so batching faults of similar depth —
        e.g. sorting a fault list by :meth:`site_level` — skips most of
        the tape for faults near the outputs.
        """
        site_rows = np.asarray(site_rows, dtype=np.intp)
        forced = np.asarray(forced, dtype=np.uint64)
        n_signals = len(self.signals)
        n_lanes = site_rows.size
        n_words = golden.shape[1]
        scratch = np.empty((n_signals, n_lanes, n_words), dtype=np.uint64)
        scratch[:] = golden[:, None, :]
        if n_lanes == 0:
            return scratch
        lanes = np.arange(n_lanes, dtype=np.intp)
        levels = self._level_of_row[site_rows]
        lmin = int(levels.min())
        # Sites at the shallowest level (or on PIs) are forced up front;
        # deeper sites are recomputed by their own level's sweep and
        # overwritten with the forced value before any reader (always at
        # a strictly higher level) consumes them.  The deeper sites are
        # grouped by level once, not rescanned at every level.
        head = levels <= lmin
        scratch[site_rows[head], lanes[head]] = forced[head]
        late: dict[int, list[int]] = {}     # tape index -> lanes
        for lane in np.flatnonzero(~head).tolist():
            late.setdefault(int(levels[lane]) - 1, []).append(lane)
        flat = scratch.reshape(n_signals, n_lanes * n_words)
        for ti in range(lmin, len(self._tape)):
            self._eval_level(self._tape[ti], flat)
            due = late.get(ti)
            if due is not None:
                scratch[site_rows[due], due] = forced[due]
        return scratch

    def stuck_words(self, faults, n_words: int
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Site rows and forced words of stuck-at ``faults``.

        ``faults`` is a sequence of objects with ``signal`` and
        ``stuck`` attributes (:class:`~repro.sim.faults.Fault`).
        Returns ``(site_rows, forced)`` of shapes (B,) and (B, n_words).
        """
        site_rows = np.fromiter((self.index[f.signal] for f in faults),
                                dtype=np.intp, count=len(faults))
        stuck = np.fromiter((f.stuck for f in faults), dtype=bool,
                            count=len(faults))
        forced = np.zeros((len(faults), n_words), dtype=np.uint64)
        forced[stuck] = _ALL_ONES
        return site_rows, forced

    def run_stuck_batch(self, golden: np.ndarray, faults) -> np.ndarray:
        """Batched stuck-at evaluation: one lane per fault.

        Returns the (S, B, n_words) faulty value cube.  Campaigns use
        the stem-region path (:func:`repro.sim.faultsim.observed_faults`);
        this full-cube sweep is the reference it is tested against.
        """
        site_rows, forced = self.stuck_words(faults, golden.shape[1])
        return self.run_forced_batch(golden, site_rows, forced)

    # ------------------------------------------------------------------
    # Fanout-free regions
    # ------------------------------------------------------------------
    def fanout_free_regions(self, golden: np.ndarray, observe
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's stem and its observability at that stem.

        A *stem* is a row read by a number of gates other than one
        (fanout branches, dead rows, primary outputs read nowhere) or
        any row of ``observe``.  Every other row has one reader, and
        following readers from it reaches exactly one stem: the rows on
        that path are its fanout-free region, and a fault inside it
        reaches the rest of the circuit only through the stem.

        Returns ``(stem_of, obs)``: ``stem_of`` (S,) maps every row to
        its stem (a stem to itself) and ``obs`` (S, n_words) holds, per
        vector of ``golden``, whether flipping the row flips its stem —
        the AND of the reader's boolean differences along the path,
        each computed on golden values by forcing the whole row to 0
        and to 1 (so a reader that reads the row on two pins counts
        once, and a constant reader's difference is 0).
        """
        regions = self._regions
        if regions is None:
            regions = self._regions = _compile_regions(self)
        reader, by_level, diff_lvl, diff_rows = regions
        n_signals, n_words = golden.shape
        diff = np.zeros((n_signals, n_words), dtype=np.uint64)
        if diff_rows.size:
            padded = np.empty((n_signals + 2, n_words), dtype=np.uint64)
            padded[:n_signals] = golden
            padded[n_signals] = 0                    # the row forced to 0
            padded[n_signals + 1] = _ALL_ONES        # ... and to 1
            low = np.empty((diff_rows.size, n_words), dtype=np.uint64)
            self._eval_level(diff_lvl[0], padded, low)
            high = np.empty_like(low)
            self._eval_level(diff_lvl[1], padded, high)
            diff[diff_rows] = low ^ high
        stem = reader < 0
        stem[np.asarray(observe, dtype=np.intp)] = True
        stem_of = np.arange(n_signals, dtype=np.intp)
        obs = np.full((n_signals, n_words), _ALL_ONES, dtype=np.uint64)
        for rows in by_level:             # deepest level first
            rows = rows[~stem[rows]]
            if rows.size:
                up = reader[rows]
                stem_of[rows] = stem_of[up]
                obs[rows] = diff[rows] & obs[up]
        return stem_of, obs

    # ------------------------------------------------------------------
    # Faulty simulation — sparse overlays (interpreter)
    # ------------------------------------------------------------------
    def fanout_cone(self, signal: str) -> list[int]:
        """Topologically sorted step-output indices affected by a fault."""
        return self._fanout_cone_rows(self.index[signal])

    def _fanout_cone_rows(self, site: int) -> list[int]:
        cached = self._tfo_cache.get(site)
        if cached is not None:
            return cached
        affected: set[int] = set()
        stack = list(self._readers[site])
        while stack:
            idx = stack.pop()
            if idx in affected:
                continue
            affected.add(idx)
            stack.extend(self._readers[idx])
        cone = sorted(affected, key=lambda idx: self._step_of[idx])
        self._tfo_cache[site] = cone
        return cone

    def run_fault(self, golden: np.ndarray, signal: str,
                  stuck: int) -> dict[int, np.ndarray]:
        """Re-simulate with ``signal`` stuck at 0/1.

        Returns an overlay mapping signal index to its faulty word array;
        signals outside the fault cone keep their golden values.
        """
        n_words = golden.shape[1]
        forced = np.full(n_words, _ALL_ONES if stuck else 0,
                         dtype=np.uint64)
        return self.run_forced(golden, signal, forced)

    def run_forced(self, golden: np.ndarray, signal: str,
                   forced: np.ndarray) -> dict[int, np.ndarray]:
        """Re-simulate with ``signal`` forced to an arbitrary word value.

        Generalizes stuck-at injection; used for toggle faults and for
        transition (delay) faults where the forced value depends on the
        previous vector.
        """
        site = self.index[signal]
        overlay: dict[int, np.ndarray] = {site: forced}
        if np.array_equal(forced, golden[site]):
            return overlay  # fault never excites: cone is unchanged
        return self._propagate_overlay(golden, site, overlay)

    def run_toggle(self, golden: np.ndarray,
                   signal: str) -> dict[int, np.ndarray]:
        """Re-simulate with ``signal`` inverted on every vector.

        Used for observability estimation: the fraction of vectors on
        which some output changes is exactly the signal's global
        observability.
        """
        site = self.index[signal]
        overlay: dict[int, np.ndarray] = {site: ~golden[site]}
        return self._propagate_overlay(golden, site, overlay)

    def _propagate_overlay(self, golden: np.ndarray, site: int,
                           overlay: dict[int, np.ndarray]
                           ) -> dict[int, np.ndarray]:
        """Propagate an overlay through the fanout cone of ``site``."""
        n_words = golden.shape[1]
        for idx in self._fanout_cone_rows(site):
            step = self._step_of[idx]
            if not any(f in overlay for f in self._step_fanins[step]):
                continue  # no changed fanin: gate keeps its golden value
            _, cubes = self.steps[step]
            faulty = _eval_cubes_overlay(cubes, golden, overlay, n_words)
            if not np.array_equal(faulty, golden[idx]):
                overlay[idx] = faulty
        return overlay

    def faulty_outputs(self, golden: np.ndarray,
                       overlay: dict[int, np.ndarray]) -> np.ndarray:
        rows = [overlay.get(idx, golden[idx])
                for idx in self.output_indices]
        return np.stack(rows) if rows else np.zeros((0, golden.shape[1]),
                                                    dtype=np.uint64)


def _compile_regions(sim: BitSimulator) -> tuple:
    """The structure behind :meth:`BitSimulator.fanout_free_regions`.

    Returns ``(reader, by_level, diff_levels, diff_rows)``: the one
    reader of every single-reader row (-1 elsewhere); the single-reader
    rows grouped by level, deepest first; and two tape levels that
    evaluate, for each row of ``diff_rows`` (the single-reader rows
    whose reader is not constant), that reader with the row replaced
    by the constant-0 row ``S`` and by the constant-1 row ``S + 1``.
    """
    n_signals = len(sim.signals)
    reader = np.full(n_signals, -1, dtype=np.intp)
    for row, readers in enumerate(sim._readers):
        if len(readers) == 1:
            reader[row] = readers[0]
    single = np.flatnonzero(reader >= 0)
    levels = sim._level_of_row[single]
    order = np.argsort(-levels, kind="stable")
    single, levels = single[order], levels[order]
    cuts = np.flatnonzero(np.diff(levels)) + 1
    by_level = np.split(single, cuts) if single.size else []

    lit_idx: list[int] = []
    lit_inv: list[int] = []
    owner: list[int] = []
    cube_starts: list[int] = []
    gate_cube_starts: list[int] = []
    diff_rows: list[int] = []
    n_cubes = 0
    for row in single.tolist():
        _, cubes = sim.steps[sim._step_of[int(reader[row])]]
        if any(not pos and not neg for pos, neg in cubes):
            continue                   # tautology reader: difference 0
        diff_rows.append(row)
        gate_cube_starts.append(n_cubes)
        first = len(lit_idx)
        for pos, neg in cubes:
            cube_starts.append(len(lit_idx))
            lit_idx.extend(pos)
            lit_idx.extend(neg)
            lit_inv.extend([0] * len(pos) + [1] * len(neg))
            n_cubes += 1
        owner.extend([row] * (len(lit_idx) - first))
    lits = np.asarray(lit_idx, dtype=np.intp)
    is_row = lits == np.asarray(owner, dtype=np.intp)
    inv = np.where(np.asarray(lit_inv, dtype=bool), _ALL_ONES,
                   np.uint64(0)).astype(np.uint64)
    no_const = np.zeros(0, dtype=np.intp)

    def forced_to(const_row: int) -> _TapeLevel:
        return _TapeLevel(
            lit_idx=np.where(is_row, const_row, lits).astype(np.intp),
            lit_inv=inv,
            cube_starts=np.asarray(cube_starts, dtype=np.intp),
            gate_cube_starts=np.asarray(gate_cube_starts, dtype=np.intp),
            gate_out=np.arange(len(diff_rows), dtype=np.intp),
            const_out=no_const,
            const_vals=np.zeros(0, dtype=np.uint64))

    return (reader, by_level,
            (forced_to(n_signals), forced_to(n_signals + 1)),
            np.asarray(diff_rows, dtype=np.intp))


# ----------------------------------------------------------------------
# Simulator cache
# ----------------------------------------------------------------------
_SIM_CACHE: "weakref.WeakKeyDictionary[object, tuple[tuple, BitSimulator]]"
_SIM_CACHE = weakref.WeakKeyDictionary()

#: Running hit/miss counters for :func:`get_simulator`, surfaced through
#: flow traces.  ``uncacheable`` counts circuits that cannot be weakly
#: referenced and are recompiled on every call.
_SIM_CACHE_STATS = {"hits": 0, "misses": 0, "uncacheable": 0}


def _cache_fingerprint(circuit) -> tuple:
    """Version + structural fingerprint to catch post-compile mutation.

    Both ``Network`` and ``MappedNetlist`` expose a monotonic mutation
    ``version``, so in-place rewrites that keep the gate/IO counts
    unchanged still invalidate the entry.  The size counts stay in the
    key as a belt-and-braces check for foreign circuit objects that
    happen to expose a ``version`` attribute with other semantics.
    """
    version = getattr(circuit, "version", None)
    if isinstance(circuit, MappedNetlist):
        return (version, len(circuit.gates), len(circuit.inputs),
                len(circuit.outputs))
    return (version, len(circuit.nodes), len(circuit.inputs),
            len(circuit.outputs))


def get_simulator(circuit) -> BitSimulator:
    """Compile-once simulator lookup, keyed on circuit identity.

    Every flow stage (reliability, coverage, power, masking,
    observability) simulates the same few circuits; compiling the tape
    once per circuit object amortizes setup across the whole flow.
    Entries are keyed on the circuit's mutation :attr:`version` (plus
    gate/IO counts), so any structural mutation — including in-place
    cover rewrites that keep the size unchanged — recompiles the tape
    on the next lookup.
    """
    try:
        entry = _SIM_CACHE.get(circuit)
    except TypeError:            # unhashable / non-weakref-able object
        _SIM_CACHE_STATS["uncacheable"] += 1
        return BitSimulator(circuit)
    fingerprint = _cache_fingerprint(circuit)
    if entry is not None and entry[0] == fingerprint:
        _SIM_CACHE_STATS["hits"] += 1
        return entry[1]
    _SIM_CACHE_STATS["misses"] += 1
    sim = BitSimulator(circuit)
    _SIM_CACHE[circuit] = (fingerprint, sim)
    return sim


def simulator_cache_stats() -> dict[str, int]:
    """A snapshot of the :func:`get_simulator` hit/miss counters."""
    return dict(_SIM_CACHE_STATS)


def clear_simulator_cache() -> None:
    """Drop all cached compiled simulators (counters are kept)."""
    _SIM_CACHE.clear()


def _eval_cubes(cubes, values, n_words) -> np.ndarray:
    acc = None
    for pos, neg in cubes:
        if pos:
            term = values[pos[0]].copy()
            for idx in pos[1:]:
                term &= values[idx]
        elif neg:
            term = ~values[neg[0]]
            neg = neg[1:]
        else:
            return np.full(n_words, _ALL_ONES, dtype=np.uint64)
        for idx in neg:
            term &= ~values[idx]
        if acc is None:
            acc = term
        else:
            acc |= term
    if acc is None:
        return np.zeros(n_words, dtype=np.uint64)
    return acc


def _eval_cubes_overlay(cubes, golden, overlay, n_words) -> np.ndarray:
    acc = None
    for pos, neg in cubes:
        if pos:
            first = overlay[pos[0]] if pos[0] in overlay \
                else golden[pos[0]]
            term = first.copy()
            for idx in pos[1:]:
                term &= overlay[idx] if idx in overlay else golden[idx]
        elif neg:
            first = overlay.get(neg[0], None)
            term = ~(golden[neg[0]] if first is None else first)
            neg = neg[1:]
        else:
            return np.full(n_words, _ALL_ONES, dtype=np.uint64)
        for idx in neg:
            term &= ~(overlay[idx] if idx in overlay else golden[idx])
        if acc is None:
            acc = term
        else:
            acc |= term
    if acc is None:
        return np.zeros(n_words, dtype=np.uint64)
    return acc


def exhaustive_inputs(num_inputs: int) -> np.ndarray:
    """All 2^n input patterns as packed words, shape (n, ceil(2^n/64)).

    Bit ``j`` of word ``w`` in row ``i`` carries input ``i`` of pattern
    ``64*w + j``, so one :meth:`BitSimulator.run` call simulates the
    whole truth table.  Practical up to ~20 inputs; refuses more than
    :data:`MAX_EXHAUSTIVE_INPUTS`.
    """
    if num_inputs < 0 or num_inputs > MAX_EXHAUSTIVE_INPUTS:
        raise ValueError("exhaustive simulation supports "
                         f"0..{MAX_EXHAUSTIVE_INPUTS} inputs")
    n_patterns = 1 << num_inputs
    n_words = max(1, (n_patterns + WORD_BITS - 1) // WORD_BITS)
    rows = np.zeros((num_inputs, n_words), dtype=np.uint64)
    # Inside a word, input i < 6 alternates in blocks of 2^i bits —
    # a constant mask; inputs i >= 6 are constant per word, following
    # bit (i - 6) of the word index.
    intra_masks = [0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC,
                   0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00,
                   0xFFFF0000FFFF0000, 0xFFFFFFFF00000000]
    word_index = np.arange(n_words, dtype=np.uint64)
    for i in range(num_inputs):
        if i < 6:
            rows[i, :] = np.uint64(intra_masks[i])
        else:
            on = (word_index >> np.uint64(i - 6)) & np.uint64(1)
            rows[i] = np.where(on.astype(bool), _ALL_ONES, np.uint64(0))
    return rows


# ----------------------------------------------------------------------
# Population counts
# ----------------------------------------------------------------------
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)


def bit_count(words: np.ndarray) -> np.ndarray:
    """Element-wise set-bit counts of a uint64 array (same shape).

    Uses ``np.bitwise_count`` when available, else a 256-entry byte
    LUT.  Both paths work on the packed words directly — unlike
    ``np.unpackbits``, which materializes one byte per *bit* (a 64x
    memory blow-up on uint64 data).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    as_bytes = words.view(np.uint8).reshape(words.shape + (8,))
    return _BYTE_POPCOUNT[as_bytes].sum(axis=-1, dtype=np.uint8)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a uint64 array."""
    if words.size == 0:
        return 0
    return int(bit_count(words).sum(dtype=np.int64))


def _popcount_unpackbits(words: np.ndarray) -> int:
    """The seed implementation; kept as the test oracle for popcount."""
    return int(np.unpackbits(words.view(np.uint8)).sum())


def signal_probabilities(circuit, n_words: int = 32,
                         seed: int = 2008) -> dict[str, float]:
    """Monte-Carlo estimate of P(signal = 1) for every signal."""
    sim = get_simulator(circuit)
    rng = np.random.default_rng(seed)
    values = sim.run(sim.random_inputs(rng, n_words))
    total = n_words * WORD_BITS
    counts = bit_count(values).sum(axis=1, dtype=np.int64)
    return {name: int(counts[sim.index[name]]) / total
            for name in sim.signals}
