"""Equivalence tests for the compiled simulation tape.

The compiled engine must be bit-identical to the seed interpreter
(`run_interpreted`) on every circuit of the generator suite, under both
random and exhaustive inputs; the batched fault engine must agree with
the overlay-based cone propagation fault by fault; and every campaign
must equal a per-fault loop over that overlay interpreter.
"""

import numpy as np
import pytest

from repro.bench.suite import (TABLE1_CONE_SPECS, TABLE2_SPECS,
                               load_benchmark, tiny_benchmark)
from repro.ced import (build_masked_circuit, evaluate_ced,
                       evaluate_delay_fault_ced, evaluate_masking,
                       run_ced_flow)
from repro.ced.coverage import CoverageResult
from repro.ced.masking import MaskingResult
from repro.reliability import (error_contributions, global_observabilities,
                               max_ced_coverage)
from repro.sim import (BitSimulator, Fault, clear_simulator_cache,
                       exhaustive_inputs, fault_list, get_simulator,
                       run_campaign, run_transition_fault,
                       transition_fault_list)
from repro.sim.delayfaults import run_transition_fault_batch
from repro.sim.simulator import (_popcount_unpackbits, bit_count,
                                 popcount)
from repro.synth import quick_map

TABLE2_NAMES = sorted(TABLE2_SPECS)
TABLE1_NAMES = sorted(TABLE1_CONE_SPECS)


class TestTapeMatchesInterpreter:
    @pytest.mark.parametrize("name", TABLE2_NAMES)
    def test_table2_random(self, name):
        net = load_benchmark(name, table=2)
        sim = BitSimulator(net)
        rng = np.random.default_rng(11)
        pi = sim.random_inputs(rng, 4)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    @pytest.mark.parametrize("name", TABLE1_NAMES)
    def test_table1_cones_random(self, name):
        net = load_benchmark(name, table=1)
        sim = BitSimulator(net)
        rng = np.random.default_rng(13)
        pi = sim.random_inputs(rng, 4)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    @pytest.mark.parametrize("name", ["cmb", "cordic", "term1"])
    def test_mapped_random(self, name):
        mapped = quick_map(load_benchmark(name, table=2))
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(17)
        pi = sim.random_inputs(rng, 4)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    def test_tiny_exhaustive(self):
        net = tiny_benchmark()
        sim = BitSimulator(net)
        pi = exhaustive_inputs(len(net.inputs))
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    def test_cmb_exhaustive(self):
        net = load_benchmark("cmb", table=2)
        sim = BitSimulator(net)
        pi = exhaustive_inputs(len(net.inputs))
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))

    def test_constant_covers(self):
        from repro.cubes import Cover
        from repro.network import Network
        net = Network("consts")
        net.add_input("a")
        net.add_node("zero", ["a"], Cover(1))          # empty cover: 0
        net.add_node("one", ["a"], Cover.from_strings(["-"]))  # tautology
        net.add_node("y", ["a", "zero", "one"],
                     Cover.from_strings(["1-1", "-1-"]))
        net.add_output("y")
        sim = BitSimulator(net)
        pi = exhaustive_inputs(1)
        assert np.array_equal(sim.run(pi), sim.run_interpreted(pi))


class TestBatchedMatchesOverlay:
    @pytest.mark.parametrize("name", ["cmb", "cordic"])
    def test_stuck_batch_bit_identical(self, name):
        mapped = quick_map(load_benchmark(name, table=2))
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(23)
        golden = sim.run(sim.random_inputs(rng, 4))
        faults = fault_list(mapped)
        scratch = sim.run_stuck_batch(golden, faults)
        for lane, fault in enumerate(faults):
            overlay = sim.run_fault(golden, fault.signal, fault.stuck)
            reference = golden.copy()
            for idx, row in overlay.items():
                reference[idx] = row
            assert np.array_equal(scratch[:, lane, :], reference), fault

    @pytest.mark.parametrize("name", ["cmb", "cordic"])
    def test_transition_batch_bit_identical(self, name):
        mapped = quick_map(load_benchmark(name, table=2))
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(43)
        first = sim.run(sim.random_inputs(rng, 4))
        second = sim.run(sim.random_inputs(rng, 4))
        faults = transition_fault_list(mapped)
        scratch = run_transition_fault_batch(sim, first, second, faults)
        for lane, fault in enumerate(faults):
            overlay = run_transition_fault(sim, first, second, fault)
            reference = _apply(second, overlay)
            assert np.array_equal(scratch[:, lane, :], reference), fault

    def test_forced_batch_toggle(self):
        mapped = quick_map(tiny_benchmark())
        sim = BitSimulator(mapped)
        rng = np.random.default_rng(29)
        golden = sim.run(sim.random_inputs(rng, 4))
        rows = np.arange(len(sim.signals), dtype=np.intp)
        scratch = sim.run_forced_batch(golden, rows, ~golden)
        for lane, name in enumerate(sim.signals):
            overlay = sim.run_toggle(golden, name)
            reference = golden.copy()
            for idx, row in overlay.items():
                reference[idx] = row
            assert np.array_equal(scratch[:, lane, :], reference), name

    def test_empty_batch(self):
        sim = BitSimulator(tiny_benchmark())
        rng = np.random.default_rng(1)
        golden = sim.run(sim.random_inputs(rng, 2))
        scratch = sim.run_forced_batch(
            golden, np.zeros(0, dtype=np.intp),
            np.zeros((0, 2), dtype=np.uint64))
        assert scratch.shape == (len(sim.signals), 0, 2)


def _golden(sim, seed, n_words):
    """The golden block a campaign with ``seed`` simulates."""
    return sim.run(sim.random_inputs(np.random.default_rng(seed), n_words))


def _apply(golden, overlay):
    """Full faulty value array from an overlay-interpreter result."""
    values = golden.copy()
    for idx, row in overlay.items():
        values[idx] = row
    return values


def _any_diff(golden, faulty, rows):
    return np.bitwise_or.reduce(golden[rows] ^ faulty[rows], axis=0)


def _ced_oracle(sim, assembly, golden, faulty_blocks, n_faults):
    """Coverage counts of per-fault faulty blocks, one fault at a time."""
    po_rows = [sim.index[assembly.netlist.po_signals[po]]
               for po in assembly.original.outputs]
    e0, e1 = (sim.index[s] for s in assembly.error_pair)
    valid = golden[e0] ^ golden[e1]
    error_runs = detected_error = detected_all = false_alarms = 0
    for faulty in faulty_blocks:
        error_mask = _any_diff(golden, faulty, po_rows) & valid
        detect_mask = ~(faulty[e0] ^ faulty[e1]) & valid
        error_runs += popcount(error_mask)
        detected_error += popcount(error_mask & detect_mask)
        detected_all += popcount(detect_mask)
        false_alarms += popcount(detect_mask & ~error_mask)
    return CoverageResult(
        runs=n_faults * golden.shape[1] * 64, error_runs=error_runs,
        detected_error_runs=detected_error, detected_runs=detected_all,
        false_alarms=false_alarms,
        golden_invalid=popcount(~valid) * n_faults)


@pytest.fixture(scope="module", params=["tiny", "cmb"])
def flow(request):
    net = (tiny_benchmark() if request.param == "tiny"
           else load_benchmark(request.param, table=2))
    return run_ced_flow(net, reliability_words=2, coverage_words=2)


class TestCampaignOracles:
    """Each batched campaign equals a per-fault loop over the overlay
    interpreter on the same golden block."""

    N_WORDS = 3
    SEED = 17

    def test_run_campaign(self, flow):
        mapped = flow.original_mapped
        sim = get_simulator(mapped)
        golden = _golden(sim, self.SEED, self.N_WORDS)
        golden_out = sim.outputs_of(golden)
        faults = fault_list(mapped)
        error_runs = 0
        up = dict.fromkeys(sim.output_names, 0)
        down = dict.fromkeys(sim.output_names, 0)
        for fault in faults:
            faulty = _apply(golden, sim.run_fault(golden, fault.signal,
                                                  fault.stuck))
            diff = golden_out ^ sim.outputs_of(faulty)
            error_runs += popcount(np.bitwise_or.reduce(diff, axis=0))
            for po, g_row, d_row in zip(sim.output_names, golden_out,
                                        diff):
                up[po] += popcount(d_row & ~g_row)
                down[po] += popcount(d_row & g_row)
        report = run_campaign(mapped, n_words=self.N_WORDS,
                              seed=self.SEED)
        assert report.runs == len(faults) * self.N_WORDS * 64
        assert report.error_runs == error_runs > 0
        for po in sim.output_names:
            assert report.per_output[po].zero_to_one == up[po], po
            assert report.per_output[po].one_to_zero == down[po], po

    def test_max_ced_coverage(self, flow):
        mapped = flow.original_mapped
        sim = get_simulator(mapped)
        # Alternate directions so both protected branches are exercised.
        approximations = {po: i % 2
                          for i, po in enumerate(sim.output_names)}
        golden = _golden(sim, self.SEED, self.N_WORDS)
        golden_out = sim.outputs_of(golden)
        error_runs = detectable_runs = 0
        for fault in fault_list(mapped):
            faulty = _apply(golden, sim.run_fault(golden, fault.signal,
                                                  fault.stuck))
            diff = golden_out ^ sim.outputs_of(faulty)
            any_error = np.bitwise_or.reduce(diff, axis=0)
            any_detectable = np.zeros_like(any_error)
            for po, g_row, d_row in zip(sim.output_names, golden_out,
                                        diff):
                any_detectable |= (d_row & ~g_row if approximations[po] == 0
                                   else d_row & g_row)
            error_runs += popcount(any_error)
            detectable_runs += popcount(any_detectable & any_error)
        assert error_runs > 0
        assert max_ced_coverage(mapped, approximations,
                                n_words=self.N_WORDS, seed=self.SEED) \
            == detectable_runs / error_runs

    def test_evaluate_ced(self, flow):
        assembly = flow.assembly
        sim = get_simulator(assembly.netlist)
        golden = _golden(sim, self.SEED, self.N_WORDS)
        faults = [Fault(site, v) for site in assembly.fault_sites
                  for v in (0, 1)]
        expected = _ced_oracle(
            sim, assembly, golden,
            (_apply(golden, sim.run_fault(golden, f.signal, f.stuck))
             for f in faults), len(faults))
        result = evaluate_ced(assembly, n_words=self.N_WORDS,
                              seed=self.SEED)
        assert result == expected
        assert result.error_runs > 0

    def test_evaluate_delay_fault_ced(self, flow):
        assembly = flow.assembly
        sim = get_simulator(assembly.netlist)
        rng = np.random.default_rng(self.SEED)
        first = sim.run(sim.random_inputs(rng, self.N_WORDS))
        second = sim.run(sim.random_inputs(rng, self.N_WORDS))
        faults = transition_fault_list(assembly.netlist,
                                       signals=assembly.fault_sites)
        expected = _ced_oracle(
            sim, assembly, second,
            (_apply(second, run_transition_fault(sim, first, second, f))
             for f in faults), len(faults))
        result = evaluate_delay_fault_ced(assembly, n_words=self.N_WORDS,
                                          seed=self.SEED)
        assert result == expected
        assert result.error_runs > 0

    def test_evaluate_masking(self, flow):
        masked = build_masked_circuit(flow.original_mapped,
                                      flow.approx_mapped,
                                      flow.assembly.directions)
        sim = get_simulator(masked.netlist)
        golden = _golden(sim, self.SEED, self.N_WORDS)
        raw_rows = [sim.index[masked.netlist.po_signals[po]]
                    for po in masked.original.outputs]
        masked_rows = [sim.index[masked.netlist.po_signals[m]]
                       for m in masked.masked_outputs.values()]
        faults = [Fault(site, v) for site in masked.fault_sites
                  for v in (0, 1)]
        raw = masked_errors = 0
        for fault in faults:
            faulty = _apply(golden, sim.run_fault(golden, fault.signal,
                                                  fault.stuck))
            raw += popcount(_any_diff(golden, faulty, raw_rows))
            masked_errors += popcount(_any_diff(golden, faulty,
                                                masked_rows))
        result = evaluate_masking(masked, n_words=self.N_WORDS,
                                  seed=self.SEED)
        assert result == MaskingResult(
            runs=len(faults) * self.N_WORDS * 64, raw_error_runs=raw,
            masked_error_runs=masked_errors)
        assert raw > 0

    def test_global_observabilities(self, flow):
        mapped = flow.original_mapped
        sim = get_simulator(mapped)
        golden = _golden(sim, self.SEED, self.N_WORDS)
        expected = {}
        for name in sim.signals:
            faulty = _apply(golden, sim.run_toggle(golden, name))
            expected[name] = popcount(_any_diff(
                golden, faulty, sim.output_indices)) / (self.N_WORDS * 64)
        assert global_observabilities(mapped, n_words=self.N_WORDS,
                                      seed=self.SEED) == expected

    def test_error_contributions(self, flow):
        mapped = flow.original_mapped
        sim = get_simulator(mapped)
        golden = _golden(sim, self.SEED, self.N_WORDS)
        expected = {}
        for name in sim.signals[sim.num_inputs:]:
            errors = 0
            for stuck in (0, 1):
                faulty = _apply(golden, sim.run_fault(golden, name, stuck))
                errors += popcount(_any_diff(golden, faulty,
                                             sim.output_indices))
            expected[name] = errors / (2 * self.N_WORDS * 64)
        assert error_contributions(mapped, n_words=self.N_WORDS,
                                   seed=self.SEED) == expected


class TestPopcount:
    def test_matches_unpackbits_oracle(self):
        rng = np.random.default_rng(31)
        for shape in [(1,), (7,), (3, 5), (2, 3, 4)]:
            words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
            assert popcount(words) == _popcount_unpackbits(words)

    def test_lut_fallback_matches(self, monkeypatch):
        import repro.sim.simulator as simmod
        monkeypatch.setattr(simmod, "_HAS_BITWISE_COUNT", False)
        rng = np.random.default_rng(37)
        words = rng.integers(0, 1 << 64, size=(4, 9), dtype=np.uint64)
        assert popcount(words) == _popcount_unpackbits(words)
        counts = bit_count(words)
        assert counts.shape == words.shape

    def test_edge_values(self):
        words = np.array([0, 0xFFFFFFFFFFFFFFFF, 1 << 63],
                         dtype=np.uint64)
        assert popcount(words) == 0 + 64 + 1
        assert popcount(np.zeros(0, dtype=np.uint64)) == 0

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(41)
        words = rng.integers(0, 1 << 64, size=(6, 6), dtype=np.uint64)
        view = words[::2, 1::2]
        assert popcount(view) == _popcount_unpackbits(
            np.ascontiguousarray(view))


class TestSimulatorCache:
    def test_same_object_reused(self):
        clear_simulator_cache()
        net = tiny_benchmark()
        assert get_simulator(net) is get_simulator(net)

    def test_distinct_circuits_distinct_sims(self):
        clear_simulator_cache()
        assert get_simulator(tiny_benchmark(1)) is not \
            get_simulator(tiny_benchmark(2))

    def test_mutation_invalidates(self):
        from repro.cubes import Cover
        clear_simulator_cache()
        net = tiny_benchmark()
        before = get_simulator(net)
        pi = net.inputs[0]
        net.add_node("extra_gate", [pi], Cover.from_strings(["0"]))
        net.add_output("extra_gate")
        after = get_simulator(net)
        assert after is not before
        assert "extra_gate" in after.index

    def test_clear(self):
        net = tiny_benchmark()
        first = get_simulator(net)
        clear_simulator_cache()
        assert get_simulator(net) is not first
