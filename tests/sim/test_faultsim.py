"""Tests for fault lists, campaigns, and power estimation."""

import pytest

from repro.cubes import Cover
from repro.network import Network
from repro.sim import (Fault, OutputErrorStats, fault_list, power_overhead,
                       run_campaign, switching_activity)
from repro.synth import LIB_GENERIC, technology_map


def and_network():
    net = Network("andnet")
    for pi in "ab":
        net.add_input(pi)
    net.add_node("y", ["a", "b"], Cover.from_strings(["11"]))
    net.add_output("y")
    return net


class TestFaultModel:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("x", 2)

    def test_fault_str(self):
        assert str(Fault("g1", 0)) == "g1/sa0"

    def test_fault_list_network(self):
        faults = fault_list(and_network())
        assert len(faults) == 2  # one node, sa0 + sa1

    def test_fault_list_with_inputs(self):
        faults = fault_list(and_network(), include_inputs=True)
        assert len(faults) == 6

    def test_fault_list_restricted(self):
        faults = fault_list(and_network(), signals=["y"])
        assert {f.signal for f in faults} == {"y"}

    def test_fault_list_mapped(self):
        mapped = technology_map(and_network(), LIB_GENERIC)
        faults = fault_list(mapped)
        assert len(faults) == 2 * mapped.gate_count


class TestCampaign:
    def test_and_gate_error_directions(self):
        """y = a&b: golden 1 w.p. 1/4.  sa0 makes 1->0 errors (1/4 of
        vectors); sa1 makes 0->1 errors (3/4 of vectors)."""
        report = run_campaign(and_network(), n_words=64, seed=5)
        stats = report.per_output["y"]
        assert stats.one_to_zero / report.runs == pytest.approx(
            0.25 / 2, abs=0.02)
        assert stats.zero_to_one / report.runs == pytest.approx(
            0.75 / 2, abs=0.02)
        assert stats.dominant_direction == "0->1"
        assert 0.5 <= stats.skew <= 1.0

    def test_error_rate_bounds(self):
        report = run_campaign(and_network(), n_words=16, seed=1)
        assert 0.0 < report.error_rate < 1.0

    def test_restricted_faults(self):
        mapped = technology_map(and_network(), LIB_GENERIC)
        site = next(iter(mapped.gates))
        report = run_campaign(mapped, n_words=4,
                              faults=[Fault(site, 0), Fault(site, 1)])
        assert report.runs == 2 * 4 * 64

    def test_deterministic_given_seed(self):
        r1 = run_campaign(and_network(), n_words=8, seed=42)
        r2 = run_campaign(and_network(), n_words=8, seed=42)
        assert r1.error_runs == r2.error_runs

    def test_output_stats_dataclass(self):
        stats = OutputErrorStats(zero_to_one=3, one_to_zero=1)
        assert stats.total == 4
        assert stats.dominant_direction == "0->1"
        assert stats.skew == pytest.approx(0.75)

    def test_empty_stats_skew(self):
        assert OutputErrorStats().skew == 1.0


class TestPower:
    def test_activity_of_inverter_chain(self):
        net = Network()
        net.add_input("a")
        prev = "a"
        for i in range(4):
            name = f"n{i}"
            net.add_node(name, [prev], Cover.from_strings(["0"]))
            prev = name
        net.add_output(prev)
        activity = switching_activity(net, n_words=64, seed=2)
        # Each inverter toggles with probability 1/2 per transition.
        assert activity == pytest.approx(4 * 0.5, abs=0.2)

    def test_weighted_activity_mapped(self):
        mapped = technology_map(and_network(), LIB_GENERIC)
        plain = switching_activity(mapped, n_words=32, seed=3)
        weighted = switching_activity(mapped, n_words=32, seed=3,
                                      weighted=True)
        assert plain > 0 and weighted > 0

    def test_power_overhead(self):
        assert power_overhead(10.0, 13.0) == pytest.approx(30.0)
        assert power_overhead(0.0, 5.0) == 0.0
