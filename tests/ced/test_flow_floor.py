"""Tests for the quality-floor retry ladder in the CED flow."""

import pytest

from repro.approx import ApproxConfig, get_engine
from repro.bench import load_benchmark, tiny_benchmark
from repro.ced import run_ced_flow
from repro.reliability import analyze_reliability
from repro.synth import quick_map


class TestQualityFloor:
    def test_floor_prevents_constant_collapse(self):
        """The i8-class cone used to collapse to a constant (0%
        approximation) under aggressive typing; the floor must keep
        every output above the threshold or pick the best attempt."""
        net = load_benchmark("i8", table=1)
        flow = run_ced_flow(net, reliability_words=4, coverage_words=2,
                            min_approx_pct=25.0)
        assert flow.approximation_pct > 25.0

    def test_floor_disabled_keeps_single_attempt(self):
        net = tiny_benchmark(seed=71)
        directions = {po: 0 for po in net.outputs}
        config = ApproxConfig()
        result, pct = get_engine(config.engine).synthesize_with_floor(
            net, directions, config, min_approx_pct=0.0)
        assert set(pct) == set(directions)

    def test_ladder_returns_best_attempt(self):
        net = tiny_benchmark(seed=73)
        directions = {po: 0 for po in net.outputs}
        # Absurd floor: unreachable, so the best attempt is returned.
        config = ApproxConfig()
        result, pct = get_engine(config.engine).synthesize_with_floor(
            net, directions, config, min_approx_pct=101.0)
        assert result is not None
        assert all(0.0 <= v <= 100.0 for v in pct.values())

    def test_gentler_configs_keep_more(self):
        net = tiny_benchmark(seed=73)
        directions = {po: 0 for po in net.outputs}
        engine = get_engine(ApproxConfig().engine)
        aggressive, pct_a = engine.synthesize_with_floor(
            net, directions,
            ApproxConfig(dc_threshold=0.6, cube_drop_threshold=0.4),
            min_approx_pct=0.0)
        gentle, pct_g = engine.synthesize_with_floor(
            net, directions,
            ApproxConfig(dc_threshold=0.05, cube_drop_threshold=0.01),
            min_approx_pct=0.0)
        assert min(pct_g.values()) >= min(pct_a.values()) - 1.0
