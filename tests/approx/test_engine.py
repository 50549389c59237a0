"""Engine registry, ErrorSpec validation, and strict config parsing."""

import pytest

from repro.approx import (ApproxConfig, ApproxEngine, ConfigError,
                          CubeSelectionEngine, ErrorSpec, engine_names,
                          get_engine, register_engine,
                          synthesize_approximation)
from repro.approx.engine import _REGISTRY
from repro.bench.suite import tiny_benchmark
from repro.network import write_blif
from repro.sim import MAX_EXHAUSTIVE_INPUTS


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == ("cube", "resub")

    def test_get_engine_returns_named_instance(self):
        assert get_engine("cube").name == "cube"
        assert get_engine("resub").name == "resub"
        assert isinstance(get_engine("cube"), CubeSelectionEngine)

    def test_unknown_engine_raises(self):
        with pytest.raises(KeyError):
            get_engine("nope")

    def test_register_engine_roundtrip(self):
        class Dummy(ApproxEngine):
            name = "dummy-engine"

        register_engine(Dummy())
        try:
            assert "dummy-engine" in engine_names()
            assert isinstance(get_engine("dummy-engine"), Dummy)
            # And the config layer accepts it (no error spec needed).
            ApproxConfig(engine="dummy-engine")
        finally:
            _REGISTRY.pop("dummy-engine", None)

    def test_base_engine_synthesize_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ApproxEngine().synthesize(tiny_benchmark(), {}, ApproxConfig())


class TestCubeEngineIdentity:
    def test_cube_engine_matches_direct_synthesis(self):
        network = tiny_benchmark()
        directions = {po: 1 for po in network.outputs}
        config = ApproxConfig(seed=2008)
        via_engine = get_engine("cube").synthesize(network, directions,
                                                   config)
        direct = synthesize_approximation(network, directions, config)
        assert write_blif(via_engine.approx) == write_blif(direct.approx)
        assert via_engine.correctness == direct.correctness
        assert via_engine.check_method == direct.check_method
        assert via_engine.engine == "cube"
        assert via_engine.error_report is None


class TestErrorSpec:
    def test_valid_specs(self):
        spec = ErrorSpec(metric="er", bound=0.05)
        assert spec.exact_threshold == 12
        ErrorSpec(metric="med", bound=100.0, exact_threshold=0)
        ErrorSpec(metric="wce", bound=0.0)

    def test_from_value_passthrough_and_coercion(self):
        assert ErrorSpec.from_value(None) is None
        spec = ErrorSpec(metric="er", bound=0.1)
        assert ErrorSpec.from_value(spec) is spec
        coerced = ErrorSpec.from_value({"metric": "er", "bound": 0.1})
        assert coerced == spec

    @pytest.mark.parametrize("kwargs,field", [
        (dict(metric="", bound=0.1), "error.metric"),
        (dict(metric="", bound=-1.0), "error.metric"),
        (dict(metric="mse", bound=0.1), "error.metric"),
        (dict(metric="er", bound=-0.5), "error.bound"),
        (dict(metric="er", bound=1.5), "error.bound"),
        (dict(metric="er", bound="lots"), "error.bound"),
        (dict(metric="er", bound=True), "error.bound"),
        (dict(metric="er", bound=0.1, exact_threshold=-1),
         "error.exact_threshold"),
        (dict(metric="er", bound=0.1, exact_threshold=2.5),
         "error.exact_threshold"),
        (dict(metric="er", bound=0.1,
              exact_threshold=MAX_EXHAUSTIVE_INPUTS + 1),
         "error.exact_threshold"),
    ])
    def test_invalid_specs_carry_the_field(self, kwargs, field):
        with pytest.raises(ConfigError) as excinfo:
            ErrorSpec(**kwargs)
        assert excinfo.value.field == field
        doc = excinfo.value.to_dict()
        assert doc["error"] == "config"
        assert doc["field"] == field

    def test_exact_threshold_reaches_the_simulator_limit(self):
        spec = ErrorSpec(metric="er", bound=0.1,
                         exact_threshold=MAX_EXHAUSTIVE_INPUTS)
        assert spec.exact_threshold == MAX_EXHAUSTIVE_INPUTS

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            ErrorSpec.from_value({"metric": "er", "bound": 0.1,
                                  "confidence": 0.9})
        assert "confidence" in excinfo.value.message

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            ErrorSpec.from_value(0.05)

    def test_to_dict_roundtrips(self):
        spec = ErrorSpec(metric="wce", bound=16.0, exact_threshold=10)
        assert ErrorSpec.from_value(spec.to_dict()) == spec


class TestConfigValidation:
    def test_engine_default_is_cube(self):
        assert ApproxConfig().engine == "cube"
        assert ApproxConfig().error is None

    def test_error_dict_coerced(self):
        config = ApproxConfig(engine="resub",
                              error={"metric": "er", "bound": 0.05})
        assert isinstance(config.error, ErrorSpec)
        assert config.error.bound == 0.05

    def test_unknown_engine(self):
        with pytest.raises(ConfigError) as excinfo:
            ApproxConfig(engine="nope")
        assert excinfo.value.field == "engine"

    def test_resub_requires_error(self):
        with pytest.raises(ConfigError) as excinfo:
            ApproxConfig(engine="resub")
        assert excinfo.value.field == "error"

    def test_cube_rejects_error(self):
        with pytest.raises(ConfigError) as excinfo:
            ApproxConfig(error={"metric": "er", "bound": 0.05})
        assert excinfo.value.field == "error"

    def test_from_dict_strict(self):
        config = ApproxConfig.from_dict(
            {"engine": "resub", "seed": 1,
             "error": {"metric": "er", "bound": 0.1}})
        assert config.engine == "resub"
        with pytest.raises(ConfigError) as excinfo:
            ApproxConfig.from_dict({"sead": 1})
        assert "sead" in excinfo.value.message
        with pytest.raises(ConfigError):
            ApproxConfig.from_dict(["not", "a", "mapping"])
