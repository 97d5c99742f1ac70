"""Unit tests for OFFSConfig validation and derived quantities."""

import pytest

from repro.core.config import MATCHER_BACKENDS, OFFSConfig
from repro.core.errors import ConfigError


class TestDefaults:
    def test_paper_deployed_defaults(self):
        cfg = OFFSConfig()
        assert cfg.delta == 8
        assert cfg.alpha == 5
        assert cfg.iterations == 4
        assert cfg.sample_exponent == 7
        assert cfg.beta == 500.0

    def test_default_mode(self):
        cfg = OFFSConfig.default_mode()
        assert (cfg.iterations, cfg.sample_exponent) == (4, 7)

    def test_fast_mode(self):
        cfg = OFFSConfig.fast_mode()
        assert (cfg.iterations, cfg.sample_exponent) == (2, 7)

    def test_mode_overrides(self):
        cfg = OFFSConfig.fast_mode(delta=6)
        assert cfg.delta == 6 and cfg.iterations == 2


class TestDerived:
    def test_sample_stride(self):
        assert OFFSConfig(sample_exponent=0).sample_stride == 1
        assert OFFSConfig(sample_exponent=7).sample_stride == 128

    def test_lambda_divisor_semantics(self):
        cfg = OFFSConfig(beta=500)
        assert cfg.lambda_for(1_000_000) == 2000

    def test_lambda_floor(self):
        assert OFFSConfig(beta=500).lambda_for(100) == 64

    def test_capacity_overrides_lambda(self):
        assert OFFSConfig(capacity=7).lambda_for(10**9) == 7

    def test_with_returns_validated_copy(self):
        cfg = OFFSConfig()
        other = cfg.with_(iterations=9)
        assert other.iterations == 9 and cfg.iterations == 4
        with pytest.raises(ConfigError):
            cfg.with_(delta=1)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"delta": 1},
        {"alpha": 0},
        {"alpha": 8, "delta": 8},
        {"iterations": -1},
        {"sample_exponent": -1},
        {"beta": 0},
        {"beta": -5},
        {"capacity": 0},
        {"min_final_weight": 0},
        {"matcher": "btree"},
        {"topdown_rounds": -1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            OFFSConfig(**kwargs)

    def test_all_matcher_backends_accepted(self):
        # Algorithm 6 is the production matcher; Algorithm 7 its reference.
        assert MATCHER_BACKENDS == ("hash", "multilevel")
        for backend in MATCHER_BACKENDS:
            assert OFFSConfig(matcher=backend).matcher == backend

    def test_frozen(self):
        cfg = OFFSConfig()
        with pytest.raises(AttributeError):
            cfg.delta = 12
