from dataclasses import replace

import numpy as np
import pytest

from wirebeam.checkpoint import AgentCheckpoint
from wirebeam.config import (
    ConfigError,
    load_config,
    load_sweep_spec,
    serialize_train_config,
    sweep_spec_from_text,
    train_config_from_text,
)
from wirebeam.deepq import init_qnetwork


class TestDefaults:
    def test_empty_file_gives_reference_defaults(self):
        cfg = train_config_from_text("")
        env = cfg.env
        assert env.phys.n_points == 11
        assert env.phys.total_mass == 10.0
        assert env.phys.spring_constant == 100.0
        assert env.phys.drag_constant == 1.0
        np.testing.assert_array_equal(env.phys.gravity, [0.0, 0.0, -9.8])
        np.testing.assert_array_equal(env.phys.wind_cov, 0.1 * np.eye(3))
        np.testing.assert_array_equal(env.phys.endpoint_a, [0.0, -5.0, 5.0])
        np.testing.assert_array_equal(env.phys.endpoint_b, [0.0, 5.0, 5.0])
        assert env.antenna.n_v == env.antenna.n_h == 32
        assert env.antenna.g_max == 8.0
        assert env.budget.tx_power == 23.0
        assert env.budget.wavelength == 0.005
        assert env.budget.rx_gain == 8.0
        assert env.tau == 0.01
        assert env.horizon == 1000  # floor(10 / 0.01) with the float guard
        assert env.beta == 1.0
        assert env.clip_offset == -27.0
        assert env.clip_scale == 3.0
        assert env.adversary_speed == 10.0
        assert env.sbs_point == 6
        assert cfg.episodes == 400
        assert cfg.epsilon == 0.2
        assert cfg.gamma == 0.99
        assert cfg.target_period == 5
        assert cfg.test_steps == 1000
        assert cfg.batch_size == 32
        assert cfg.replay_capacity == 5000
        assert cfg.learning_rate == 0.001
        assert cfg.hidden == (32, 32, 32, 32)
        assert cfg.standardize_obs is True
        assert cfg.head_init_scale == 0.0
        assert cfg.variant == "rarl"

    def test_comments_and_blank_lines_ignored(self):
        cfg = train_config_from_text("# comment\n\nseed: 9\n")
        assert cfg.seed == 9


class TestValidation:
    def test_negative_mass_rejected_with_field_name(self):
        with pytest.raises(ConfigError, match="total_mass"):
            train_config_from_text("total_mass_kg: -1\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            train_config_from_text("seed: 1\nnot_a_key: 5\n")

    def test_parse_error_carries_line_info(self):
        with pytest.raises(ConfigError, match="line 1"):
            train_config_from_text("just some words\n")
        with pytest.raises(ConfigError, match="line 3"):
            train_config_from_text("seed: 1\nepsilon: 0.1\ngamma: not_a_number\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            train_config_from_text("seed: 1\nseed: 2\n")

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            train_config_from_text("variant: sometimes_adversary\n")

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError):
            train_config_from_text("observation_time_s: 0.001\n")


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = train_config_from_text("")
        text = serialize_train_config(cfg)
        again = serialize_train_config(train_config_from_text(text))
        assert text == again

    def test_custom_round_trip(self, tmp_path):
        src = (
            "total_mass_kg: 3.5\n"
            "spring_constant_n_per_m: 42.0\n"
            "n_vertical: 8\n"
            "variant: random_adversary\n"
            "hidden_units: 16,16\n"
            "seed: 123\n"
            "ambient_wind: false\n"
        )
        cfg = train_config_from_text(src)
        assert cfg.env.phys.total_mass == 3.5
        assert cfg.hidden == (16, 16)
        assert cfg.env.ambient_wind is False
        path = tmp_path / "cfg.txt"
        path.write_text(serialize_train_config(cfg))
        reloaded = load_config(path)
        assert serialize_train_config(reloaded) == serialize_train_config(cfg)
        assert reloaded.env.phys.spring_constant == 42.0


    def test_in_memory_proxy_rejected(self):
        cfg = train_config_from_text("")
        proxy = AgentCheckpoint(net=init_qnetwork(5, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="proxy_checkpoint"):
            serialize_train_config(replace(cfg, proxy_checkpoint=proxy))
        text = serialize_train_config(replace(cfg, proxy_checkpoint="run/proxy.ckpt"))
        assert train_config_from_text(text).proxy_checkpoint == "run/proxy.ckpt"


class TestSweepSpec:
    def test_defaults_and_parsing(self):
        spec = sweep_spec_from_text("")
        assert spec.mass_grid == [1.0, 2.0, 5.0, 10.0, 15.0, 20.0]
        assert spec.spring_grid == [10.0, 25.0, 50.0, 100.0, 150.0, 200.0]
        assert spec.policies == ["stay"]

    def test_duplicates_removed(self):
        spec = sweep_spec_from_text("mass_grid_kg: 10,10,5\nspring_grid_n_per_m: 100\n")
        assert spec.mass_grid == [10.0, 5.0]
        assert spec.spring_grid == [100.0]

    def test_validation(self):
        with pytest.raises(ConfigError, match="positive"):
            sweep_spec_from_text("mass_grid_kg: -1,5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            sweep_spec_from_text("masses: 1,2\n")
        with pytest.raises(ConfigError):
            sweep_spec_from_text("episodes_per_cell: 0\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sweep.spec"
        path.write_text("mass_grid_kg: 2,4\npolicies: stay,upper_limit\nseeds_per_cell: 2\n")
        spec = load_sweep_spec(path)
        assert spec.mass_grid == [2.0, 4.0]
        assert spec.policies == ["stay", "upper_limit"]
        assert spec.seeds_per_cell == 2
