from dataclasses import replace

import numpy as np
import pytest

from wirebeam.checkpoint import AgentCheckpoint
from wirebeam.config import (
    SCHEMA,
    SWEEP_SCHEMA,
    ConfigError,
    _parse_floats,
    load_config,
    load_sweep_spec,
    serialize_train_config,
    sweep_spec_from_text,
    train_config_from_text,
)
from wirebeam.deepq import init_qnetwork
from wirebeam.radio import AntennaConfig, AoD, array_factor, element_pattern, received_power
from wirebeam.rarl import TrainConfig

FLOAT_KEYS = {
    key: parser for key, (parser, _) in {**SCHEMA, **SWEEP_SCHEMA}.items() if parser in (float, _parse_floats)
}

# a valid, non-default value for every key, in canonical text form
NON_DEFAULT = {
    "n_points": "13",
    "total_mass_kg": "5.0",
    "spring_constant_n_per_m": "50.0",
    "drag_constant_per_s": "0.5",
    "gravity_m_per_s2": "0.0,0.0,-9.81",
    "wind_cov_scale": "0.2",
    "endpoint_height_m": "6.0",
    "endpoint_separation_m": "12.0",
    "gateway_distance_m": "4.0",
    "gateway_height_m": "6.0",
    "gateway_level_with_sbs": "false",
    "sbs_point": "5",
    "tx_power_dbm": "20.0",
    "wavelength_m": "0.004",
    "rx_gain_dbi": "7.0",
    "element_gain_dbi": "7.0",
    "front_back_db": "25.0",
    "sla_v_db": "25.0",
    "theta_3db_deg": "60.0",
    "phi_3db_deg": "60.0",
    "n_vertical": "16",
    "n_horizontal": "8",
    "spacing_v_m": "0.002",
    "spacing_h_m": "0.002",
    "observation_time_s": "5.0",
    "decision_interval_s": "0.02",
    "substeps": "2",
    "beam_step_deg": "2.0",
    "clip_offset_dbm": "-20.0",
    "clip_scale_db": "2.0",
    "adversary_speed_m_per_s": "5.0",
    "ambient_wind": "false",
    "episodes": "7",
    "epsilon": "0.3",
    "gamma": "0.9",
    "target_period_episodes": "3",
    "test_steps": "50",
    "batch_size": "16",
    "replay_capacity": "100",
    "learning_rate": "0.01",
    "hidden_units": "16,16",
    "standardize_obs": "false",
    "head_init_scale": "1.0",
    "variant": "no_adversary",
    "seed": "5",
    "proxy_checkpoint": "run/proxy.ckpt",
}


def _with_env(**kw):
    cfg = TrainConfig()
    return replace(cfg, env=replace(cfg.env, **kw))


def _with_phys(**kw):
    return _with_env(phys=replace(TrainConfig().env.phys, **kw))


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
        assert env.antenna.wavelength == 0.005
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", list(FLOAT_KEYS))
    def test_non_finite_float_rejected(self, key, value):
        # every float key, of a training config or a sweep spec, names itself
        parse = sweep_spec_from_text if key in SWEEP_SCHEMA else train_config_from_text
        text = f"{key}: 1.0,{value}\n" if FLOAT_KEYS[key] is _parse_floats else f"{key}: {value}\n"
        with pytest.raises(ConfigError, match=f"^line 1: {key} must be finite"):
            parse(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_wind_cov_scale_rejected_with_key(self, value):
        with pytest.raises(ConfigError, match="wind_cov_scale must be finite"):
            train_config_from_text(f"wind_cov_scale: {value}\n")

    @pytest.mark.parametrize("tau", ["0", "-0.01", "nan"])
    def test_nonpositive_decision_interval_rejected_with_key(self, tau):
        with pytest.raises(ConfigError, match="decision_interval_s must be " + ("finite" if tau == "nan" else "> 0")):
            train_config_from_text(f"decision_interval_s: {tau}\n")

    @pytest.mark.parametrize("observation", ["1e308", "-1e308"])
    def test_overflowing_horizon_rejected_with_both_keys(self, observation):
        # the quotient overflows to +-inf, which has no step count
        with pytest.raises(ConfigError, match="observation_time_s / decision_interval_s overflows"):
            train_config_from_text(f"observation_time_s: {observation}\ndecision_interval_s: 1e-10\n")


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


    @pytest.mark.parametrize("key", list(SCHEMA))
    def test_every_key_changes_only_its_line(self, key):
        line = f"{key}: {NON_DEFAULT[key]}"
        default = serialize_train_config(train_config_from_text("")).splitlines()
        changed = serialize_train_config(train_config_from_text(line + "\n")).splitlines()
        assert len(changed) == len(default) == len(SCHEMA)
        index = list(SCHEMA).index(key)
        assert [i for i, (a, b) in enumerate(zip(default, changed)) if a != b] == [index]
        assert changed[index] == line

    def test_every_key_at_once_round_trips(self):
        text = "".join(f"{key}: {NON_DEFAULT[key]}\n" for key in SCHEMA)
        cfg = train_config_from_text(text)
        assert cfg.env.horizon == 250  # observation time over the final decision interval
        assert serialize_train_config(cfg) == text

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (_with_phys(wind_cov=np.diag([0.1, 0.2, 0.1])), "wind_cov"),
            (_with_phys(endpoint_a=[0.0, -4.0, 5.0]), "endpoints"),
            (_with_phys(endpoint_b=[0.0, 5.0, 6.0]), "endpoints"),
        ],
    )
    def test_config_without_text_form_rejected(self, cfg, message):
        with pytest.raises(ValueError, match=message):
            serialize_train_config(cfg)

    def test_wavelength_sets_array_factor_and_path_gain(self):
        env = train_config_from_text("wavelength_m: 0.004\n").env
        assert env.antenna.wavelength == 0.004
        aod = AoD(5.0, 88.0, 3.0)  # off the steering direction, so the array factor depends on the wavelength
        af = array_factor(88.0, 3.0, 90.0, 0.0, AntennaConfig(wavelength=0.004))
        assert af != array_factor(88.0, 3.0, 90.0, 0.0, AntennaConfig())
        path_db = 20.0 * np.log10(0.004 / (4 * np.pi * 5.0))
        expected = 23.0 + element_pattern(88.0, 3.0, env.antenna) + af + 8.0 + path_db
        assert received_power(aod, 90.0, 0.0, env.antenna, env.budget) == pytest.approx(expected, abs=1e-9)

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
        with pytest.raises(ConfigError, match="line 2: duplicate"):
            sweep_spec_from_text("mass_grid_kg: 1,2\nmass_grid_kg: 5\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sweep.spec"
        path.write_text("mass_grid_kg: 2,4\npolicies: stay,upper_limit\nseeds_per_cell: 2\n")
        spec = load_sweep_spec(path)
        assert spec.mass_grid == [2.0, 4.0]
        assert spec.policies == ["stay", "upper_limit"]
        assert spec.seeds_per_cell == 2
