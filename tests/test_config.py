"""Flat key=value configuration: parsing, the shipped profiles, validation."""

from pathlib import Path

import pytest

from moediff.config import RunConfig, load_config, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestConfigRoundtrip:
    def test_parse_reads_every_value_type(self):
        text = (
            "steps = 7\nwidth = 8\nrfa_kernels = 3,7\nlr = 0.01\n"
            "mask_kind = random\nshared_window = yes\nseed = 42\n"
        )
        cfg = RunConfig(
            steps=7, width=8, rfa_kernels=(3, 7), lr=0.01, mask_kind="random", shared_window=True, seed=42
        )
        assert parse_config(text) == cfg

    def test_defaults_roundtrip(self):
        # configs/toy.cfg restates every default; the two must not drift apart.
        assert load_config(CONFIGS / "toy.cfg") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nsteps = 5  # trailing\nwidth=4\n")
        assert cfg.steps == 5
        assert cfg.width == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("nonsense = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("steps = 5\nnot a pair\n")

    def test_typed_values(self):
        cfg = parse_config("rfa_kernels = 3,5,9\nshared_window = true\nbeta_end = 0.02\n")
        assert cfg.rfa_kernels == (3, 5, 9)
        assert cfg.shared_window is True
        assert cfg.beta_end == 0.02

    @pytest.mark.parametrize("raw", ["3,,5", "3,5,", ",3", " "])
    def test_empty_list_item_rejected(self, raw):
        with pytest.raises(ValueError, match=r"config line 2: key 'rfa_kernels': empty item"):
            parse_config(f"steps = 5\nrfa_kernels = {raw}\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            parse_config("shared_window = maybe\n")


class TestValidation:
    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            RunConfig(width=5).check()

    def test_bad_gate_mode(self):
        with pytest.raises(ValueError, match="gate_mode"):
            RunConfig(gate_mode="soft").check()

    @pytest.mark.parametrize(
        "key, value",
        [("depth", -1), ("batch", 0), ("train_steps", -3), ("momentum", 1.5), ("momentum", 1.0), ("momentum", -0.1),
         ("width", 0), ("width", -2), ("d_emb", 0), ("d_emb", 7), ("head_experts", 0), ("channels", 0),
         ("rfa_kernels", (3, 4))],
    )
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value}).check()

    def test_model_keys_build_the_spec(self):
        cfg = RunConfig(width=8, depth=2, rfa_kernels=(3, 5), head_experts=3, d_emb=16, gate_mode="raw", channels=4)
        spec = cfg.model_spec()
        assert (spec.width, spec.depth, spec.kernel_sizes, spec.head_experts) == (8, 2, (3, 5), 3)
        assert (spec.d_emb, spec.gate_mode, spec.channels) == (16, "raw", 4)

    @pytest.mark.parametrize(
        "key, value", [("depth", 0), ("batch", 1), ("train_steps", 0), ("momentum", 0.0)]
    )
    def test_range_edges_accepted(self, key, value):
        RunConfig(**{key: value}).check()


class TestProfiles:
    def test_toy_profile_valid_and_small(self):
        cfg = RunConfig().check()
        assert cfg.steps == 10
        assert cfg.width == 16
        assert len(cfg.rfa_kernels) == 5

    def test_full_profile_hyperparameters(self):
        cfg = load_config(CONFIGS / "full.cfg")
        assert cfg.steps == 40
        assert cfg.width == 160
        assert len(cfg.rfa_kernels) == 15
        assert cfg.head_experts == 16
        assert cfg.batch == 6
        assert cfg.channels == 12
