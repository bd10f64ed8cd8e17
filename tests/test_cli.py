"""CLI surface: the synth/train/impute/eval pipeline, exit codes, and
byte-level reproducibility of every seeded command."""

import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moediff.cli import _COMMANDS, build_parser, main
from moediff.backbone import load_backbone
from moediff.config import load_config
from moediff.diffusion import make_schedule, sample
from moediff.masking import apply_mask, draw_mask
from moediff.signals import load_signals
from moediff.tensor import read_checkpoint, read_tsb1, write_checkpoint, write_tsb1

TINY_CONFIG = """
steps = 4
beta_start = 1e-4
beta_end = 0.05
width = 4
depth = 1
rfa_kernels = 1,3
head_experts = 2
d_emb = 8
channels = 2
t_len = 32
lr = 5e-3
momentum = 0.9
train_steps = 15
batch = 4
mask_kind = continuous
drop_length = 4
drop_channels = 1
seed = 3
"""


def _tiny_config(lines: str) -> str:
    """TINY_CONFIG with each ``key = value`` line of ``lines`` in place of
    that key's line, or added when it has none: a config sets a key once."""
    keys = {ln.split("=")[0].strip() for ln in lines.splitlines()}
    kept = [ln for ln in TINY_CONFIG.splitlines() if ln.split("=")[0].strip() not in keys]
    return "\n".join(kept + lines.splitlines()) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    data_dir = root / "data"
    rc = main(
        ["synth", "--config", str(cfg), "--out", str(data_dir), "--n-samples", "8", "--noise-sigma", "0.02"]
    )
    assert rc == 0
    train_dir = root / "trained"
    rc = main(["train", "--config", str(cfg), "--data", str(data_dir / "dataset.tsb1"), "--out", str(train_dir)])
    assert rc == 0
    return {
        "cfg": str(cfg),
        "data": str(data_dir / "dataset.tsb1"),
        "ckpt": str(train_dir / "checkpoint.ckp1"),
        "root": root,
    }


def _tree_bytes(path):
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, path)] = open(full, "rb").read()
    return out


class TestPipeline:
    def test_synth_output_loadable(self, workspace):
        data = load_signals(workspace["data"])
        assert data.shape == (8, 2, 32)

    def test_train_artifacts(self, workspace):
        assert os.path.exists(workspace["ckpt"])
        curve = os.path.join(os.path.dirname(workspace["ckpt"]), "loss_curve.csv")
        lines = open(curve).read().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == 16

    def test_impute_and_eval(self, workspace, tmp_path):
        out = tmp_path / "imp"
        rc = main(
            ["impute", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
             "--input", workspace["data"], "--out", str(out)]
        )
        assert rc == 0
        assert (out / "reconstruction.tsb1").exists()
        assert (out / "metrics_full.csv").exists()
        assert (out / "metrics_missing.csv").exists()

        ev = tmp_path / "ev"
        rc = main(
            ["eval", "--truth", workspace["data"], "--pred", str(out / "reconstruction.tsb1"),
             "--out", str(ev)]
        )
        assert rc == 0
        assert (ev / "metrics.csv").exists()

    def test_impute_nothing_missing_skips_region_metrics(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "nothing_missing.cfg"
        cfg.write_text(_tiny_config("mask_kind = random\nmask_ratio = 0.0"))
        out = tmp_path / "imp0"
        rc = main(
            ["impute", "--config", str(cfg), "--checkpoint", workspace["ckpt"],
             "--input", workspace["data"], "--out", str(out)]
        )
        assert rc == 0
        assert (out / "metrics_full.csv").exists()
        assert not (out / "metrics_missing.csv").exists()
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("lines", ["", "mask_kind = random\nmask_ratio = 0.25"], ids=["continuous", "random"])
    def test_impute_mask_is_the_configs_draw(self, workspace, tmp_path, lines):
        # The config's mask keys are the only statement of the mask, drawn
        # from the configured seed.
        cfg = tmp_path / "mask.cfg"
        cfg.write_text(_tiny_config(lines))
        out = tmp_path / "imp"
        rc = main(["impute", "--config", str(cfg), "--checkpoint", workspace["ckpt"],
                   "--input", workspace["data"], "--out", str(out)])
        assert rc == 0
        run = load_config(cfg)
        signals = load_signals(workspace["data"])
        want = draw_mask(run, *signals.shape, np.random.default_rng(run.seed))
        np.testing.assert_array_equal(read_tsb1(out / "mask.tsb1"), want)
        assert 0 < want.sum() < want.size

    def test_impute_samples_from_its_own_stream(self, workspace, tmp_path):
        # The sampler draws from a child of the seed's SeedSequence, not
        # from the stream the mask was drawn from.
        out = tmp_path / "imp"
        assert main(["impute", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                     "--input", workspace["data"], "--out", str(out)]) == 0
        run = load_config(workspace["cfg"])
        params, _ = load_backbone(workspace["ckpt"])
        x_bar = apply_mask(load_signals(workspace["data"]), read_tsb1(out / "mask.tsb1"))
        sched = make_schedule(run.steps, run.beta_start, run.beta_end)
        recon = read_tsb1(out / "reconstruction.tsb1")
        rng = np.random.default_rng(np.random.SeedSequence(run.seed).spawn(1)[0])
        np.testing.assert_array_equal(recon, sample(params, x_bar, sched, rng))
        assert not np.array_equal(recon, sample(params, x_bar, sched, np.random.default_rng(run.seed)))

    def test_compare_kshot(self, workspace, tmp_path):
        out = tmp_path / "ks"
        rc = main(
            ["compare-kshot", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
             "--data", workspace["data"], "--ks", "1,2", "--out", str(out)]
        )
        assert rc == 0
        rows = [line.split(",") for line in (out / "kshot.csv").read_text().strip().split("\n")]
        timing = [line.split(",") for line in (out / "kshot_timing.csv").read_text().strip().split("\n")]
        assert rows[0] == ["K", "prd", "ssd", "mad"]
        assert timing[0] == ["K", "wall_seconds"]
        assert [r[0] for r in timing] == [r[0] for r in rows] == ["K", "1", "2"]

    def test_error_dist_both_modes(self, workspace, tmp_path):
        for mode, ncols in (("shots", 3), ("experts", 2)):
            out = tmp_path / f"ed_{mode}"
            rc = main(
                ["error-dist", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                 "--data", workspace["data"], "--mode", mode, "--shots", "3", "--out", str(out)]
            )
            assert rc == 0
            header = (out / "error_distribution.csv").read_text().split("\n", 1)[0]
            assert header.endswith(",fused")

    def test_gradcheck_smoke(self, workspace, tmp_path, capsys):
        rc = main(["gradcheck", "--points", "3", "--out", str(tmp_path / "gc")])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_theorem_check(self, workspace, tmp_path, capsys):
        out = tmp_path / "thm"
        rc = main(["theorem-check", "--trials", "20", "--out", str(out)])
        assert rc == 0
        assert (out / "expert_sweep.csv").exists()
        assert "[FAIL]" not in capsys.readouterr().out

    def test_resume_training(self, workspace, tmp_path, capsys):
        out = tmp_path / "resumed"
        rc = main(
            ["train", "--config", workspace["cfg"], "--data", workspace["data"],
             "--out", str(out), "--resume", workspace["ckpt"]]
        )
        assert rc == 0  # start step == train_steps: nothing further, still valid
        assert "nothing to train" in capsys.readouterr().out


def _with_expert_biases(records):
    """Rename each routed expert record ``levels.i.{main,cond}.experts.j`` to
    ``...experts.j.weight`` and add a zero ``...experts.j.bias``, the records
    of a checkpoint written when the routed experts had a bias."""
    for name in [n for n in records if n.startswith("levels.") and ".experts." in n]:
        weight = records.pop(name)
        records[f"{name}.weight"], records[f"{name}.bias"] = weight, np.zeros(len(weight))


def _with_router_biases(records):
    """Rename each receptive-field router record ``levels.i.{main,cond}.router``,
    and its ``opt.v.`` velocity, to ``...router.weight`` and add a zero
    ``...router.bias``: the records of a checkpoint written when those
    routers had a bias."""
    for name in [n for n in records if n.endswith(".router")]:
        weight = records.pop(name)
        records[f"{name}.weight"], records[f"{name}.bias"] = weight, np.zeros(weight.shape[1])


def _with_film_records(records):
    """Rename each bridge record ``levels.i.bridge.{weight,bias}`` to
    ``levels.i.bridge.film.*``, the records of a checkpoint written when the
    bridge wrapped its FiLM map in a record of its own."""
    for name in [n for n in records if ".bridge." in n]:
        records[name.replace(".bridge.", ".bridge.film.")] = records.pop(name)


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required --data
        assert exc.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_is_2(self, workspace, tmp_path):
        rc = main(["train", "--config", workspace["cfg"], "--data", "/nonexistent.tsb1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_magic_is_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.tsb1"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["train", "--config", workspace["cfg"], "--data", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_truncated_checkpoint_header_is_2(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "short.ckp1"
        ckpt.write_bytes(b"CKP1\x01\x00")
        rc = main(["impute", "--config", workspace["cfg"], "--checkpoint", str(ckpt),
                   "--input", workspace["data"], "--out", str(tmp_path / "imp")])
        assert rc == 2
        assert "truncated checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, located",
        [(b"\x0a\x00abc", "truncated record name at offset 10: need 10 bytes, have 3"),
         (b"\x02\x00a\xff", "record name at offset 10 is not UTF-8")],
        ids=["truncated", "not_utf8"],
    )
    def test_bad_record_name_is_2(self, workspace, tmp_path, capsys, record, located):
        # One record: a u16 name length, then the name's bytes.
        ckpt = tmp_path / "bad.ckp1"
        ckpt.write_bytes(b"CKP1\x01\x00\x00\x00" + record)
        rc = main(["impute", "--config", workspace["cfg"], "--checkpoint", str(ckpt),
                   "--input", workspace["data"], "--out", str(tmp_path / "imp")])
        assert rc == 2
        assert located in capsys.readouterr().err

    def test_non_binary_eval_region_is_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "ev"
        rc = main(["eval", "--truth", workspace["data"], "--pred", workspace["data"],
                   "--region", workspace["data"], "--out", str(out)])
        assert rc == 2
        assert "region must contain only 0.0 and 1.0 entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["eval_region", "eval_shapes", "error_dist_channel"])
    def test_data_error_names_its_files_and_flag(self, workspace, tmp_path, capsys, case):
        data = load_signals(workspace["data"])
        bad = str(tmp_path / "bad.tsb1")
        if case == "eval_region":
            write_tsb1(bad, np.full_like(data, 0.5))
            argv = ["eval", "--truth", workspace["data"], "--pred", workspace["data"], "--region", bad]
            located = f"--region {bad}: region must contain only 0.0 and 1.0 entries"
        elif case == "eval_shapes":
            write_tsb1(bad, data[:, :, :16])
            argv = ["eval", "--truth", workspace["data"], "--pred", bad]
            located = f"--truth {workspace['data']}, --pred {bad}: evaluate: reference shape (8, 2, 32) != "
        else:
            argv = ["error-dist", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                    "--data", workspace["data"], "--channel", "5"]
            located = f"--channel 5 outside 0..1: {workspace['data']} holds 2 channels"
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert located in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, bad, located",
        [("eval --truth", (1, 0, 5, np.nan), "non-finite value nan at [sample, channel, timestep] = [1, 0, 5]"),
         ("eval --pred", (7, 1, 31, np.inf), "non-finite value inf at [sample, channel, timestep] = [7, 1, 31]"),
         ("eval --pred", None, "empty signal stack of shape [0, 2, 32]"),
         ("train --data", (0, 1, 0, np.nan), "non-finite value nan at [sample, channel, timestep] = [0, 1, 0]"),
         ("train --data", None, "empty signal stack of shape [0, 2, 32]")],
        ids=["eval_nan_truth", "eval_inf_pred", "eval_empty", "train_nan", "train_empty"],
    )
    def test_bad_dataset_is_2_naming_the_file(self, workspace, tmp_path, capsys, command, bad, located):
        data = load_signals(workspace["data"])
        if bad is None:
            data = data[:0]
        else:
            data[bad[:3]] = bad[3]
        path = str(tmp_path / "bad.tsb1")
        write_tsb1(path, data)
        name, flag = command.split()
        files = {"eval": {"--truth": workspace["data"], "--pred": workspace["data"]},
                 "train": {"--config": workspace["cfg"], "--data": workspace["data"]}}[name]
        files[flag] = path
        out = tmp_path / "x"
        assert main([name, *itertools.chain.from_iterable(files.items()), "--out", str(out)]) == 2
        assert f"{path}: {located}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_is_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(TINY_CONFIG + "width = 16\n")
        out = tmp_path / "d"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--n-samples", "2"]) == 2
        assert "key 'width' was already set on line" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["beta_end = 1.5", "beta_start = 0.2\nbeta_end = 0.1"], ids=["high", "reversed"])
    def test_schedule_checked_at_load(self, tmp_path, capsys, line):
        # synth builds no schedule, yet a bad one fails when the config is loaded.
        cfg = tmp_path / "sched.cfg"
        cfg.write_text(_tiny_config(line))
        out = tmp_path / "d"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--n-samples", "2"]) == 2
        assert "0 < beta_start <= beta_end < 1" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_onto_a_file_is_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["synth", "--out", str(taken), "--n-samples", "2"]) == 2
        assert f"data error: [Errno 17] File exists: '{taken}'" in capsys.readouterr().err

    def test_eval_input_under_a_file_is_2(self, workspace, tmp_path, capsys):
        truth = tmp_path / "taken" / "x.tsb1"
        truth.parent.write_text("")
        out = tmp_path / "ev"
        assert main(["eval", "--truth", str(truth), "--pred", workspace["data"], "--out", str(out)]) == 2
        assert f"data error: [Errno 20] Not a directory: '{truth}'" in capsys.readouterr().err
        assert not out.exists()

    def test_train_out_under_a_file_is_2_before_any_step(self, workspace, tmp_path, capsys, monkeypatch):
        import moediff.training as training

        steps = []
        monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
        out = tmp_path / "taken" / "sub"
        out.parent.write_text("")
        assert main(["train", "--config", workspace["cfg"], "--data", workspace["data"], "--out", str(out)]) == 2
        assert f"data error: [Errno 20] Not a directory: '{out}'" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("line, key", [("drop_length = 33", "drop_length"), ("drop_channels = 3", "drop_channels")])
    def test_train_mask_key_too_large_is_2_before_any_output(self, workspace, tmp_path, capsys, line, key):
        # The dataset is 2 channels x 32 steps, as the config says.
        cfg = tmp_path / "mask.cfg"
        cfg.write_text(_tiny_config(line))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(out)]) == 2
        assert f"data error: {key} must lie in 1.." in capsys.readouterr().err
        assert not out.exists()

    def test_train_t_len_below_two_is_2_before_any_output(self, tmp_path, capsys):
        # A matching dataset: one record of 2 channels x 1 step.
        data = tmp_path / "one_step.csv"
        data.write_text("channel_0,channel_1\n0.5,-0.5\n")
        cfg = tmp_path / "short.cfg"
        cfg.write_text(_tiny_config("t_len = 1\ndrop_length = 1"))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 2
        assert "data error: t_len must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_theorem_check_one_step_flat_schedule_is_0(self, tmp_path, capsys):
        # The configured schedule is checked as it is: a one-step schedule
        # checks its only step, the deterministic t = 1 step.
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("steps = 1\nbeta_start = 0.01\nbeta_end = 0.01\n")
        out = tmp_path / "thm"
        assert main(["theorem-check", "--config", str(cfg), "--trials", "5", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("[PASS]") == 4 and "[FAIL]" not in stdout
        assert (out / "expert_sweep.csv").exists()

    def test_oversized_drop_length_same_message_from_train_and_compare_kshot(self, workspace, tmp_path, capsys):
        # The run-length rule lives in masking alone: train checks it against
        # the config before --out exists, compare-kshot when it draws the mask
        # at the dataset's shape, so its message names the dataset.
        cfg = tmp_path / "long.cfg"
        cfg.write_text(_tiny_config("drop_length = 33"))
        errors = []
        for argv in (["train", "--data", workspace["data"]],
                     ["compare-kshot", "--checkpoint", workspace["ckpt"], "--data", workspace["data"]]):
            out = tmp_path / argv[0]
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        rule = "drop_length must lie in 1..32, got 33\n"
        assert errors == [f"data error: {rule}", f"data error: {workspace['data']}: {rule}"]

    def test_runs_longer_than_t_len_load_for_commands_that_draw_no_mask(self, tmp_path):
        # The run rule is checked at the masked data's shape, not at load:
        # a t_len = 16 config with the default drop_length of 26 still synthesises.
        cfg = tmp_path / "short.cfg"
        cfg.write_text("channels = 2\nt_len = 16\n")
        assert main(["synth", "--config", str(cfg), "--n-samples", "2", "--out", str(tmp_path / "d")]) == 0
        assert read_tsb1(str(tmp_path / "d" / "dataset.tsb1")).shape == (2, 2, 16)

    @pytest.mark.parametrize(
        "argv, located",
        [(["impute", "--input"], "evaluate: sample 0 has zero reference energy; prd undefined"),
         (["compare-kshot", "--ks", "1", "--data"],
          "evaluate: sample 0 has zero reference energy in its missing region; prd undefined")],
        ids=["impute", "compare_kshot"],
    )
    def test_scoring_error_is_2_naming_the_dataset(self, workspace, tmp_path, capsys, argv, located):
        # Four all-zero records sample fine but cannot be scored; impute
        # scores before it makes --out, so it writes nothing.
        data = str(tmp_path / "zeros.tsb1")
        write_tsb1(data, np.zeros((4, 2, 32)))
        out = tmp_path / "x"
        assert main([*argv, data, "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 2
        assert f"data error: {data}: {located}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, data_flag", [("impute", "--input"), ("compare-kshot", "--data"),
                                                    ("error-dist", "--data")])
    def test_dataset_shorter_than_runs_is_2_naming_it(self, workspace, tmp_path, capsys, command, data_flag):
        # The config's 4-step runs fit its t_len of 32 but not a 1-step dataset.
        data = str(tmp_path / "short.tsb1")
        write_tsb1(data, np.ones((2, 2, 1)))
        out = tmp_path / "x"
        assert main([command, data_flag, data, "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {data}: drop_length must lie in 1..1, got 4\n"
        assert not out.exists()

    def test_synth_names_the_bad_size(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--n-samples", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: n_samples must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_is_3(self, workspace, tmp_path):
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(TINY_CONFIG.replace("lr = 5e-3", "lr = 1e12").replace("momentum = 0.9", "momentum = 0.0"))
        rc = main(["train", "--config", str(cfg), "--data", workspace["data"],
                   "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_checkpoint_dimension_mismatch_is_2(self, workspace, tmp_path, capsys):
        # Every command that masks a dataset for a checkpoint checks its
        # channel count up front, with the same located message.
        cfg3 = tmp_path / "c3.cfg"
        cfg3.write_text(TINY_CONFIG.replace("channels = 2", "channels = 3"))
        data3 = str(tmp_path / "d3" / "dataset.tsb1")
        assert main(["synth", "--config", str(cfg3), "--out", str(tmp_path / "d3"), "--n-samples", "2"]) == 0
        common = ["--config", workspace["cfg"], "--checkpoint", workspace["ckpt"], "--out", str(tmp_path / "x")]
        for command, data_flag in (("impute", "--input"), ("compare-kshot", "--data"), ("error-dist", "--data")):
            capsys.readouterr()
            assert main([command, data_flag, data3, *common]) == 2, command
            assert f"checkpoint expects 2 channels, {data3} has 3" in capsys.readouterr().err, command

    @pytest.mark.parametrize(
        "line, key",
        [("depth = -1", "depth"), ("batch = 0", "batch"), ("train_steps = -3", "train_steps"),
         ("momentum = 1.5", "momentum"), ("width = 0", "width"), ("width = -2", "width"), ("d_emb = 0", "d_emb"),
         ("d_emb = 7", "d_emb"), ("head_experts = 0", "head_experts"), ("rfa_kernels = 3,4", "rfa_kernels"),
         ("rfa_kernels = 1,,3", "rfa_kernels"), ("lr = 0", "lr"), ("lr = -1", "lr"),
         ("lr = nan", "lr"), ("lr = inf", "lr"), ("seed = -1", "seed"), ("beta_end = 1.5", "beta_end"),
         ("beta_start = 0.2\nbeta_end = 0.1", "beta_start"), ("mask_kind = random\nmask_ratio = 1.5", "mask_ratio"),
         ("mask_kind = random\nmask_ratio = nan", "mask_ratio")],
    )
    def test_out_of_range_config_is_2(self, workspace, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_tiny_config(line))
        rc = main(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(tmp_path / "x")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--noise-sigma", "-1", "noise_sigma"), ("--harmonics", "-2", "harmonics"), ("--f-min", "nan", "f_min"),
         ("--f-max", "inf", "f_max"), ("--amp-jitter", "nan", "amp_jitter"), ("--noise-sigma", "inf", "noise_sigma")],
    )
    def test_out_of_range_synth_option_is_2(self, workspace, tmp_path, capsys, flag, value, key):
        out = tmp_path / "x"
        rc = main(["synth", "--config", workspace["cfg"], "--out", str(out), "--n-samples", "2", flag, value])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_failed_sweep_certificate_is_3(self, tmp_path, capsys, monkeypatch):
        # A solve that is off by 1e-3 leaves no support with equal gradients.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-3)
        assert main(["theorem-check", "--trials", "10", "--out", str(tmp_path / "x")]) == 3
        assert "no simplex weights pass the KKT certificate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "gradcheck", "theorem-check"])
    def test_negative_seed_flag_is_2(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_below_stored_step_is_2(self, workspace, tmp_path, capsys):
        # The checkpoint has taken 15 steps; asking for 6 must not rewrite it.
        out = tmp_path / "run"
        out.mkdir()
        ckpt = out / "checkpoint.ckp1"
        ckpt.write_bytes(open(workspace["ckpt"], "rb").read())
        cfg = tmp_path / "short.cfg"
        cfg.write_text(_tiny_config("train_steps = 6"))
        rc = main(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(out),
                   "--resume", str(ckpt)])
        assert rc == 2
        assert "train_steps = 6 is below the 15 steps" in capsys.readouterr().err
        assert ckpt.read_bytes() == open(workspace["ckpt"], "rb").read()
        assert sorted(os.listdir(out)) == ["checkpoint.ckp1"]

    @pytest.mark.parametrize(
        "step", [[2.0, 3.0], np.nan, np.inf, -2.0, 1.5], ids=["vector", "nan", "inf", "negative", "fraction"]
    )
    def test_resume_with_bad_stored_step_is_2(self, workspace, tmp_path, capsys, step):
        records = read_checkpoint(workspace["ckpt"])
        records["meta.step"] = np.asarray(step)
        ckpt = tmp_path / "bad_step.ckp1"
        write_checkpoint(ckpt, records)
        out = tmp_path / "run"
        rc = main(["train", "--config", workspace["cfg"], "--data", workspace["data"], "--out", str(out),
                   "--resume", str(ckpt)])
        assert rc == 2
        assert f"checkpoint {ckpt}: record 'meta.step' holds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config_line, located",
        [("width = 8\ndepth = 2", "width = 4, the config sets width = 8"),
         ("rfa_kernels = 1,5", "rfa_kernels = (1, 3), the config sets rfa_kernels = (1, 5)"),
         ("head_experts = 3", "head_experts = 2, the config sets head_experts = 3")],
        ids=["width", "rfa_kernels", "head_experts"],
    )
    def test_resume_with_other_model_keys_is_2(self, workspace, tmp_path, capsys, config_line, located):
        # The checkpoint's model is not the configured one: say which key
        # differs rather than train the checkpoint's model.
        cfg = tmp_path / "other.cfg"
        cfg.write_text(_tiny_config(config_line + "\ntrain_steps = 20"))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(out),
                   "--resume", workspace["ckpt"]])
        assert rc == 2
        assert located in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--mask-kind", "random"), ("--mask-ratio", "0.0"),
                                             ("--drop-length", "4"), ("--drop-channels", "1")])
    @pytest.mark.parametrize("command, data_flag", [("impute", "--input"), ("compare-kshot", "--data"),
                                                    ("error-dist", "--data")])
    def test_mask_flags_are_1(self, workspace, tmp_path, capsys, command, data_flag, flag, value):
        # The mask is set in the config only; no flag restates a mask key.
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                  data_flag, workspace["data"], flag, value, "--out", str(out)])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_timing_flag_is_1(self, workspace, tmp_path, capsys):
        # Wall times have a file of their own, so no flag turns them off.
        out = tmp_path / "ks"
        with pytest.raises(SystemExit) as exc:
            main(["compare-kshot", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                  "--data", workspace["data"], "--no-timing", "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --no-timing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_region", [False, True], ids=["whole", "missing_region"])
    def test_eval_zero_energy_sample_is_2_naming_it(self, workspace, tmp_path, capsys, with_region):
        truth = load_signals(workspace["data"])
        region = np.ones_like(truth)
        region[:, 0, 5:9] = 0.0
        if with_region:
            truth[3][region[3] == 0.0] = 0.0
        else:
            truth[3] = 0.0
        files = {"--truth": tmp_path / "truth.tsb1", "--pred": workspace["data"]}
        write_tsb1(files["--truth"], truth)
        if with_region:
            files["--region"] = tmp_path / "region.tsb1"
            write_tsb1(files["--region"], region)
        out = tmp_path / "ev"
        assert main(["eval", *itertools.chain.from_iterable((k, str(v)) for k, v in files.items()),
                     "--out", str(out)]) == 2
        where = " in its missing region" if with_region else ""
        assert f"evaluate: sample 3 has zero reference energy{where}; prd undefined" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["1,x", "2,-1", "", "0", "1,,2"])
    def test_bad_shot_counts_are_1(self, workspace, tmp_path, capsys, ks):
        # A malformed --ks is a usage error before the checkpoint is read.
        out = tmp_path / "ks"
        with pytest.raises(SystemExit) as exc:
            main(["compare-kshot", "--config", workspace["cfg"], "--checkpoint", "/nonexistent.ckp1",
                  "--data", workspace["data"], "--ks", ks, "--out", str(out)])
        assert exc.value.code == 1
        assert "argument --ks: expected comma-separated integers >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command, flag",
        [("gradcheck", "--points"), ("theorem-check", "--trials"), ("error-dist", "--shots")],
    )
    def test_count_below_one_is_1(self, workspace, tmp_path, capsys, command, flag, value):
        # A count < 1 would check nothing and report a pass; it is a usage
        # error raised before any file is read.
        files = ["--checkpoint", "/nonexistent.ckp1", "--data", "/nonexistent.tsb1"] if command == "error-dist" else []
        out = tmp_path / "count"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", workspace["cfg"], *files, f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 1
        assert f"argument {flag}: expected an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("index", [8, 9, -1])
    def test_error_dist_sample_out_of_range_is_2(self, workspace, tmp_path, capsys, index):
        # The workspace dataset holds 8 records; a bad index fails before any sampling.
        out = tmp_path / "ed"
        rc = main(
            ["error-dist", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
             "--data", workspace["data"], "--sample", str(index), "--out", str(out)]
        )
        assert rc == 2
        assert f"--sample {index} outside 0..7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, config_line, located",
        [
            pytest.param(lambda r: r.pop("head.router.bias"), "", "'head.router.bias'", id="missing"),
            pytest.param(
                lambda r: r.update({"levels.0.main.router": np.zeros((16, 7))}),
                "",
                "'levels.0.main.router' has shape (16, 7)",
                id="wrong_shape",
            ),
            pytest.param(
                lambda r: r.update({"levels.0.main.experts.9": np.zeros((4, 4, 1))}),
                "",
                "'levels.0.main.experts.9'",
                id="unexpected",
            ),
            # Routed experts store a weight only; a bias record left in a
            # checkpoint is rejected, not dropped.
            pytest.param(
                lambda r: r.update({"levels.0.main.experts.0.bias": np.zeros(4)}),
                "",
                "'levels.0.main.experts.0.bias' is not a parameter of the model",
                id="expert_bias",
            ),
            pytest.param(
                _with_expert_biases, "", "checkpoint has no record 'levels.0.main.experts.0'",
                id="expert_weight_and_bias",
            ),
            # Pointwise weights are stored as the matrices they are applied
            # as, and the bridge holds its FiLM map directly; a checkpoint in
            # the older layout is rejected, not reshaped.
            pytest.param(
                lambda r: r.update({"lift_xt.weight": r["lift_xt.weight"][:, :, None]}),
                "",
                "'lift_xt.weight' has shape (4, 1, 1), the model needs (4, 1)",
                id="pointwise_kernel_axis",
            ),
            pytest.param(
                _with_film_records, "", "checkpoint has no record 'levels.0.bridge.weight'", id="bridge_film"
            ),
            # The receptive-field routers are bare [L, E] matrices; a
            # checkpoint holding each as a weight and a bias is rejected,
            # not converted.
            pytest.param(
                _with_router_biases, "", "checkpoint has no record 'levels.0.main.router'", id="router_biases"
            ),
            pytest.param(lambda r: r.pop("meta.width"), "", "'meta.width'", id="no_stored_spec"),
            pytest.param(
                lambda r: r.update({"meta.gate_mode": np.asarray(7.0)}), "", "'meta.gate_mode'", id="bad_spec"
            ),
            # 1 was the index of the removed "raw" gate mode.
            pytest.param(
                lambda r: r.update({"meta.gate_mode": np.asarray(1.0)}), "", "'meta.gate_mode'",
                id="removed_gate_mode",
            ),
            pytest.param(lambda r: None, "gate_mode = raw", "gate_mode must be one of ('unit',)", id="gate_mode"),
        ],
    )
    def test_bad_checkpoint_is_2_with_located_message(
        self, workspace, tmp_path, capsys, edit, config_line, located
    ):
        records = read_checkpoint(workspace["ckpt"])
        edit(records)
        ckpt = tmp_path / "bad.ckp1"
        write_checkpoint(ckpt, records)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_tiny_config(config_line))
        rc = main(["impute", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--input", workspace["data"], "--out", str(tmp_path / "imp")])
        assert rc == 2
        assert located in capsys.readouterr().err

    def test_resume_from_checkpoint_with_router_biases_is_2(self, workspace, tmp_path, capsys):
        # train --resume rejects the older router records as impute does
        # (the router_biases case above).
        records = read_checkpoint(workspace["ckpt"])
        _with_router_biases(records)
        assert {"levels.0.main.router.bias", "opt.v.levels.0.main.router.bias"} <= records.keys()
        ckpt = tmp_path / "old.ckp1"
        write_checkpoint(ckpt, records)
        out = tmp_path / "run"
        rc = main(["train", "--config", workspace["cfg"], "--data", workspace["data"], "--out", str(out),
                   "--resume", str(ckpt)])
        assert rc == 2
        assert "checkpoint has no record 'levels.0.main.router'" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def _run_twice(self, argv_builder, tmp_path):
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for d in dirs:
            rc = main(argv_builder(str(d)))
            assert rc == 0
        a, b = _tree_bytes(dirs[0]), _tree_bytes(dirs[1])
        assert a.keys() == b.keys() and a
        for name in a:
            # Wall times are the one output that may differ: they live in
            # files of their own, named *_timing.csv.
            if not name.endswith("_timing.csv"):
                assert a[name] == b[name], f"{name} differs between reruns"

    def test_synth(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ["synth", "--config", workspace["cfg"], "--out", out, "--n-samples", "4"],
            tmp_path,
        )

    def test_train(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ["train", "--config", workspace["cfg"], "--data", workspace["data"], "--out", out],
            tmp_path,
        )

    def test_impute(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ["impute", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                         "--input", workspace["data"], "--out", out],
            tmp_path,
        )

    def test_eval(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ["eval", "--truth", workspace["data"], "--pred", workspace["data"], "--out", out],
            tmp_path,
        )

    def test_compare_kshot_without_timing(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ["compare-kshot", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                         "--data", workspace["data"], "--ks", "1,2", "--out", out],
            tmp_path,
        )

    def test_error_dist(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ["error-dist", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                         "--data", workspace["data"], "--shots", "3", "--out", out],
            tmp_path,
        )

    def test_theorem_check(self, workspace, tmp_path):
        self._run_twice(lambda out: ["theorem-check", "--trials", "10", "--out", out], tmp_path)

    def test_seed_flag_changes_output(self, workspace, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["synth", "--config", workspace["cfg"], "--out", str(out1), "--n-samples", "4", "--seed", "1"])
        main(["synth", "--config", workspace["cfg"], "--out", str(out2), "--n-samples", "4", "--seed", "2"])
        a = (out1 / "dataset.tsb1").read_bytes()
        b = (out2 / "dataset.tsb1").read_bytes()
        assert a != b


def _readme_commands():
    """Every ``moediff ...`` command in README's bash blocks, continuation
    lines joined and comments stripped, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```bash\n(.*?)```", text, flags=re.S)).replace("\\\n", " ").splitlines()
    argvs = (shlex.split(line, comments=True) for line in lines)
    return [argv for argv in argvs if argv[:1] == ["moediff"]]


def test_readme_commands_parse(capsys):
    # Parsing only, nothing runs: a flag the CLI no longer has fails here.
    commands = _readme_commands()
    assert sorted({argv[1] for argv in commands}) == sorted(_COMMANDS)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}\n{capsys.readouterr().err}")


def test_import_loads_no_scipy():
    # NumPy is the only runtime dependency; a fresh interpreter shows what
    # importing the package and its CLI pulls in.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, moediff, moediff.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"


def test_training_and_kshot_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use (~15 ms); the routed gather
    # and scatter check that their rows are distinct without it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = """if True:
        import sys
        import numpy as np
        from moediff import ModelSpec, init_backbone, make_schedule, train_step
        from moediff.kshot import compare_kshot
        rng = np.random.default_rng(0)
        spec = ModelSpec(channels=2, width=4, depth=1, kernel_sizes=(1, 3), head_experts=2, d_emb=8)
        params = init_backbone(rng, spec)
        batch = rng.standard_normal((2, 2, 16))
        mask = np.ones_like(batch)
        mask[:, 0, 4:9] = 0.0
        sched = make_schedule(4)
        train_step(params, batch, mask, sched, rng)
        compare_kshot(params, batch, batch * mask, sched, (1, 2), rng, region=mask)
        print("numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "False"
