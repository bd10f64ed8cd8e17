"""CLI surface: the synth/train/impute/eval pipeline, exit codes, and
byte-level reproducibility of every seeded command."""

import os

import numpy as np
import pytest

from moediff.cli import main
from moediff.signals import load_signals
from moediff.tensor import read_checkpoint, write_checkpoint

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
        out = tmp_path / "imp0"
        rc = main(
            ["impute", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
             "--input", workspace["data"], "--out", str(out),
             "--mask-kind", "random", "--mask-ratio", "0.0"]
        )
        assert rc == 0
        assert (out / "metrics_full.csv").exists()
        assert not (out / "metrics_missing.csv").exists()
        assert "skipped" in capsys.readouterr().out

    def test_compare_kshot(self, workspace, tmp_path):
        out = tmp_path / "ks"
        rc = main(
            ["compare-kshot", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
             "--data", workspace["data"], "--ks", "1,2", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "kshot.csv").read_text().strip().split("\n")
        assert lines[0] == "K,prd,ssd,mad,wall_seconds"
        assert len(lines) == 3

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
         ("rfa_kernels = 1,,3", "rfa_kernels")],
    )
    def test_out_of_range_config_is_2(self, workspace, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + line + "\n")
        rc = main(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(tmp_path / "x")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, key", [("--noise-sigma", "-1", "noise_sigma"), ("--harmonics", "-2", "harmonics")]
    )
    def test_out_of_range_synth_option_is_2(self, workspace, tmp_path, capsys, flag, value, key):
        out = tmp_path / "x"
        rc = main(["synth", "--config", workspace["cfg"], "--out", str(out), "--n-samples", "2", flag, value])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_resume_below_stored_step_is_2(self, workspace, tmp_path, capsys):
        # The checkpoint has taken 15 steps; asking for 6 must not rewrite it.
        out = tmp_path / "run"
        out.mkdir()
        ckpt = out / "checkpoint.ckp1"
        ckpt.write_bytes(open(workspace["ckpt"], "rb").read())
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TINY_CONFIG + "train_steps = 6\n")
        rc = main(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(out),
                   "--resume", str(ckpt)])
        assert rc == 2
        assert "train_steps = 6 is below the 15 steps" in capsys.readouterr().err
        assert ckpt.read_bytes() == open(workspace["ckpt"], "rb").read()
        assert sorted(os.listdir(out)) == ["checkpoint.ckp1"]

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
                lambda r: r.update({"levels.0.main.router.weight": np.zeros((16, 7))}),
                "",
                "'levels.0.main.router.weight' has shape (16, 7)",
                id="wrong_shape",
            ),
            pytest.param(
                lambda r: r.update({"levels.0.main.experts.9.weight": np.zeros((4, 4, 1))}),
                "",
                "'levels.0.main.experts.9.weight'",
                id="unexpected",
            ),
            pytest.param(lambda r: r.pop("meta.width"), "", "'meta.width'", id="no_stored_spec"),
            pytest.param(
                lambda r: r.update({"meta.gate_mode": np.asarray(7.0)}), "", "'meta.gate_mode'", id="bad_spec"
            ),
            pytest.param(lambda r: None, "gate_mode = raw", "gate_mode='unit'", id="gate_mode"),
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
        cfg.write_text(TINY_CONFIG + config_line + "\n")
        rc = main(["impute", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--input", workspace["data"], "--out", str(tmp_path / "imp")])
        assert rc == 2
        assert located in capsys.readouterr().err


class TestDeterminism:
    def _run_twice(self, argv_builder, tmp_path):
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for d in dirs:
            rc = main(argv_builder(str(d)))
            assert rc == 0
        a, b = _tree_bytes(dirs[0]), _tree_bytes(dirs[1])
        assert a.keys() == b.keys() and a
        for name in a:
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
                         "--data", workspace["data"], "--ks", "1,2", "--no-timing", "--out", out],
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
