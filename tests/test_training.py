"""Training loop: determinism, resume semantics, NaN abort."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest

import moediff.training as training
from moediff.backbone import named_params, save_backbone, zip_map_params
from moediff.config import RunConfig
from moediff.synth import SyntheticConfig, synth_generate
from moediff.tensor import read_checkpoint
from moediff.training import NanLossError, train


def _tiny_cfg(**overrides):
    base = dict(
        steps=4,
        width=4,
        depth=1,
        rfa_kernels=(1, 3),
        head_experts=2,
        d_emb=8,
        channels=2,
        t_len=32,
        lr=5e-3,
        momentum=0.9,
        train_steps=12,
        batch=4,
        drop_length=4,
        seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def _tiny_data(n=8, channels=2, t_len=32, seed=0):
    return synth_generate(SyntheticConfig(n_samples=n, channels=channels, t_len=t_len, seed=seed))


class TestTrain:
    def test_smoke_loss_decreases(self, tmp_path):
        cfg = _tiny_cfg(train_steps=50)
        _, losses = train(cfg, _tiny_data(), tmp_path / "run")
        assert losses[-1][1] < losses[0][1]
        assert (tmp_path / "run" / "checkpoint.ckp1").exists()
        assert (tmp_path / "run" / "loss_curve.csv").exists()

    def test_same_config_same_curve(self, tmp_path):
        cfg = _tiny_cfg()
        data = _tiny_data()
        _, a = train(cfg, data, tmp_path / "a")
        _, b = train(cfg, data, tmp_path / "b")
        assert a == b
        assert (tmp_path / "a" / "loss_curve.csv").read_bytes() == (
            tmp_path / "b" / "loss_curve.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "checkpoint.ckp1").read_bytes() == (
            tmp_path / "b" / "checkpoint.ckp1"
        ).read_bytes()

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_resume_reproduces_unbroken_run(self, tmp_path, momentum):
        data = _tiny_data()
        full_cfg = _tiny_cfg(train_steps=12, momentum=momentum)
        _, full_losses = train(full_cfg, data, tmp_path / "full")

        half_cfg = _tiny_cfg(train_steps=6, momentum=momentum)
        train(half_cfg, data, tmp_path / "half")
        _, tail_losses = train(
            full_cfg, data, tmp_path / "resumed", resume_from=tmp_path / "half" / "checkpoint.ckp1"
        )
        assert tail_losses == full_losses[6:]
        full_ck = read_checkpoint(tmp_path / "full" / "checkpoint.ckp1")
        res_ck = read_checkpoint(tmp_path / "resumed" / "checkpoint.ckp1")
        assert full_ck.keys() == res_ck.keys()
        for k in full_ck:
            npt.assert_array_equal(full_ck[k], res_ck[k])

    def test_resume_checks_model_keys_only(self, tmp_path):
        data = _tiny_data()
        train(_tiny_cfg(train_steps=2), data, tmp_path / "a")
        ckpt = tmp_path / "a" / "checkpoint.ckp1"
        # The seed, lr and masking keys are not the model's: a resume may
        # change them.
        _, losses = train(_tiny_cfg(train_steps=3, seed=5, lr=1e-3), data, tmp_path / "b", resume_from=ckpt)
        assert [step for step, _ in losses] == [2]
        # A model key is named as the config spells it.
        with pytest.raises(ValueError, match=r"rfa_kernels = \(1, 3\), the config sets rfa_kernels = \(1, 5\)"):
            train(_tiny_cfg(train_steps=3, rfa_kernels=(1, 5)), data, tmp_path / "c", resume_from=ckpt)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_abort_reports_step(self, tmp_path):
        cfg = _tiny_cfg(lr=1e12, train_steps=30, momentum=0.0)
        with pytest.raises(NanLossError, match=r"step \d+"):
            train(cfg, _tiny_data(), tmp_path / "boom")

    def test_dataset_shape_mismatch(self, tmp_path):
        cfg = _tiny_cfg(channels=3)
        with pytest.raises(ValueError, match="does not match config"):
            train(cfg, _tiny_data(channels=2), tmp_path / "bad")

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_step_gradients_freed_before_next_step(self, tmp_path, monkeypatch, momentum):
        previous = []  # weak reference to the last step's gradient tree
        original = training.train_step

        def spy(*args):
            assert not previous or previous[-1]() is None, "last step's gradients are still alive"
            loss, grads = original(*args)
            previous.append(weakref.ref(grads))
            return loss, grads

        monkeypatch.setattr(training, "train_step", spy)
        train(_tiny_cfg(train_steps=3, momentum=momentum), _tiny_data(), tmp_path / "run")
        assert len(previous) == 3

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_update_matches_out_of_place_formula(self, tmp_path, monkeypatch, momentum):
        # The in-place update must leave the parameters, the velocity and the
        # saved checkpoint bit-identical to v' = m*v + g, p' = p - lr*v'
        # (p' = p - lr*g and v' = g without momentum), applied to copies of the
        # gradients each step produced.
        cfg = _tiny_cfg(train_steps=2, momentum=momentum)
        recorded = []
        original = training.train_step

        def spy(*args):
            loss, grads = original(*args)
            recorded.append(zip_map_params(lambda g, _: g.copy(), grads, grads))
            return loss, grads

        monkeypatch.setattr(training, "train_step", spy)
        trained, _ = train(cfg, _tiny_data(), tmp_path / "run")

        params = training.init_from_config(cfg)
        velocity = zip_map_params(lambda p, _: np.zeros_like(p), params, params)
        for grads in recorded:
            if momentum:
                velocity = zip_map_params(lambda v, g: cfg.momentum * v + g, velocity, grads)
                params = zip_map_params(lambda p, v: p - cfg.lr * v, params, velocity)
            else:
                velocity = grads
                params = zip_map_params(lambda p, g: p - cfg.lr * g, params, grads)
        assert len(recorded) == 2
        for (name, got), (_, want) in zip(named_params(trained), named_params(params)):
            assert got.tobytes() == want.tobytes(), name

        extra = {"meta.step": np.asarray(2.0)}
        extra.update({f"opt.v.{name}": v for name, v in named_params(velocity)})
        save_backbone(tmp_path / "want.ckp1", params, extra=extra)
        assert (tmp_path / "run" / "checkpoint.ckp1").read_bytes() == (tmp_path / "want.ckp1").read_bytes()

    def test_loss_curve_format(self, tmp_path):
        cfg = _tiny_cfg(train_steps=3)
        train(cfg, _tiny_data(), tmp_path / "run")
        lines = (tmp_path / "run" / "loss_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == 4
        assert lines[1].startswith("0,")
