"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Full-scale benchmark
numbers are out of reach on one core, so these are property checks plus
directional toy-scale experiments at pinned tolerances.
"""

import itertools
import os
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

from moediff.backbone import init_backbone, noise_estimate
from moediff.blocks import fusion_moe_forward, init_fusion
from moediff.cli import main as cli_main
from moediff.config import RunConfig
from moediff.diffusion import make_schedule, reverse_step, sample
from moediff.gradcheck import check_backbone_params, check_blocks, check_primitive_layers
from moediff.kshot import (
    ConvexLoss,
    compare_kshot,
    error_table,
    expert_count_sweep,
    jensen_check,
    kshot_ensemble,
    verify_convex_combination,
    weight_sweep,
)
from moediff.masking import apply_mask, continuous_mask, random_mask
from moediff.metrics import prd, ssd
from moediff.synth import SyntheticConfig, synth_generate
from moediff.training import train


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# ---------------------------------------------------------------------------
# shared toy training run (criteria 8 and 10)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    cfg = RunConfig()  # width 16, depth 1, 5 kernel experts, 4 head experts, 10 steps
    cfg.train_steps = 500
    train_data = synth_generate(
        SyntheticConfig(n_samples=64, channels=cfg.channels, t_len=cfg.t_len, seed=5)
    )
    held = synth_generate(
        SyntheticConfig(n_samples=20, channels=cfg.channels, t_len=cfg.t_len, seed=99)
    )
    out = tmp_path_factory.mktemp("toy_run")
    start = time.time()
    params, losses = train(cfg, train_data, out)
    elapsed = time.time() - start
    sched = make_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)
    mask = continuous_mask(20, cfg.channels, cfg.t_len, cfg.drop_length, 1, np.random.default_rng(123))
    return {
        "cfg": cfg,
        "params": params,
        "losses": losses,
        "elapsed": elapsed,
        "sched": sched,
        "held": held,
        "mask": mask,
        "x_bar": apply_mask(held, mask),
    }


def _region_ssd(truth, pred, mask):
    return np.array(
        [ssd(truth[i][mask[i] == 0], pred[i][mask[i] == 0]) for i in range(truth.shape[0])]
    )


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_fusion_algebra():
    with criterion(1, "fusing expert weights equals fusing expert outputs (1e-10, 1000 draws, <10s)"):
        rng = np.random.default_rng(10)
        start = time.time()
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            l = int(rng.integers(2, 8))
            n = int(rng.integers(1, 4))
            params = init_fusion(rng, l, k)
            t_len = int(rng.integers(2, 12))
            x = rng.standard_normal((n, l, t_len))
            gates = rng.dirichlet(np.ones(k), size=n)
            fused = fusion_moe_forward(x, params, gates_override=gates)
            by_outputs = np.zeros_like(fused)
            for j in range(k):
                one_hot = np.zeros(k)
                one_hot[j] = 1.0
                by_outputs += gates[:, j][:, None, None] * fusion_moe_forward(
                    x, params, gates_override=one_hot
                )
            worst = max(worst, float(np.abs(fused - by_outputs).max()))
        elapsed = time.time() - start
        assert worst <= 1e-10, f"max deviation {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_convex_combination_identity():
    with criterion(2, "reverse update commutes with convex combinations (1e-10, 1000 draws, <10s)"):
        rng = np.random.default_rng(20)
        sched = make_schedule(10)
        start = time.time()
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            shape = (2, 3, 16)
            x_t = rng.standard_normal(shape)
            eps = [rng.standard_normal(shape) for _ in range(k)]
            w = rng.dirichlet(np.ones(k))
            z = rng.standard_normal(shape)
            t = int(rng.integers(1, 11))
            worst = max(worst, verify_convex_combination(x_t, eps, w, t, sched, z))
        elapsed = time.time() - start
        assert worst <= 1e-10, f"max deviation {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_03_jensen_and_weight_sweep():
    with criterion(3, "Jensen margin >= -1e-12 (1e4 trials each loss); exact sweep <= uniform and a 0.05 grid"):
        rng = np.random.default_rng(30)
        for loss in (ConvexLoss.mse(), ConvexLoss.mae()):
            min_margin = np.inf
            for _ in range(10_000):
                k = int(rng.integers(1, 7))
                pts = [rng.standard_normal(8) for _ in range(k)]
                w = rng.dirichlet(np.ones(k))
                min_margin = min(min_margin, jensen_check(pts, w, rng.standard_normal(8), loss))
            assert min_margin >= -1e-12, f"{loss.kind}: min margin {min_margin}"

        sched = make_schedule(10)
        for trial in range(50):
            shape = (1, 12)
            x_t = rng.standard_normal(shape)
            eps = [rng.standard_normal(shape) for _ in range(3)]
            target = rng.standard_normal(shape)
            t = int(rng.integers(1, 11))
            _, best, uniform = weight_sweep(eps, x_t, t, sched, target)
            assert best <= uniform + 1e-12
            # Brute-force grid oracle (independent itertools enumeration).
            z = np.zeros(shape)
            stepped = [reverse_step(x_t, e, t, sched, z).ravel() for e in eps]
            oracle = np.inf
            n = 20
            for bars in itertools.combinations(range(n + 2), 2):
                parts = [bars[0], bars[1] - bars[0] - 1, n + 1 - bars[1]]
                w = np.array(parts) / n
                fused = w[0] * stepped[0] + w[1] * stepped[1] + w[2] * stepped[2]
                oracle = min(oracle, float(np.mean((fused - target.ravel()) ** 2)))
            assert best <= oracle + 1e-12


def test_criterion_04_uniform_gate_final_step():
    with criterion(4, "at the deterministic final step, fuse-then-step == step-then-average (1e-12)"):
        rng = np.random.default_rng(40)
        sched = make_schedule(10)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 13))
            x_1 = rng.standard_normal((2, 3, 20))
            eps = [rng.standard_normal((2, 3, 20)) for _ in range(k)]
            uniform = np.full(k, 1.0 / k)
            # sigma(1) = 0: the shared injected draw is identically zero.
            worst = max(
                worst,
                verify_convex_combination(x_1, eps, uniform, 1, sched, np.zeros((2, 3, 20))),
            )
        assert worst <= 1e-12, f"max deviation {worst}"


def test_criterion_05_gradient_correctness():
    with criterion(5, "finite differences agree with the tape for every layer and the toy backbone (<2min)"):
        start = time.time()
        results = check_primitive_layers(seed=50, points=100)
        results += check_blocks(seed=51, points=100)
        results += check_backbone_params(seed=52)
        elapsed = time.time() - start
        for name, err, tol in results:
            assert err <= tol, f"{name}: max rel err {err}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_06_metric_anchors():
    with criterion(6, "prd(x,0)=100 exactly; prd([3,4],[3,0])=80; ssd=(prd/100)^2*sum(x^2) (1e-9)"):
        rng = np.random.default_rng(60)
        for _ in range(100):
            x = rng.standard_normal(int(rng.integers(2, 64)))
            assert prd(x, np.zeros_like(x)) == 100.0
        assert abs(prd(np.array([3.0, 4.0]), np.array([3.0, 0.0])) - 80.0) <= 1e-9
        for _ in range(100):
            x = rng.standard_normal(32)
            xh = rng.standard_normal(32)
            lhs = ssd(x, xh)
            rhs = (prd(x, xh) / 100.0) ** 2 * float((x**2).sum())
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


def test_criterion_07_masking_contract():
    with criterion(7, "continuous masks exact over the {300,500,800}x{1,3,5,7,9,12} grid; random rate within 1%"):
        rng = np.random.default_rng(70)
        for drop_length in (300, 500, 800):
            for drop_channels in (1, 3, 5, 7, 9, 12):
                mask = continuous_mask(4, 12, 1000, drop_length, drop_channels, rng)
                for i in range(4):
                    affected = [c for c in range(12) if (mask[i, c] == 0).any()]
                    assert len(affected) == drop_channels
                    for c in affected:
                        zeros = np.flatnonzero(mask[i, c] == 0)
                        assert len(zeros) == drop_length
                        assert zeros[-1] - zeros[0] == drop_length - 1  # one contiguous run
        mask = random_mask(10, 10, 1000, 0.3, rng)  # 1e5 entries
        rate = 1.0 - mask.mean()
        assert abs(rate - 0.3) <= 0.01, f"zero rate {rate}"


def test_criterion_08_toy_end_to_end(toy_run):
    with criterion(8, "toy run: loss halves; trained beats untrained 19/20; 4-shot <= 1-shot; shot-error linearity"):
        assert toy_run["elapsed"] < 600.0, f"training took {toy_run['elapsed']:.0f}s"

        losses = toy_run["losses"]
        first, last = losses[0][1], losses[-1][1]
        assert last <= 0.5 * first, f"loss went {first:.4f} -> {last:.4f}"
        print(f"    loss {first:.4f} -> {last:.4f} in {toy_run['elapsed']:.0f}s", end="; ")

        cfg, sched = toy_run["cfg"], toy_run["sched"]
        held, mask, x_bar = toy_run["held"], toy_run["mask"], toy_run["x_bar"]
        untrained = init_backbone(np.random.default_rng(777), cfg.model_spec())
        rec_trained = sample(toy_run["params"], x_bar, sched, np.random.default_rng(42))
        rec_untrained = sample(untrained, x_bar, sched, np.random.default_rng(42))
        ssd_trained = _region_ssd(held, rec_trained, mask)
        ssd_untrained = _region_ssd(held, rec_untrained, mask)
        wins = int((ssd_trained < ssd_untrained).sum())
        assert wins >= 19, f"trained won only {wins}/20"
        print(f"paired wins {wins}/20", end="; ")
        prd_trained = np.mean(
            [prd(held[i][mask[i] == 0], rec_trained[i][mask[i] == 0]) for i in range(20)]
        )
        prd_untrained = np.mean(
            [prd(held[i][mask[i] == 0], rec_untrained[i][mask[i] == 0]) for i in range(20)]
        )
        assert prd_trained < prd_untrained

        ens = kshot_ensemble(toy_run["params"], x_bar, sched, 4, np.random.default_rng(202))
        one_shot = _region_ssd(held, ens.shots[0], mask).mean()
        four_shot = _region_ssd(held, ens.average(), mask).mean()
        assert four_shot <= one_shot, f"4-shot {four_shot:.3f} vs 1-shot {one_shot:.3f}"
        print(f"ssd 1-shot {one_shot:.3f} vs 4-shot {four_shot:.3f}")
        # The averaged reconstruction can never be worse than the worst shot
        # (convexity of the squared error), per sample and exactly.
        per_shot = np.stack([_region_ssd(held, s, mask) for s in ens.shots])
        avg_ssd = _region_ssd(held, ens.average(), mask)
        assert np.all(avg_ssd <= per_shot.max(axis=0) + 1e-12)

        _, table = error_table([*ens.shots, ens.average()], "shot", held, sample_index=0, channel=0)
        npt.assert_allclose(table[:, 1:-1].mean(axis=1), table[:, -1], atol=1e-10)


TINY_CLI_CONFIG = """
steps = 4
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


def test_criterion_09_cli_determinism(tmp_path, capsys):
    with criterion(9, "every seeded CLI output but *_timing.csv, and stdout, is byte-identical across two runs"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CLI_CONFIG)
        data_dir = tmp_path / "data"
        assert cli_main(["synth", "--config", str(cfg), "--out", str(data_dir), "--n-samples", "6"]) == 0
        data = str(data_dir / "dataset.tsb1")
        trained = tmp_path / "trained"
        assert cli_main(["train", "--config", str(cfg), "--data", data, "--out", str(trained)]) == 0
        ckpt = str(trained / "checkpoint.ckp1")

        commands = {
            "synth": lambda out: ["synth", "--config", str(cfg), "--out", out, "--n-samples", "6"],
            "train": lambda out: ["train", "--config", str(cfg), "--data", data, "--out", out],
            "impute": lambda out: [
                "impute", "--config", str(cfg), "--checkpoint", ckpt, "--input", data, "--out", out
            ],
            "eval": lambda out: ["eval", "--truth", data, "--pred", data, "--out", out],
            "compare-kshot": lambda out: [
                "compare-kshot", "--config", str(cfg), "--checkpoint", ckpt, "--data", data,
                "--ks", "1,2", "--out", out,
            ],
            "error-dist": lambda out: [
                "error-dist", "--config", str(cfg), "--checkpoint", ckpt, "--data", data,
                "--shots", "2", "--out", out,
            ],
            "theorem-check": lambda out: ["theorem-check", "--trials", "10", "--out", out],
            "gradcheck": lambda out: ["gradcheck", "--points", "2", "--out", out],
        }
        for name, build in commands.items():
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / f"{name}_{run}"
                capsys.readouterr()  # drain anything pending
                assert cli_main(build(str(out))) == 0, name
                # Stdout echoes the chosen output directory; mask it so only
                # substantive differences count.
                stdout = capsys.readouterr().out.replace(str(out), "<out>")
                tree = {}
                if out.exists():
                    for dirpath, _, files in os.walk(out):
                        for fname in files:
                            full = os.path.join(dirpath, fname)
                            tree[os.path.relpath(full, out)] = open(full, "rb").read()
                outputs.append((stdout, tree))
            assert outputs[0][1].keys() == outputs[1][1].keys(), name
            for fname in outputs[0][1]:
                if not fname.endswith("_timing.csv"):  # wall times: the one output that may differ
                    assert outputs[0][1][fname] == outputs[1][1][fname], f"{name}: {fname} differs"
            assert outputs[0][0] == outputs[1][0], f"{name}: stdout differs"


def test_criterion_10_expert_count_sweep(toy_run, tmp_path):
    with criterion(10, "compare-kshot completes; best sweep loss nonincreasing over expert pools {1,2,4,8}"):
        cfg, sched = toy_run["cfg"], toy_run["sched"]
        params = toy_run["params"]
        held, mask, x_bar = toy_run["held"], toy_run["mask"], toy_run["x_bar"]

        rows = compare_kshot(
            params, held, x_bar, sched, (1, 2, 4, 8), np.random.default_rng(7), region=mask
        )
        assert [r[0] for r in rows] == [1, 2, 4, 8]
        assert all(np.isfinite(r[1:4]).all() for r in [np.array(r[1:4]) for r in rows])

        # Fixed pool of eight head-variant noise estimates on one batch.
        rng = np.random.default_rng(101)
        x_t = rng.standard_normal(x_bar[:2].shape)
        k_head = len(params.head.experts)
        pool = []
        for j in range(8):
            if j < k_head:
                gates = np.zeros(k_head)
                gates[j] = 1.0
            else:
                gates = rng.dirichlet(np.ones(k_head))
            pool.append(noise_estimate(x_t, x_bar[:2], 1, params, head_gates=gates))
        target = rng.standard_normal(x_t.shape)
        sweep = expert_count_sweep(pool, (1, 2, 4, 8), x_t, 1, sched, target)
        best = [r[1] for r in sweep]
        for i in range(len(best) - 1):
            assert best[i + 1] <= best[i] + 1e-12, f"best loss rose at K={sweep[i + 1][0]}"
        with open(tmp_path / "expert_sweep.csv", "w", encoding="utf-8") as fh:
            fh.write("K,best_loss,uniform_loss\n")
            for k, b, u in sweep:
                fh.write(f"{k},{b!r},{u!r}\n")
