"""Command-line interface.

Subcommands: synth, train, impute, eval, compare-kshot, gradcheck,
theorem-check, error-dist. Shared flags on every subcommand: --config,
--seed, --out. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .backbone import load_backbone, param_count
from .config import RunConfig, load_config
from .diffusion import make_schedule, sample
from .kshot import (
    ConvexLoss,
    compare_kshot,
    expert_count_sweep,
    fixed_expert_error_table,
    jensen_check,
    kshot_ensemble,
    shot_error_table,
    verify_convex_combination,
    weight_sweep,
)
from .masking import MaskSpec, apply_mask
from .metrics import evaluate, write_report
from .signals import load_signals, save_signals
from .synth import SyntheticConfig, synth_generate
from .tensor import TensorFormatError, write_csv, write_tsb1
from .training import NanLossError, train, training_mask_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _shot_counts(text: str) -> list[int]:
    """``--ks``: comma-separated shot counts, at least one, each >= 1."""
    try:
        ks = [int(k) for k in text.split(",")]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")
    return ks


def _positive_int(text: str) -> int:
    """``--points``, ``--trials``, ``--shots``: one integer >= 1."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return k


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key=value run configuration")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out", default="out", help="output directory (default: out)")


def _add_mask_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mask-kind", choices=("random", "continuous"))
    p.add_argument("--mask-ratio", type=float)
    p.add_argument("--drop-length", type=int)
    p.add_argument("--drop-channels", type=int)


# SyntheticConfig fields that synth takes as flags, with the dataclass's defaults
_SYNTH_FLAGS = ("f_min", "f_max", "harmonics", "spike_prob", "amp_jitter", "noise_sigma")


def build_parser() -> _Parser:
    parser = _Parser(prog="moediff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--n-samples", type=int, default=64)
    for name in _SYNTH_FLAGS:
        default = getattr(SyntheticConfig, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--format", choices=("tsb1", "csv"), default="tsb1")

    p = sub.add_parser("train", help="train the noise estimator")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset file (tsb1 or csv)")
    p.add_argument("--resume", help="checkpoint to continue from")

    p = sub.add_parser("impute", help="reconstruct masked signals with a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="signals to mask and reconstruct")
    _add_mask_flags(p)

    p = sub.add_parser("eval", help="score a reconstruction against the truth")
    _add_common(p)
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--region", help="mask file; score only entries where it is 0")

    p = sub.add_parser("compare-kshot", help="metrics of K-shot averaging for several K")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ks", type=_shot_counts, default="1,2,4", help="comma-separated shot counts >= 1")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="write wall_seconds as 0.0 for byte-reproducible output",
    )
    _add_mask_flags(p)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    _add_common(p)
    p.add_argument("--points", type=_positive_int, default=100, help="random points per layer")

    p = sub.add_parser("theorem-check", help="verify the fusion/averaging loss ordering")
    _add_common(p)
    p.add_argument("--trials", type=_positive_int, default=200)

    p = sub.add_parser("error-dist", help="per-timestamp error table for shots or experts")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("shots", "experts"), default="shots")
    p.add_argument("--shots", type=_positive_int, default=12)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--channel", type=int, default=0)
    _add_mask_flags(p)
    return parser


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg.check()


# MaskSpec field -> the flag that overrides it
_MASK_FLAGS = dict(kind="mask_kind", ratio="mask_ratio", drop_length="drop_length", drop_channels="drop_channels")


def _mask_spec(cfg: RunConfig, args) -> MaskSpec:
    """The training mask spec with the given mask flags applied."""
    updates = {key: getattr(args, flag) for key, flag in _MASK_FLAGS.items()}
    return dataclasses.replace(training_mask_spec(cfg), **{k: v for k, v in updates.items() if v is not None})


def _masked_task(args, data_path):
    """The shared start of the commands that mask a dataset and reconstruct
    it with a checkpoint: (cfg, params, signals, mask, x_bar, schedule).
    A dataset whose channel count differs from the checkpoint's raises
    ValueError naming it."""
    cfg = _load_cfg(args)
    params, _ = load_backbone(args.checkpoint, gate_mode=cfg.gate_mode)
    signals = load_signals(data_path)
    if signals.shape[1] != params.spec.channels:
        raise ValueError(
            f"checkpoint expects {params.spec.channels} channels, {data_path} has {signals.shape[1]}"
        )
    mask = _mask_spec(cfg, args).build(*signals.shape)
    sched = make_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)
    return cfg, params, signals, mask, apply_mask(signals, mask), sched


def _cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    scfg = SyntheticConfig(
        n_samples=args.n_samples,
        channels=cfg.channels,
        t_len=cfg.t_len,
        seed=cfg.seed,
        **{name: getattr(args, name) for name in _SYNTH_FLAGS},
    )
    data = synth_generate(scfg)
    os.makedirs(args.out, exist_ok=True)
    dest = os.path.join(args.out, "dataset.tsb1" if args.format == "tsb1" else "dataset_csv")
    save_signals(dest, data, fmt=args.format)
    print(f"wrote {data.shape[0]} samples ({data.shape[1]} channels x {data.shape[2]}) to {dest}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    data = load_signals(args.data)
    params, losses = train(cfg, data, args.out, resume_from=args.resume)
    print(
        f"trained {len(losses)} steps, parameters={param_count(params)}, "
        f"final loss={losses[-1][1]:.6f}" if losses else "nothing to train"
    )
    print(f"wrote {os.path.join(args.out, 'checkpoint.ckp1')}")
    return EXIT_OK


def _cmd_impute(args) -> int:
    cfg, params, signals, mask, x_bar, sched = _masked_task(args, args.input)
    recon = sample(params, x_bar, sched, np.random.default_rng(cfg.seed))
    os.makedirs(args.out, exist_ok=True)
    write_tsb1(os.path.join(args.out, "reconstruction.tsb1"), recon)
    write_tsb1(os.path.join(args.out, "mask.tsb1"), mask)
    write_report(os.path.join(args.out, "metrics_full.csv"), evaluate(signals, recon))
    try:
        missing = evaluate(signals, recon, region=mask)
    except ValueError as exc:
        print(f"missing-region metrics skipped: {exc}")
    else:
        write_report(os.path.join(args.out, "metrics_missing.csv"), missing)
    print(f"wrote reconstruction for {signals.shape[0]} samples to {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _load_cfg(args)
    truth = load_signals(args.truth)
    pred = load_signals(args.pred)
    region = load_signals(args.region) if args.region else None
    report = evaluate(truth, pred, region=region)
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "metrics.csv"), report)
    a = report.aggregate
    print(f"aggregate: prd={a.prd:.4f} ssd={a.ssd:.4f} mad={a.mad:.4f}")
    return EXIT_OK


def _cmd_compare_kshot(args) -> int:
    cfg, params, truth, mask, x_bar, sched = _masked_task(args, args.data)
    rows = compare_kshot(
        params,
        truth,
        x_bar,
        sched,
        args.ks,
        np.random.default_rng(cfg.seed),
        region=mask,
        timing=not args.no_timing,
    )
    os.makedirs(args.out, exist_ok=True)
    dest = os.path.join(args.out, "kshot.csv")
    write_csv(dest, ["K", "prd", "ssd", "mad", "wall_seconds"], rows)
    for k, p, s, m, w in rows:
        print(f"K={k}: prd={p:.4f} ssd={s:.4f} mad={m:.4f} wall={w:.3f}s")
    print(f"wrote {dest}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    from .gradcheck import run_gradcheck

    results = run_gradcheck(seed=cfg.seed, points=args.points)
    failed = False
    for name, err, tol in results:
        ok = err <= tol
        failed |= not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: max rel err {err:.3e} (tol {tol:.0e})")
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_theorem_check(args) -> int:
    cfg = _load_cfg(args)
    rng = np.random.default_rng(cfg.seed)
    sched = make_schedule(max(cfg.steps, 2), cfg.beta_start, cfg.beta_end)
    shape = (2, 3, 32)
    failed = False

    worst = 0.0
    for _ in range(args.trials):
        k = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(k))
        x_t = rng.standard_normal(shape)
        eps = [rng.standard_normal(shape) for _ in range(k)]
        z = rng.standard_normal(shape)
        t = int(rng.integers(1, sched.t_steps + 1))
        worst = max(worst, verify_convex_combination(x_t, eps, w, t, sched, z))
    ok = worst <= 1e-10
    failed |= not ok
    print(f"[{'PASS' if ok else 'FAIL'}] step-then-average equals fuse-then-step: max dev {worst:.3e}")

    min_margin = np.inf
    for loss in (ConvexLoss.mse(), ConvexLoss.mae()):
        for _ in range(args.trials):
            k = int(rng.integers(2, 6))
            w = rng.dirichlet(np.ones(k))
            pts = [rng.standard_normal(16) for _ in range(k)]
            min_margin = min(min_margin, jensen_check(pts, w, rng.standard_normal(16), loss))
    ok = min_margin >= -1e-12
    failed |= not ok
    print(f"[{'PASS' if ok else 'FAIL'}] jensen margin nonnegative: min margin {min_margin:.3e}")

    sweep_ok = True
    for _ in range(max(args.trials // 10, 5)):
        eps = [rng.standard_normal(shape) for _ in range(3)]
        x_t = rng.standard_normal(shape)
        target = rng.standard_normal(shape)
        _, best, uniform = weight_sweep(eps, x_t, 1, sched, target, ConvexLoss.mse())
        sweep_ok &= best <= uniform + 1e-12
    failed |= not sweep_ok
    print(f"[{'PASS' if sweep_ok else 'FAIL'}] swept weights never lose to uniform averaging")

    pool = [rng.standard_normal(shape) for _ in range(8)]
    x_t = rng.standard_normal(shape)
    target = rng.standard_normal(shape)
    rows = expert_count_sweep(pool, (1, 2, 4, 8), x_t, 1, sched, target, ConvexLoss.mse())
    mono = all(rows[i + 1][1] <= rows[i][1] + 1e-12 for i in range(len(rows) - 1))
    failed |= not mono
    print(f"[{'PASS' if mono else 'FAIL'}] best loss nonincreasing in expert count")
    os.makedirs(args.out, exist_ok=True)
    dest = os.path.join(args.out, "expert_sweep.csv")
    write_csv(dest, ["K", "best_loss", "uniform_loss"], rows)
    print(f"wrote {dest}")
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_error_dist(args) -> int:
    cfg, params, truth, mask, x_bar, sched = _masked_task(args, args.data)
    if not 0 <= args.sample < truth.shape[0]:
        raise ValueError(
            f"--sample {args.sample} outside 0..{truth.shape[0] - 1}: "
            f"{args.data} holds {truth.shape[0]} records"
        )
    if not 0 <= args.channel < truth.shape[1]:
        raise ValueError(f"channel {args.channel} outside 0..{truth.shape[1] - 1}")
    if args.mode == "shots":
        ensemble = kshot_ensemble(
            params, x_bar, sched, args.shots, np.random.default_rng(cfg.seed)
        )
        names, table = shot_error_table(ensemble, truth, args.sample, args.channel)
    else:
        names, table = fixed_expert_error_table(
            params, x_bar, truth, sched, cfg.seed, args.sample, args.channel
        )
    os.makedirs(args.out, exist_ok=True)
    dest = os.path.join(args.out, "error_distribution.csv")
    write_csv(dest, names, table)
    print(f"wrote {dest} ({len(names) - 2} error columns)")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "impute": _cmd_impute,
    "eval": _cmd_eval,
    "compare-kshot": _cmd_compare_kshot,
    "gradcheck": _cmd_gradcheck,
    "theorem-check": _cmd_theorem_check,
    "error-dist": _cmd_error_dist,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NanLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TensorFormatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
