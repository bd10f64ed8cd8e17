"""The three benchmark workloads and the closed loop that runs them.

Every workload runs the pipeline a user runs: train a backbone with
``training.train``, load a checkpoint back with ``load_backbone``, and
impute a masked batch with ``kshot.compare_kshot``. A run is a sequence of
units, each one call: a training episode, or a ``compare_kshot`` call over
part or all of a K-shot round (one random stream of shot seeds, drawn in
order, so a round split over several calls samples the same shots). The
workload fixes the shapes and which unit is the main one, repeated until
main units have taken the run's seconds; after each, one unit of the
other kind runs if their time is behind ``side_ratio`` of the main units'
time.

- ``train-*``: main units are training episodes, each resumed from the
  initial checkpoint; side units are single K-shot passes on that
  checkpoint, from rounds of K = 1, 1, 1, 8. A few training steps move the
  model differently for every seed, by more than a bound's worth of
  missing-region error, so the trained checkpoint would make the quality
  figures unsteady.
- ``impute-kshot-toy``: set-up trains one episode and round-trips its
  checkpoint; main units are whole K-shot rounds of K = 1, 2, 4, 8, 1, 1,
  1 on it (the extra single passes give ``kshot_s.k1`` as many samples as
  its short pass needs); side units are short training episodes. Main
  units build no tape.

Side units are interleaved with the main ones, not run after them, so every
timing samples the whole run: a shared machine's speed drifts by a tenth or
more over seconds, and a figure taken from a few stretches of the run would
carry that drift.

The dataset, the masked imputation batch and the initial weights are fixed;
the seed draws everything random: each training step's batch, mask,
diffusion steps and noise (a fresh stream per episode), and the sampler
shots. The quality metrics thus vary with the seed only through that
randomness, a few per cent, where a seeded dataset and initialisation would
move them by a quarter. They come from the first episode and the first
rounds, so they depend on the seed alone, not on how many units fit.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from moediff import backbone, diffusion, kshot, masking, synth, training
from moediff.config import RunConfig

# K-shot rounds. Repeated single passes steady the K = 1 time and quality.
MAIN_KS = (1, 2, 4, 8, 1, 1, 1)
SIDE_KS = (1, 1, 1, 8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: dict  # RunConfig overrides of the toy profile
    records: int  # synthetic training records
    episode_steps: int  # training steps per episode in the loop
    impute_batch: int  # records in the masked imputation batch
    main: str  # "episode" or "round": the unit repeated for the run's seconds
    side_ratio: float  # side units' time is kept up to this share of the main units'
    quality_rounds: int  # first K-shot rounds averaged into PRD/SSD
    setup_steps: int = 0  # training steps in set-up (K-shot workload)

    def round_calls(self) -> list[tuple]:
        """The ``compare_kshot`` calls of one round: whole when rounds are
        the main unit, one pass each when they are interleaved side units."""
        return [MAIN_KS] if self.main == "round" else [(k,) for k in SIDE_KS]

    @property
    def min_side_units(self) -> int:
        """Side units a run needs: the quality rounds, or one episode."""
        return 1 if self.main == "round" else self.quality_rounds * len(self.round_calls())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-toy",
            why="toy-profile training: tiny tensors, so op dispatch, tape recording and backward dominate",
            shape={},
            records=64,
            episode_steps=10,
            impute_batch=8,
            main="episode",
            side_ratio=0.4,
            quality_rounds=3,
        ),
        Workload(
            name="train-wide",
            why="full-profile topology scaled to fit: conv1d, the wide fuse conv, routing and tape memory dominate",
            shape=dict(
                channels=12,
                width=32,
                depth=2,
                rfa_kernels=tuple(range(3, 32, 2)),
                head_experts=16,
                t_len=500,
                batch=2,
                drop_length=150,
            ),
            records=16,
            episode_steps=10,
            impute_batch=1,
            main="episode",
            side_ratio=0.5,
            quality_rounds=1,
        ),
        Workload(
            name="impute-kshot-toy",
            why="the paper's claim: one fused-head pass against K-shot averaging; inference only, no tape",
            shape={},
            records=64,
            episode_steps=15,
            impute_batch=8,
            main="round",
            side_ratio=0.35,
            quality_rounds=3,
            setup_steps=30,
        ),
    )
}

# Seed of the fixed dataset, imputation batch, mask and initial weights.
FIXED_SEED = 0


def _stream(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class Unit:
    """One training episode or ``compare_kshot`` call and what it produced."""

    kind: str  # "episode" or "round"
    index: int  # episode, in run order, or round; fixes the unit's random stream
    t0: float
    t1: float = 0.0
    in_loop: bool = True
    traced: bool = False
    attempted: int = 0  # training steps or K-shot passes
    failure: str | None = None
    losses: list = dataclasses.field(default_factory=list)  # episode
    rows: list = dataclasses.field(default_factory=list)  # round: compare_kshot rows


class Run:
    """Inputs, model state and unit log of one workload run, built from the seed."""

    def __init__(self, workload: Workload, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.cfg = dataclasses.replace(RunConfig(**workload.shape), seed=seed).check()
        self.sched = diffusion.make_schedule(self.cfg.steps, self.cfg.beta_start, self.cfg.beta_end)
        self.units: list[Unit] = []
        self._round_rngs: dict[int, np.random.Generator] = {}

    @property
    def init_checkpoint(self) -> str:
        return os.path.join(self.out_dir, "init.ckp1")

    def set_up(self) -> None:
        """Everything before the first timed operation: data synthesis, the
        initial checkpoint, the model the K-shot rounds use, loaded back from
        disk (trained for ``setup_steps`` first, if any), and a warm-up
        training step when training is the main unit."""
        cfg, w = self.cfg, self.workload
        self.data = synth.synth_generate(
            synth.SyntheticConfig(w.records, cfg.channels, cfg.t_len, seed=_stream(FIXED_SEED, 1))
        )
        self.truth = synth.synth_generate(
            synth.SyntheticConfig(w.impute_batch, cfg.channels, cfg.t_len, seed=_stream(FIXED_SEED, 2))
        )
        self.mask = masking.continuous_mask(
            w.impute_batch,
            cfg.channels,
            cfg.t_len,
            cfg.drop_length,
            cfg.drop_channels,
            np.random.default_rng(_stream(FIXED_SEED, 3)),
        )
        self.x_bar = masking.apply_mask(self.truth, self.mask)
        init = training.init_from_config(dataclasses.replace(cfg, seed=FIXED_SEED))
        backbone.save_backbone(self.init_checkpoint, init, extra={"meta.step": np.asarray(0.0)})
        path = self.init_checkpoint
        if w.setup_steps:
            self.episode(w.setup_steps, in_loop=False)
            path = os.path.join(self.out_dir, "checkpoint.ckp1")
        self.params, _ = backbone.load_backbone(path, gate_mode=cfg.gate_mode)
        if w.main == "episode":
            batch = self.data[: cfg.batch]
            rng = np.random.default_rng(_stream(self.seed, 4))
            diffusion.train_step(init, batch, np.ones_like(batch), self.sched, rng)

    def _units(self, kind: str) -> list[Unit]:
        return [u for u in self.units if u.kind == kind]

    def episode(self, steps: int, in_loop: bool = True, traced: bool = False) -> Unit:
        """One ``training.train`` call resumed from the initial checkpoint,
        on its own random stream."""
        unit = Unit("episode", len(self._units("episode")), perf_counter(), in_loop=in_loop, traced=traced)
        self.units.append(unit)
        cfg = dataclasses.replace(self.cfg, seed=_stream(self.seed, 1000 + unit.index), train_steps=steps)
        unit.attempted = steps
        try:
            _, losses = training.train(cfg, self.data, self.out_dir, resume_from=self.init_checkpoint)
            unit.losses = [loss for _, loss in losses]
        except Exception as exc:  # a failed unit is counted, not fatal
            unit.failure = f"episode {unit.index}: {exc!r}"
        unit.t1 = perf_counter()
        return unit

    def round(self, index: int, ks, traced: bool = False) -> Unit:
        """One ``compare_kshot`` call over ``ks``, part or all of round
        ``index``; the calls of a round draw its shot seeds in turn."""
        unit = Unit("round", index, perf_counter(), traced=traced)
        self.units.append(unit)
        unit.attempted = len(ks)
        if index not in self._round_rngs:
            self._round_rngs[index] = np.random.default_rng(_stream(self.seed, 100 + index))
        try:
            unit.rows = kshot.compare_kshot(
                self.params, self.truth, self.x_bar, self.sched, ks, self._round_rngs[index], region=self.mask
            )
        except Exception as exc:  # a failed unit is counted, not fatal
            unit.failure = f"round {unit.index}: {exc!r}"
        unit.t1 = perf_counter()
        return unit

    def _unit_calls(self, kind: str):
        """Endless calls (each taking ``traced``) that run the next unit of a kind."""
        if kind == "episode":
            while True:
                yield lambda traced: self.episode(self.workload.episode_steps, traced=traced)
        index = 0
        while True:
            for ks in self.workload.round_calls():
                yield lambda traced, index=index, ks=ks: self.round(index, ks, traced)
            index += 1

    def loop(self, seconds: float, tracer=None) -> None:
        """The closed timed loop: each unit starts when the last returns.

        Main units repeat until they have taken ``seconds`` (at least
        ``quality_rounds`` of them for K-shot rounds, and two when traced).
        After each, one side unit runs if side units' time is below
        ``side_ratio`` of the main units' time, so each kind's samples are
        spread over the whole loop; the loop ends with any side units still
        needed for the quality figures. With a ``tracer``, main units
        alternate untraced and traced (it is switched by ``tracer(on)``) and
        side units are traced.
        """
        w = self.workload
        main_calls = self._unit_calls(w.main)
        side_calls = self._unit_calls("round" if w.main == "episode" else "episode")
        min_main = w.quality_rounds if w.main == "round" else 1
        if tracer is not None:
            min_main = max(min_main, 2)
        main_time = side_time = 0.0
        n_main = n_side = 0

        def side_unit() -> Unit:
            nonlocal side_time, n_side
            if tracer is not None:
                tracer(True)
            unit = next(side_calls)(tracer is not None)
            side_time += unit.t1 - unit.t0
            n_side += 1
            return unit

        # A failed unit ends the loop: it is counted, and a unit that fails
        # at once would otherwise repeat until the seconds are up.
        while n_main < min_main or main_time < seconds:
            traced = tracer is not None and n_main % 2 == 1
            if tracer is not None:
                tracer(traced)
            unit = next(main_calls)(traced)
            main_time += unit.t1 - unit.t0
            n_main += 1
            if not unit.failure and side_time < w.side_ratio * main_time:
                unit = side_unit()
            if unit.failure:
                return
        while n_side < w.min_side_units:
            if side_unit().failure:
                return

    # -- outcomes ----------------------------------------------------------

    def loop_units(self, kind: str, traced: bool | None = None) -> list[Unit]:
        return [u for u in self._units(kind) if u.in_loop and (traced is None or u.traced == traced)]

    def final_loss(self) -> float:
        """Mean loss over the second half of the run's first episode."""
        losses = self._units("episode")[0].losses
        return float(np.mean(losses[len(losses) // 2 :]))

    def _rows(self, k: int, rounds: int | None = None) -> list:
        return [
            row for u in self._units("round") if rounds is None or u.index < rounds for row in u.rows if row[0] == k
        ]

    def quality(self) -> dict[str, float]:
        """Missing-region PRD (%) and SSD per K, averaged over the first rounds."""
        out = {}
        for k in (1, 8):
            rows = self._rows(k, self.workload.quality_rounds)
            out[f"prd_missing.k{k}"] = float(np.mean([row[1] for row in rows]))
            out[f"ssd_missing.k{k}"] = float(np.mean([row[2] for row in rows]))
        return out

    def kshot_seconds(self, k: int) -> list[float]:
        """Wall time of each K-shot average at ``k``."""
        return [row[4] for row in self._rows(k)]
