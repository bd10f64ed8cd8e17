"""Multi-run averaging, the per-step fusion identities, the Jensen loss
comparison, and the simplex weight sweep with its brute-force grid oracle."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moediff.diffusion import reverse_step, sample
from moediff.kshot import (
    ConvexLoss,
    expert_count_sweep,
    fixed_expert_error_table,
    jensen_check,
    kshot_average,
    kshot_ensemble,
    shot_error_table,
    simplex_grid,
    verify_convex_combination,
    weight_sweep,
)


class TestKshotAveraging:
    def test_one_shot_equals_single_sample_with_recorded_seed(self, tiny_backbone, sched10, rng):
        x_bar = rng.standard_normal((1, 2, 12))
        ens = kshot_ensemble(tiny_backbone, x_bar, sched10, 1, np.random.default_rng(5))
        direct = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(ens.seeds[0]))
        npt.assert_array_equal(ens.shots[0], direct)
        npt.assert_array_equal(ens.average(), direct)

    def test_shots_equal_per_shot_sample_calls(self, tiny_backbone, sched10, rng):
        # The shots share one set of condition maps; each must still be
        # bit-equal to a sample call that computes its own.
        x_bar = rng.standard_normal((2, 2, 12))
        ens = kshot_ensemble(tiny_backbone, x_bar, sched10, 3, np.random.default_rng(5))
        for shot, seed in zip(ens.shots, ens.seeds):
            direct = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(seed))
            npt.assert_array_equal(shot, direct)

    def test_identical_shots_average_to_any_shot(self, tiny_backbone, sched10, rng):
        x_bar = rng.standard_normal((1, 2, 12))
        shot = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(3))
        stack = np.mean([shot, shot, shot], axis=0)
        npt.assert_allclose(stack, shot, atol=1e-15)

    def test_average_is_mean_of_shots(self, tiny_backbone, sched10, rng):
        x_bar = rng.standard_normal((2, 2, 12))
        ens = kshot_ensemble(tiny_backbone, x_bar, sched10, 4, np.random.default_rng(11))
        npt.assert_allclose(ens.average(), np.mean(ens.shots, axis=0), atol=0)
        avg = kshot_average(tiny_backbone, x_bar, sched10, 4, np.random.default_rng(11))
        npt.assert_array_equal(avg, ens.average())

    def test_invalid_shot_count(self, tiny_backbone, sched10, rng):
        with pytest.raises(ValueError, match=">= 1"):
            kshot_ensemble(tiny_backbone, np.zeros((1, 2, 8)), sched10, 0, rng)


class TestConvexCombination:
    def test_single_estimate_zero_deviation(self, sched10, rng):
        x = rng.standard_normal((2, 4))
        assert verify_convex_combination(x, [rng.standard_normal((2, 4))], [1.0], 3, sched10) == 0.0

    def test_one_hot_weights_zero_deviation(self, sched10, rng):
        x = rng.standard_normal((2, 4))
        eps = [rng.standard_normal((2, 4)) for _ in range(4)]
        w = [0.0, 0.0, 1.0, 0.0]
        assert verify_convex_combination(x, eps, w, 5, sched10) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_random_simplex_tight(self, sched10, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 8))
        eps = [rng.standard_normal((2, 3, 8)) for _ in range(5)]
        w = rng.dirichlet(np.ones(5))
        z = rng.standard_normal((2, 3, 8))
        t = int(rng.integers(1, 11))
        assert verify_convex_combination(x, eps, w, t, sched10, z) <= 1e-10

    def test_simplex_violations_rejected(self, sched10, rng):
        x = rng.standard_normal(4)
        eps = [rng.standard_normal(4), rng.standard_normal(4)]
        with pytest.raises(ValueError, match="sum to 1"):
            verify_convex_combination(x, eps, [0.8, 0.8], 1, sched10)
        with pytest.raises(ValueError, match="sum to 1"):
            verify_convex_combination(x, eps, [1.5, -0.5], 1, sched10)


class TestJensen:
    def test_equal_points_zero_margin(self, rng):
        p = rng.standard_normal(6)
        margin = jensen_check([p, p.copy(), p.copy()], np.ones(3) / 3, rng.standard_normal(6), ConvexLoss.mse())
        assert abs(margin) <= 1e-15

    def test_two_point_hand_value(self):
        # L(p - target) averages to 1 while the fused point hits the target.
        margin = jensen_check(
            [np.array([0.0]), np.array([2.0])],
            [0.5, 0.5],
            np.array([1.0]),
            ConvexLoss.mse(),
        )
        assert margin == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(["mse", "mae"]))
    def test_margin_nonnegative(self, seed, kind):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        pts = [rng.standard_normal(8) for _ in range(k)]
        w = rng.dirichlet(np.ones(k))
        loss = ConvexLoss.mse() if kind == "mse" else ConvexLoss.mae()
        assert jensen_check(pts, w, rng.standard_normal(8), loss) >= -1e-12

    def test_custom_loss(self, rng):
        # Any convex function of the error serves as the loss.
        def quartic(e):
            return float(np.mean(e**4))

        pts = [rng.standard_normal(5) for _ in range(3)]
        assert jensen_check(pts, np.ones(3) / 3, rng.standard_normal(5), quartic) >= -1e-12


def brute_force_grid_minimum(stepped, target, resolution):
    """Independent enumeration over integer compositions (itertools-based)."""
    k = len(stepped)
    n = int(round(1.0 / resolution))
    best = np.inf
    flat = [s.ravel() for s in stepped]
    tflat = target.ravel()
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        parts, prev = [], -1
        for cut in bars:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(n + k - 2 - prev)
        w = np.array(parts) / n
        fused = sum(wi * f for wi, f in zip(w, flat))
        best = min(best, float(np.mean((fused - tflat) ** 2)))
    return best


class TestWeightSweep:
    def test_single_expert_equal_losses(self, sched10, rng):
        eps = [rng.standard_normal((1, 4))]
        w, best, uniform = weight_sweep(
            eps, rng.standard_normal((1, 4)), 2, sched10, rng.standard_normal((1, 4)), ConvexLoss.mse()
        )
        npt.assert_array_equal(w, [1.0])
        assert best == uniform

    def test_oracle_expert_dominates(self, sched10, rng):
        # One expert carries the exact noise that reproduces the target.
        x_t = rng.standard_normal((1, 6))
        eps_true = rng.standard_normal((1, 6))
        target = reverse_step(x_t, eps_true, 3, sched10, np.zeros((1, 6)))
        eps = [rng.standard_normal((1, 6)) * 3, eps_true, rng.standard_normal((1, 6)) * 3]
        w, best, uniform = weight_sweep(eps, x_t, 3, sched10, target, ConvexLoss.mse())
        expert_alone = float(np.mean((reverse_step(x_t, eps_true, 3, sched10, np.zeros((1, 6))) - target) ** 2))
        assert best <= expert_alone + 1e-15
        assert int(np.argmax(w)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_matches_brute_force_oracle(self, sched10, seed):
        rng = np.random.default_rng(seed)
        x_t = rng.standard_normal((1, 8))
        eps = [rng.standard_normal((1, 8)) for _ in range(3)]
        target = rng.standard_normal((1, 8))
        z = np.zeros((1, 8))
        _, best, uniform = weight_sweep(eps, x_t, 1, sched10, target, ConvexLoss.mse())
        stepped = [reverse_step(x_t, e, 1, sched10, z) for e in eps]
        oracle = brute_force_grid_minimum(stepped, target, 0.05)
        assert best <= uniform + 1e-12
        assert best <= oracle + 1e-12  # uniform candidate can only improve on the grid

    def test_projected_descent_beats_uniform(self, sched10, rng):
        eps = [rng.standard_normal((2, 6)) for _ in range(6)]  # K > 4 -> descent path
        _, best, uniform = weight_sweep(
            eps, rng.standard_normal((2, 6)), 4, sched10, rng.standard_normal((2, 6)), ConvexLoss.mse()
        )
        assert best <= uniform + 1e-12

    def test_expert_count_sweep_monotone(self, sched10, rng):
        pool = [rng.standard_normal((1, 8)) for _ in range(8)]
        rows = expert_count_sweep(
            pool, (1, 2, 4, 8), rng.standard_normal((1, 8)), 2, sched10,
            rng.standard_normal((1, 8)), ConvexLoss.mse(),
        )
        best = [r[1] for r in rows]
        assert all(best[i + 1] <= best[i] + 1e-12 for i in range(len(best) - 1))

    def test_simplex_grid_is_exhaustive(self):
        grid = simplex_grid(3, 0.25)
        assert len(grid) == 15  # compositions of 4 into 3 parts
        npt.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-15)
        assert (grid >= 0).all()


class TestErrorTables:
    def test_single_shot_fused_equals_shot(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((1, 2, 10))
        ens = kshot_ensemble(tiny_backbone, truth, sched10, 1, np.random.default_rng(2))
        names, table = shot_error_table(ens, truth, 0, 1)
        assert names == ["timestamp", "shot_0", "fused"]
        npt.assert_array_equal(table[:, 1], table[:, 2])

    def test_symmetric_errors_cancel(self, rng):
        truth = rng.standard_normal((1, 1, 6))
        e = rng.standard_normal(6)
        from moediff.kshot import ShotEnsemble

        ens = ShotEnsemble(shots=[truth + e, truth - e], seeds=[0, 1])
        _, table = shot_error_table(ens, truth, 0, 0)
        npt.assert_allclose(table[:, -1], 0.0, atol=1e-12)

    def test_mean_of_shot_errors_equals_average_error(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((1, 2, 10))
        ens = kshot_ensemble(tiny_backbone, truth, sched10, 12, np.random.default_rng(8))
        _, table = shot_error_table(ens, truth, 0, 0)
        shot_cols = table[:, 1:-1]
        npt.assert_allclose(shot_cols.mean(axis=1), table[:, -1], atol=1e-10)

    def test_fixed_expert_table_equals_per_variant_sample_calls(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((2, 2, 10))
        x_bar = truth * (rng.random(truth.shape) > 0.3)
        _, table = fixed_expert_error_table(
            tiny_backbone, x_bar, truth, sched10, seed=4, sample_index=1, channel=1
        )
        for col, gates in enumerate([np.array([1.0, 0.0]), np.array([0.0, 1.0]), None], start=1):
            rec = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(4), head_gates=gates)
            npt.assert_array_equal(table[:, col], rec[1, 1] - truth[1, 1])

    def test_fixed_expert_table_shape(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((1, 2, 10))
        names, table = fixed_expert_error_table(
            tiny_backbone, truth, truth, sched10, seed=4, sample_index=0, channel=0
        )
        assert names == ["timestamp", "expert_0", "expert_1", "fused"]
        assert table.shape == (10, 4)
