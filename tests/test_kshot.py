"""Multi-run averaging, the per-step fusion identities, the Jensen loss
comparison, and the exact simplex weight sweep with its brute-force grid
oracle and an independent KKT check."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moediff.diffusion import reverse_step, sample
from moediff.kshot import (
    ConvexLoss,
    error_table,
    expert_count_sweep,
    fixed_expert_runs,
    jensen_check,
    kshot_average,
    kshot_ensemble,
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

    def test_shape_mismatch_is_located(self):
        # Broadcasting (2, 8) against (3, 1, 8) would silently score a 3x2x8 error.
        with pytest.raises(ValueError, match=r"point 0 has shape \(2, 8\), target has shape \(3, 1, 8\)"):
            jensen_check([np.zeros((2, 8)), np.ones(8)], [0.5, 0.5], np.ones((3, 1, 8)), ConvexLoss.mse())
        with pytest.raises(ValueError, match="got 3 points but 2 weights"):
            jensen_check([np.zeros(8)] * 3, [0.5, 0.5], np.ones(8), ConvexLoss.mse())


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


def assert_kkt(eps, x_t, t, sched, target, w, best):
    """The KKT conditions of min w^T G w on the simplex, rebuilt from the
    inputs: at the optimum every gradient component (G w)_i is >= the
    optimal MSE, with equality wherever w_i > 0."""
    z = np.zeros_like(x_t)
    resid = np.stack([reverse_step(x_t, e, t, sched, z).ravel() for e in eps]) - target.ravel()
    gram = resid @ resid.T / resid.shape[1]
    grad, tol = gram @ w, 1e-10 * np.abs(gram).max()
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12, w
    assert (grad >= best - tol).all(), (grad - best).min()
    assert np.abs(grad[w > 0] - best).max() <= tol, np.abs(grad[w > 0] - best).max()


def dependent_pool(rng, shape):
    """Criterion 10's pool: four estimates, then four convex mixes of them."""
    basis = [rng.standard_normal(shape) for _ in range(4)]
    return basis + [sum(g * b for g, b in zip(rng.dirichlet(np.ones(4)), basis)) for _ in range(4)]


class TestWeightSweep:
    def test_single_expert_equal_losses(self, sched10, rng):
        eps = [rng.standard_normal((1, 4))]
        w, best, uniform = weight_sweep(
            eps, rng.standard_normal((1, 4)), 2, sched10, rng.standard_normal((1, 4))
        )
        npt.assert_array_equal(w, [1.0])
        assert best == uniform

    def test_oracle_expert_dominates(self, sched10, rng):
        # One expert carries the exact noise that reproduces the target.
        x_t = rng.standard_normal((1, 6))
        eps_true = rng.standard_normal((1, 6))
        target = reverse_step(x_t, eps_true, 3, sched10, np.zeros((1, 6)))
        eps = [rng.standard_normal((1, 6)) * 3, eps_true, rng.standard_normal((1, 6)) * 3]
        w, best, uniform = weight_sweep(eps, x_t, 3, sched10, target)
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
        _, best, uniform = weight_sweep(eps, x_t, 1, sched10, target)
        stepped = [reverse_step(x_t, e, 1, sched10, z) for e in eps]
        oracle = brute_force_grid_minimum(stepped, target, 0.05)
        assert best <= uniform + 1e-12
        assert best <= oracle + 1e-12  # the exact optimum is below every grid point

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_kkt_certificate_random(self, sched10, k, seed):
        rng = np.random.default_rng(100 * k + seed)
        x_t, target = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        eps = [rng.standard_normal((2, 6)) for _ in range(k)]
        w, best, uniform = weight_sweep(eps, x_t, 2, sched10, target)
        assert_kkt(eps, x_t, 2, sched10, target, w, best)
        assert best <= uniform + 1e-12

    @pytest.mark.parametrize("case", ["interior", "duplicates", "perfect_fit", "dependent_pool"])
    def test_kkt_certificate_constructed(self, sched10, rng, case):
        x_t, target = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        if case == "interior":
            # A target near the step of a strict mix: the optimum uses all five.
            eps = [rng.standard_normal((2, 6)) for _ in range(5)]
            mix = sum(g * e for g, e in zip(rng.dirichlet(np.ones(5)), eps))
            target = reverse_step(x_t, mix, 3, sched10, np.zeros_like(x_t)) + 0.01 * target
        elif case == "duplicates":
            a, b = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
            eps = [a, b, a.copy(), rng.standard_normal((2, 6)), b.copy()]
        elif case == "perfect_fit":
            # The step is affine in the estimate; invert it so one
            # estimate lands on the target.
            z = np.zeros_like(x_t)
            at_zero = reverse_step(x_t, z, 3, sched10, z)
            slope = reverse_step(x_t, np.ones_like(x_t), 3, sched10, z) - at_zero
            eps = [rng.standard_normal((2, 6)) for _ in range(4)]
            eps[2] = (target - at_zero) / slope
        else:
            eps = dependent_pool(rng, (2, 6))
        w, best, _ = weight_sweep(eps, x_t, 3, sched10, target)
        assert_kkt(eps, x_t, 3, sched10, target, w, best)
        if case == "interior":
            assert w.min() > 0.0
        if case == "perfect_fit":
            assert best <= 1e-20
            npt.assert_allclose(w, np.eye(4)[2], atol=1e-12)

    def test_six_estimates_beat_uniform(self, sched10, rng):
        eps = [rng.standard_normal((2, 6)) for _ in range(6)]
        _, best, uniform = weight_sweep(
            eps, rng.standard_normal((2, 6)), 4, sched10, rng.standard_normal((2, 6))
        )
        assert best <= uniform + 1e-12

    def test_expert_count_sweep_monotone(self, sched10, rng):
        pool = [rng.standard_normal((1, 8)) for _ in range(8)]
        rows = expert_count_sweep(
            pool, (1, 2, 4, 8), rng.standard_normal((1, 8)), 2, sched10, rng.standard_normal((1, 8))
        )
        best = [r[1] for r in rows]
        assert all(best[i + 1] <= best[i] + 1e-12 for i in range(len(best) - 1))

    def test_wrong_shapes_are_located(self, sched10, rng):
        eps = [rng.standard_normal((2, 6)) for _ in range(3)]
        with pytest.raises(ValueError, match=r"target has shape \(3, 1, 6\), x_t has shape \(2, 6\)"):
            weight_sweep(eps, rng.standard_normal((2, 6)), 2, sched10, np.ones((3, 1, 6)))
        eps[1] = eps[1][:1]  # would broadcast against x_t
        with pytest.raises(ValueError, match=r"estimate 1 has shape \(1, 6\), x_t has shape \(2, 6\)"):
            weight_sweep(eps, rng.standard_normal((2, 6)), 2, sched10, np.ones((2, 6)))


class TestErrorTables:
    def test_single_shot_fused_equals_shot(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((1, 2, 10))
        ens = kshot_ensemble(tiny_backbone, truth, sched10, 1, np.random.default_rng(2))
        names, table = error_table([*ens.shots, ens.average()], "shot", truth, 0, 1)
        assert names == ["timestamp", "shot_0", "fused"]
        npt.assert_array_equal(table[:, 1], table[:, 2])

    def test_symmetric_errors_cancel(self, rng):
        truth = rng.standard_normal((1, 1, 6))
        e = rng.standard_normal(6)
        shots = [truth + e, truth - e]
        _, table = error_table([*shots, np.mean(shots, axis=0)], "shot", truth, 0, 0)
        npt.assert_allclose(table[:, -1], 0.0, atol=1e-12)

    def test_mean_of_shot_errors_equals_average_error(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((1, 2, 10))
        ens = kshot_ensemble(tiny_backbone, truth, sched10, 12, np.random.default_rng(8))
        _, table = error_table([*ens.shots, ens.average()], "shot", truth, 0, 0)
        shot_cols = table[:, 1:-1]
        npt.assert_allclose(shot_cols.mean(axis=1), table[:, -1], atol=1e-10)

    def test_table_equals_columns_built_from_shot_errors(self, rng):
        truth = rng.standard_normal((3, 2, 7))
        shots = [truth + rng.standard_normal(truth.shape) for _ in range(4)]
        names, table = error_table([*shots, np.mean(shots, axis=0)], "shot", truth, 2, 1)
        ref = truth[2, 1]
        cols = [np.arange(7.0)] + [s[2, 1] - ref for s in shots] + [np.mean(shots, axis=0)[2, 1] - ref]
        assert names == ["timestamp", "shot_0", "shot_1", "shot_2", "shot_3", "fused"]
        npt.assert_array_equal(table, np.column_stack(cols))

    def test_fixed_expert_table_equals_per_variant_sample_calls(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((2, 2, 10))
        x_bar = truth * (rng.random(truth.shape) > 0.3)
        recons = fixed_expert_runs(tiny_backbone, x_bar, sched10, seed=4)
        _, table = error_table(recons, "expert", truth, sample_index=1, channel=1)
        for col, gates in enumerate([np.array([1.0, 0.0]), np.array([0.0, 1.0]), None], start=1):
            rec = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(4), head_gates=gates)
            npt.assert_array_equal(table[:, col], rec[1, 1] - truth[1, 1])

    def test_fixed_expert_table_shape(self, tiny_backbone, sched10, rng):
        truth = rng.standard_normal((1, 2, 10))
        recons = fixed_expert_runs(tiny_backbone, truth, sched10, seed=4)
        names, table = error_table(recons, "expert", truth, sample_index=0, channel=0)
        assert names == ["timestamp", "expert_0", "expert_1", "fused"]
        assert table.shape == (10, 4)
