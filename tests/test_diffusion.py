"""Noise schedule construction, forward corruption, the affine reverse
update, the training objective, and the ancestral sampler."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moediff.autodiff as ad
from moediff.backbone import (
    grads_like,
    init_backbone,
    lift_params,
    named_params,
    noise_estimate,
    replace_param,
    zip_map_params,
)
from moediff.diffusion import (
    NoiseSchedule,
    forward_noise,
    make_schedule,
    reverse_coefficients,
    reverse_step,
    sample,
    train_step,
)
from oracles import dense_backward


class TestMakeSchedule:
    def test_forty_step_schedule(self):
        assert make_schedule(40).t_steps == 40

    def test_single_step(self):
        sched = make_schedule(1, 0.5, 0.5)
        npt.assert_allclose(sched.alpha_bar, [0.5])

    def test_three_step_cumulative_product(self):
        # Hand product: alpha = (.9, .8, .7) -> abar = (.9, .72, .504).
        sched = make_schedule(3, 0.1, 0.3)
        npt.assert_allclose(sched.beta, [0.1, 0.2, 0.3], atol=1e-15)
        npt.assert_allclose(sched.alpha_bar, [0.9, 0.72, 0.504], atol=1e-12)

    @pytest.mark.parametrize("bad", [(-1, 0.1, 0.2), (3, 0.0, 0.2), (3, 0.2, 1.0), (3, 0.3, 0.1)])
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            make_schedule(*bad)

    def test_flat_multistep_rejected(self):
        with pytest.raises(ValueError, match="beta_start must be <"):
            make_schedule(5, 0.2, 0.2)

    @settings(max_examples=50, deadline=None)
    @given(
        t_steps=st.integers(2, 50),
        lo=st.floats(1e-5, 0.3),
        width=st.floats(1e-4, 0.6),
    )
    def test_alpha_bar_strictly_decreasing(self, t_steps, lo, width):
        sched = make_schedule(t_steps, lo, min(lo + width, 0.99))
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert np.all((sched.alpha_bar > 0) & (sched.alpha_bar < 1))
        npt.assert_allclose(sched.alpha_bar, np.cumprod(1 - sched.beta), rtol=1e-12)


class TestForwardNoise:
    def test_degenerate_identity(self, rng):
        # A hand-built schedule with alpha_bar = 1 leaves x0 untouched.
        sched = NoiseSchedule(beta=np.array([0.0]), alpha=np.array([1.0]), alpha_bar=np.array([1.0]))
        x0 = rng.standard_normal((2, 3))
        npt.assert_array_equal(forward_noise(x0, 1, rng.standard_normal((2, 3)), sched), x0)

    def test_degenerate_pure_noise(self, rng):
        sched = NoiseSchedule(beta=np.array([1.0]), alpha=np.array([0.0]), alpha_bar=np.array([0.0]))
        eps = rng.standard_normal((2, 3))
        npt.assert_array_equal(forward_noise(rng.standard_normal((2, 3)), 1, eps, sched), eps)

    def test_preserves_unit_variance(self, sched10):
        # Monte-Carlo oracle: with x0, eps ~ N(0,1) independent, the
        # corrupted sample keeps unit variance at every step.
        rng = np.random.default_rng(0)
        n = 10**5
        for t in (1, 5, 10):
            x_t = forward_noise(rng.standard_normal(n), t, rng.standard_normal(n), sched10)
            assert abs(x_t.var() - 1.0) < 0.05

    def test_step_out_of_range(self, sched10, rng):
        x = rng.standard_normal(4)
        with pytest.raises(ValueError, match="outside"):
            forward_noise(x, 0, x, sched10)
        with pytest.raises(ValueError, match="outside"):
            forward_noise(x, 11, x, sched10)
        with pytest.raises(ValueError, match=r"step t=\[3, 11, 1, 2\] outside 1..10"):
            forward_noise(x, np.array([3, 11, 1, 2]), x, sched10)

    def test_shape_mismatch(self, sched10):
        with pytest.raises(ValueError, match="shape"):
            forward_noise(np.zeros(3), 1, np.zeros(4), sched10)
        with pytest.raises(ValueError, match=r"steps of shape \(2,\) do not fit x0 rows \(3, 4\)"):
            forward_noise(np.zeros((3, 4)), np.array([1, 2]), np.zeros((3, 4)), sched10)

    def test_per_row_steps_match_one_call_per_row(self, sched10, rng):
        x0, eps = rng.standard_normal((2, 3, 2, 5))
        ts = np.array([10, 1, 4])
        out = forward_noise(x0, ts, eps, sched10)
        for row, t in enumerate(ts):
            npt.assert_array_equal(out[row], forward_noise(x0[row], int(t), eps[row], sched10))


class TestReverseStep:
    def test_affine_in_estimate(self, sched10, rng):
        x_t = rng.standard_normal((2, 4))
        z = rng.standard_normal((2, 4))
        e1, e2 = rng.standard_normal((2, 2, 4))
        a, b = 0.3, -1.2
        c = reverse_coefficients(sched10, 5)
        lhs = reverse_step(x_t, a * e1 + b * e2, 5, sched10, z)
        rhs = (
            a * reverse_step(x_t, e1, 5, sched10, z)
            + b * reverse_step(x_t, e2, 5, sched10, z)
            - (a + b - 1.0) * (c.a * x_t + c.sigma * z)
        )
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_final_step_deterministic(self, sched10, rng):
        assert reverse_coefficients(sched10, 1).sigma == 0.0
        x1 = rng.standard_normal(5)
        eps = rng.standard_normal(5)
        out_a = reverse_step(x1, eps, 1, sched10, np.zeros(5))
        out_b = reverse_step(x1, eps, 1, sched10, rng.standard_normal(5))
        npt.assert_array_equal(out_a, out_b)

    def test_one_step_roundtrip(self, rng):
        # Closed-form inversion of a one-step schedule.
        sched = make_schedule(1, 0.3, 0.3)
        x0 = rng.standard_normal((2, 3, 8))
        eps = rng.standard_normal((2, 3, 8))
        x1 = forward_noise(x0, 1, eps, sched)
        npt.assert_allclose(reverse_step(x1, eps, 1, sched, np.zeros_like(x0)), x0, atol=1e-9)

    def test_coefficient_formulas(self, sched10):
        t = 7
        beta = sched10.beta[t - 1]
        alpha = sched10.alpha[t - 1]
        abar = sched10.alpha_bar[t - 1]
        c = reverse_coefficients(sched10, t)
        assert c.a == pytest.approx(1.0 / math.sqrt(alpha), abs=1e-15)
        assert c.b == pytest.approx(-beta / (math.sqrt(alpha) * math.sqrt(1 - abar)), abs=1e-15)
        assert c.sigma == pytest.approx(math.sqrt(beta), abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 10), k=st.integers(1, 5))
    def test_convex_combinations_commute(self, seed, t, k):
        rng = np.random.default_rng(seed)
        sched = make_schedule(10)
        x_t = rng.standard_normal(6)
        z = rng.standard_normal(6)
        eps = rng.standard_normal((k, 6))
        w = rng.dirichlet(np.ones(k))
        lhs = reverse_step(x_t, np.einsum("k,kd->d", w, eps), t, sched, z)
        rhs = sum(w[i] * reverse_step(x_t, eps[i], t, sched, z) for i in range(k))
        npt.assert_allclose(lhs, rhs, atol=1e-10)


class TestSample:
    def test_forced_estimate_roundtrip(self, tiny_backbone, monkeypatch):
        # With one step and the noise estimate pinned to the noise
        # consistent with a target x0, the sampler must return exactly that x0.
        import moediff.diffusion as diffusion

        sched = make_schedule(1, 0.3, 0.3)
        rng = np.random.default_rng(5)
        x0 = np.random.default_rng(9).standard_normal((1, 2, 8))
        x_T = np.random.default_rng(5).standard_normal((1, 2, 8))  # what sample() will draw
        abar = sched.alpha_bar[0]
        eps_true = (x_T - math.sqrt(abar) * x0) / math.sqrt(1 - abar)
        monkeypatch.setattr(diffusion, "noise_estimate", lambda *args, **kwargs: eps_true)
        out = sample(tiny_backbone, np.zeros((1, 2, 8)), sched, rng)
        npt.assert_allclose(out, x0, atol=1e-9)

    def test_seeded_runs_identical(self, tiny_backbone, sched10, rng):
        x_bar = rng.standard_normal((2, 2, 16))
        a = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(33))
        b = sample(tiny_backbone, x_bar, sched10, np.random.default_rng(33))
        npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    @pytest.mark.parametrize("fixed_head", [False, True])
    def test_matches_per_step_estimate(self, sched10, gate_mode, fixed_head, monkeypatch):
        # Oracle: the same sampler with an estimate that rebuilds the
        # condition maps at every reverse step.
        import moediff.diffusion as diffusion

        params = init_backbone(
            np.random.default_rng(4), channels=2, width=8, depth=2,
            kernel_sizes=(1, 3, 5), head_experts=3, d_emb=16, gate_mode=gate_mode,
        )
        gates = np.array([0.2, 0.5, 0.3]) if fixed_head else None
        x_bar = np.random.default_rng(5).standard_normal((3, 2, 24))
        out = sample(params, x_bar, sched10, np.random.default_rng(6), head_gates=gates)
        monkeypatch.setattr(
            diffusion, "noise_estimate",
            lambda x, xb, t, p, head_gates, cond: noise_estimate(x, xb, t, p, head_gates=head_gates),
        )
        ref = sample(params, x_bar, sched10, np.random.default_rng(6), head_gates=gates)
        npt.assert_array_equal(out, ref)

    def test_output_shape(self, sched10):
        params = init_backbone(
            np.random.default_rng(0), channels=3, width=4, depth=1,
            kernel_sizes=(1, 3), head_experts=2, d_emb=8,
        )
        x_bar = np.zeros((2, 3, 128))
        assert sample(params, x_bar, sched10, np.random.default_rng(1)).shape == (2, 3, 128)


def grouped_train_step(params, batch, mask, sched, rng):
    """Reference training step: one forward per distinct diffusion step in
    the batch, the squared errors summed across groups. Draws from ``rng``
    exactly as :func:`train_step` does; also returns the drawn steps."""
    ts = rng.integers(1, sched.t_steps + 1, size=batch.shape[0])
    eps = rng.standard_normal(batch.shape)
    abar = sched.alpha_bar[ts - 1][:, None, None]
    x_t = np.sqrt(abar) * batch + np.sqrt(1.0 - abar) * eps
    x_bar = batch * mask
    graph = ad.Graph()
    pvars = lift_params(graph, params)
    total_sse = None
    for t in np.unique(ts):
        rows = np.where(ts == t)[0]
        diff = ad.sub(noise_estimate(x_t[rows], x_bar[rows], int(t), pvars), eps[rows])
        sse = ad.tsum(ad.mul(diff, diff))
        total_sse = sse if total_sse is None else ad.add(total_sse, sse)
    loss = ad.scale(total_sse, 1.0 / batch.size)
    return float(loss.value), grads_like(pvars, ad.backward(graph, loss)), ts


def _step_graph(monkeypatch, params, sched):
    """The graph one ``train_step`` on a fixed [3, 2, 16] batch hands to
    ``backward``, and the ids of its nodes that held a value on entry."""
    graphs = []
    original_backward = ad.backward

    def spy(graph, loss):
        held = {nid for nid, node in enumerate(graph.nodes) if node.held is not None}
        graphs.append((graph, held))
        return original_backward(graph, loss)

    monkeypatch.setattr(ad, "backward", spy)
    batch = np.random.default_rng(1).standard_normal((3, 2, 16))
    train_step(params, batch, np.ones_like(batch), sched, np.random.default_rng(2))
    (graph_and_held,) = graphs
    return graph_and_held


class TestTrainStep:
    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_matches_grouped_oracle(self, sched10, gate_mode, distinct):
        b = 4
        # The first seed whose drawn steps are all distinct (or repeat).
        seed = next(
            s for s in range(100)
            if (len(np.unique(np.random.default_rng(s).integers(1, 11, size=b))) == b) == distinct
        )
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=8, depth=2,
            kernel_sizes=(1, 3, 5), head_experts=3, d_emb=16, gate_mode=gate_mode,
        )
        data_rng = np.random.default_rng(100)
        batch = data_rng.standard_normal((b, 2, 24))
        mask = (data_rng.random(batch.shape) < 0.7).astype(float)
        loss, grads = train_step(params, batch, mask, sched10, np.random.default_rng(seed))
        ref_loss, ref_grads, ts = grouped_train_step(
            params, batch, mask, sched10, np.random.default_rng(seed)
        )
        assert (len(np.unique(ts)) == b) == distinct
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        # Gradients that are zero in exact arithmetic (expert biases feeding
        # an instance norm) read ~1e-18 on both paths, so the tolerance is
        # relative to the largest gradient in the tree, not per leaf.
        largest = max(np.abs(g).max() for _, g in named_params(ref_grads))
        for (name, g), (_, r) in zip(named_params(grads), named_params(ref_grads)):
            npt.assert_allclose(g, r, rtol=0.0, atol=1e-12 * largest, err_msg=name)

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    @pytest.mark.parametrize(
        "shape",
        [
            dict(channels=3, width=16, kernel_sizes=(3, 5, 7, 9, 11), head_experts=4, t_len=64, batch=8),
            dict(channels=12, width=32, kernel_sizes=tuple(range(3, 32, 2)), head_experts=16, t_len=96, batch=2),
        ],
        ids=["toy", "wide"],
    )
    def test_bit_identical_to_dense_backward(self, sched10, monkeypatch, gate_mode, shape):
        # Sparse gather/slice gradients added in place, and gradients
        # dropped as the pass goes, change no bit of the loss or of any
        # gradient; raw mode routes through gather_cols as well.
        shape = dict(shape)
        t_len, b = shape.pop("t_len"), shape.pop("batch")
        params = init_backbone(np.random.default_rng(0), depth=2, d_emb=16, gate_mode=gate_mode, **shape)
        data_rng = np.random.default_rng(100)
        batch = data_rng.standard_normal((b, shape["channels"], t_len))
        mask = (data_rng.random(batch.shape) < 0.7).astype(float)
        loss, grads = train_step(params, batch, mask, sched10, np.random.default_rng(3))
        monkeypatch.setattr(ad, "backward", dense_backward)
        ref_loss, ref_grads = train_step(params, batch, mask, sched10, np.random.default_rng(3))
        assert loss == ref_loss
        for (name, g), (_, r) in zip(named_params(grads), named_params(ref_grads)):
            npt.assert_array_equal(g, r, err_msg=name)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_first_level_experts_run_on_the_signal(self, sched10, monkeypatch, depth):
        # Each RFAMoE block's expert convs come before its one instance
        # norm on the tape. A first-level block's experts read [signal, 1]
        # gathered on the tape (input axis 2, the lift composed into their
        # weight); a deeper block's read its width-8 input maps.
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=8, depth=depth,
            kernel_sizes=(1, 3, 5), head_experts=2, d_emb=8,
        )
        graph, _ = _step_graph(monkeypatch, params, sched10)
        blocks, axes = [], []  # input axes of each block's expert conv weights
        for node in graph.nodes:
            if node.op == "conv1d" and graph.nodes[node.inputs[0]].op == "take_rows":
                axes.append(graph.nodes[node.inputs[1]].value.shape[1])
            elif node.op == "instance_norm":
                blocks.append(axes)
                axes = []
        assert len(blocks) == 2 * depth  # condition path, then main path
        for k, block_axes in enumerate(blocks):
            assert block_axes and set(block_axes) == ({2} if k % depth == 0 else {8}), k
        ops = [node.op for node in graph.nodes]
        assert ops.count("take_rows") == sum(map(len, blocks))

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_tape_holds_only_values_rules_read(self, sched10, monkeypatch, gate_mode):
        # When a training step's forward ends, a node keeps its forward
        # value only if it is a leaf, a softmax output, or an input that a
        # consumer's rule reads (autodiff._READS); no other node holds one.
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=8, depth=2,
            kernel_sizes=(1, 3, 5), head_experts=2, d_emb=8, gate_mode=gate_mode,
        )
        graph, held = _step_graph(monkeypatch, params, sched10)
        read = {node.inputs[k] for node in graph.nodes for k in ad._READS.get(node.op, ())}
        kept = {nid for nid, node in enumerate(graph.nodes) if node.op in ("leaf", "softmax")} | read
        assert held == kept
        assert len(held) < len(graph.nodes)

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_backward_frees_the_nodes_it_reaches(self, sched10, monkeypatch, gate_mode):
        # Once backward returns, every non-leaf node on the loss's path has
        # dropped its value and ctx; the leaves keep theirs.
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=8, depth=2,
            kernel_sizes=(1, 3, 5), head_experts=2, d_emb=8, gate_mode=gate_mode,
        )
        graph, _ = _step_graph(monkeypatch, params, sched10)
        reached = {len(graph.nodes) - 1}  # the loss is the last node recorded
        for nid in range(len(graph.nodes) - 1, -1, -1):
            if nid in reached:
                reached.update(graph.nodes[nid].inputs)
        for nid in reached:
            node = graph.nodes[nid]
            if node.op == "leaf":
                assert node.held is not None, nid
            else:
                assert node.held is None and node.ctx == {}, (nid, node.op)
        assert graph.spent

    def test_zero_backbone_unit_loss(self, sched10):
        params = init_backbone(
            np.random.default_rng(0), channels=3, width=4, depth=1,
            kernel_sizes=(1, 3), head_experts=2, d_emb=8,
        )
        params = zip_map_params(lambda p, _: np.zeros_like(p), params, params)
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((32, 3, 64))
        loss, grads = train_step(params, batch, np.ones_like(batch), sched10, rng)
        assert abs(loss - 1.0) < 0.05

    def test_all_ones_mask_keeps_batch(self, sched10, rng, monkeypatch):
        # The condition x_bar must equal the batch exactly under an
        # all-ones mask; capture it from the estimator call. The whole
        # batch goes through one call, whatever steps were drawn.
        import moediff.diffusion as diffusion

        calls = []
        orig = diffusion.noise_estimate

        def spy(x_t, x_bar, t, params, head_gates=None):
            calls.append((np.asarray(ad.value_of(x_bar)), np.asarray(t)))
            return orig(x_t, x_bar, t, params, head_gates=head_gates)

        monkeypatch.setattr(diffusion, "noise_estimate", spy)
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=4, depth=1,
            kernel_sizes=(1,), head_experts=1, d_emb=4,
        )
        batch = rng.standard_normal((6, 2, 8))
        train_step(params, batch, np.ones_like(batch), sched10, rng)
        assert len(calls) == 1
        x_bar, ts = calls[0]
        npt.assert_array_equal(x_bar, batch)
        assert ts.shape == (6,) and len(np.unique(ts)) > 1

    def test_nonbinary_mask_rejected(self, tiny_backbone, sched10, rng):
        batch = rng.standard_normal((2, 2, 8))
        with pytest.raises(ValueError, match="0.0 and 1.0"):
            train_step(tiny_backbone, batch, np.full_like(batch, 0.5), sched10, rng)

    def test_loss_decreases_on_fixed_batch(self, sched10):
        from moediff.backbone import zip_map_params

        params = init_backbone(
            np.random.default_rng(3), channels=2, width=4, depth=1,
            kernel_sizes=(1, 3), head_experts=2, d_emb=8,
        )
        batch = np.random.default_rng(8).standard_normal((4, 2, 32))
        mask = np.ones_like(batch)
        losses = []
        for step in range(50):
            rng = np.random.default_rng(step)  # fixed stream per step
            loss, grads = train_step(params, batch, mask, sched10, rng)
            params = zip_map_params(lambda p, g: p - 1e-3 * g, params, grads)
            losses.append(loss)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_which_routers_learn(self, sched10, rng, gate_mode):
        # Unit mode freezes the receptive-field routers at initialisation
        # (the selected gate is exactly 1.0, so no loss reads the logits);
        # raw mode trains them through the softmax gate. The fusion-head
        # router trains in both modes.
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=4, depth=2,
            kernel_sizes=(1, 3), head_experts=2, d_emb=8, gate_mode=gate_mode,
        )
        batch = rng.standard_normal((4, 2, 16))
        _, grads = train_step(params, batch, np.ones_like(batch), sched10, rng)
        grads = dict(named_params(grads))
        routers = [n for n in grads if n.startswith("levels.") and ".router." in n]
        assert len(routers) == 2 * 2 * 2  # depth x {main, cond} x {weight, bias}
        for name in routers:
            if gate_mode == "unit":
                npt.assert_array_equal(grads[name], 0.0, err_msg=name)
            else:
                assert np.any(grads[name] != 0.0), name
        assert np.any(grads["head.router.weight"] != 0.0)

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_expert_biases_are_cancelled(self, sched10, rng, gate_mode):
        # The instance norm after each routed expert conv subtracts every
        # map's time mean, so the receptive-field expert biases
        # (levels.*.{main,cond}.experts.*.bias) cannot move the output:
        # their gradients are rounding noise and they stay frozen.
        params = init_backbone(
            np.random.default_rng(0), channels=2, width=4, depth=2,
            kernel_sizes=(1, 3), head_experts=2, d_emb=8, gate_mode=gate_mode,
        )
        batch = rng.standard_normal((4, 2, 16))
        _, grads = train_step(params, batch, np.ones_like(batch), sched10, rng)
        grads = dict(named_params(grads))
        biases = [n for n in grads if ".experts." in n and n.endswith(".bias") and n.startswith("levels.")]
        assert len(biases) == 2 * 2 * 2  # depth x {main, cond} x experts
        weight_scale = max(np.abs(grads[n[: -len("bias")] + "weight"]).max() for n in biases)
        assert weight_scale > 0.1
        for name in biases:
            assert np.abs(grads[name]).max() <= 1e-12 * weight_scale, name

        shifted = params
        for name in biases:
            shifted = replace_param(shifted, name, dict(named_params(shifted))[name] + 1.0)
        x_t = rng.standard_normal((4, 2, 16))
        npt.assert_allclose(
            noise_estimate(x_t, batch, 3, shifted), noise_estimate(x_t, batch, 3, params), rtol=0, atol=1e-12
        )

    def test_gradient_tree_matches_parameters(self, tiny_backbone, sched10, rng):
        batch = rng.standard_normal((2, 2, 8))
        _, grads = train_step(tiny_backbone, batch, np.ones_like(batch), sched10, rng)
        pnames = [n for n, _ in named_params(tiny_backbone)]
        gnames = [n for n, _ in named_params(grads)]
        assert pnames == gnames
        for (_, p), (_, g) in zip(named_params(tiny_backbone), named_params(grads)):
            assert np.asarray(p).shape == np.asarray(g).shape
