"""The three network blocks: routing, adaptive-receptive-field MoE, FiLM
bridge, and the weight-fusing head, checked against straight-loop oracles."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moediff.autodiff as ad
from moediff.backbone import lift_params, named_params, replace_param
from moediff.blocks import (
    ConvParams,
    LinearParams,
    RFAMoEParams,
    bridge_forward,
    fusion_moe_forward,
    init_bridge,
    init_conv,
    init_fusion,
    init_rfamoe,
    rfamoe_forward,
    route_top1,
    step_embedding,
)
from oracles import (
    explicit_lift_rfamoe,
    naive_bridge,
    naive_conv1d,
    naive_fusion_moe,
    naive_rfamoe,
    random_affine,
    two_conv_rfamoe,
)


class TestStepEmbedding:
    def test_step_zero(self):
        emb = step_embedding(0, 8)
        npt.assert_array_equal(emb[0::2], 0.0)
        npt.assert_array_equal(emb[1::2], 1.0)

    def test_distinct_steps_distinct_embeddings(self):
        embs = [step_embedding(t, 16) for t in range(1, 41)]
        for i in range(len(embs)):
            for j in range(i + 1, len(embs)):
                assert not np.allclose(embs[i], embs[j])

    def test_closed_form_d4(self):
        emb = step_embedding(1, 4)
        expected = [math.sin(1), math.cos(1), math.sin(1e-2), math.cos(1e-2)]
        npt.assert_allclose(emb, expected, atol=1e-15)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            step_embedding(1, 5)

    def test_step_array_rows_match_scalar_calls(self):
        ts = np.array([7, 1, 40, 7, 0])
        emb = step_embedding(ts, 16)
        assert emb.shape == (5, 16)
        for row, t in zip(emb, ts):
            npt.assert_array_equal(row, step_embedding(int(t), 16))

    @pytest.mark.parametrize("t", [-1, np.array([3, -1])])
    def test_negative_step_rejected(self, t):
        with pytest.raises(ValueError, match=">= 0"):
            step_embedding(t, 4)


def _identity_router(e):
    return LinearParams(weight=np.eye(e), bias=np.zeros(e))


class TestRouteTop1:
    def test_argmax_selection(self):
        feats = np.array([[[0.1], [2.0], [-1.0]]])  # pooled -> the logits themselves
        idx, gates, logits = route_top1(feats, _identity_router(3))
        assert idx.tolist() == [1]
        npt.assert_array_equal(gates, [1.0])
        npt.assert_array_equal(logits, [[0.1, 2.0, -1.0]])

    def test_tie_breaks_to_lowest_index(self):
        feats = np.array([[[2.0], [2.0], [0.0]]])
        idx, _, _ = route_top1(feats, _identity_router(3))
        assert idx.tolist() == [0]

    def test_zero_router_selects_expert_zero(self, rng):
        feats = rng.standard_normal((5, 4, 6))
        router = LinearParams(weight=np.zeros((4, 3)), bias=np.zeros(3))
        idx, gates, _ = route_top1(feats, router)
        assert idx.tolist() == [0] * 5
        npt.assert_array_equal(gates, 1.0)

    def test_raw_gate_is_softmax_probability(self):
        feats = np.array([[[0.0], [math.log(2.0)]]])
        idx, gates, _ = route_top1(feats, _identity_router(2), gate_mode="raw")
        assert idx.tolist() == [1]
        npt.assert_allclose(gates, [2.0 / 3.0], atol=1e-12)

    def test_unknown_gate_mode_rejected(self, rng):
        feats = rng.standard_normal((2, 3, 5))
        with pytest.raises(ValueError, match=r"'soft' is not one of \('unit', 'raw'\)"):
            route_top1(feats, _identity_router(3), "soft")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999), shift=st.floats(-50, 50))
    def test_logit_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((4, 3, 5))
        router = LinearParams(weight=rng.standard_normal((3, 4)), bias=rng.standard_normal(4))
        shifted = LinearParams(weight=router.weight, bias=router.bias + shift)
        idx_a, _, _ = route_top1(feats, router)
        idx_b, _, _ = route_top1(feats, shifted)
        npt.assert_array_equal(idx_a, idx_b)


class TestRFAMoE:
    def _params(self, rng, l=4, c=2, kernels=(1, 3)):
        return init_rfamoe(rng, l, c, kernels)

    def test_zero_body_is_residual_identity(self, rng):
        params = self._params(rng)
        for name, _ in named_params(params):
            params = replace_param(params, name, np.zeros_like(dict(named_params(params))[name]))
        x = rng.standard_normal((4, 4, 6))
        npt.assert_array_equal(rfamoe_forward(x, params, (2, 2), "unit"), x)

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_naive_oracle(self, seed, gate_mode):
        rng = np.random.default_rng(seed)
        params = random_affine(self._params(rng, kernels=(1, 3, 5)), rng)
        x = rng.standard_normal((4, 4, 7))
        npt.assert_allclose(
            rfamoe_forward(x, params, (2, 2), gate_mode), naive_rfamoe(x, params, 2, 2, gate_mode), atol=1e-10
        )

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_router_on_tape_only_in_raw_mode(self, rng, gate_mode):
        g = ad.Graph()
        params = lift_params(g, self._params(rng))
        rfamoe_forward(g.leaf(rng.standard_normal((4, 4, 6))), params, (2, 2), gate_mode)
        consumed = {i for node in g.nodes for i in node.inputs}
        router_leaves = {params.router.weight.id, params.router.bias.id}
        ops = {node.op for node in g.nodes}
        gate_ops = {"mean", "softmax", "gather_cols"}
        if gate_mode == "raw":
            assert router_leaves <= consumed and gate_ops <= ops
        else:
            assert not router_leaves & consumed and not gate_ops & ops

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_one_scatter_per_call(self, gate_mode):
        # The active experts' outputs go back in place through a single
        # scatter; no per-expert full-size tensor is summed.
        rng = np.random.default_rng(5)
        plain = self._params(rng, c=3, kernels=(1, 3, 5))
        plain.router.weight = 3.0 * rng.standard_normal((4, 3))
        x = rng.standard_normal((12, 4, 6))
        sel, _, _ = route_top1(x, plain.router, gate_mode)
        active = len(np.unique(sel))
        assert active >= 2
        g = ad.Graph()
        rfamoe_forward(g.leaf(x), lift_params(g, plain), (4, 3), gate_mode)
        ops = [node.op for node in g.nodes]
        assert ops.count("scatter_rows") == 1
        assert ops.count("take_rows") == active
        # One conv per active expert and one composed pointwise conv.
        assert ops.count("conv1d") == active + 1
        # The composed bias, the residual, and the router's bias in raw mode.
        assert ops.count("add") == (2 if gate_mode == "unit" else 3)

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    def test_no_source_call_records_no_transpose(self, rng, gate_mode):
        # Maps stay [N, L, T] from block to block: a call with no lifted
        # source, as at every level after the first, changes no layout.
        g = ad.Graph()
        params = lift_params(g, self._params(rng))
        rfamoe_forward(g.leaf(rng.standard_normal((4, 4, 6))), params, (2, 2), gate_mode)
        assert "transpose" not in {node.op for node in g.nodes}

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    @pytest.mark.parametrize("c", [1, 3])
    def test_matches_two_conv_reference(self, c, gate_mode):
        # The composed pointwise conv against gate_proj then fuse as two
        # convolutions: same output and the same gradient for every block
        # parameter. The expert biases' gradients are rounding noise (the
        # instance norm cancels them), so the tolerance scales with the
        # largest gradient.
        rng = np.random.default_rng(10 + c)
        plain = self._params(rng, l=6, c=c, kernels=(1, 3, 5))
        plain.router.weight = 3.0 * rng.standard_normal((6, 3))
        for conv in [plain.gate_proj, plain.fuse] + plain.experts:
            conv.bias = rng.standard_normal(conv.bias.shape)
        x = rng.standard_normal((2 * c, 6, 9))
        probe = rng.standard_normal(x.shape)

        def run(forward):
            g = ad.Graph()
            params = lift_params(g, plain)
            y = forward(g.leaf(x), params, 2, c, gate_mode)
            grads = ad.backward(g, ad.tsum(ad.mul(y, probe)))
            return y.value, {n: grads.get(v.id, 0.0) for n, v in named_params(params)}

        y, grads = run(lambda x, p, b, c, m: rfamoe_forward(x, p, (b, c), m))
        y_ref, grads_ref = run(two_conv_rfamoe)
        npt.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
        scale = max(np.abs(g).max() for g in grads_ref.values())
        assert set(grads) == set(grads_ref)
        for name, g_ref in grads_ref.items():
            npt.assert_allclose(grads[name], g_ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name)
        assert np.all(grads["gate_proj.weight"] != 0.0) and np.all(grads["fuse.bias"] != 0.0)

    def _lifted_case(self, c):
        # Kernels 1, 3 and 7 over T = 9: the widest reaches past the middle
        # from either edge. The signal means are spread so that the seeds
        # below route maps to every expert.
        rng = np.random.default_rng({1: 4, 3: 10}[c])
        plain = self._params(rng, l=6, c=c, kernels=(1, 3, 7))
        plain.router.weight = 3.0 * rng.standard_normal((6, 3))
        lift = init_conv(rng, 6, 1, 1)
        lift.bias = rng.standard_normal(6)
        for conv in [plain.gate_proj, plain.fuse] + plain.experts:
            conv.bias = rng.standard_normal(conv.bias.shape)
        b = 4 // c + 1
        x1 = rng.standard_normal((b * c, 1, 9)) + np.linspace(-3.0, 3.0, b * c)[:, None, None]
        probe = rng.standard_normal((b * c, 6, 9))
        return plain, lift, x1, b, probe

    def _run_lifted(self, forward, c, gate_mode):
        plain, lift, x1, b, probe = self._lifted_case(c)
        g = ad.Graph()
        tree = lift_params(g, [plain, lift])
        y = forward(g.leaf(x1), tree[1], tree[0], b, c, gate_mode)
        grads = ad.backward(g, ad.tsum(ad.mul(y, probe)))
        return y.value, {n: grads.get(v.id, 0.0) for n, v in named_params(tree)}

    @staticmethod
    def _with_source(x1, lift, params, b, c, gate_mode):
        # z = [x1, 1] and m = [w, b], so the block input is m @ z.
        h0 = ad.conv1d(x1, lift.weight, lift.bias)
        z = ad.concat([x1, np.ones(ad.value_of(x1).shape)], axis=1)
        m = ad.concat([ad.reshape(lift.weight, (-1, 1)), ad.reshape(lift.bias, (-1, 1))], axis=1)
        return rfamoe_forward(h0, params, (b, c), gate_mode, (z, m))

    @pytest.mark.parametrize("gate_mode", ["unit", "raw"])
    @pytest.mark.parametrize("c", [1, 3])
    def test_lifted_source_matches_explicit_lift(self, c, gate_mode):
        # The experts on the raw signal with the lift composed into their
        # weights against the block on the lifted maps: the same output
        # and the same gradient for every block parameter and for the
        # lift's weight and bias. The expert biases' gradients are rounding
        # noise (the instance norm cancels them), so the tolerance scales
        # with the largest gradient.
        plain, lift, x1, _, _ = self._lifted_case(c)
        sel, _, _ = route_top1(ad.conv1d(x1, lift.weight, lift.bias), plain.router, gate_mode)
        assert set(sel) == {0, 1, 2}
        y, grads = self._run_lifted(self._with_source, c, gate_mode)
        y_ref, grads_ref = self._run_lifted(explicit_lift_rfamoe, c, gate_mode)
        npt.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
        scale = max(np.abs(g).max() for g in grads_ref.values())
        assert set(grads) == set(grads_ref)
        for name, g_ref in grads_ref.items():
            npt.assert_allclose(grads[name], g_ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name)
        assert np.all(grads["1.weight"] != 0.0) and np.all(grads["1.bias"] != 0.0)

    @pytest.mark.parametrize("broken", ["constant_bias", "no_bias"])
    @pytest.mark.parametrize("kernels", [(1,), (1, 3, 7)])
    def test_explicit_lift_reference_catches_edge_errors(self, broken, kernels):
        # Two wrong sources: the lift bias added to each expert as a
        # constant (as if the lifted maps were padded with it, not with
        # zeros), and the bias dropped. Away from the edges both differ
        # from the block on the lifted maps by a per-map constant, which
        # the instance norm cancels; so they pass with kernel 1 and fail
        # once a kernel reaches past an edge.
        plain, lift, x1, b, _ = self._lifted_case(3)
        plain = replace(plain, experts=plain.experts[: len(kernels)])
        plain.router.weight = plain.router.weight[:, : len(kernels)]
        plain.router.bias = plain.router.bias[: len(kernels)]
        y_ref = explicit_lift_rfamoe(x1, lift, plain, b, 3, "unit")
        experts = plain.experts
        if broken == "constant_bias":
            experts = [ConvParams(e.weight, e.bias + e.weight.sum(axis=2) @ lift.bias) for e in experts]
        h0 = ad.conv1d(x1, lift.weight, lift.bias)
        source = (x1, lift.weight.reshape(-1, 1))
        y = rfamoe_forward(h0, replace(plain, experts=experts), (b, 3), "unit", source)
        close = np.allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
        assert close == (kernels == (1,))

    def test_single_map_fusion_degeneracy(self, rng):
        # B = C = 1: the cross-channel reshape is a no-op, so the output is
        # the residual plus the fusion conv applied to the gated body alone.
        params = self._params(rng, c=1)
        x = rng.standard_normal((1, 4, 6))
        out = rfamoe_forward(x, params, (1, 1), "unit")

        pooled = x.mean(axis=2)
        sel = int(np.argmax(pooled @ params.router.weight + params.router.bias))
        routed = naive_conv1d(x, params.experts[sel].weight, params.experts[sel].bias)
        h = ad.instance_norm(routed, params.in_gamma, params.in_beta)
        gated = ad.gelu(h[:, :2]) * h[:, 2:]
        body = naive_conv1d(gated, params.gate_proj.weight, params.gate_proj.bias)
        expected = naive_conv1d(body, params.fuse.weight, params.fuse.bias) + x
        npt.assert_allclose(out, expected, atol=1e-11)

    def test_hand_traced_identity_configuration(self):
        # E=1 identity pointwise expert, unit gamma/zero beta, hand-set gate
        # projection; every stage is small enough to write out by hand.
        l, t_len = 2, 3
        params = RFAMoEParams(
            experts=[ConvParams(weight=np.eye(l)[:, :, None], bias=np.zeros(l))],
            router=LinearParams(weight=np.zeros((l, 1)), bias=np.zeros(1)),
            in_gamma=np.ones(l),
            in_beta=np.zeros(l),
            gate_proj=ConvParams(weight=np.array([[[2.0]], [[-1.0]]]), bias=np.zeros(l)),
            fuse=ConvParams(weight=np.array([[[1.0], [1.0]], [[0.0], [1.0]]]), bias=np.array([0.5, 0.0])),
        )
        x = np.array([[[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]]])  # [1, L=2, T=3]

        # Stage by stage, by hand:
        ch0, ch1 = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
        n0 = (ch0 - 2.0) / math.sqrt(2.0 / 3.0 + 1e-5)
        n1 = (ch1 - 0.0) / math.sqrt(2.0 / 3.0 + 1e-5)
        gated = naive_gelu_vec(n0) * n1
        body0, body1 = 2.0 * gated, -1.0 * gated
        fused0 = body0 + body1 + 0.5
        fused1 = body1
        expected = np.stack([fused0 + ch0, fused1 + ch1])[None]
        npt.assert_allclose(rfamoe_forward(x, params, (1, 1), "unit"), expected, atol=1e-12)

    def test_shape_errors(self, rng):
        params = self._params(rng)
        with pytest.raises(ValueError, match="factor"):
            rfamoe_forward(rng.standard_normal((3, 4, 4)), params, (2, 2), "unit")
        odd = self._params(rng)
        odd.in_gamma = np.ones(3)
        odd.in_beta = np.zeros(3)
        with pytest.raises(ValueError, match="even"):
            rfamoe_forward(rng.standard_normal((4, 4, 4)), odd, (2, 2), "unit")
        with pytest.raises(ValueError, match="input width 2 differs from the block's width 4"):
            rfamoe_forward(rng.standard_normal((4, 2, 4)), params, (2, 2), "unit")
        x = rng.standard_normal((4, 4, 5))
        m = rng.standard_normal((4, 2))
        for z_shape, m in [((4, 2, 6), m), ((3, 2, 5), m), ((4, 3, 5), m), ((4, 2, 5), m[:3])]:
            with pytest.raises(ValueError, match=r"source z .* do not fit \[N, R, T\] = \[4, R, 5\]"):
                rfamoe_forward(x, params, (2, 2), "unit", (rng.standard_normal(z_shape), m))

    def test_unknown_gate_mode_rejected(self, rng):
        x = rng.standard_normal((4, 4, 6))
        with pytest.raises(ValueError, match=r"'soft' is not one of \('unit', 'raw'\)"):
            rfamoe_forward(x, self._params(rng), (2, 2), "soft")

    def test_every_parameter_gradient(self, rng):
        params = self._params(rng, kernels=(1, 3))
        x = rng.standard_normal((2, 4, 5))

        worst = 0.0
        for name, leaf in named_params(params):
            shape = np.asarray(leaf).shape

            def f(v, name=name, shape=shape):
                patched = replace_param(params, name, ad.reshape(v, shape))
                y = rfamoe_forward(x, patched, (1, 2), "unit")
                return ad.tsum(ad.mul(y, y))

            worst = max(worst, ad.finite_diff_check(f, np.asarray(leaf).ravel()))
        assert worst <= 1e-4


def naive_gelu_vec(v):
    return np.array([x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in v])


class TestBridge:
    def _identity_params(self, l=3, d_emb=4):
        film = LinearParams(
            weight=np.zeros((d_emb, 2 * l)), bias=np.concatenate([np.ones(l), np.zeros(l)])
        )
        from moediff.blocks import BridgeParams

        return BridgeParams(film=film)

    def test_identity_modulation(self, rng):
        h = rng.standard_normal((2, 3, 5))
        npt.assert_array_equal(bridge_forward(h, 3, self._identity_params()), h)

    def test_constant_collapse(self, rng):
        params = self._identity_params()
        params.film.bias = np.concatenate([np.zeros(3), np.full(3, 2.5)])
        out = bridge_forward(rng.standard_normal((2, 3, 5)), 1, params)
        npt.assert_allclose(out, 2.5, atol=1e-15)

    def test_direct_affine_arithmetic(self):
        from moediff.blocks import BridgeParams

        params = BridgeParams(
            film=LinearParams(weight=np.zeros((2, 2)), bias=np.array([2.0, -1.0]))
        )
        out = bridge_forward(np.array([[[3.0]]]), 1, params)
        npt.assert_allclose(out, [[[5.0]]], atol=1e-15)

    def test_matches_naive_oracle(self, rng):
        params = init_bridge(rng, 8, 4)
        params.film.weight = rng.standard_normal((8, 8))
        params.film.bias = rng.standard_normal(8)
        h = rng.standard_normal((3, 4, 6))
        for t in (1, 7, 40):
            npt.assert_allclose(bridge_forward(h, t, params), naive_bridge(h, t, params), atol=1e-12)
        # One step per feature map: each row is FiLMed with its own step.
        ts = np.array([40, 1, 7])
        out = bridge_forward(h, ts, params)
        for n, t in enumerate(ts):
            npt.assert_allclose(out[n : n + 1], naive_bridge(h[n : n + 1], t, params), atol=1e-12)
            npt.assert_allclose(out[n : n + 1], bridge_forward(h[n : n + 1], t, params), atol=1e-12)

    def test_affine_in_features(self, rng):
        params = init_bridge(rng, 6, 4)
        params.film.weight = rng.standard_normal((6, 8))
        params.film.bias = rng.standard_normal(8)
        h1, h2 = rng.standard_normal((2, 2, 4, 5))
        a, b = 0.7, -0.4
        beta_term = bridge_forward(np.zeros((2, 4, 5)), 3, params)
        lhs = bridge_forward(a * h1 + b * h2, 3, params)
        rhs = a * bridge_forward(h1, 3, params) + b * bridge_forward(h2, 3, params) + (
            1.0 - a - b
        ) * beta_term
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_film_parameter_gradients(self, rng):
        params = init_bridge(rng, 6, 4)
        h = rng.standard_normal((2, 4, 5))
        for name, leaf in named_params(params):
            shape = np.asarray(leaf).shape

            def f(v, name=name, shape=shape):
                y = bridge_forward(h, 2, replace_param(params, name, ad.reshape(v, shape)))
                return ad.tsum(ad.mul(y, y))

            assert ad.finite_diff_check(f, np.asarray(leaf).ravel()) <= 1e-4


class TestFusionMoE:
    # The oracle tests draw every bias (init_fusion's are zero), so a head
    # that drops its merged bias fails them.
    def test_one_hot_gates_select_expert(self, rng):
        params = random_affine(init_fusion(rng, 4, 3), rng)
        x = rng.standard_normal((2, 4, 6))
        for k in range(3):
            one_hot = np.zeros(3)
            one_hot[k] = 1.0
            out = fusion_moe_forward(x, params, gates_override=one_hot)
            w = params.experts[k].weight[0, :, 0]
            expected = w[None, :] @ x + params.experts[k].bias[0]
            npt.assert_allclose(out, expected, atol=1e-12)

    def test_single_expert_ignores_router(self, rng):
        params = init_fusion(rng, 4, 1)
        x = rng.standard_normal((2, 4, 6))
        out = fusion_moe_forward(x, params)
        params.router.weight = rng.standard_normal((4, 1)) * 100
        npt.assert_allclose(fusion_moe_forward(x, params), out, atol=1e-12)

    def test_uniform_gates_average_outputs(self, rng):
        # Linearity oracle: compute both experts separately, average.
        params = init_fusion(rng, 4, 2)
        x = rng.standard_normal((3, 4, 5))
        uniform = np.array([0.5, 0.5])
        fused = fusion_moe_forward(x, params, gates_override=uniform)
        separate = 0.5 * (
            fusion_moe_forward(x, params, gates_override=np.array([1.0, 0.0]))
            + fusion_moe_forward(x, params, gates_override=np.array([0.0, 1.0]))
        )
        npt.assert_allclose(fused, separate, atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        params = random_affine(init_fusion(rng, 5, 4), rng)
        x = rng.standard_normal((3, 5, 7))
        npt.assert_allclose(fusion_moe_forward(x, params), naive_fusion_moe(x, params), atol=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 99999))
    def test_fusing_weights_equals_fusing_outputs(self, seed):
        rng = np.random.default_rng(seed)
        k, l = int(rng.integers(1, 6)), 4
        params = init_fusion(rng, l, k)
        x = rng.standard_normal((3, l, 6))
        gates = rng.dirichlet(np.ones(k), size=3)
        fused = fusion_moe_forward(x, params, gates_override=gates)
        by_outputs = np.zeros_like(fused)
        for j in range(k):
            one_hot = np.zeros(k)
            one_hot[j] = 1.0
            per_expert = fusion_moe_forward(x, params, gates_override=one_hot)
            by_outputs += gates[:, j][:, None, None] * per_expert
        npt.assert_allclose(fused, by_outputs, atol=1e-10)

    def test_router_and_expert_gradients(self, rng):
        params = init_fusion(rng, 4, 3)
        x = rng.standard_normal((2, 4, 5))
        for name, leaf in named_params(params):
            shape = np.asarray(leaf).shape

            def f(v, name=name, shape=shape):
                y = fusion_moe_forward(x, replace_param(params, name, ad.reshape(v, shape)))
                return ad.tsum(ad.mul(y, y))

            assert ad.finite_diff_check(f, np.asarray(leaf).ravel()) <= 1e-4
