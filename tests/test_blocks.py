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
    Affine,
    RFAMoEParams,
    bridge_forward,
    fusion_moe_forward,
    init_bridge,
    init_fusion,
    init_pointwise,
    init_rfamoe,
    rfamoe_forward,
    route_top1,
    step_embedding,
)
from oracles import (
    conv_with_bias,
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


class TestRouteTop1:
    def test_argmax_selection(self):
        feats = np.array([[[0.1], [2.0], [-1.0]]])  # pooled -> the logits themselves
        idx, logits = route_top1(feats, np.eye(3))
        assert idx.tolist() == [1]
        npt.assert_array_equal(logits, [[0.1, 2.0, -1.0]])

    def test_tie_breaks_to_lowest_index(self):
        feats = np.array([[[2.0], [2.0], [0.0]]])
        idx, _ = route_top1(feats, np.eye(3))
        assert idx.tolist() == [0]

    def test_zero_router_selects_expert_zero(self, rng):
        feats = rng.standard_normal((5, 4, 6))
        idx, _ = route_top1(feats, np.zeros((4, 3)))
        assert idx.tolist() == [0] * 5


class TestRFAMoE:
    def _params(self, rng, l=4, c=2, kernels=(1, 3)):
        return init_rfamoe(rng, l, c, kernels)

    def test_zero_body_is_residual_identity(self, rng):
        params = self._params(rng)
        for name, _ in named_params(params):
            params = replace_param(params, name, np.zeros_like(dict(named_params(params))[name]))
        x = rng.standard_normal((4, 4, 6))
        npt.assert_array_equal(rfamoe_forward(x, params), x)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = random_affine(self._params(rng, kernels=(1, 3, 5)), rng)
        x = rng.standard_normal((4, 4, 7))
        npt.assert_allclose(
            rfamoe_forward(x, params), naive_rfamoe(x, params, 2, 2), atol=1e-10
        )

    def test_router_stays_off_the_tape(self, rng):
        g = ad.Graph()
        params = lift_params(g, self._params(rng))
        rfamoe_forward(g.leaf(rng.standard_normal((4, 4, 6))), params)
        consumed = {i for node in g.nodes for i in node.inputs}
        assert params.router.id not in consumed
        assert not {"mean", "softmax"} & {node.op for node in g.nodes}

    def test_one_scatter_per_call(self):
        # The active experts' outputs go back in place through a single
        # scatter; no per-expert full-size tensor is summed.
        rng = np.random.default_rng(5)
        plain = self._params(rng, c=3, kernels=(1, 3, 5))
        plain.router = 3.0 * rng.standard_normal((4, 3))
        x = rng.standard_normal((12, 4, 6))
        sel, _ = route_top1(x, plain.router)
        active = len(np.unique(sel))
        assert active >= 2
        g = ad.Graph()
        rfamoe_forward(g.leaf(x), lift_params(g, plain))
        ops = [node.op for node in g.nodes]
        assert ops.count("scatter_rows") == 1
        assert ops.count("take_rows") == active
        # One conv per active expert and one composed pointwise conv.
        assert ops.count("conv1d") == active + 1
        # The composed bias, its add to the pointwise conv, and the residual.
        assert ops.count("add") == 3

    @pytest.mark.parametrize("with_source", [True, False], ids=["source", "no_source"])
    def test_source_is_composed_by_one_conv_per_active_expert(self, with_source):
        # Given a lifted source (z, m), each active expert's kernel W
        # [L, L, S] is composed with m [R, L, 1] by one conv1d(W, m), which
        # is sum_l m[r, l] * W[o, l, s]. A call with no source, as at every
        # level after the first, composes no kernel.
        plain, lift, x1, b, _ = self._lifted_case(3)
        g = ad.Graph()
        params, lift = lift_params(g, [plain, lift])
        x1 = g.leaf(x1)
        source = self._source(x1, lift)
        h0 = conv_with_bias(x1, lift)
        rfamoe_forward(h0, params, source if with_source else None)
        experts = {w.id: ad.value_of(w) for w in params.experts}
        composing = [node for node in g.nodes if node.op == "conv1d" and node.inputs[0] in experts]
        sel, _ = route_top1(h0, plain.router)
        assert len(composing) == (len(np.unique(sel)) if with_source else 0)
        m = ad.value_of(source[1])
        for node in composing:
            assert node.inputs[1] == source[1].id
            want = np.einsum("rl,ols->ors", m[:, :, 0], experts[node.inputs[0]])
            npt.assert_allclose(node.value, want, rtol=0, atol=1e-13)

    def test_norm_cancels_a_constant_on_the_routed_output(self, rng, monkeypatch):
        # Why the routed experts carry no bias: the instance norm after them
        # subtracts each map's time mean, so a per-feature constant [L]
        # added to the routed output cannot move the block's output.
        params = random_affine(self._params(rng, kernels=(1, 3, 5)), rng)
        x = rng.standard_normal((4, 4, 7))
        y = rfamoe_forward(x, params)
        shift = 10.0 * rng.standard_normal((4, 1))
        scatter, calls = ad.scatter_rows, []

        def shifted_scatter(a, idx, n):
            calls.append(n)
            return ad.add(scatter(a, idx, n), shift)

        monkeypatch.setattr(ad, "scatter_rows", shifted_scatter)
        npt.assert_allclose(rfamoe_forward(x, params), y, rtol=0, atol=1e-12)
        assert calls == [4]

    @pytest.mark.parametrize("c", [1, 3])
    def test_matches_two_conv_reference(self, c):
        # The composed pointwise conv against gate_proj then fuse as two
        # convolutions: same output and the same gradient for every block
        # parameter, within 1e-12 of the largest gradient.
        rng = np.random.default_rng(10 + c)
        plain = self._params(rng, l=6, c=c, kernels=(1, 3, 5))
        plain.router = 3.0 * rng.standard_normal((6, 3))
        for conv in [plain.gate_proj, plain.fuse]:
            conv.bias = rng.standard_normal(conv.bias.shape)
        x = rng.standard_normal((2 * c, 6, 9))
        probe = rng.standard_normal(x.shape)

        def run(forward):
            g = ad.Graph()
            params = lift_params(g, plain)
            y = forward(g.leaf(x), params, 2, c)
            grads = ad.backward(g, ad.tsum(ad.mul(y, probe)))
            return y.value, {n: grads.get(v.id, 0.0) for n, v in named_params(params)}

        y, grads = run(lambda x, p, b, c: rfamoe_forward(x, p))
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
        rng = np.random.default_rng({1: 9, 3: 10}[c])
        plain = self._params(rng, l=6, c=c, kernels=(1, 3, 7))
        plain.router = 3.0 * rng.standard_normal((6, 3))
        lift = init_pointwise(rng, 6, 1)
        lift.bias = rng.standard_normal(6)
        for conv in [plain.gate_proj, plain.fuse]:
            conv.bias = rng.standard_normal(conv.bias.shape)
        b = 4 // c + 1
        x1 = rng.standard_normal((b * c, 1, 9)) + np.linspace(-3.0, 3.0, b * c)[:, None, None]
        probe = rng.standard_normal((b * c, 6, 9))
        return plain, lift, x1, b, probe

    def _run_lifted(self, forward, c):
        plain, lift, x1, b, probe = self._lifted_case(c)
        g = ad.Graph()
        tree = lift_params(g, [plain, lift])
        y = forward(g.leaf(x1), tree[1], tree[0], b, c)
        grads = ad.backward(g, ad.tsum(ad.mul(y, probe)))
        return y.value, {n: grads.get(v.id, 0.0) for n, v in named_params(tree)}

    @staticmethod
    def _source(x1, lift):
        # z = [x1, 1] and m [2, L, 1] with rows w and b, so the block
        # input is sum_r m[r, :, 0] * z[:, r].
        z = ad.concat([x1, np.ones(ad.value_of(x1).shape)], axis=1)
        m = ad.concat([ad.reshape(p, (1, -1, 1)) for p in (lift.weight, lift.bias)], axis=0)
        return z, m

    def _with_source(self, x1, lift, params, b, c):
        return rfamoe_forward(conv_with_bias(x1, lift), params, self._source(x1, lift))

    @pytest.mark.parametrize("c", [1, 3])
    def test_lifted_source_matches_explicit_lift(self, c):
        # The experts on the raw signal with the lift composed into their
        # weights against the block on the lifted maps: the same output
        # and the same gradient for every block parameter and for the
        # lift's weight and bias, within 1e-12 of the largest gradient.
        plain, lift, x1, _, _ = self._lifted_case(c)
        sel, _ = route_top1(conv_with_bias(x1, lift), plain.router)
        assert set(sel) == {0, 1, 2}
        y, grads = self._run_lifted(self._with_source, c)
        y_ref, grads_ref = self._run_lifted(explicit_lift_rfamoe, c)
        npt.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
        scale = max(np.abs(g).max() for g in grads_ref.values())
        assert set(grads) == set(grads_ref)
        for name, g_ref in grads_ref.items():
            npt.assert_allclose(grads[name], g_ref, rtol=1e-12, atol=1e-12 * scale, err_msg=name)
        assert np.all(grads["1.weight"] != 0.0) and np.all(grads["1.bias"] != 0.0)

    # A lift bias added to each expert as a constant (as if the lifted maps
    # were padded with it) was the other wrong source; the experts have no
    # bias to carry it, and the norm would cancel it as it cancels no_bias's.
    @pytest.mark.parametrize("broken", ["no_bias"])
    @pytest.mark.parametrize("kernels", [(1,), (1, 3, 7)])
    def test_explicit_lift_reference_catches_edge_errors(self, broken, kernels):
        # A wrong source: the lift bias dropped. Away from the edges it
        # differs from the block on the lifted maps by a per-map constant,
        # which the instance norm cancels; so it passes with kernel 1 and
        # fails once a kernel reaches past an edge.
        plain, lift, x1, b, _ = self._lifted_case(3)
        plain = replace(plain, experts=plain.experts[: len(kernels)])
        plain.router = plain.router[:, : len(kernels)]
        y_ref = explicit_lift_rfamoe(x1, lift, plain, b, 3)
        h0 = conv_with_bias(x1, lift)
        source = (x1, lift.weight.reshape(1, -1, 1))
        y = rfamoe_forward(h0, plain, source)
        close = np.allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
        assert close == (kernels == (1,))

    def test_single_map_fusion_degeneracy(self, rng):
        # B = C = 1: the cross-channel reshape is a no-op, so the output is
        # the residual plus the fusion conv applied to the gated body alone.
        params = self._params(rng, c=1)
        x = rng.standard_normal((1, 4, 6))
        out = rfamoe_forward(x, params)

        pooled = x.mean(axis=2)
        sel = int(np.argmax(pooled @ params.router))
        routed = naive_conv1d(x, params.experts[sel], np.zeros(4))
        h = ad.instance_norm(routed, params.in_gamma, params.in_beta)
        gated = ad.gelu(h[:, :2]) * h[:, 2:]
        body = naive_conv1d(gated, params.gate_proj.weight[:, :, None], params.gate_proj.bias)
        expected = naive_conv1d(body, params.fuse.weight[:, :, None], params.fuse.bias) + x
        npt.assert_allclose(out, expected, atol=1e-11)

    def test_hand_traced_identity_configuration(self):
        # E=1 identity pointwise expert, unit gamma/zero beta, hand-set gate
        # projection; every stage is small enough to write out by hand.
        l, t_len = 2, 3
        params = RFAMoEParams(
            experts=[np.eye(l)[:, :, None]],
            router=np.zeros((l, 1)),
            in_gamma=np.ones(l),
            in_beta=np.zeros(l),
            gate_proj=Affine(weight=np.array([[2.0], [-1.0]]), bias=np.zeros(l)),
            fuse=Affine(weight=np.array([[1.0, 1.0], [0.0, 1.0]]), bias=np.array([0.5, 0.0])),
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
        npt.assert_allclose(rfamoe_forward(x, params), expected, atol=1e-12)

    def test_shape_errors(self, rng):
        params = self._params(rng)
        with pytest.raises(ValueError, match="N=3 maps is not a multiple of the block's C=2 channels"):
            rfamoe_forward(rng.standard_normal((3, 4, 4)), params)
        odd = self._params(rng)
        odd.in_gamma = np.ones(3)
        odd.in_beta = np.zeros(3)
        with pytest.raises(ValueError, match="even"):
            rfamoe_forward(rng.standard_normal((4, 4, 4)), odd)
        with pytest.raises(ValueError, match="input width 2 differs from the block's width 4"):
            rfamoe_forward(rng.standard_normal((4, 2, 4)), params)
        x = rng.standard_normal((4, 4, 5))
        m = rng.standard_normal((2, 4, 1))
        fit = r"do not fit \[N, R, T\] = \[4, R, 5\] and \[R, L, 1\] = \[R, 4, 1\]"
        for z_shape, m in [
            ((4, 2, 6), m), ((3, 2, 5), m), ((4, 3, 5), m), ((4, 2, 5), m[:, :3]), ((4, 2, 5), m[:, :, 0]),
            ((4, 2, 5), np.repeat(m, 3, axis=2)),
        ]:
            with pytest.raises(ValueError, match=fit):
                rfamoe_forward(x, params, (rng.standard_normal(z_shape), m))

    def test_channels_come_from_the_fuse_map(self, rng):
        # fuse is [C*L, C*L], so a block built for C = 3 rejects N = 4 maps
        # and reads N = 6 as B = 2 samples of 3 channels.
        params = random_affine(self._params(rng, c=3, kernels=(1, 3, 5)), rng)
        with pytest.raises(ValueError, match="N=4 maps is not a multiple of the block's C=3 channels"):
            rfamoe_forward(rng.standard_normal((4, 4, 5)), params)
        x = rng.standard_normal((6, 4, 5))
        npt.assert_allclose(rfamoe_forward(x, params), naive_rfamoe(x, params, 2, 3), atol=1e-10)

    def test_every_parameter_gradient(self, rng):
        params = self._params(rng, kernels=(1, 3))
        x = rng.standard_normal((2, 4, 5))

        worst = 0.0
        for name, leaf in named_params(params):
            shape = np.asarray(leaf).shape

            def f(v, name=name, shape=shape):
                patched = replace_param(params, name, ad.reshape(v, shape))
                y = rfamoe_forward(x, patched)
                return ad.tsum(ad.mul(y, y))

            worst = max(worst, ad.finite_diff_check(f, np.asarray(leaf).ravel()))
        assert worst <= 1e-4


def naive_gelu_vec(v):
    return np.array([x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in v])


class TestBridge:
    def _identity_params(self, l=3, d_emb=4):
        return Affine(weight=np.zeros((d_emb, 2 * l)), bias=np.concatenate([np.ones(l), np.zeros(l)]))

    def test_identity_modulation(self, rng):
        h = rng.standard_normal((2, 3, 5))
        npt.assert_array_equal(bridge_forward(h, 3, self._identity_params()), h)

    def test_constant_collapse(self, rng):
        params = self._identity_params()
        params.bias = np.concatenate([np.zeros(3), np.full(3, 2.5)])
        out = bridge_forward(rng.standard_normal((2, 3, 5)), 1, params)
        npt.assert_allclose(out, 2.5, atol=1e-15)

    def test_direct_affine_arithmetic(self):
        params = Affine(weight=np.zeros((2, 2)), bias=np.array([2.0, -1.0]))
        out = bridge_forward(np.array([[[3.0]]]), 1, params)
        npt.assert_allclose(out, [[[5.0]]], atol=1e-15)

    def test_matches_naive_oracle(self, rng):
        params = init_bridge(rng, 8, 4)
        params.weight = rng.standard_normal((8, 8))
        params.bias = rng.standard_normal(8)
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
        params.weight = rng.standard_normal((6, 8))
        params.bias = rng.standard_normal(8)
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
            w = params.experts[k].weight[0]
            expected = w[None, :] @ x + params.experts[k].bias[0]
            npt.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 5])
    def test_records_no_per_expert_reshape(self, rng, k):
        # The experts' [1, L] weights and [1] biases are joined as they are
        # stored, so the head records three reshapes whatever K is: the
        # joined biases, the merged weight and the merged bias.
        g = ad.Graph()
        params = lift_params(g, init_fusion(rng, 4, k))
        fusion_moe_forward(g.leaf(rng.standard_normal((3, 4, 5))), params)
        assert [node.op for node in g.nodes].count("reshape") == 3

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
