"""Tensor primitives: forward values against naive oracles, tape gradients
against central finite differences, and the structural graph contracts."""

import math
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import moediff.autodiff as ad
from moediff.backbone import init_backbone
from moediff.config import RunConfig
from moediff.diffusion import make_schedule, train_step
from oracles import (
    dense_backward,
    naive_conv1d,
    out_of_place_gelu_backward,
    two_pass_instance_norm,
    two_pass_instance_norm_backward,
)


def _sq_sum(y):
    return ad.tsum(ad.mul(y, y))


def _conv(x, w, b, padding):
    """conv1d plus a per-output-channel bias, added as the model adds it;
    with ``padding="valid"`` only its output columns whose kernel window
    lies inside the signal, which is the unpadded cross-correlation that
    ``naive_conv1d(..., "valid")`` computes."""
    out = ad.add(ad.conv1d(x, w), ad.reshape(b, (-1, 1)))
    if padding == "same":
        return out
    p, t = (ad.value_of(w).shape[2] - 1) // 2, ad.value_of(x).shape[2]
    return ad.slice_axis(out, 2, p, t - p)


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------


# conv1d picks its contraction from the operand shapes (autodiff._tap_sum):
# 3->4 at S > 1 runs the unfolded GEMM, 4->3, 3->3 and 1->4 at S = 1 the
# per-tap sum; a 4->3 conv's dx is a 3->4 tap sum.
CHANNEL_PAIRS = ((3, 4), (4, 3), (3, 3), (1, 4))


def _over_channel_pairs(cases, s_at):
    """Each case tuple as a pytest param under every channel pair, 1->4 only
    where the kernel size ``case[s_at]`` is 1. The 3->4 ids are the bare
    case; the others end in ``-<Cin>to<Cout>``."""
    params = []
    for c_in, c_out in CHANNEL_PAIRS:
        tag = "" if (c_in, c_out) == (3, 4) else f"-{c_in}to{c_out}"
        params += [
            pytest.param(c_in, c_out, *case, id="-".join(map(str, case)) + tag)
            for case in cases
            if c_in > 1 or case[s_at] == 1
        ]
    return params


class TestConv1d:
    def test_identity_kernel(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        out = ad.conv1d(x, np.array([[[1.0]]]))
        npt.assert_array_equal(out, x)

    def test_scaling_kernel(self):
        out = ad.conv1d(np.array([[[1.0, 2.0, 3.0]]]), np.array([[[2.0]]]))
        npt.assert_array_equal(out, [[[2.0, 4.0, 6.0]]])

    def test_box_kernel_same_padding(self):
        # Expected values computed with the nested-loop oracle.
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0, 1.0, 1.0]]])
        b = np.array([0.0])
        npt.assert_array_equal(naive_conv1d(x, w, b), [[[3.0, 6.0, 5.0]]])
        npt.assert_allclose(ad.conv1d(x, w), [[[3.0, 6.0, 5.0]]], rtol=0, atol=0)

    @pytest.mark.parametrize(
        "c_in, c_out, s, padding",
        _over_channel_pairs([(s, p) for s in (1, 3, 5) for p in ("same", "valid")], s_at=0),
    )
    def test_matches_naive_oracle(self, rng, c_in, c_out, s, padding):
        x = rng.standard_normal((2, c_in, 9))
        w = rng.standard_normal((c_out, c_in, s))
        b = rng.standard_normal(c_out)
        npt.assert_allclose(_conv(x, w, b, padding), naive_conv1d(x, w, b, padding), atol=1e-12)

    @pytest.mark.parametrize(
        "c_in, c_out, padding, s, t",
        _over_channel_pairs([("same", 5, 3), ("same", 7, 2), ("same", 3, 1), ("valid", 5, 5)], s_at=1),
    )
    def test_kernel_as_long_as_or_longer_than_signal_matches_naive_oracle(self, rng, c_in, c_out, padding, s, t):
        x = rng.standard_normal((2, c_in, t))
        w = rng.standard_normal((c_out, c_in, s))
        b = rng.standard_normal(c_out)
        npt.assert_allclose(_conv(x, w, b, padding), naive_conv1d(x, w, b, padding), atol=1e-12)

    @pytest.mark.parametrize("c_in, s, t", [(1, 1, 9), (1, 3, 9), (2, 5, 9), (2, 27, 40), (2, 7, 2)])
    def test_unfolded_and_per_tap_sums_agree(self, rng, c_in, s, t):
        # The same conv widened with zero input channels to Cin = Cout takes
        # the per-tap sum; the narrow one takes the unfolded GEMM at S > 1
        # and at Cin = S = 1 a one-term matmul, which adds no rounding.
        x = rng.standard_normal((3, c_in, t))
        w = rng.standard_normal((6, c_in, s))
        wide_x = np.concatenate([x, np.zeros((3, 6 - c_in, t))], axis=1)
        wide_w = np.concatenate([w, np.zeros((6, 6 - c_in, s))], axis=1)
        narrow, wide = ad.conv1d(x, w), ad.conv1d(wide_x, wide_w)
        if s == 1:
            npt.assert_array_equal(narrow, wide)
        npt.assert_allclose(narrow, wide, rtol=0, atol=1e-12)

    # Kernel sizes 1, 3 and 5, over the whole output and over its valid
    # columns alone (the loss then sees no zero-padded column), and
    # kernels longer than the signal (every tap then overhangs an edge).
    GRAD_CASES = _over_channel_pairs(
        [(p, s, 7) for p in ("same", "valid") for s in (1, 3, 5)] + [("same", 5, 3), ("same", 7, 2)], s_at=1
    )

    @pytest.mark.parametrize("c_in, c_out, padding, s, t", GRAD_CASES)
    @pytest.mark.parametrize("wrt", ["input", "weight", "bias"])
    def test_gradient_matches_finite_differences(self, rng, c_in, c_out, padding, s, t, wrt):
        args = {
            "input": rng.standard_normal((2, c_in, t)),
            "weight": rng.standard_normal((c_out, c_in, s)),
            "bias": rng.standard_normal(c_out),
        }

        def f(v):
            a = {**args, wrt: v}
            return _sq_sum(_conv(a["input"], a["weight"], a["bias"], padding))

        # The loss is quadratic in each argument, so central differences
        # are exact up to rounding.
        assert ad.finite_diff_check(f, args[wrt]) <= 1e-6

    def test_tape_holds_no_array(self, rng):
        for c_in, c_out in CHANNEL_PAIRS:
            g = ad.Graph()
            x = g.leaf(rng.standard_normal((2, c_in, 8)))
            out = ad.conv1d(x, rng.standard_normal((c_out, c_in, 5 if c_in > 1 else 1)))
            node = g.nodes[out.id]
            assert node.op == "conv1d"
            assert not any(isinstance(v, np.ndarray) for v in node.ctx.values()), node.ctx.keys()

    @pytest.mark.parametrize("s", [0, 2])
    def test_even_kernel_rejected(self, s):
        # Same padding is symmetric, (S-1)/2 zeros on each side, so S must be odd.
        with pytest.raises(ValueError, match=f"kernel size must be odd for same padding, got {s}"):
            ad.conv1d(np.zeros((1, 1, 3)), np.zeros((1, 1, s)))

    def test_shape_mismatch_names_axis(self):
        with pytest.raises(ValueError, match="channel axis"):
            ad.conv1d(np.zeros((1, 2, 5)), np.zeros((1, 3, 1)))

    @settings(max_examples=40, deadline=None)
    @given(
        x=arrays(np.float64, (1, 1, 6), elements=st.floats(-5, 5)),
        y=arrays(np.float64, (1, 1, 6), elements=st.floats(-5, 5)),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    def test_linear_in_input(self, x, y, a, b):
        w = np.array([[[0.5, -1.0, 2.0]]])
        lhs = ad.conv1d(a * x + b * y, w)
        rhs = a * ad.conv1d(x, w) + b * ad.conv1d(y, w)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_linear_in_weight(self, rng):
        x = rng.standard_normal((2, 2, 8))
        w1 = rng.standard_normal((3, 2, 3))
        w2 = rng.standard_normal((3, 2, 3))
        lhs = ad.conv1d(x, 2.0 * w1 - 0.5 * w2)
        rhs = 2.0 * ad.conv1d(x, w1) - 0.5 * ad.conv1d(x, w2)
        npt.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# instance_norm, gelu, softmax
# ---------------------------------------------------------------------------


class TestInstanceNorm:
    def test_constant_input_zeros(self):
        x = np.full((2, 3, 5), 4.2)
        out = ad.instance_norm(x, np.ones(3), np.zeros(3))
        npt.assert_allclose(out, 0.0, atol=1e-12)

    def test_affine_collapse(self, rng):
        x = rng.standard_normal((2, 3, 5))
        out = ad.instance_norm(x, np.zeros(3), np.full(3, 7.5))
        npt.assert_allclose(out, 7.5, atol=1e-12)

    def test_two_point_slice(self):
        # mean 0, population variance 1 -> 1/sqrt(1 + 1e-5).
        x = np.array([[[1.0, -1.0]]])
        out = ad.instance_norm(x, np.ones(1), np.zeros(1))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        npt.assert_allclose(out, [[[expected, -expected]]], atol=1e-12)
        npt.assert_allclose(out[0, 0, 0], 0.999995, atol=1e-6)

    def test_normalized_moments(self, rng):
        x = rng.standard_normal((3, 2, 64))
        out = ad.instance_norm(x, np.ones(2), np.zeros(2))
        var = x.var(axis=2)
        npt.assert_allclose(out.mean(axis=2), 0.0, atol=1e-10)
        npt.assert_allclose(out.var(axis=2), var / (var + 1e-5), atol=1e-12)

    def test_short_time_axis_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            ad.instance_norm(np.zeros((1, 1, 1)), np.ones(1), np.zeros(1))

    @pytest.mark.parametrize("shape", [(1, 1, 2), (3, 2, 2), (2, 3, 7), (4, 8, 64), (6, 16, 33), (8, 32, 500)])
    def test_bit_identical_to_two_pass_formulas(self, rng, shape):
        # One centred copy, scaled in place, gives the same bits as np.var's
        # own pass, forward and backward.
        x = rng.standard_normal(shape) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0)
        gamma, beta = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        g = ad.Graph()
        out = ad.instance_norm(g.leaf(x), g.leaf(gamma), g.leaf(beta))
        node = g.nodes[out.id]
        ref, ref_xhat, ref_inv = two_pass_instance_norm(x, gamma, beta)
        npt.assert_array_equal(out.value, ref)
        npt.assert_array_equal(node.ctx["xhat"], ref_xhat)
        npt.assert_array_equal(node.ctx["inv"], ref_inv)
        npt.assert_array_equal(ad.instance_norm(x, gamma, beta), ref)

        grad = rng.standard_normal(shape)
        got = ad._bwd_instance_norm(node, grad, [x, gamma, beta])
        for a, b in zip(got, two_pass_instance_norm_backward(grad, gamma, ref_xhat, ref_inv)):
            npt.assert_array_equal(a, b)

    def test_backward_allocates_little_beyond_dx(self, rng):
        # A train-wide map: dx is made in place, a block of samples at a
        # time, in two block-sized temporaries (1 MiB in all); the
        # whole-map form peaks at three maps.
        shape = (24, 32, 500)
        x, grad = rng.standard_normal(shape), rng.standard_normal(shape)
        g = ad.Graph()
        out = ad.instance_norm(g.leaf(x), g.leaf(np.ones(32)), g.leaf(np.zeros(32)))
        node, size = g.nodes[out.id], x.nbytes
        tracemalloc.start()
        try:
            dx, _, _ = ad._bwd_instance_norm(node, grad, [x, np.ones(32), np.zeros(32)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, f"the rule peaked at {peak / size:.2f} maps"


class TestGelu:
    def test_zero(self):
        assert float(ad.gelu(np.asarray(0.0))) == 0.0

    def test_saturates_for_large_input(self):
        npt.assert_allclose(ad.gelu(np.asarray(10.0)), 10.0, atol=1e-12)

    def test_at_one_matches_erf_oracle(self):
        expected = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        npt.assert_allclose(ad.gelu(np.asarray(1.0)), expected, atol=1e-15)
        npt.assert_allclose(expected, 0.8413447, atol=1e-7)

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: np.asarray(r.standard_normal()),
            lambda r: r.standard_normal((6, 4, 16)),
            lambda r: r.standard_normal((6, 8, 16))[:, :4],  # the gated half rfamoe_forward passes
        ],
        ids=["0d", "contiguous", "half-slice"],
    )
    def test_rule_bit_identical_to_out_of_place_form(self, rng, make):
        x = make(rng) * 3.0
        g = ad.Graph()
        node = g.nodes[ad.gelu(g.leaf(x)).id]
        grad = rng.standard_normal(x.shape)
        (got,) = ad._bwd_gelu(node, grad, [x])
        npt.assert_array_equal(got, out_of_place_gelu_backward(grad, x, node.ctx["phi"]))

    def test_rule_allocates_only_its_output(self, rng):
        # The half-slice of a train-wide map; the out-of-place form peaks
        # at two outputs' worth.
        x = rng.standard_normal((24, 32, 500))[:, :16]
        g = ad.Graph()
        node = g.nodes[ad.gelu(g.leaf(x)).id]
        grad = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            (out,) = ad._bwd_gelu(node, grad, [x])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.nbytes, f"the rule peaked at {peak / out.nbytes:.2f} outputs"


def _erf_cdf(v):
    return 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))


class TestNormalCdf:
    ATOL = 4.5e-16  # 2 ulp at 1

    def test_matches_erf_oracle(self):
        # 7.07 is where Hart's rational is stated to end; the model uses it past there.
        special = [0.0, -0.0, 1e-300, -1e-300, 7.07, -7.07, 7.08, -7.08]
        x = np.concatenate([np.linspace(-40.0, 40.0, 400_001), special])
        expected = np.array([_erf_cdf(v) for v in x])
        npt.assert_allclose(ad._normal_cdf(x), expected, rtol=0.0, atol=self.ATOL)

    def test_infinities_and_nan(self):
        out = ad._normal_cdf(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == 1.0 and out[1] == 0.0 and np.isnan(out[2])

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: np.asarray(r.standard_normal()),
            lambda r: np.empty((0, 4)),
            lambda r: r.standard_normal((6, 8, 16))[:, :4],  # the gated half rfamoe_forward passes
            lambda r: r.standard_normal((16, 6)).T,
        ],
        ids=["0d", "empty", "half-slice", "transposed"],
    )
    def test_layout_does_not_change_values(self, rng, make):
        x = make(rng)
        out = ad._normal_cdf(x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        npt.assert_array_equal(out.reshape(-1), ad._normal_cdf(np.ascontiguousarray(x).reshape(-1)))


class TestSoftmax:
    def test_uniform_on_constant(self):
        npt.assert_allclose(ad.softmax(np.array([3.3, 3.3, 3.3])), 1.0 / 3.0, atol=1e-15)

    def test_stabilized_limit(self):
        npt.assert_allclose(ad.softmax(np.array([1000.0, 0.0])), [1.0, 0.0], atol=1e-12)

    def test_closed_form(self):
        npt.assert_allclose(
            ad.softmax(np.array([0.0, math.log(2.0)])), [1.0 / 3.0, 2.0 / 3.0], atol=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(x=arrays(np.float64, (3, 5), elements=st.floats(-30, 30)))
    def test_slices_sum_to_one(self, x):
        out = ad.softmax(x)
        npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(x=arrays(np.float64, (6,), elements=st.floats(-20, 20)), seed=st.integers(0, 999))
    def test_permutation_equivariant(self, x, seed):
        perm = np.random.default_rng(seed).permutation(6)
        npt.assert_allclose(ad.softmax(x)[perm], ad.softmax(x[perm]), atol=1e-12)


# ---------------------------------------------------------------------------
# graph / backward contracts
# ---------------------------------------------------------------------------


class TestSliceAxis:
    def test_plain_and_tape_slices_are_views(self, rng):
        # On and off the tape a slice is a view of its input, so the ops
        # after it (gelu, mul, reshape) read the same layout either way.
        a = rng.standard_normal((3, 6, 5))
        plain = ad.slice_axis(a, 1, 3, 6)
        taped = ad.slice_axis(ad.Graph().leaf(a), 1, 3, 6).value
        npt.assert_array_equal(plain, taped)
        npt.assert_array_equal(plain, a[:, 3:])
        assert np.shares_memory(plain, a) and np.shares_memory(taped, a)


# Each op with the rows of its input: every index below names rows of a
# 5-row tensor, the gathered input or the scattered output.
ROW_OPS = {
    "take_rows": (5, ad.take_rows),
    "scatter_rows": (2, lambda a, idx: ad.scatter_rows(a, idx, 5)),
}


class TestRowContract:
    # The routed gather and scatter move distinct rows only, as routing
    # hands them; their backward rules rely on it, so anything else is
    # rejected on and off the tape, naming the op.
    @pytest.mark.parametrize("taped", [False, True], ids=["plain", "taped"])
    @pytest.mark.parametrize(
        "idx",
        [[1, 1], [-1, 4], [0, 5], [[0, 1]]],
        ids=["repeated", "aliasing_negative", "out_of_range", "two_d"],
    )
    @pytest.mark.parametrize("op", sorted(ROW_OPS))
    def test_rejects_all_but_distinct_rows(self, rng, op, idx, taped):
        rows, apply = ROW_OPS[op]
        a = rng.standard_normal((rows, 3))
        with pytest.raises(ValueError, match=f"^{op}: rows must be"):
            apply(ad.Graph().leaf(a) if taped else a, idx)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        g = ad.Graph()
        x = g.leaf(np.array([1.0, 2.0, 3.0]))
        grads = ad.backward(g, ad.tsum(x))
        npt.assert_array_equal(grads[x.id], [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        g = ad.Graph()
        x = g.leaf(np.array([1.0, 2.0]))
        grads = ad.backward(g, ad.tsum(ad.mul(x, x)))
        npt.assert_array_equal(grads[x.id], [2.0, 4.0])

    def test_fanout_accumulates(self):
        g = ad.Graph()
        x = g.leaf(np.array([3.0]))
        y = ad.add(ad.mul(x, x), ad.mul(x, 5.0))  # x^2 + 5x
        grads = ad.backward(g, ad.tsum(y))
        npt.assert_allclose(grads[x.id], [11.0])

    def test_non_scalar_loss_rejected(self):
        g = ad.Graph()
        x = g.leaf(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(g, ad.mul(x, x))

    def test_untouched_leaf_absent(self):
        g = ad.Graph()
        x = g.leaf(np.ones(2))
        unused = g.leaf(np.ones(2))
        grads = ad.backward(g, ad.tsum(x))
        assert unused.id not in grads

    def test_node_ids_topologically_ordered(self):
        g = ad.Graph()
        x = g.leaf(np.ones(4))
        y = ad.gelu(ad.mul(x, x))
        ad.tsum(y)
        for nid, node in enumerate(g.nodes):
            assert all(i < nid for i in node.inputs)

    def test_mixed_graphs_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        with pytest.raises(ValueError, match="different graphs"):
            ad.add(g1.leaf(np.ones(2)), g2.leaf(np.ones(2)))

    def test_peak_memory_stays_near_two_gradients(self):
        # A 20-op chain of 1 MiB arrays, each y + y: keeping every
        # intermediate gradient would peak near 21 MiB; dropping each once
        # its rule has run leaves about two alive at a time (the incoming
        # gradient and the sum of its two shares).
        size = 1 << 20
        g = ad.Graph()
        x = g.leaf(np.ones(size // 8))
        y = x
        for _ in range(20):
            y = ad.add(y, y)
        loss = ad.tsum(y)
        tracemalloc.start()
        try:
            grads = ad.backward(g, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(grads) == {x.id}
        npt.assert_array_equal(grads[x.id], np.full(size // 8, 2.0**20))
        assert peak < 3 * size, f"backward peaked at {peak / size:.1f} MiB"

    @pytest.mark.parametrize(
        "parts",
        [
            lambda a, b: [ad.take_rows(a, [3, 0]), ad.add(a, b)],
            lambda a, b: [ad.slice_axis(a, 1, 1, 3), ad.take_rows(b, [0, 3, 1, 2]), ad.add(a, b)],
            lambda a, b: [ad.take_rows(a, [4, 1, 2]), ad.add(a, a), b],
        ],
        ids=["take_rows_input_feeds_add", "add_shares_grad_with_sliced_inputs", "add_of_itself_then_gather"],
    )
    def test_sparse_rules_match_dense_oracle(self, rng, parts):
        # A gather or slice adds its rows into the input's gradient in
        # place. Here that gradient already holds an array that ``add``
        # handed to both of its inputs (a view of one shared array), so an
        # in-place add without a copy would corrupt the other input.
        g = ad.Graph()
        x = g.leaf(rng.standard_normal((5, 4)))
        c1, c2 = rng.standard_normal((2, 5, 4))
        parts = parts(ad.mul(x, c1), ad.mul(x, c2))
        loss = ad.tsum(ad.concat([ad.reshape(ad.mul(p, p), (-1,)) for p in parts]))
        ref = dense_backward(g, loss)  # before backward, which consumes the graph
        grads = ad.backward(g, loss)
        assert x.id in grads
        assert set(grads) == {i for i in ref if g.nodes[i].op == "leaf"}
        for i in grads:
            npt.assert_array_equal(grads[i], ref[i], err_msg=f"leaf {i}")

    def test_backward_frees_each_node_it_passes(self, rng):
        g = ad.Graph()
        x = g.leaf(rng.standard_normal((2, 3)))
        c = g.leaf(rng.standard_normal((2, 3)))
        y = ad.gelu(ad.mul(x, c))
        loss = ad.tsum(ad.softmax(y))
        spare = ad.gelu(x)  # not on the loss's path
        ad.mul(spare, 2.0)  # keeps spare's value, as a recipe: x * phi
        ad.backward(g, loss)
        for nid, node in enumerate(g.nodes):
            if node.op == "leaf":
                assert node.held is not None, nid
            elif nid != spare.id:
                assert node.held is None and node.recipe is None and node.ctx == {}, (nid, node.op)
        node = g.nodes[spare.id]
        assert node.held is None and node.recipe is not None and "phi" in node.ctx
        npt.assert_array_equal(node.value, spare.value)

    def test_backward_owns_a_fresh_first_gradient(self):
        # A 2 MiB leaf read by two matmuls gets two fresh 2 MiB gradients.
        # Backward owns the first, as a matmul rule's result is fresh, and
        # adds the second into it in place; allocating their sum as a third
        # array would peak near 3 leaf sizes.
        size = 1 << 21
        g = ad.Graph()
        rng = np.random.default_rng(0)
        w = g.leaf(rng.standard_normal((512, 512)))
        u, v = rng.standard_normal((2, 512, 1))
        loss = ad.tsum(ad.add(ad.matmul(w, u), ad.matmul(w, v)))
        tracemalloc.start()
        try:
            grads = ad.backward(g, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(grads[w.id], np.ones((512, 1)) @ v.T + np.ones((512, 1)) @ u.T)
        assert peak < 2.1 * size, f"backward peaked at {peak / size:.2f} leaf sizes"

    def test_second_backward_is_rejected(self):
        g = ad.Graph()
        x = g.leaf(np.arange(3.0))
        loss = ad.tsum(ad.mul(x, x))
        npt.assert_array_equal(ad.backward(g, loss)[x.id], 2 * np.arange(3.0))
        with pytest.raises(ValueError, match="consumed by an earlier backward"):
            ad.backward(g, loss)

    def test_conv_mse_matches_finite_differences(self, rng):
        w = rng.standard_normal((2, 1, 3))
        target = rng.standard_normal((1, 2, 6))
        x = rng.standard_normal((1, 1, 6))

        def f(v):
            diff = ad.add(ad.conv1d(v, w), -target)
            return ad.mul(ad.tsum(ad.mul(diff, diff)), 1.0 / target.size)

        assert ad.finite_diff_check(f, x) <= 1e-4


# ---------------------------------------------------------------------------
# what the tape holds: leaves, softmax outputs and the inputs in _READS
# ---------------------------------------------------------------------------

# One recording of each op on graph leaves of these shapes.
READ_CASES = {
    "add": ([(3, 4), (4,)], ad.add),
    "mul": ([(3, 4), (4,)], ad.mul),
    "matmul": ([(3, 4), (4, 2)], ad.matmul),
    "bmm": ([(2, 3, 4), (2, 4, 5)], ad.bmm),
    "reshape": ([(3, 4)], lambda a: ad.reshape(a, (2, 6))),
    "concat": ([(2, 3), (4, 3)], lambda a, b: ad.concat([a, b], axis=0)),
    "slice": ([(3, 4)], lambda a: ad.slice_axis(a, 1, 1, 3)),
    "take_rows": ([(5, 3)], lambda a: ad.take_rows(a, [3, 0, 4])),
    "scatter_rows": ([(2, 3)], lambda a: ad.scatter_rows(a, [4, 1], 5)),
    "sum": ([(3, 4)], ad.tsum),
    "mean": ([(3, 4)], lambda a: ad.mean(a, axis=1)),
    "conv1d": ([(2, 3, 7), (4, 3, 3)], ad.conv1d),
    "gelu": ([(3, 4)], ad.gelu),
    "softmax": ([(3, 4)], ad.softmax),
    "instance_norm": ([(2, 3, 5), (3,), (3,)], ad.instance_norm),
}


def _dense(g):
    if isinstance(g, ad.Region):
        out = np.zeros(g.shape)
        out[g.index] += g.piece
        return out
    return np.asarray(g)


class TestTapeHolds:
    def test_every_rule_has_a_case(self):
        assert set(READ_CASES) == set(ad._BACKWARD)

    def test_toy_train_step_records_every_rule(self, monkeypatch):
        # The tape's ops are the model's: a toy-profile training step
        # records exactly the ops that have a backward rule, so an op no
        # model path calls cannot linger.
        recorded = []
        backward = ad.backward

        def spy(graph, loss):
            recorded.extend(node.op for node in graph.nodes)
            return backward(graph, loss)

        monkeypatch.setattr(ad, "backward", spy)
        cfg = RunConfig()
        params = init_backbone(np.random.default_rng(0), cfg.model_spec())
        batch = np.random.default_rng(1).standard_normal((2, cfg.channels, 32))
        train_step(params, batch, np.ones_like(batch), make_schedule(cfg.steps), np.random.default_rng(2))
        assert set(recorded) - {"leaf"} == set(ad._BACKWARD)
        assert len(ad._BACKWARD) == 15

    def test_read_table_names_only_recorded_ops(self):
        assert set(ad._READS) <= set(ad._BACKWARD)

    @pytest.mark.parametrize("op", sorted(READ_CASES))
    def test_rule_reads_only_declared_inputs(self, rng, op):
        # Handed NaN stand-ins for every input _READS does not name, the
        # rule still gives the gradients it gives on the real values.
        shapes, build = READ_CASES[op]
        g = ad.Graph()
        out = build(*(g.leaf(rng.standard_normal(s)) for s in shapes))
        node = g.nodes[out.id]
        assert node.op == op
        real = [g.nodes[i].value for i in node.inputs]
        reads = ad._READS.get(op, ())
        bare = [v if k in reads else ad._stand_in(v.shape) for k, v in enumerate(real)]
        grad = rng.standard_normal(out.shape)
        rule = ad._BACKWARD[op]
        for k, (want, got) in enumerate(zip(rule(node, grad, real), rule(node, grad, bare), strict=True)):
            npt.assert_array_equal(_dense(got), _dense(want), err_msg=f"{op} input {k}")

    def test_released_value_is_a_read_only_nan_stand_in(self):
        g = ad.Graph()
        x = g.leaf(np.arange(6.0).reshape(2, 3))
        y = ad.add(x, x)
        node = g.nodes[y.id]
        assert node.held is None
        assert node.value.shape == (2, 3) and np.isnan(node.value).all()
        assert not node.value.flags.writeable
        npt.assert_array_equal(y.value, 2 * np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("op", [ad.add, ad.mul], ids=["add", "mul"])
    def test_forward_keeps_only_values_rules_read(self, op):
        # A 20-op chain of 1 MiB arrays. The add rule reads no value, so no
        # link is kept. The mul rule reads both inputs, and a product is
        # rebuilt from its two inputs, so every link but the last is kept as
        # a recipe that gives its forward value. Either way only the last
        # output (through its Var) is alive after the forward.
        size = 1 << 20
        g = ad.Graph()
        x = g.leaf(np.ones(size // 8))
        c = g.leaf(np.full(size // 8, 1.5))
        tracemalloc.start()
        try:
            y = x
            for _ in range(20):
                y = op(y, c)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size <= current < 2 * size, f"forward holds {current / size:.1f} MiB"
        links = g.nodes[2:]
        assert len(links) == 20 and all(node.held is None for node in links)
        assert links[-1].recipe is None
        want = np.ones(size // 8)
        for k, node in enumerate(links[:-1]):
            want = want * 1.5
            if op is ad.add:
                assert node.recipe is None, k
            else:
                npt.assert_array_equal(node.value, want, err_msg=f"link {k}")


class TestFiniteDiffCheck:
    def test_sum_has_constant_gradient(self, rng):
        assert ad.finite_diff_check(ad.tsum, rng.standard_normal(6)) <= 1e-10

    def test_gelu_sum(self, rng):
        err = ad.finite_diff_check(lambda v: ad.tsum(ad.gelu(v)), rng.standard_normal(8))
        assert err <= 1e-6

    def test_gelu_sum_in_the_tails(self):
        # Past |x| = 7.07 the CDF is Hart's rational extended beyond its stated range.
        x = np.array([-9.0, -8.0, -7.5, -7.08, -7.07, -3.0, -0.5, 0.5, 3.0, 7.07, 7.08, 7.5, 8.0, 9.0])
        err = ad.finite_diff_check(lambda v: ad.tsum(ad.gelu(v)), x)
        assert err <= 1e-6

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError, match="h must be"):
            ad.finite_diff_check(ad.tsum, np.ones(2), h=0.0)


# ---------------------------------------------------------------------------
# gradient sweep: every differentiable operation, 100 random points
# ---------------------------------------------------------------------------


def _op_cases(rng):
    c = rng.standard_normal((3, 4))
    m = rng.standard_normal((4, 3))
    batch = rng.standard_normal((2, 4, 3))
    idx = np.array([2, 0])
    return [
        ("add", (3, 4), lambda x: ad.add(x, c)),
        ("add/broadcast", (4,), lambda x: ad.add(c, x)),
        ("mul", (3, 4), lambda x: ad.mul(x, c)),
        ("mul/broadcast", (3, 1), lambda x: ad.mul(x, c)),
        ("matmul/lhs", (3, 4), lambda x: ad.matmul(x, m)),
        ("matmul/rhs", (4, 3), lambda x: ad.matmul(c, x)),
        ("bmm/lhs", (2, 3, 4), lambda x: ad.bmm(x, batch)),
        ("bmm/rhs", (2, 4, 3), lambda x: ad.bmm(batch.transpose(0, 2, 1), x)),
        ("reshape", (3, 4), lambda x: ad.reshape(x, (2, 6))),
        ("concat", (2, 4), lambda x: ad.concat([x, c[:2]], axis=0)),
        ("concat/axis1-three-parts", (3, 2), lambda x: ad.concat([x, c[:, :1], x], axis=1)),
        ("slice", (3, 4), lambda x: ad.slice_axis(x, 1, 1, 3)),
        ("take_rows", (3, 4), lambda x: ad.take_rows(x, idx)),
        ("scatter_rows", (3, 4), lambda x: ad.scatter_rows(x, np.array([4, 0, 2]), 6)),
        ("mean/axis", (3, 4), lambda x: ad.mean(x, axis=0)),
        ("gelu", (3, 4), ad.gelu),
        ("softmax", (3, 4), ad.softmax),
        ("instance_norm", (2, 3, 6), lambda x: ad.instance_norm(x, c[0][:3], c[1][:3])),
        ("conv1d", (2, 2, 7), lambda x: ad.conv1d(x, batch[:, :2, :])),
    ]


@pytest.mark.parametrize("case", _op_cases(np.random.default_rng(0)), ids=lambda c: c[0])
def test_operation_gradients_100_points(case):
    name, shape, build = case
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hash() differs per process
    worst = 0.0
    for _ in range(100):
        point = rng.standard_normal(shape)
        worst = max(worst, ad.finite_diff_check(lambda v: _sq_sum(build(v)), point))
    assert worst <= 1e-4, f"{name}: max rel err {worst}"
