"""Tensor primitives: forward values against naive oracles, tape gradients
against central finite differences, and the structural graph contracts."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import moediff.autodiff as ad
from oracles import (
    dense_backward,
    naive_conv1d,
    two_pass_instance_norm,
    two_pass_instance_norm_backward,
)


def _sq_sum(y):
    return ad.tsum(ad.mul(y, y))


def _conv(x, w, b, padding):
    """conv1d; with ``padding="valid"`` only its output columns whose kernel
    window lies inside the signal, which is the unpadded cross-correlation
    that ``naive_conv1d(..., "valid")`` computes."""
    out = ad.conv1d(x, w, b)
    if padding == "same":
        return out
    p, t = (ad.value_of(w).shape[2] - 1) // 2, ad.value_of(x).shape[2]
    return ad.slice_axis(out, 2, p, t - p)


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------


# conv1d picks its contraction from the operand shapes (autodiff._tap_sum):
# 3->4 at S > 1 runs the unfolded GEMM, 4->3 and 3->3 the per-tap sum, and
# 1->4 at S = 1 the broadcast product; a 4->3 conv's dx is a 3->4 tap sum.
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
        out = ad.conv1d(x, np.array([[[1.0]]]), np.array([0.0]))
        npt.assert_array_equal(out, x)

    def test_scaling_kernel(self):
        out = ad.conv1d(np.array([[[1.0, 2.0, 3.0]]]), np.array([[[2.0]]]), np.array([0.0]))
        npt.assert_array_equal(out, [[[2.0, 4.0, 6.0]]])

    def test_box_kernel_same_padding(self):
        # Expected values computed with the nested-loop oracle.
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0, 1.0, 1.0]]])
        b = np.array([0.0])
        npt.assert_array_equal(naive_conv1d(x, w, b), [[[3.0, 6.0, 5.0]]])
        npt.assert_allclose(ad.conv1d(x, w, b), [[[3.0, 6.0, 5.0]]], rtol=0, atol=0)

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
        # and the broadcast product at Cin = S = 1, which adds no rounding.
        x = rng.standard_normal((3, c_in, t))
        w = rng.standard_normal((6, c_in, s))
        b = rng.standard_normal(6)
        wide_x = np.concatenate([x, np.zeros((3, 6 - c_in, t))], axis=1)
        wide_w = np.concatenate([w, np.zeros((6, 6 - c_in, s))], axis=1)
        narrow, wide = ad.conv1d(x, w, b), ad.conv1d(wide_x, wide_w, b)
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
            out = ad.conv1d(x, rng.standard_normal((c_out, c_in, 5 if c_in > 1 else 1)), np.zeros(c_out))
            node = g.nodes[out.id]
            assert node.op == "conv1d"
            assert not any(isinstance(v, np.ndarray) for v in node.ctx.values()), node.ctx.keys()

    @pytest.mark.parametrize("s", [0, 2])
    def test_even_kernel_rejected(self, s):
        # Same padding is symmetric, (S-1)/2 zeros on each side, so S must be odd.
        with pytest.raises(ValueError, match=f"kernel size must be odd for same padding, got {s}"):
            ad.conv1d(np.zeros((1, 1, 3)), np.zeros((1, 1, s)), np.zeros(1))

    def test_shape_mismatch_names_axis(self):
        with pytest.raises(ValueError, match="channel axis"):
            ad.conv1d(np.zeros((1, 2, 5)), np.zeros((1, 3, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="bias"):
            ad.conv1d(np.zeros((1, 2, 5)), np.zeros((1, 2, 1)), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(
        x=arrays(np.float64, (1, 1, 6), elements=st.floats(-5, 5)),
        y=arrays(np.float64, (1, 1, 6), elements=st.floats(-5, 5)),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    def test_linear_in_input(self, x, y, a, b):
        w = np.array([[[0.5, -1.0, 2.0]]])
        zero = np.array([0.0])
        lhs = ad.conv1d(a * x + b * y, w, zero)
        rhs = a * ad.conv1d(x, w, zero) + b * ad.conv1d(y, w, zero)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_linear_in_weight(self, rng):
        x = rng.standard_normal((2, 2, 8))
        w1 = rng.standard_normal((3, 2, 3))
        w2 = rng.standard_normal((3, 2, 3))
        zero = np.zeros(3)
        lhs = ad.conv1d(x, 2.0 * w1 - 0.5 * w2, zero)
        rhs = 2.0 * ad.conv1d(x, w1, zero) - 0.5 * ad.conv1d(x, w2, zero)
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

    @pytest.mark.parametrize("shape", [(1, 1, 2), (3, 2, 2), (2, 3, 7), (4, 8, 64), (6, 16, 33)])
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


class TestGelu:
    def test_zero(self):
        assert float(ad.gelu(np.asarray(0.0))) == 0.0

    def test_saturates_for_large_input(self):
        npt.assert_allclose(ad.gelu(np.asarray(10.0)), 10.0, atol=1e-12)

    def test_at_one_matches_erf_oracle(self):
        expected = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        npt.assert_allclose(ad.gelu(np.asarray(1.0)), expected, atol=1e-15)
        npt.assert_allclose(expected, 0.8413447, atol=1e-7)


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
        y = ad.add(ad.mul(x, x), ad.scale(x, 5.0))  # x^2 + 5x
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
        # A 20-op chain of 1 MiB arrays: keeping every intermediate
        # gradient would peak near 21 MiB; dropping each once its rule has
        # run leaves about two alive at a time.
        size = 1 << 20
        g = ad.Graph()
        x = g.leaf(np.ones(size // 8))
        y = x
        for i in range(20):
            y = ad.scale(y, 1.5 if i % 2 else -1.0)
        loss = ad.tsum(y)
        tracemalloc.start()
        try:
            grads = ad.backward(g, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(grads) == {x.id}
        npt.assert_array_equal(grads[x.id], np.full(size // 8, 1.5**10))
        assert peak < 3 * size, f"backward peaked at {peak / size:.1f} MiB"

    @pytest.mark.parametrize(
        "parts",
        [
            lambda a, b: [ad.take_rows(a, [3, 0]), ad.add(a, b)],
            lambda a, b: [ad.slice_axis(a, 1, 1, 3), ad.gather_cols(b, [0, 3, 1, 1, 2]), ad.add(a, b)],
            lambda a, b: [ad.take_rows(a, [4, 1, 2]), ad.add(a, a), b],
            lambda a, b: [ad.take_rows(a, [1, 0, 1, 1]), ad.add(a, b)],
        ],
        ids=["take_rows_input_feeds_add", "add_shares_grad_with_sliced_inputs",
             "add_of_itself_then_gather", "repeated_rows_after_add"],
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
        spare = ad.scale(x, 2.0)  # not on the loss's path
        ad.backward(g, loss)
        for nid, node in enumerate(g.nodes):
            if node.op == "leaf":
                assert node.held is not None, nid
            elif nid != spare.id:
                assert node.held is None and node.ctx == {}, (nid, node.op)
        assert g.nodes[spare.id].ctx == {"s": 2.0}

    def test_second_backward_is_rejected(self):
        g = ad.Graph()
        x = g.leaf(np.arange(3.0))
        loss = ad.tsum(ad.mul(x, x))
        npt.assert_array_equal(ad.backward(g, loss)[x.id], 2 * np.arange(3.0))
        with pytest.raises(ValueError, match="consumed by an earlier backward"):
            ad.backward(g, loss)

    def test_conv_mse_matches_finite_differences(self, rng):
        w = rng.standard_normal((2, 1, 3))
        b = rng.standard_normal(2)
        target = rng.standard_normal((1, 2, 6))
        x = rng.standard_normal((1, 1, 6))

        def f(v):
            diff = ad.sub(ad.conv1d(v, w, b), target)
            return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / target.size)

        assert ad.finite_diff_check(f, x) <= 1e-4


# ---------------------------------------------------------------------------
# what the tape holds: leaves, softmax outputs and the inputs in _READS
# ---------------------------------------------------------------------------

# One recording of each op on graph leaves of these shapes.
READ_CASES = {
    "add": ([(3, 4), (4,)], ad.add),
    "sub": ([(3, 4), (3, 1)], ad.sub),
    "mul": ([(3, 4), (4,)], ad.mul),
    "scale": ([(3, 4)], lambda a: ad.scale(a, -1.7)),
    "matmul": ([(3, 4), (4, 2)], ad.matmul),
    "bmm": ([(2, 3, 4), (2, 4, 5)], ad.bmm),
    "reshape": ([(3, 4)], lambda a: ad.reshape(a, (2, 6))),
    "transpose": ([(2, 3, 4)], lambda a: ad.transpose(a, (2, 0, 1))),
    "concat": ([(2, 3), (4, 3)], lambda a, b: ad.concat([a, b], axis=0)),
    "slice": ([(3, 4)], lambda a: ad.slice_axis(a, 1, 1, 3)),
    "take_rows": ([(5, 3)], lambda a: ad.take_rows(a, [3, 0, 3])),
    "scatter_rows": ([(2, 3)], lambda a: ad.scatter_rows(a, [4, 1], 5)),
    "gather_cols": ([(4, 3)], lambda a: ad.gather_cols(a, [0, 2, 1, 1])),
    "sum": ([(3, 4)], ad.tsum),
    "mean": ([(3, 4)], lambda a: ad.mean(a, axis=1)),
    "conv1d": ([(2, 3, 7), (4, 3, 3), (4,)], ad.conv1d),
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

    @pytest.mark.parametrize("op, held", [(ad.add, 1), (ad.mul, 20)], ids=["add", "mul"])
    def test_forward_keeps_only_values_rules_read(self, op, held):
        # A 20-op chain of 1 MiB arrays. The add rule reads no value, so
        # only the last output (through its Var) is alive after the
        # forward; the mul rule reads both inputs, so every link is held.
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
        assert held * size <= current < (held + 1) * size, f"forward holds {current / size:.1f} MiB"


class TestFiniteDiffCheck:
    def test_sum_has_constant_gradient(self, rng):
        assert ad.finite_diff_check(ad.tsum, rng.standard_normal(6)) <= 1e-10

    def test_gelu_sum(self, rng):
        err = ad.finite_diff_check(lambda v: ad.tsum(ad.gelu(v)), rng.standard_normal(8))
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
    idx = np.array([1, 0, 1])
    return [
        ("add", (3, 4), lambda x: ad.add(x, c)),
        ("add/broadcast", (4,), lambda x: ad.add(c, x)),
        ("sub", (3, 4), lambda x: ad.sub(c, x)),
        ("mul", (3, 4), lambda x: ad.mul(x, c)),
        ("mul/broadcast", (3, 1), lambda x: ad.mul(x, c)),
        ("scale", (3, 4), lambda x: ad.scale(x, -1.7)),
        ("matmul/lhs", (3, 4), lambda x: ad.matmul(x, m)),
        ("matmul/rhs", (4, 3), lambda x: ad.matmul(c, x)),
        ("bmm/lhs", (2, 3, 4), lambda x: ad.bmm(x, batch)),
        ("bmm/rhs", (2, 4, 3), lambda x: ad.bmm(ad.transpose(batch, (0, 2, 1)), x)),
        ("reshape", (3, 4), lambda x: ad.reshape(x, (2, 6))),
        ("transpose", (2, 3, 4), lambda x: ad.transpose(x, (2, 0, 1))),
        ("concat", (2, 4), lambda x: ad.concat([x, c[:2]], axis=0)),
        ("slice", (3, 4), lambda x: ad.slice_axis(x, 1, 1, 3)),
        ("take_rows", (3, 4), lambda x: ad.take_rows(x, idx)),
        ("scatter_rows", (3, 4), lambda x: ad.scatter_rows(x, np.array([4, 0, 2]), 6)),
        ("gather_cols", (3, 4), lambda x: ad.gather_cols(x, idx)),
        ("mean/axis", (3, 4), lambda x: ad.mean(x, axis=0)),
        ("gelu", (3, 4), ad.gelu),
        ("softmax", (3, 4), ad.softmax),
        ("instance_norm", (2, 3, 6), lambda x: ad.instance_norm(x, c[0][:3], c[1][:3])),
        ("conv1d", (2, 2, 7), lambda x: ad.conv1d(x, batch[:, :2, :], c[0][:2])),
    ]


@pytest.mark.parametrize("case", _op_cases(np.random.default_rng(0)), ids=lambda c: c[0])
def test_operation_gradients_100_points(case):
    name, shape, build = case
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    worst = 0.0
    for _ in range(100):
        point = rng.standard_normal(shape)
        worst = max(worst, ad.finite_diff_check(lambda v: _sq_sum(build(v)), point))
    assert worst <= 1e-4, f"{name}: max rel err {worst}"
