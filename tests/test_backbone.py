"""Full noise estimator: shape/zero/trace oracles, channel symmetry,
parameter counting, and checkpoint round-trips."""

import itertools
import re

import numpy as np
import numpy.testing as npt
import pytest

import moediff.autodiff as ad
import moediff.blocks as blocks
from moediff.backbone import (
    ModelSpec,
    SpecError,
    condition_features,
    init_backbone,
    lift_params,
    load_backbone,
    named_params,
    noise_estimate,
    param_count,
    replace_param,
    save_backbone,
    zip_map_params,
)
from moediff.config import RunConfig
from moediff.diffusion import make_schedule, sample
from moediff.masking import apply_mask, draw_mask
from moediff.synth import SyntheticConfig, synth_generate
from moediff.tensor import read_checkpoint, write_checkpoint
from moediff.training import init_from_config, train
from oracles import naive_backbone, random_affine


def _build(seed=0, channels=2, width=4, depth=1, kernels=(1, 3), k=2, d_emb=8, gate_mode="unit"):
    return init_backbone(
        np.random.default_rng(seed),
        ModelSpec(
            channels=channels, width=width, depth=depth, kernel_sizes=kernels, head_experts=k, d_emb=d_emb,
            gate_mode=gate_mode,
        ),
    )


class TestNoiseEstimate:
    def test_output_shape_contract(self):
        params = _build(channels=3)
        out = noise_estimate(np.zeros((2, 3, 64)), np.zeros((2, 3, 64)), 1, params)
        assert out.shape == (2, 3, 64)

    def test_zero_parameters_zero_output(self, rng):
        params = zip_map_params(lambda p, _: np.zeros_like(p), _build(), _build())
        x = rng.standard_normal((2, 2, 16))
        npt.assert_array_equal(noise_estimate(x, x, 3, params), 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_naive_oracle(self, seed, depth):
        rng = np.random.default_rng(seed + 100)
        params = random_affine(_build(seed=seed, depth=depth), rng)
        x_t = rng.standard_normal((2, 2, 12))
        x_bar = rng.standard_normal((2, 2, 12))
        npt.assert_allclose(
            noise_estimate(x_t, x_bar, 4, params),
            naive_backbone(x_t, x_bar, 4, params),
            atol=1e-10,
        )

    @pytest.mark.parametrize("depth", [1, 2])
    def test_lift_biases_match_naive_oracle(self, depth):
        # The lifts start with zero biases. With nonzero ones, and kernels
        # that reach past the edges of a 12-sample signal, the first
        # level's experts must still see the zero-padded lifted maps.
        rng = np.random.default_rng(7)
        params = _build(seed=7, depth=depth, kernels=(5, 9))
        params.lift_xt.bias = rng.standard_normal(params.lift_xt.bias.shape)
        params.lift_cond.bias = rng.standard_normal(params.lift_cond.bias.shape)
        x_t, x_bar = rng.standard_normal((2, 2, 2, 12))
        npt.assert_allclose(
            noise_estimate(x_t, x_bar, 4, params), naive_backbone(x_t, x_bar, 4, params), atol=1e-10
        )

    @pytest.mark.parametrize("gate_mode", blocks.GATE_MODES)
    def test_lifted_matches_plain_bitwise(self, gate_mode):
        # Training (on the tape) and sampling (plain arrays) must compute
        # the same estimate to the last bit, or a near-tie could route
        # differently in the two. Depth 2 covers a level whose experts run
        # on the lifted signal and one that runs on its input maps.
        for seed, depth in itertools.product(range(5), (1, 2)):
            rng = np.random.default_rng(seed)
            params = _build(
                seed=seed, channels=3, width=16, depth=depth, kernels=(3, 5, 7, 9, 11), k=4, d_emb=64,
                gate_mode=gate_mode,
            )
            x_t, x_bar = rng.standard_normal((2, 4, 3, 64))
            t = rng.integers(1, 11, size=4)
            plain = noise_estimate(x_t, x_bar, t, params)
            graph = ad.Graph()
            lifted_params = lift_params(graph, params)
            lifted = noise_estimate(x_t, x_bar, t, lifted_params)
            npt.assert_array_equal(lifted.value, plain)
            # Likewise with the inputs on the tape too, as train_step has them.
            lifted = noise_estimate(graph.leaf(x_t), graph.leaf(x_bar), t, lifted_params)
            npt.assert_array_equal(lifted.value, plain)
            # Likewise with the condition maps computed beforehand.
            for tree in (params, lifted_params):
                out = noise_estimate(x_t, x_bar, t, tree, cond=condition_features(x_bar, tree))
                npt.assert_array_equal(ad.value_of(out), plain)

    def test_hand_sized_manual_trace(self):
        # Depth 1, width 2, length 4: same prediction as the stage-by-stage
        # reference on a fixed tiny signal. The expert's kernel is 3: under
        # a kernel-1 expert the lift bias only shifts each map by a constant
        # that the instance norm removes, so a dropped lift bias would not show.
        params = random_affine(
            _build(seed=42, channels=2, width=2, kernels=(3,), k=2, d_emb=4), np.random.default_rng(42)
        )
        x_t = np.array([[[1.0, -1.0, 0.5, 2.0], [0.0, 1.0, -2.0, 1.0]]])
        x_bar = np.array([[[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0]]])
        npt.assert_allclose(
            noise_estimate(x_t, x_bar, 1, params),
            naive_backbone(x_t, x_bar, 1, params),
            atol=1e-12,
        )

    def test_deterministic(self, rng):
        params = _build()
        x = rng.standard_normal((1, 2, 16))
        c = rng.standard_normal((1, 2, 16))
        a = noise_estimate(x, c, 2, params)
        b = noise_estimate(x, c, 2, params)
        npt.assert_array_equal(a, b)

    def test_channel_permutation_equivariance(self, rng):
        width, channels = 4, 3
        params = _build(seed=9, channels=channels, width=width)
        perm = np.array([2, 0, 1])
        # Remap the cross-channel fusion conv onto the permuted channel order:
        # block index (c, l) -> (perm[c], l).
        idx = (perm[:, None] * width + np.arange(width)[None, :]).ravel()

        def permute_fuse(p):
            w = p.fuse.weight[idx][:, idx]
            b = p.fuse.bias[idx]
            q = replace_param(p, "fuse.weight", w)
            return replace_param(q, "fuse.bias", b)

        permuted = params
        for i, level in enumerate(params.levels):
            for path in ("main", "cond"):
                block = getattr(level, path)
                w = block.fuse.weight[idx][:, idx]
                b = block.fuse.bias[idx]
                permuted = replace_param(permuted, f"levels.{i}.{path}.fuse.weight", w)
                permuted = replace_param(permuted, f"levels.{i}.{path}.fuse.bias", b)

        x_t = rng.standard_normal((2, channels, 10))
        x_bar = rng.standard_normal((2, channels, 10))
        base = noise_estimate(x_t, x_bar, 2, params)
        moved = noise_estimate(x_t[:, perm], x_bar[:, perm], 2, permuted)
        npt.assert_allclose(moved, base[:, perm], atol=1e-12)

    def test_input_validation(self):
        params = _build()
        with pytest.raises(ValueError, match="shape"):
            noise_estimate(np.zeros((1, 2, 8)), np.zeros((1, 2, 9)), 1, params)
        with pytest.raises(ValueError, match="channels"):
            noise_estimate(np.zeros((1, 3, 8)), np.zeros((1, 3, 8)), 1, params)
        with pytest.raises(ValueError, match="step"):
            noise_estimate(np.zeros((1, 2, 8)), np.zeros((1, 2, 8)), 0, params)
        wrong_length = r"step t has shape \(2,\), inputs \(1, 2, 8\) need \(\) or \(1,\)"
        with pytest.raises(ValueError, match=wrong_length):
            noise_estimate(np.zeros((1, 2, 8)), np.zeros((1, 2, 8)), np.array([1, 2]), params)
        with pytest.raises(ValueError, match=r"step t has shape \(2, 1\)"):
            noise_estimate(np.zeros((2, 2, 8)), np.zeros((2, 2, 8)), np.ones((2, 1)), params)
        with pytest.raises(ValueError, match=r"step must be >= 1, got \[3, 0\]"):
            noise_estimate(np.zeros((2, 2, 8)), np.zeros((2, 2, 8)), np.array([3, 0]), params)
        # The condition path checks its input itself: a sampler reaches it
        # before any noise_estimate call.
        with pytest.raises(ValueError, match=r"condition_features: inputs must be \[B, C, Tlen\]"):
            condition_features(np.zeros((2, 8)), params)
        with pytest.raises(ValueError, match="condition_features: input has 3 channels"):
            condition_features(np.zeros((1, 3, 8)), params)
        with pytest.raises(ValueError, match="condition_features: input has 3 channels"):
            sample(params, np.zeros((1, 3, 8)), make_schedule(2), np.random.default_rng(0))
        # Precomputed condition maps must match params (one per level) and x_t.
        x = np.zeros((1, 2, 8))
        with pytest.raises(ValueError, match=r"condition maps have shapes \[\], .* need 1 of \(2, 4, 8\)"):
            noise_estimate(x, x, 1, params, cond=[])
        wrong_n = r"shapes \[\(4, 4, 8\)\], inputs \(1, 2, 8\) need 1 of \(2, 4, 8\)"
        with pytest.raises(ValueError, match=wrong_n):
            noise_estimate(x, x, 1, params, cond=condition_features(np.zeros((2, 2, 8)), params))
        with pytest.raises(ValueError, match=r"shapes \[\(2, 4, 9\)\]"):
            noise_estimate(x, x, 1, params, cond=condition_features(np.zeros((1, 2, 9)), params))


_SPEC = dict(channels=2, width=4, depth=1, kernel_sizes=(1, 3), head_experts=2, d_emb=8, gate_mode="unit")


class TestConditionRouting:
    def test_level0_condition_routing_reads_no_signal(self, tmp_path, monkeypatch):
        """Characterization, not a requirement: level 0 of the condition
        path routes every fully observed map on rounding noise at
        initialisation, and on the lift bias alone once trained. synth
        zero-means each channel, the lift bias starts at 0, and route_top1
        pools over time, so such a map's pooled features are w * ~1e-17 + b.
        The routers themselves stay frozen (test_which_routers_learn in
        test_diffusion.py). When ROADMAP item 3 (the mask as a condition
        input) or item 7 (learned routing) lands, rewrite this test to pin
        the new behaviour; do not loosen it."""
        cfg = RunConfig(channels=3, t_len=64, width=4, depth=1, rfa_kernels=(1, 3, 5), head_experts=2, d_emb=8,
                        batch=4, train_steps=5, drop_length=10)
        data = synth_generate(SyntheticConfig(8, 3, 64, seed=1))
        mask = draw_mask(cfg, *data.shape, np.random.default_rng(cfg.seed))
        x_bar = apply_mask(data, mask)
        observed = mask.reshape(-1, cfg.t_len).all(axis=1)  # one flag per [N, L, T] map
        assert observed.sum() == 16
        calls = []
        route = blocks.route_top1
        monkeypatch.setattr(blocks, "route_top1", lambda *args: calls.append(route(*args)) or calls[-1])

        def level0_routing(params):
            calls.clear()
            condition_features(x_bar, params)
            return calls[0]  # expert index and logits per map

        _, logits = level0_routing(init_from_config(cfg))
        assert np.abs(logits[observed]).max() < 1e-12
        assert np.abs(logits[~observed]).max() > 1e-3  # a gap moves the pooled mean

        trained, _ = train(cfg, data, tmp_path)
        sel, logits = level0_routing(trained)
        router, lift_bias = trained.levels[0].cond.router, trained.lift_cond.bias
        assert np.abs(lift_bias).max() > 1e-6
        from_bias = lift_bias @ router
        npt.assert_allclose(logits[observed], np.tile(from_bias, (16, 1)), rtol=0, atol=1e-12)
        assert len(set(sel[observed].tolist())) == 1


class TestModelSpec:
    @pytest.mark.parametrize(
        "field, value",
        [("channels", 0), ("width", 0), ("width", -2), ("width", 5), ("depth", -1), ("head_experts", 0),
         ("d_emb", 0), ("d_emb", 7), ("gate_mode", "soft")],
    )
    def test_bad_value_names_field(self, field, value):
        with pytest.raises(SpecError, match=f"^{field} must be") as info:
            ModelSpec(**{**_SPEC, field: value})
        assert info.value.field == field

    def test_kernel_invariants_enforced(self):
        for ladder in [(2, 3), (3, 3), (), (-1, 3)]:
            with pytest.raises(SpecError, match="kernel_sizes must be one or more distinct odd sizes"):
                ModelSpec(**{**_SPEC, "kernel_sizes": ladder})

    @pytest.mark.parametrize("field, value", [("width", 2), ("d_emb", 2), ("kernel_sizes", (1,)), ("channels", 1)])
    def test_range_edges_accepted(self, field, value):
        assert getattr(ModelSpec(**{**_SPEC, field: value}), field) == value

    def test_depth_zero_stores_no_ladder(self):
        # No RFAMoE block is built, so the ladder is neither checked nor kept.
        assert ModelSpec(**{**_SPEC, "depth": 0, "kernel_sizes": (2, 2)}).kernel_sizes == ()

    @pytest.mark.parametrize("gate_mode", blocks.GATE_MODES)
    def test_records_roundtrip(self, gate_mode):
        spec = ModelSpec(**{**_SPEC, "gate_mode": gate_mode})
        records = spec.records()
        assert records["meta.gate_mode"] == {"unit": 0}[gate_mode]
        npt.assert_array_equal(records["meta.kernel_sizes"], [1.0, 3.0])
        assert ModelSpec.from_records(records) == spec

    def test_init_backbone_checks_its_spec(self):
        # width 0 used to die in the initialiser with a ZeroDivisionError.
        with pytest.raises(SpecError, match="width must be even and >= 2, got 0"):
            _build(width=0)

    def test_spec_holds_no_parameters(self, tiny_backbone):
        assert tiny_backbone.spec == ModelSpec(**_SPEC)
        assert not any(name.startswith("spec") for name, _ in named_params(tiny_backbone))


class TestParamCount:
    def test_zero_depth_counts_lift_and_head_only(self):
        params = _build(depth=0, width=4, k=2)
        lift = 2 * (4 * 1 * 1 + 4)
        head = 2 * (4 + 1) + (4 * 2 + 2)  # experts + router
        assert param_count(params) == lift + head

    def test_doubling_head_experts_delta(self):
        # Experts contribute K*(L+1) and the router K*(L+1) more, so going
        # K -> 2K adds 2K*(L+1) scalars.
        l, k = 6, 3
        small = _build(depth=0, width=l, k=k)
        big = _build(depth=0, width=l, k=2 * k)
        assert param_count(big) - param_count(small) == 2 * k * (l + 1)

    @pytest.mark.parametrize("channels, width, kernels, d_emb", [(2, 4, (1, 3), 8), (3, 6, (1, 3, 5, 7), 16)])
    def test_one_rfamoe_level_delta(self, channels, width, kernels, d_emb):
        # A level is a main and a condition block plus a FiLM bridge. Each
        # block holds bias-free experts, the bias-free [L, E] router, the
        # norm's gain and shift, gate_proj and fuse; the bridge is a
        # d_emb -> 2L linear map.
        c, l, e = channels, width, len(kernels)
        block = l * l * sum(kernels) + l * e + 2 * l + l * l // 2 + l + (c * l) ** 2 + c * l
        level = 2 * block + 2 * l * (d_emb + 1)
        args = dict(channels=c, width=l, kernels=kernels, d_emb=d_emb)
        assert param_count(_build(depth=1, **args)) - param_count(_build(depth=0, **args)) == level

    def test_against_checkpoint_walk(self, tmp_path, tiny_backbone):
        # Independent oracle: total scalars stored in the checkpoint file.
        path = tmp_path / "model.ckp1"
        save_backbone(path, tiny_backbone)
        records = read_checkpoint(path)
        stored = sum(v.size for k, v in records.items() if not k.startswith(("meta.", "opt.")))
        assert param_count(tiny_backbone) == stored


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path, tiny_backbone):
        path = tmp_path / "model.ckp1"
        save_backbone(path, tiny_backbone)
        loaded, aux = load_backbone(path)
        orig = dict(named_params(tiny_backbone))
        new = dict(named_params(loaded))
        assert orig.keys() == new.keys()
        for name in orig:
            npt.assert_array_equal(np.asarray(orig[name]), np.asarray(new[name]))
        assert loaded.spec == tiny_backbone.spec

    def test_loaded_model_same_predictions(self, tmp_path, tiny_backbone, rng):
        path = tmp_path / "model.ckp1"
        save_backbone(path, tiny_backbone)
        loaded, _ = load_backbone(path)
        x = rng.standard_normal((1, 2, 12))
        npt.assert_array_equal(
            noise_estimate(x, x, 2, tiny_backbone), noise_estimate(x, x, 2, loaded)
        )

    def test_dotted_name_scheme(self, tiny_backbone):
        names = {name for name, _ in named_params(tiny_backbone)}
        assert "levels.0.main.experts.1" in names
        experts = [n for n in names if n.startswith("levels.") and ".experts." in n]
        assert all(re.fullmatch(r"levels\.\d+\.(main|cond)\.experts\.\d+", n) for n in experts), experts
        # The bridge holds its FiLM map directly, with no wrapper record.
        assert sorted(n for n in names if ".bridge." in n) == ["levels.0.bridge.bias", "levels.0.bridge.weight"]
        assert "head.router.weight" in names
        # The receptive-field routers are bare [L, E] matrices.
        assert "levels.0.main.router" in names and not any(n.startswith("levels.0.main.router.") for n in names)
        assert "lift_cond.bias" in names

    def test_pointwise_weights_are_stored_as_matrices(self, tiny_backbone):
        # Every affine map is stored as the matrix it is applied as; only
        # the routed experts keep a kernel axis.
        shapes = {name: np.shape(v) for name, v in named_params(tiny_backbone)}
        routed = {n for n in shapes if re.fullmatch(r"levels\.\d+\.(main|cond)\.experts\.\d+", n)}
        assert routed and all(len(shapes[n]) == 3 for n in routed)
        assert all(len(shape) == 2 for n, shape in shapes.items() if n.endswith(".weight"))
        # width 4, 2 channels, d_emb 8
        assert shapes["lift_xt.weight"] == shapes["lift_cond.weight"] == (4, 1)
        assert shapes["levels.0.main.gate_proj.weight"] == (4, 2)
        assert shapes["levels.0.cond.fuse.weight"] == (8, 8)
        assert shapes["levels.0.bridge.weight"] == (8, 8)
        assert shapes["head.experts.1.weight"] == (1, 4)

    def test_extra_records_survive(self, tmp_path, tiny_backbone):
        path = tmp_path / "model.ckp1"
        save_backbone(path, tiny_backbone, extra={"meta.step": np.asarray(17.0)})
        _, aux = load_backbone(path)
        assert int(aux["meta.step"]) == 17

    @pytest.mark.parametrize("gate_mode", blocks.GATE_MODES)
    @pytest.mark.parametrize("depth", [0, 2])
    def test_stored_spec_rebuilds_model(self, tmp_path, depth, gate_mode):
        params = _build(depth=depth, kernels=(1, 3, 5), k=3, gate_mode=gate_mode)
        path = tmp_path / "model.ckp1"
        save_backbone(path, params)
        loaded, _ = load_backbone(path, gate_mode=gate_mode)
        assert loaded.spec == params.spec
        assert [n for n, _ in named_params(loaded)] == [n for n, _ in named_params(params)]

    @pytest.mark.parametrize(
        "record, value, located",
        [("meta.d_emb", 7.0, "'meta.d_emb': d_emb must be even"),
         ("meta.width", 0.0, "'meta.width': width must be even"),
         ("meta.width", 4.5, "'meta.width' holds 4.5"),
         ("meta.kernel_sizes", [3.0, 4.0], "'meta.kernel_sizes': kernel_sizes must be"),
         ("meta.gate_mode", 2.0, "'meta.gate_mode': gate_mode must be one of")],
    )
    def test_load_rejects_bad_spec_record(self, tmp_path, tiny_backbone, record, value, located):
        save_backbone(tmp_path / "model.ckp1", tiny_backbone)
        named = read_checkpoint(tmp_path / "model.ckp1")
        named[record] = np.asarray(value)
        write_checkpoint(tmp_path / "bad.ckp1", named)
        with pytest.raises(ValueError, match=located):
            load_backbone(tmp_path / "bad.ckp1")

    def test_load_rejects_inconsistent_widths(self, tmp_path, tiny_backbone):
        save_backbone(tmp_path / "model.ckp1", tiny_backbone)
        named = read_checkpoint(tmp_path / "model.ckp1")
        named["lift_xt.weight"] = np.zeros((3, 1))  # width 3 vs stored width 4
        write_checkpoint(tmp_path / "bad.ckp1", named)
        with pytest.raises(ValueError, match="'lift_xt.weight' has shape"):
            load_backbone(tmp_path / "bad.ckp1")


class TestParamTree:
    def test_replace_param_unknown_name(self, tiny_backbone):
        with pytest.raises(KeyError):
            replace_param(tiny_backbone, "levels.0.main.bogus", np.zeros(1))

    def test_map_preserves_structure(self, tiny_backbone):
        doubled = zip_map_params(lambda a, b: a + b, tiny_backbone, tiny_backbone)
        for (n1, a), (n2, b) in zip(named_params(tiny_backbone), named_params(doubled)):
            assert n1 == n2
            npt.assert_array_equal(2.0 * np.asarray(a), np.asarray(b))

    def test_lifted_tree_grads(self, tiny_backbone, rng):
        from moediff.backbone import grads_like, lift_params

        g = ad.Graph()
        lifted = lift_params(g, tiny_backbone)
        x = rng.standard_normal((1, 2, 8))
        out = noise_estimate(x, x, 1, lifted)
        loss = ad.tsum(ad.mul(out, out))
        grads = grads_like(lifted, ad.backward(g, loss))
        assert [n for n, _ in named_params(grads)] == [n for n, _ in named_params(tiny_backbone)]
