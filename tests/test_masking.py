"""Random and contiguous-run missingness patterns."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moediff.config import RunConfig
from moediff.masking import apply_mask, continuous_mask, draw_mask, random_mask


def _runs_of_zeros(row):
    """Lengths of maximal zero runs in a 1-d binary array."""
    runs, current = [], 0
    for v in row:
        if v == 0.0:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


class TestRandomMask:
    def test_ratio_zero_all_ones(self, rng):
        npt.assert_array_equal(random_mask(2, 3, 10, 0.0, rng), 1.0)

    def test_ratio_one_all_zeros(self, rng):
        npt.assert_array_equal(random_mask(2, 3, 10, 1.0, rng), 0.0)

    def test_zero_fraction_concentrates(self, rng):
        mask = random_mask(10, 10, 1000, 0.3, rng)  # 1e5 entries
        frac = 1.0 - mask.mean()
        assert 0.29 <= frac <= 0.31

    @pytest.mark.parametrize("ratio", [-0.1, 1.5])
    def test_ratio_bounds(self, rng, ratio):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            random_mask(1, 1, 4, ratio, rng)


class TestContinuousMask:
    def test_table_grid_cell(self, rng):
        # One channel of twelve loses exactly 300 contiguous entries.
        mask = continuous_mask(4, 12, 1000, 300, 1, rng)
        for i in range(4):
            dropped = [c for c in range(12) if (mask[i, c] == 0).any()]
            assert len(dropped) == 1
            assert _runs_of_zeros(mask[i, dropped[0]]) == [300]

    def test_full_length_drop(self, rng):
        mask = continuous_mask(3, 4, 50, 50, 2, rng)
        for i in range(3):
            dropped = [c for c in range(4) if (mask[i, c] == 0).any()]
            assert len(dropped) == 2
            for c in dropped:
                npt.assert_array_equal(mask[i, c], 0.0)

    def test_all_channels_dropped(self, rng):
        mask = continuous_mask(2, 5, 40, 7, 5, rng)
        for i in range(2):
            for c in range(5):
                assert _runs_of_zeros(mask[i, c]) == [7]

    def test_shared_window_aligns_runs(self):
        mask = continuous_mask(3, 6, 64, 10, 4, np.random.default_rng(3), shared_window=True)
        for i in range(3):
            starts = {
                int(np.argmin(mask[i, c])) for c in range(6) if (mask[i, c] == 0).any()
            }
            assert len(starts) == 1

    def test_bounds(self, rng):
        with pytest.raises(ValueError, match="drop_length"):
            continuous_mask(1, 2, 10, 11, 1, rng)
        with pytest.raises(ValueError, match="drop_channels"):
            continuous_mask(1, 2, 10, 5, 3, rng)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 99999),
        drop_length=st.integers(1, 32),
        drop_channels=st.integers(1, 4),
    )
    def test_every_chosen_channel_one_exact_run(self, seed, drop_length, drop_channels):
        rng = np.random.default_rng(seed)
        mask = continuous_mask(2, 4, 32, drop_length, drop_channels, rng)
        for i in range(2):
            dropped = [c for c in range(4) if (mask[i, c] == 0).any()]
            assert len(dropped) == drop_channels
            for c in dropped:
                assert _runs_of_zeros(mask[i, c]) == [drop_length]
                assert int((mask[i, c] == 0).sum()) == drop_length


class TestDrawMask:
    def test_reproducible_from_seed(self):
        # Two generators with the same seed draw the same mask.
        cfg = RunConfig(mask_kind="continuous", drop_length=5, drop_channels=2)
        a = draw_mask(cfg, 3, 4, 20, np.random.default_rng(77))
        npt.assert_array_equal(a, draw_mask(cfg, 3, 4, 20, np.random.default_rng(77)))

    def test_random_kind(self):
        cfg = RunConfig(mask_kind="random", mask_ratio=0.5)
        a = draw_mask(cfg, 2, 2, 50, np.random.default_rng(1))
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="mask_kind .* got 'banded'"):
            draw_mask(RunConfig(mask_kind="banded"), 1, 1, 8, np.random.default_rng(0))

    def test_config_and_draws_raise_one_message(self):
        # masking states the kind and ratio rules once; the config's check,
        # draw_mask and random_mask all raise its words.
        rng = np.random.default_rng(0)
        for kind, ratio, want in [
            ("banded", 0.3, "mask_kind must be 'random' or 'continuous', got 'banded'"),
            ("random", 1.5, "mask_ratio must be finite and lie in [0, 1], got 1.5"),
            ("random", float("nan"), "mask_ratio must be finite and lie in [0, 1], got nan"),
        ]:
            cfg = RunConfig(mask_kind=kind, mask_ratio=ratio)
            calls = [cfg.check, lambda: draw_mask(cfg, 1, 1, 8, rng)]
            if kind == "random":
                calls.append(lambda: random_mask(1, 1, 8, ratio, rng))
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == want


class TestApplyMask:
    def test_all_ones_identity(self, rng):
        x = rng.standard_normal((2, 2, 6))
        npt.assert_array_equal(apply_mask(x, np.ones_like(x)), x)

    def test_all_zeros(self, rng):
        x = rng.standard_normal((2, 2, 6))
        npt.assert_array_equal(apply_mask(x, np.zeros_like(x)), 0.0)

    def test_elementwise_definition(self):
        out = apply_mask(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
        npt.assert_array_equal(out, [1.0, 0.0, 3.0])

    def test_idempotent(self, rng):
        x = rng.standard_normal((2, 3, 8))
        m = random_mask(2, 3, 8, 0.4, rng)
        once = apply_mask(x, m)
        npt.assert_array_equal(apply_mask(once, m), once)

    def test_nonbinary_rejected(self, rng):
        x = rng.standard_normal(4)
        with pytest.raises(ValueError, match="0.0 and 1.0"):
            apply_mask(x, np.array([1.0, 0.5, 0.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_mask(np.ones(3), np.ones(4))
