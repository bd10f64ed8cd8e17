"""Synthetic signal generator: standardization, determinism, spectra."""

import numpy as np
import numpy.testing as npt
import pytest

from moediff.synth import SyntheticConfig, synth_generate


class TestSynthGenerate:
    def test_pure_sinusoid_standardized(self):
        cfg = SyntheticConfig(
            n_samples=3, channels=2, t_len=512, harmonics=1, spike_prob=0.0, noise_sigma=0.0
        )
        data = synth_generate(cfg)
        means = data.mean(axis=2)
        stds = data.std(axis=2)
        npt.assert_allclose(means, 0.0, atol=1e-10)
        npt.assert_allclose(stds, 1.0, atol=1e-10)

    def test_same_seed_identical(self):
        cfg = SyntheticConfig(n_samples=4, channels=3, t_len=128, seed=31)
        npt.assert_array_equal(synth_generate(cfg), synth_generate(cfg))

    def test_different_seed_differs(self):
        a = synth_generate(SyntheticConfig(n_samples=2, channels=2, t_len=64, seed=1))
        b = synth_generate(SyntheticConfig(n_samples=2, channels=2, t_len=64, seed=2))
        assert not np.array_equal(a, b)

    def test_dominant_fft_bin_in_band(self):
        # FFT-peak oracle: fundamentals drawn from [3, 9] cycles/window must
        # put the strongest non-DC bin inside that band.
        cfg = SyntheticConfig(
            n_samples=6, channels=4, t_len=1000, f_min=3.0, f_max=9.0,
            harmonics=2, spike_prob=0.0, noise_sigma=0.0, seed=7,
        )
        data = synth_generate(cfg)
        spectrum = np.abs(np.fft.rfft(data, axis=2))
        spectrum[:, :, 0] = 0.0
        peaks = spectrum.argmax(axis=2)
        assert peaks.min() >= 3 and peaks.max() <= 9

    def test_shape(self):
        data = synth_generate(SyntheticConfig(n_samples=5, channels=3, t_len=100))
        assert data.shape == (5, 3, 100)
        assert np.all(np.isfinite(data))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="f_min"):
            synth_generate(SyntheticConfig(n_samples=1, channels=1, t_len=16, f_min=5, f_max=2))
        with pytest.raises(ValueError, match="spike_prob"):
            synth_generate(SyntheticConfig(n_samples=1, channels=1, t_len=16, spike_prob=1.5))

    @pytest.mark.parametrize("field", ["f_min", "f_max", "amp_jitter", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SyntheticConfig(n_samples=1, channels=1, t_len=16, **{field: value}).check()
