from dataclasses import asdict

import numpy as np
import pytest

from dualwin.framing import FrameParams, analyze
from dualwin.metrics import _LOSS_STFT, compute_metrics, ri_mag_loss, si_sdr, wav_mag_loss
from dualwin.windows import SQRT_HANN, make_analysis_window


class TestSiSdr:
    def test_exact_match_is_capped(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert si_sdr(x, x) == 100.0

    def test_scaled_estimate_hits_same_cap(self):
        x = np.random.default_rng(1).standard_normal(100)
        assert si_sdr(3.7 * x, x) == 100.0

    def test_scale_invariance_exact_for_binary_scales(self):
        # powers of two rescale floats exactly, so the values must be equal bits
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(200)
        est = ref + 0.1 * rng.standard_normal(200)
        base = si_sdr(est, ref)
        for c in (2.0, 0.5, -4.0, 1024.0):
            assert si_sdr(c * est, ref) == base

    def test_scale_invariance_for_arbitrary_scales(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(200)
        est = ref + 0.3 * rng.standard_normal(200)
        base = si_sdr(est, ref)
        for c in (3.7, -0.013, 257.0):
            assert si_sdr(c * est, ref) == pytest.approx(base, abs=1e-9)

    def test_orthogonal_noise_at_equal_energy_is_zero_db(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(500)
        noise = rng.standard_normal(500)
        noise -= np.dot(noise, ref) / np.dot(ref, ref) * ref  # exact projection out
        noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
        assert si_sdr(ref + noise, ref) == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_estimate_scores_the_floor(self):
        ref = np.random.default_rng(6).standard_normal(100)
        assert si_sdr(np.zeros(100), ref) == -100.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            si_sdr(np.ones(10), np.zeros(10))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(10), np.ones(11))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["estimate", "reference"])
    def test_non_finite_input_rejected(self, bad, where):
        ref = np.random.default_rng(7).standard_normal(100)
        est = ref + 0.1
        (est if where == "estimate" else ref)[17] = bad
        with pytest.raises(ValueError, match="not finite"):
            si_sdr(est, ref)


class TestRiMagLoss:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        assert ri_mag_loss(s, s) == 0.0

    def test_single_bin_arithmetic(self):
        s = np.zeros((2, 4), complex)
        s_hat = s.copy()
        s_hat[1, 2] = 3.0 + 4.0j
        assert ri_mag_loss(s_hat, s) == pytest.approx(12.0, abs=1e-14)  # 3 + 4 + 5

    def test_matches_naive_three_loop_oracle(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        s_hat = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        naive = 0.0
        for t in range(5):
            for f in range(7):
                naive += abs(s_hat[t, f].real - s[t, f].real)
                naive += abs(s_hat[t, f].imag - s[t, f].imag)
                naive += abs(abs(s_hat[t, f]) - abs(s[t, f]))
        assert ri_mag_loss(s_hat, s) == pytest.approx(naive, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ri_mag_loss(np.zeros((2, 3), complex), np.zeros((3, 2), complex))


class TestWavMagLoss:
    def test_zero_on_identical(self):
        x = np.random.default_rng(7).standard_normal(3000)
        assert wav_mag_loss(x, x) == 0.0

    def test_impulse_closed_form(self):
        # one active frame set: the loss is 1 (waveform term) plus n_bins
        # times the analysis window value at the impulse position per frame
        window, params = _LOSS_STFT
        n, j = 4000, 1000
        impulse = np.zeros(n)
        impulse[j] = 1.0
        expected = 1.0
        for t in range(n // params.hop):
            pos = j - ((t + 1) * params.hop - params.iws)
            if 0 <= pos < params.iws:
                expected += params.n_bins * window[pos]
        assert wav_mag_loss(impulse, np.zeros(n)) == pytest.approx(expected, rel=1e-12)

    def test_decreases_along_interpolation_to_target(self):
        rng = np.random.default_rng(30)
        s = rng.standard_normal(4000)
        x0 = s + rng.standard_normal(4000)
        losses = [
            wav_mag_loss((1 - lam) * x0 + lam * s, s) for lam in np.linspace(0, 1, 9)
        ]
        assert losses[-1] == 0.0
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_loss_geometry_is_fixed_in_samples(self):
        # 512/128 samples (32/8 ms at 16 kHz), independent of pipeline params
        window, params = _LOSS_STFT
        assert (params.iws, params.hop, params.n_dft) == (512, 128, 512)
        assert np.array_equal(window, make_analysis_window(SQRT_HANN, FrameParams(iws=512, ows=128, hop=128, n_dft=512)))

    def test_independent_of_pipeline_frame_params(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(2000)
        s_hat = s + 0.1 * rng.standard_normal(2000)
        # the metric takes no pipeline geometry; both calls see the same default
        assert wav_mag_loss(s_hat, s) == wav_mag_loss(s_hat, s)


class TestComputeMetrics:
    def test_report_fields(self):
        rng = np.random.default_rng(10)
        ref = rng.standard_normal(3000)
        report = compute_metrics(ref + 0.1 * rng.standard_normal(3000), ref)
        assert report.n_samples == 3000
        assert set(asdict(report)) == {
            "si_sdr_db",
            "ri_mag_loss",
            "ri_mag_loss_mean",
            "wav_mag_loss",
            "wav_mag_loss_mean",
            "n_samples",
        }

    def test_means_divide_the_sums_by_their_terms(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal(3000)
        est = ref + 0.2 * rng.standard_normal(3000)
        report = compute_metrics(est, ref)
        spec = analyze(ref, *_LOSS_STFT)
        assert report.ri_mag_loss == ri_mag_loss(analyze(est, *_LOSS_STFT), spec)
        assert report.wav_mag_loss == wav_mag_loss(est, ref)
        assert report.ri_mag_loss_mean == report.ri_mag_loss / (3 * spec.size)
        assert report.wav_mag_loss_mean == report.wav_mag_loss / (3000 + spec.size)
