import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from dualwin import metrics
from dualwin.framing import FrameParams, analyze
from dualwin.metrics import _LOSS_STFT, compute_metrics, si_sdr
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

    @pytest.mark.parametrize("noise", [0.3, 1e-3, 3.0])
    def test_matches_exact_sums_on_a_long_signal(self, noise):
        # every sum of products taken exactly (math.fsum); the first run measured at most
        # 2 ulps of the exact value here, whatever the BLAS thread count (np.dot's sums
        # measured 3-4 ulps on one OpenBLAS thread and 0-1 on two)
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(400000)
        est = 0.8 * ref + noise * rng.standard_normal(400000)
        target = math.fsum(est * ref) / math.fsum(ref * ref) * ref
        exact = 10.0 * math.log10(math.fsum(target * target) / math.fsum((target - est) ** 2))
        assert abs(si_sdr(est, ref) - exact) <= 2 * math.ulp(exact)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["estimate", "reference"])
    def test_non_finite_input_rejected(self, bad, where):
        ref = np.random.default_rng(7).standard_normal(100)
        est = ref + 0.1
        (est if where == "estimate" else ref)[17] = bad
        with pytest.raises(ValueError, match="not finite"):
            si_sdr(est, ref)


def _naive_ri_mag(s_hat, s):
    """The RI+magnitude loss of two (T, F) spectra, one bin at a time, with
    the terms added exactly (``math.fsum``)."""
    return math.fsum(
        term
        for t in range(s.shape[0])
        for f in range(s.shape[1])
        for term in (
            abs(s_hat[t, f].real - s[t, f].real),
            abs(s_hat[t, f].imag - s[t, f].imag),
            abs(abs(s_hat[t, f]) - abs(s[t, f])),
        )
    )


class TestRiMagLoss:
    def test_zero_on_identical(self):
        x = np.random.default_rng(5).standard_normal(3000)
        assert compute_metrics(x, x).ri_mag_loss == 0.0

    def test_matches_naive_three_loop_oracle(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(700)
        est = ref + 0.3 * rng.standard_normal(700)
        naive = _naive_ri_mag(analyze(est, *_LOSS_STFT), analyze(ref, *_LOSS_STFT))
        # within 16 ulps of the exact sum: an absolute 1e-12 would be below the ulp of this sum
        assert abs(compute_metrics(est, ref).ri_mag_loss - naive) <= 16 * math.ulp(naive)


class TestWavMagLoss:
    def test_zero_on_identical(self):
        x = np.random.default_rng(7).standard_normal(3000)
        assert compute_metrics(x, x).wav_mag_loss == 0.0

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
        # the reference is the impulse and the estimate is silent: the loss
        # is symmetric, and SI-SDR needs a reference with energy
        assert compute_metrics(np.zeros(n), impulse).wav_mag_loss == pytest.approx(expected, rel=1e-12)

    def test_decreases_along_interpolation_to_target(self):
        rng = np.random.default_rng(30)
        s = rng.standard_normal(4000)
        x0 = s + rng.standard_normal(4000)
        losses = [
            compute_metrics((1 - lam) * x0 + lam * s, s).wav_mag_loss for lam in np.linspace(0, 1, 9)
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
        assert compute_metrics(s_hat, s) == compute_metrics(s_hat, s)


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

    @pytest.mark.parametrize(
        "est_shape, ref_shape", [((3000,), (1900,)), ((2, 3000), (2, 3000)), ((3000,), (1, 3000))]
    )
    def test_inputs_are_checked_before_any_analysis(self, monkeypatch, est_shape, ref_shape):
        # one error naming both shapes, not numpy's broadcast or alignment error
        monkeypatch.setattr(metrics, "analyze", lambda *a: pytest.fail("analyzed unchecked input"))
        rng = np.random.default_rng(12)
        est, ref = rng.standard_normal(est_shape), rng.standard_normal(ref_shape)
        with pytest.raises(ValueError, match=re.escape(f"got shapes {est_shape} and {ref_shape}")):
            compute_metrics(est, ref)

    def test_means_divide_the_sums_by_their_terms(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal(3000)
        est = ref + 0.2 * rng.standard_normal(3000)
        report = compute_metrics(est, ref)
        spec = analyze(ref, *_LOSS_STFT)
        assert report.ri_mag_loss_mean == report.ri_mag_loss / (3 * spec.size)
        assert report.wav_mag_loss_mean == report.wav_mag_loss / (3000 + spec.size)

    # seeds whose RI sum changes if its three terms are added in another order; at n = 16000
    # a BLAS dot would split its sum over threads
    @pytest.mark.parametrize("seed, n", [(14, 3000), (14, 4097), (29, 700), (14, 16000)])
    def test_every_field_equals_the_unshared_expressions(self, seed, n):
        # each field spelled out with nothing shared: the magnitude term summed
        # once per loss and target - est formed twice, as before they were shared
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(n)
        est = 0.8 * ref + 0.3 * rng.standard_normal(n)
        s_hat, s = analyze(est, *_LOSS_STFT), analyze(ref, *_LOSS_STFT)
        d = s_hat - s
        ri = float(
            np.sum(np.abs(d.real)) + np.sum(np.abs(d.imag)) + np.sum(np.abs(np.abs(s_hat) - np.abs(s)))
        )
        wav = float(np.sum(np.abs(est - ref)) + np.sum(np.abs(np.abs(s_hat) - np.abs(s))))
        dot = lambda a, b: float(np.add.reduce(a * b))  # noqa: E731  pairwise, never BLAS
        target = dot(est, ref) / dot(ref, ref) * ref
        db = 10.0 * np.log10(dot(target, target) / dot(target - est, target - est))
        assert asdict(compute_metrics(est, ref)) == {
            "si_sdr_db": float(np.clip(db, -100.0, 100.0)),
            "ri_mag_loss": ri,
            "ri_mag_loss_mean": ri / (3 * s.size),
            "wav_mag_loss": wav,
            "wav_mag_loss_mean": wav / (n + s.size),
            "n_samples": n,
        }
