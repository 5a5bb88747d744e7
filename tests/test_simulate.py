import numpy as np
import pytest

from dualwin.simulate import (
    SPEED_OF_SOUND,
    active_power,
    array_geometry,
    fractional_delay,
    make_scene,
    mix,
    spatialize,
)


def _chirp(n, fs, f0=100.0, f1=6000.0):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * t[-1])))


class TestGeometry:
    def test_six_mic_circle(self):
        geom = array_geometry(6, 0.20)
        assert geom.shape == (6, 2) and not geom.flags.writeable
        np.testing.assert_allclose(geom[0], [0.10, 0.0], atol=1e-15)
        np.testing.assert_allclose(np.hypot(*geom.T), 0.10, atol=1e-15)

    def test_two_mics_are_antipodal(self):
        geom = array_geometry(2, 0.20)
        spacing = np.linalg.norm(geom[0] - geom[1])
        assert spacing == pytest.approx(0.20, abs=1e-15)

    def test_single_mic(self):
        geom = array_geometry(1, 0.10)
        np.testing.assert_allclose(geom, [[0.05, 0.0]], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            array_geometry(0, 0.2)
        with pytest.raises(ValueError):
            array_geometry(4, -1.0)


class TestFractionalDelay:
    def test_integer_delay_shifts_exactly(self):
        rng = np.random.default_rng(0)
        x = np.fft.irfft(np.fft.rfft(rng.standard_normal(2048)) * (np.fft.rfftfreq(2048) < 0.4), 2048)
        y = fractional_delay(x, 5.0)
        np.testing.assert_allclose(y[64:], x[59:-5], atol=1e-6)

    def test_half_sample_twice_equals_one_sample(self):
        # worst-case fractional offset; interpolation error is below -70 dB
        # for content under 0.6 Nyquist
        rng = np.random.default_rng(1)
        x = np.fft.irfft(np.fft.rfft(rng.standard_normal(2048)) * (np.fft.rfftfreq(2048) < 0.3), 2048)
        twice = fractional_delay(fractional_delay(x, 0.5), 0.5)
        once = fractional_delay(x, 1.0)
        np.testing.assert_allclose(twice[64:-64], once[64:-64], atol=2e-4)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            fractional_delay(np.ones(10), -0.1)


class TestSpatialize:
    def test_broadside_pair_is_identical(self):
        geom = array_geometry(2, 0.20)  # mics on the x axis
        x = _chirp(4000, 16000)
        out = spatialize(x, np.pi / 2, geom, 16000)  # source on the y axis
        np.testing.assert_allclose(out[0], out[1], atol=1e-6)

    def test_aligned_mic_leads(self):
        geom = array_geometry(6, 0.20)
        angles = np.arctan2(geom[:, 1], geom[:, 0])
        for p in range(6):
            tau = -(0.10 / SPEED_OF_SOUND) * np.cos(angles[p] - angles)
            assert np.argmin(tau) == p

    def test_cross_correlation_recovers_analytic_lags(self):
        # chirp through the array; parabolic-refined correlation peaks must
        # match the plane-wave delay formula to a fraction of a sample
        fs = 16000
        geom = array_geometry(6, 0.20)
        x = _chirp(8000, fs)
        out = spatialize(x, 0.0, geom, fs)
        angles = np.arctan2(geom[:, 1], geom[:, 0])
        tau = -(0.10 / SPEED_OF_SOUND) * np.cos(0.0 - angles)
        expected_lags = (tau - tau.min()) * fs
        ref_ch = int(np.argmin(expected_lags))
        for p in range(6):
            corr = np.correlate(out[p], out[ref_ch], mode="full")
            peak = int(np.argmax(corr))
            y0, y1, y2 = corr[peak - 1 : peak + 2]
            frac = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)  # parabolic vertex
            lag = peak + frac - (len(x) - 1)
            assert lag == pytest.approx(expected_lags[p], abs=0.15)

    def test_non_finite_source_rejected(self):
        geom = array_geometry(2, 0.2)
        with pytest.raises(ValueError):
            spatialize(np.array([1.0, np.nan]), 0.0, geom, 16000)


class TestMix:
    def _spatialized(self, seed, n=4000, channels=3):
        rng = np.random.default_rng(seed)
        geom = array_geometry(channels, 0.2)
        src = rng.standard_normal(n)
        return spatialize(src, rng.uniform(0, 2 * np.pi), geom, 16000)

    def test_zero_db_means_equal_power(self):
        target = self._spatialized(0)
        noise = self._spatialized(1)
        scene = mix(target, [noise], 0.0, 16000)
        p_t = np.mean(scene.target_direct**2)
        p_n = np.mean((scene.noise_scale * noise[0]) ** 2)
        assert p_n == pytest.approx(p_t, rel=1e-9)

    @pytest.mark.parametrize("snr_db", [-8.0, 3.0])
    def test_requested_snr_is_measured(self, snr_db):
        target = self._spatialized(2)
        noises = [self._spatialized(3), self._spatialized(4)]
        scene = mix(target, noises, snr_db, 16000)
        scaled = scene.noise_scale * (noises[0][0] + noises[1][0])
        measured = 10 * np.log10(np.mean(scene.target_direct**2) / np.mean(scaled**2))
        assert measured == pytest.approx(snr_db, abs=0.01)

    @pytest.mark.parametrize("n_noises", [1, 2, 3, 5])
    def test_mixture_resums_exactly(self, n_noises):
        # mix adds the noises one by one into a running sum: the bits of summing their stack
        target = self._spatialized(5)
        noises = [(1 + i) * self._spatialized(6 + i) for i in range(n_noises)]
        scene = mix(target, noises, 4.0, 16000)
        resummed = target + scene.noise_scale * np.sum(np.stack(noises), axis=0)
        assert np.array_equal(scene.mixture, resummed)

    def test_error_contracts(self):
        target = self._spatialized(8)
        with pytest.raises(ValueError, match="at least one noise"):
            mix(target, [], 0.0, 16000)
        with pytest.raises(ValueError, match="zero power"):
            mix(np.zeros_like(target), [target], 0.0, 16000)
        with pytest.raises(ValueError, match="zero power"):
            mix(target, [np.zeros_like(target)], 0.0, 16000)
        for ref_mic in (-1, 3):  # a negative index would pick the last mic
            with pytest.raises(ValueError, match=f"ref_mic {ref_mic} out of range for 3 channels"):
                mix(target, [target], 0.0, 16000, ref_mic=ref_mic)
        with pytest.raises(ValueError, match=r"^target must be \(channels, samples\)$"):
            mix(target[0], [target[0]], 0.0, 16000)
        with pytest.raises(ValueError, match=r"^noise shape \(2, \d+\) does not match target \(3, \d+\)$"):
            mix(target, [target[:2]], 0.0, 16000)
        with pytest.raises(ValueError, match="^need at least one noise source, got 0$"):
            make_scene(seed=0, n_noises=0)


class TestScenes:
    def test_same_seed_is_bit_identical(self):
        a = make_scene(seed=42, channels=4, duration_s=0.4)
        b = make_scene(seed=42, channels=4, duration_s=0.4)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        np.testing.assert_array_equal(a.target_direct, b.target_direct)
        assert a.noise_scale == b.noise_scale

    def test_different_seeds_differ(self):
        a = make_scene(seed=1, channels=4, duration_s=0.4)
        b = make_scene(seed=2, channels=4, duration_s=0.4)
        assert not np.array_equal(a.mixture, b.mixture)

    def test_scene_metadata(self):
        scene = make_scene(seed=0, channels=6, n_noises=3, snr_db=-2.0)
        assert scene.mixture.shape == (6, 16000)
        assert scene.snr_db == -2.0
        roles = [s.role for s in scene.sources]
        assert roles == ["target", "noise", "noise", "noise"]
        assert all(-3.0 <= s.level_db <= 9.0 for s in scene.sources[2:])

    def test_reference_is_target_channel_at_ref_mic(self):
        scene = make_scene(seed=3, channels=4, snr_db=30.0)
        # at +30 dB SNR the mixture at the ref mic is close to the reference
        err = np.linalg.norm(scene.mixture[scene.ref_mic] - scene.target_direct)
        assert err / np.linalg.norm(scene.target_direct) < 0.05


class TestActivePower:
    def test_silence_is_excluded(self):
        loud = np.full(100, 0.5)
        padded = np.concatenate([loud, np.zeros(900)])
        assert active_power(padded) == pytest.approx(0.25, rel=1e-12)
        assert active_power(np.zeros(10)) == 0.0
