import numpy as np
import pytest

from dualwin.windows import (
    ASQRT_HANN,
    RECT,
    SQRT_HANN,
    TUKEY,
    AnalysisWindow,
    WindowKind,
    make_analysis_window,
    make_synthesis_window,
    verify_cola,
)

ALL_KINDS = [SQRT_HANN, ASQRT_HANN, RECT, TUKEY]

# direct scalar evaluation of the synthesis formula for Tukey(256, 1/16),
# A=64, B=32 (independent of the numpy implementation)
TUKEY_SYNTH_L0 = 0.5
TUKEY_SYNTH_L63 = 0.009606473107830077


class TestAnalysisWindows:
    def test_tukey_branch_endpoints(self):
        g = make_analysis_window(TUKEY, 256)
        assert g.samples[0] == 0.0
        assert g.samples[16] == pytest.approx(1.0, abs=1e-15)  # 0.5 - 0.5*cos(pi)
        assert g.samples[128] == 1.0

    def test_tukey_one_ms_taper_each_end(self):
        # alpha = 1/16 of a 16 ms window tapers exactly 1 ms (16 samples) per end
        g = make_analysis_window(TUKEY, 256)
        assert np.all(g.samples[16:240] == 1.0)
        assert np.any(g.samples[:16] < 1.0)
        assert np.any(g.samples[241:] < 1.0)

    def test_tukey_symmetry_on_tapers(self):
        g = make_analysis_window(TUKEY, 256).samples
        n = np.arange(1, 16)
        np.testing.assert_array_equal(g[256 - n], g[n])

    def test_rect_is_all_ones(self):
        g = make_analysis_window(RECT, 256)
        np.testing.assert_array_equal(g.samples, np.ones(256))

    def test_asqrthann_paper_split(self):
        # 16 ms window at 16 kHz with a 2 ms hop: first 240 samples come from
        # the first half of a 480-sample sqrt-Hann, last 16 from the second
        # half of a 32-sample sqrt-Hann
        g = make_analysis_window(ASQRT_HANN, 256, hop=32)
        left = np.sin(np.pi * np.arange(480) / 480)[:240]
        right = np.sin(np.pi * np.arange(32) / 32)[16:]
        np.testing.assert_array_equal(g.samples[:240], left)
        np.testing.assert_array_equal(g.samples[240:], right)
        assert g.samples[240] == 1.0

    def test_all_values_in_unit_interval(self):
        for kind in ALL_KINDS:
            g = make_analysis_window(kind, 256, hop=32)
            assert np.all(g.samples >= 0.0) and np.all(g.samples <= 1.0)

    def test_invalid_tukey_alpha(self):
        for alpha in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValueError):
                WindowKind("tukey", alpha)

    def test_asqrthann_needs_valid_hop(self):
        with pytest.raises(ValueError):
            make_analysis_window(ASQRT_HANN, 256)
        with pytest.raises(ValueError):
            make_analysis_window(ASQRT_HANN, 256, hop=31)
        with pytest.raises(ValueError):
            make_analysis_window(ASQRT_HANN, 8, hop=32)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WindowKind("hamming")

    def test_window_is_immutable(self):
        g = make_analysis_window(TUKEY, 256)
        with pytest.raises(ValueError):
            g.samples[0] = 1.0


class TestSynthesisWindow:
    def test_rect_half_overlap_is_constant_half(self):
        g = make_analysis_window(RECT, 256)
        l = make_synthesis_window(g, 64, 32)
        np.testing.assert_array_equal(l.samples, np.full(64, 0.5))

    def test_rect_no_overlap_is_one(self):
        g = make_analysis_window(RECT, 256)
        l = make_synthesis_window(g, 64, 64)
        np.testing.assert_array_equal(l.samples, np.ones(64))

    def test_tukey_pinned_values(self):
        g = make_analysis_window(TUKEY, 256)
        l = make_synthesis_window(g, 64, 32)
        assert l.samples[0] == pytest.approx(TUKEY_SYNTH_L0, abs=1e-15)
        assert l.samples[63] == pytest.approx(TUKEY_SYNTH_L63, abs=1e-15)

    def test_scale_covariance(self):
        # scaling the analysis window by c scales the synthesis window by 1/c
        g = make_analysis_window(TUKEY, 256)
        l = make_synthesis_window(g, 64, 32)
        scaled = AnalysisWindow(0.25 * g.samples)
        l_scaled = make_synthesis_window(scaled, 64, 32)
        np.testing.assert_allclose(l_scaled.samples, 4.0 * l.samples, rtol=1e-14)

    def test_zero_denominator_names_index(self):
        g = AnalysisWindow(np.concatenate([np.ones(192), np.zeros(64)]))
        with pytest.raises(ValueError, match="index 0"):
            make_synthesis_window(g, 64, 32)

    def test_size_validation(self):
        g = make_analysis_window(RECT, 256)
        with pytest.raises(ValueError):
            make_synthesis_window(g, 48, 32)  # not a multiple
        with pytest.raises(ValueError):
            make_synthesis_window(g, 512, 32)  # longer than analysis window


class TestVerifyCola:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_matched_pairs_are_tight(self, kind):
        g = make_analysis_window(kind, 256, hop=32)
        l = make_synthesis_window(g, 64, 32)
        assert verify_cola(g, l, 256) < 1e-12

    def test_matched_pair_with_zero_padding(self):
        g = make_analysis_window(TUKEY, 128, hop=32)
        l = make_synthesis_window(g, 64, 32)
        assert verify_cola(g, l, 256) < 1e-12

    def test_mismatched_pair_is_loud(self):
        # Tukey analysis against the rect-derived synthesis window: the
        # check has to discriminate, not just accept everything
        g_tukey = make_analysis_window(TUKEY, 256)
        g_rect = make_analysis_window(RECT, 256)
        l_rect = make_synthesis_window(g_rect, 64, 32)
        assert verify_cola(g_tukey, l_rect, 256) > 1e-3
