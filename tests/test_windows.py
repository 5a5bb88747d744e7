import numpy as np
import pytest

from dualwin.framing import FrameParams
from dualwin.windows import (
    ASQRT_HANN,
    RECT,
    SQRT_HANN,
    TUKEY,
    WindowKind,
    make_analysis_window,
    make_synthesis_window,
    verify_cola,
)

ALL_KINDS = [SQRT_HANN, ASQRT_HANN, RECT, TUKEY]
PARAMS = FrameParams()  # iws=256, ows=64, hop=32, n_dft=256

# direct scalar evaluation of the synthesis formula for Tukey(256, 1/16),
# A=64, B=32 (independent of the numpy implementation)
TUKEY_SYNTH_L0 = 0.5
TUKEY_SYNTH_L63 = 0.009606473107830077


class TestAnalysisWindows:
    def test_tukey_branch_endpoints(self):
        g = make_analysis_window(TUKEY, PARAMS)
        assert g[0] == 0.0
        assert g[16] == pytest.approx(1.0, abs=1e-15)  # 0.5 - 0.5*cos(pi)
        assert g[128] == 1.0

    def test_tukey_one_ms_taper_each_end(self):
        # alpha = 1/16 of a 16 ms window tapers exactly 1 ms (16 samples) per end
        g = make_analysis_window(TUKEY, PARAMS)
        assert np.all(g[16:240] == 1.0)
        assert np.any(g[:16] < 1.0)
        assert np.any(g[241:] < 1.0)

    def test_tukey_symmetry_on_tapers(self):
        g = make_analysis_window(TUKEY, PARAMS)
        n = np.arange(1, 16)
        np.testing.assert_array_equal(g[256 - n], g[n])

    def test_rect_is_all_ones(self):
        g = make_analysis_window(RECT, PARAMS)
        np.testing.assert_array_equal(g, np.ones(256))

    def test_asqrthann_paper_split(self):
        # 16 ms window at 16 kHz with a 2 ms hop: first 240 samples come from
        # the first half of a 480-sample sqrt-Hann, last 16 from the second
        # half of a 32-sample sqrt-Hann
        g = make_analysis_window(ASQRT_HANN, PARAMS)
        left = np.sin(np.pi * np.arange(480) / 480)[:240]
        right = np.sin(np.pi * np.arange(32) / 32)[16:]
        np.testing.assert_array_equal(g[:240], left)
        np.testing.assert_array_equal(g[240:], right)
        assert g[240] == 1.0

    def test_all_values_in_unit_interval(self):
        for kind in ALL_KINDS:
            g = make_analysis_window(kind, PARAMS)
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_asqrthann_needs_valid_hop(self):
        for hop in (1, 31):
            with pytest.raises(ValueError, match=f"even hop >= 2, got {hop}"):
                make_analysis_window(ASQRT_HANN, FrameParams(ows=2 * hop, hop=hop))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WindowKind("hamming")

    def test_window_is_immutable(self):
        g = make_analysis_window(TUKEY, PARAMS)
        l = make_synthesis_window(g, PARAMS)
        assert g.dtype == l.dtype == np.float64
        with pytest.raises(ValueError):
            g[0] = 1.0
        with pytest.raises(ValueError):
            l[0] = 1.0


class TestSynthesisWindow:
    def test_rect_half_overlap_is_constant_half(self):
        g = make_analysis_window(RECT, PARAMS)
        l = make_synthesis_window(g, PARAMS)
        np.testing.assert_array_equal(l, np.full(64, 0.5))

    def test_rect_no_overlap_is_one(self):
        g = make_analysis_window(RECT, PARAMS)
        l = make_synthesis_window(g, FrameParams(hop=64))
        np.testing.assert_array_equal(l, np.ones(64))

    def test_tukey_pinned_values(self):
        g = make_analysis_window(TUKEY, PARAMS)
        l = make_synthesis_window(g, PARAMS)
        assert l[0] == pytest.approx(TUKEY_SYNTH_L0, abs=1e-15)
        assert l[63] == pytest.approx(TUKEY_SYNTH_L63, abs=1e-15)

    def test_scale_covariance(self):
        # scaling the analysis window by c scales the synthesis window by 1/c
        g = make_analysis_window(TUKEY, PARAMS)
        l = make_synthesis_window(g, PARAMS)
        l_scaled = make_synthesis_window(0.25 * g, PARAMS)
        np.testing.assert_allclose(l_scaled, 4.0 * l, rtol=1e-14)

    def test_zero_denominator_names_index(self):
        g = np.concatenate([np.ones(192), np.zeros(64)])
        with pytest.raises(ValueError, match="index 0"):
            make_synthesis_window(g, PARAMS)



class TestVerifyCola:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_matched_pairs_are_tight(self, kind):
        g = make_analysis_window(kind, PARAMS)
        l = make_synthesis_window(g, PARAMS)
        assert verify_cola(g, l, PARAMS) < 1e-12

    def test_matched_pair_with_zero_padding(self):
        params = FrameParams(iws=128)
        g = make_analysis_window(TUKEY, params)
        l = make_synthesis_window(g, params)
        assert verify_cola(g, l, params) < 1e-12

    def test_mismatched_pair_is_loud(self):
        # Tukey analysis against the rect-derived synthesis window: the
        # check has to discriminate, not just accept everything
        g_tukey = make_analysis_window(TUKEY, PARAMS)
        g_rect = make_analysis_window(RECT, PARAMS)
        l_rect = make_synthesis_window(g_rect, PARAMS)
        assert verify_cola(g_tukey, l_rect, PARAMS) > 1e-3
