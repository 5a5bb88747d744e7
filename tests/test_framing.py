import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualwin import framing
from dualwin.estimators import EstimatorKind
from dualwin.framing import (
    AnalysisStream,
    FrameParams,
    SignalFrames,
    SpectrumFrame,
    SynthesisStream,
    algorithmic_latency,
    analyze,
    build_windows,
    synthesize_block,
    synthesize_frame,
)
from dualwin.pipeline import PipelineConfig, run_pipeline
from dualwin.windows import ASQRT_HANN, RECT, SQRT_HANN, TUKEY, make_analysis_window

ALL_KINDS = [SQRT_HANN, ASQRT_HANN, RECT, TUKEY]


def _roundtrip(x, kind, params):
    return run_pipeline(PipelineConfig(params=params, window=kind), x)[0]


class TestFrameParams:
    def test_defaults_match_16_4_2_ms(self):
        p = FrameParams()
        assert (p.sample_rate, p.iws, p.ows, p.hop, p.n_dft, p.frames_ahead) == (
            16000, 256, 64, 32, 256, 0,
        )
        assert p.n_bins == 129
        assert (p.ms(p.iws), p.ows_ms, p.hop_ms) == (16.0, 4.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameParams(ows=48)  # not a multiple of hop
        with pytest.raises(ValueError):
            FrameParams(iws=512)  # iws > n_dft
        with pytest.raises(ValueError):
            FrameParams(ows=512)  # ows > iws
        with pytest.raises(ValueError):
            FrameParams(iws=0)  # no window samples
        with pytest.raises(ValueError):
            FrameParams(n_dft=255)
        with pytest.raises(ValueError):
            FrameParams(frames_ahead=-1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frames_to_release_is_the_flush_loop_count(self, data):
        # the loop run_pipeline used to spell out: push until
        # every whole input hop has run and n samples are out
        hop = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32]), label="hop")
        ows = hop * data.draw(st.integers(1, 4), label="ows_mult")
        k = data.draw(st.integers(0, 5), label="frames_ahead")
        n = data.draw(st.integers(0, 20 * hop + 3), label="n")
        params = FrameParams(iws=ows, ows=ows, hop=hop, n_dft=ows + ows % 2, frames_ahead=k)
        stream = SynthesisStream(params)
        pushes = 0
        while pushes < n // hop or stream.released < n:
            stream.push(np.zeros(ows))
            pushes += 1
        assert params.frames_to_release(n) == pushes


class TestAnalysisStream:
    def test_priming_first_frame_content(self):
        params = FrameParams()
        g = make_analysis_window(TUKEY, params)
        stream = AnalysisStream(g, params)
        x = np.arange(1.0, 33.0)
        frames = stream.push(x)
        assert len(frames) == 1
        padded = np.concatenate([np.zeros(224), x])
        np.testing.assert_array_equal(
            frames.bins[0][0], np.fft.rfft(g * padded, 256)
        )

    def test_empty_push_yields_nothing(self):
        params = FrameParams()
        g = make_analysis_window(TUKEY, params)
        stream = AnalysisStream(g, params)
        block = stream.push(np.empty(0))
        assert len(block) == 0 and list(block) == []
        assert block.bins.shape == (0, 1, params.n_bins) and block.first_frame == 0

    def test_split_push_equals_single_push(self):
        params = FrameParams()
        g = make_analysis_window(TUKEY, params)
        x = np.random.default_rng(1).standard_normal(32)
        a = AnalysisStream(g, params)
        assert len(a.push(x[:16])) == 0
        frames_split = a.push(x[16:])
        frames_once = AnalysisStream(g, params).push(x)
        assert len(frames_split) == len(frames_once) == 1
        np.testing.assert_array_equal(frames_split.bins[0], frames_once.bins[0])

    def test_hermitian_bins_for_real_input(self):
        params = FrameParams()
        g = make_analysis_window(SQRT_HANN, params)
        frames = AnalysisStream(g, params).push(
            np.random.default_rng(2).standard_normal(320)
        )
        for f in frames:
            assert f.bins[0, 0].imag == 0.0
            assert f.bins[0, -1].imag == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=97), min_size=1, max_size=12))
    def test_chunking_invariance(self, cut_sizes):
        params = FrameParams()
        g = make_analysis_window(TUKEY, params)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(sum(cut_sizes))
        chunked = AnalysisStream(g, params)
        frames = []
        pos = 0
        for size in cut_sizes:
            frames.extend(chunked.push(x[pos : pos + size]))
            pos += size
        whole = AnalysisStream(g, params).push(x)
        assert len(frames) == len(whole) == len(x) // params.hop
        for fa, fb in zip(frames, whole):
            np.testing.assert_array_equal(fa.bins, fb.bins)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=97), min_size=1, max_size=12))
    def test_zero_channels_count_the_frames_of_one(self, cut_sizes):
        params = FrameParams()
        g = make_analysis_window(TUKEY, params)
        counting, mono = AnalysisStream(g, params, 0), AnalysisStream(g, params)
        for size in cut_sizes:
            empty, block = counting.push(np.zeros((0, size))), mono.push(np.zeros(size))
            assert empty.bins.shape == (len(block), 0, params.n_bins)
            assert empty.first_frame == block.first_frame
            assert counting.frames_emitted == mono.frames_emitted
        with pytest.raises(ValueError, match="expected 0 channels, got 1"):
            counting.push(np.zeros(32))

    def test_negative_channels_rejected(self):
        params = FrameParams()
        with pytest.raises(ValueError, match="channels must be >= 0, got -1"):
            AnalysisStream(make_analysis_window(TUKEY, params), params, -1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_analyze_equals_per_hop_pushes(self, data):
        hop = data.draw(st.sampled_from([2, 4, 8, 16, 32]), label="hop")
        ows = hop * data.draw(st.integers(1, 4), label="ows_mult")
        iws = data.draw(st.integers(ows, 160), label="iws")
        n_dft = data.draw(st.sampled_from([iws + iws % 2, 256]), label="n_dft")
        channels = data.draw(st.integers(1, 6), label="channels")
        n = data.draw(st.integers(0, 40 * hop), label="n")
        kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
        params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=n_dft)
        g = make_analysis_window(kind, params)
        x = np.random.default_rng(n).standard_normal((channels, n))
        stream = AnalysisStream(g, params, channels)
        frames = [f for i in range(0, n, hop) for f in stream.push(x[:, i : i + hop])]
        assert [f.frame_index for f in frames] == list(range(n // hop))
        whole = analyze(x, g, params)
        assert whole.shape == (n // hop, channels, params.n_bins)
        assert np.array_equal(whole, np.reshape([f.bins for f in frames], whole.shape))
        # the per-hop transform that batched framing replaced
        primed = np.concatenate([np.zeros((channels, iws - hop)), x], axis=1)
        loop = [
            np.fft.rfft(g * primed[:, t * hop : t * hop + iws], n=n_dft, axis=1)
            for t in range(n // hop)
        ]
        assert np.array_equal(whole, np.reshape(loop, whole.shape))
        assert np.array_equal(analyze(x[0], g, params), whole[:, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mixed_push_sizes_equal_analyze(self, data):
        hop = data.draw(st.sampled_from([2, 4, 8, 16, 32]), label="hop")
        ows = hop * data.draw(st.integers(1, 4), label="ows_mult")
        iws = data.draw(st.integers(ows, 160), label="iws")
        n_dft = data.draw(st.sampled_from([iws + iws % 2, 256]), label="n_dft")
        channels = data.draw(st.integers(1, 6), label="channels")
        kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
        sizes = data.draw(
            st.lists(
                st.one_of(
                    st.just(0),
                    st.just(1),
                    st.integers(1, hop - 1),  # partial hop
                    st.integers(hop + 1, 5 * hop),  # several hops
                ),
                max_size=15,
            ),
            label="sizes",
        )
        sizes = [size for other in sizes for size in (hop, other)]  # one-hop pushes in between
        params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=n_dft)
        g = make_analysis_window(kind, params)
        x = np.random.default_rng(len(sizes)).standard_normal((channels, sum(sizes)))
        stream = AnalysisStream(g, params, channels)
        frames, copies = [], []
        pos = 0
        for size in sizes:
            for frame in stream.push(x[:, pos : pos + size]):
                frames.append(frame)
                copies.append(frame.bins.copy())
            pos += size
        whole = analyze(x, g, params)
        assert [f.frame_index for f in frames] == list(range(len(whole)))
        assert np.array_equal(whole, np.reshape([f.bins for f in frames], whole.shape))
        # frames handed out earlier do not change with later pushes
        assert all(np.array_equal(f.bins, c) for f, c in zip(frames, copies))


def _unblocked_analysis(x, g, params, n_frames):
    """The whole-signal transform that blocking replaced: every frame's
    window products in one (T, channels, iws) array, then one rfft."""
    hop, iws = params.hop, params.iws
    primed = np.pad(x, ((0, 0), (iws - hop, max(n_frames * hop - x.shape[1], 0))))
    segments = np.reshape([primed[:, t * hop : t * hop + iws] for t in range(n_frames)], (n_frames, len(x), iws))
    return np.fft.rfft(segments * g, n=params.n_dft, axis=-1)


B = framing._ANALYZE_FRAMES


class TestBlockedAnalyze:
    """analyze frames B frames at a time; its bytes must not show it."""

    @pytest.mark.parametrize("params", [FrameParams(), FrameParams(iws=160, ows=64, hop=32, n_dft=256)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("n_frames", [0, 1, B - 1, B, B + 1, 2 * B + 5])
    def test_matches_stream_and_unblocked_bytes(self, n_frames, channels, params):
        g, _ = build_windows(TUKEY, params)
        n = n_frames * params.hop + params.hop // 2
        x = np.random.default_rng(n_frames).standard_normal((channels, n))
        whole = analyze(x, g, params)
        assert whole.shape == (n_frames, channels, params.n_bins)
        assert whole.tobytes() == _unblocked_analysis(x, g, params, n_frames).tobytes()
        pushed = AnalysisStream(g, params, channels).push(x)
        assert whole.tobytes() == np.reshape([f.bins for f in pushed], whole.shape).tobytes()
        assert analyze(x[0], g, params).tobytes() == np.ascontiguousarray(whole[:, 0]).tobytes()

    @pytest.mark.parametrize("params", [FrameParams(), FrameParams(iws=160, ows=64, hop=32, n_dft=256)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("n_frames", [B - 1, B, B + 1, 2 * B + 5])
    def test_flush_matches_unblocked_bytes(self, n_frames, channels, params):
        # SignalFrames(flush=True) frames a Session's oracle rows; the longest input
        # that flushes to exactly n_frames frames, some of them past its end
        g, _ = build_windows(TUKEY, params)
        n = max(m for m in range(n_frames * params.hop) if params.frames_to_release(m) == n_frames)
        x = np.random.default_rng(n_frames).standard_normal((channels, n))
        frames = SignalFrames(x, g, params, flush=True)
        assert n // params.hop < n_frames == len(frames)
        # framed a block at a time, as a Session reads its oracle rows
        flushed = np.concatenate([frames.block(a, min(a + 37, n_frames)) for a in range(0, n_frames, 37)])
        assert flushed.shape == (n_frames, channels, params.n_bins)
        assert flushed.tobytes() == _unblocked_analysis(x, g, params, n_frames).tobytes()
        assert frames.block(0, n_frames).tobytes() == flushed.tobytes()
        assert SignalFrames(list(x), g, params, flush=True).block(0, n_frames).tobytes() == flushed.tobytes()
        mono = SignalFrames(x[0], g, params, flush=True).block(2, 9)
        assert mono.tobytes() == np.ascontiguousarray(flushed[2:9, :1]).tobytes()
        stream = AnalysisStream(g, params, channels)
        pushed = stream.push(np.concatenate([x, np.zeros((channels, n_frames * params.hop - n))], axis=1))
        assert flushed.tobytes() == np.reshape([f.bins for f in pushed], flushed.shape).tobytes()


class TestSynthesis:
    def test_zero_frame_gives_zero_chunk(self):
        params = FrameParams()
        _, l = build_windows(TUKEY, params)
        chunk = synthesize_frame(
            SpectrumFrame(np.zeros(params.n_bins, complex), 0), l, params
        )
        np.testing.assert_array_equal(chunk, np.zeros(params.ows))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_synthesize_frame_matches_inverse_rfft(self, data):
        hop = data.draw(st.sampled_from([2, 4, 8, 16, 32]), label="hop")
        ows = hop * data.draw(st.integers(1, 4), label="ows_mult")
        iws = data.draw(st.integers(ows, 256), label="iws")
        n_dft = data.draw(st.sampled_from([iws + iws % 2, iws + iws % 2 + 6, 256, 512]), label="n_dft")
        kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
        layout = data.draw(st.sampled_from(["complex128", "complex64", "strided"]), label="layout")
        params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=n_dft)
        try:
            _, l = build_windows(kind, params)
        except ValueError:
            assume(False)  # no perfect-reconstruction partner (see the round-trip test)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (params.n_bins,)
        bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert bins[0].imag != 0 and bins[-1].imag != 0  # irfft ignores these two
        if layout == "complex64":
            bins = bins.astype(np.complex64)
        elif layout == "strided":
            bins = np.repeat(bins, 2)[::2]
        got = synthesize_frame(SpectrumFrame(bins, 0), l, params)
        # the full inverse this replaces; complex64 bins are taken at their exact
        # values (irfft would run in single precision on them)
        seg = np.fft.irfft(bins.astype(np.complex128), params.n_dft)
        expected = seg[iws - ows : iws] * l
        assert got.shape == (ows,)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_non_finite_bins_rejected(self):
        params = FrameParams()
        _, l = build_windows(TUKEY, params)
        bins = np.zeros(params.n_bins, complex)
        bins[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            synthesize_frame(SpectrumFrame(bins, 0), l, params)

    def test_overlap_add_release_counting(self):
        params = FrameParams()  # ows=64, hop=32
        stream = SynthesisStream(params)
        chunk = np.ones(64)
        assert len(stream.push(chunk)) == 0
        assert stream.released == 0
        assert len(stream.push(chunk)) == 32
        assert stream.released == 32
        assert len(stream.push(chunk)) == 32
        assert stream.released == 64

    def test_dc_signal_rect_reconstructs_to_one(self):
        params = FrameParams()
        dc = np.ones(4000)
        out = _roundtrip(dc, RECT, params)
        np.testing.assert_allclose(out, dc, atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_identity_transparency_default_params(self, kind):
        params = FrameParams()
        x = np.random.default_rng(4).standard_normal(8000)
        out = _roundtrip(x, kind, params)
        assert np.linalg.norm(out - x) / np.linalg.norm(x) < 1e-10

    @pytest.mark.parametrize(
        "iws,ows,hop", [(256, 64, 32), (256, 32, 16), (128, 64, 32), (256, 64, 16)]
    )
    def test_identity_transparency_other_geometries(self, iws, ows, hop):
        params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=256)
        x = np.random.default_rng(5).standard_normal(6000)
        for kind in ALL_KINDS:
            out = _roundtrip(x, kind, params)
            assert np.linalg.norm(out - x) / np.linalg.norm(x) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_round_trip_property_over_random_geometries(self, data):
        hop = data.draw(st.sampled_from([2, 4, 8, 16, 32]), label="hop")
        ows = hop * data.draw(st.integers(1, 4), label="ows_mult")
        iws = data.draw(st.integers(ows, 256), label="iws")
        kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
        params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=256)
        try:
            build_windows(kind, params)
        except ValueError:
            # a window that vanishes over a whole hop comb (e.g. iws == ows
            # with a zero first sample) has no perfect-reconstruction partner
            assume(False)
        x = np.random.default_rng(11).standard_normal(40 * hop)
        out = _roundtrip(x, kind, params)
        assert np.linalg.norm(out - x) / np.linalg.norm(x) < 1e-10

    def test_future_frame_shift_places_chunks_one_hop_later(self):
        # with k=1 each chunk lands one hop later in its own timeline; an
        # oracle of the input delayed one hop replays frame t of the input at
        # frame t, so this identity chain delays content by exactly one hop
        params_k1 = FrameParams(frames_ahead=1)
        x = np.random.default_rng(6).standard_normal(4000)
        hop = params_k1.hop
        cfg = PipelineConfig(params=params_k1, stage1=EstimatorKind("oracle_complex"))
        out, _ = run_pipeline(cfg, x, np.concatenate([np.zeros(hop), x[:-hop]]))
        np.testing.assert_allclose(out[hop:], x[:-hop], atol=1e-10)


def _draw_geometry(data):
    """Random params, k = 0..3 included, and their synthesis window."""
    hop = data.draw(st.sampled_from([2, 4, 8, 16, 32]), label="hop")
    ows = hop * data.draw(st.integers(1, 4), label="ows_mult")
    iws = data.draw(st.integers(ows, 256), label="iws")
    n_dft = data.draw(st.sampled_from([iws + iws % 2, 256, 512]), label="n_dft")
    k = data.draw(st.integers(0, 3), label="frames_ahead")
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    params = FrameParams(iws=iws, ows=ows, hop=hop, n_dft=n_dft, frames_ahead=k)
    try:
        _, l = build_windows(kind, params)
    except ValueError:
        assume(False)  # no perfect-reconstruction partner
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return params, l, rng


def _random_bins(rng, frames, params):
    shape = (frames, params.n_bins)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBlocks:
    """A block of frames gives what one frame at a time gives, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_synthesis_equals_per_frame(self, data):
        params, l, rng = _draw_geometry(data)
        frames = data.draw(st.integers(1, 64), label="frames")
        first = data.draw(st.integers(0, 10_000), label="first_frame")
        bins = _random_bins(rng, frames, params)
        got = synthesize_block(bins, l, params, first)
        expected = [synthesize_frame(SpectrumFrame(b, first + i), l, params) for i, b in enumerate(bins)]
        assert got.shape == (frames, params.ows)
        assert np.array_equal(got, np.stack(expected))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_overlap_add_equals_one_chunk_pushes(self, data):
        # from frame 0, so the leading frames that release nothing and, for
        # k > 0, the never-contributed gap are covered
        params, _, rng = _draw_geometry(data)
        sizes = data.draw(st.lists(st.integers(0, 64), min_size=1, max_size=6), label="sizes")
        chunks = rng.standard_normal((sum(sizes), params.ows))
        single, block = SynthesisStream(params), SynthesisStream(params)
        expected = [single.push(chunk) for chunk in chunks]
        start = 0
        for size in sizes:
            got = block.push(chunks[start : start + size])
            want = np.concatenate([np.empty(0), *expected[start : start + size]])
            assert np.array_equal(got, want)
            start += size
        assert block.released == single.released

    @pytest.mark.parametrize("ratio", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 2])
    def test_t_chunk_push_equals_t_one_chunk_pushes_bytes(self, ratio, k):
        # every chunk count from 0 to 33, each against one push per chunk, with the
        # accumulator's unreleased sums carried from push to push
        params = FrameParams(iws=256, ows=32 * ratio, hop=32, n_dft=256, frames_ahead=k)
        rng = np.random.default_rng(ratio + 10 * k)
        single, block = SynthesisStream(params), SynthesisStream(params)
        for size in [*range(34), 1, 33, 7]:
            chunks = rng.standard_normal((size, params.ows)) * 10.0 ** rng.integers(-8, 8, (size, 1))
            want = np.concatenate([np.empty(0), *(single.push(chunk) for chunk in chunks)])
            assert block.push(chunks).tobytes() == want.tobytes(), size
        assert block.released == single.released

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_non_finite_row_names_its_absolute_frame(self, data):
        params, l, rng = _draw_geometry(data)
        frames = data.draw(st.integers(1, 64), label="frames")
        first = data.draw(st.integers(0, 10_000), label="first_frame")
        bad = sorted(data.draw(st.sets(st.integers(0, frames - 1), min_size=1, max_size=3), label="bad"))
        bins = _random_bins(rng, frames, params)
        for row in bad:
            value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf]), label="value")
            bins[row, data.draw(st.integers(0, params.n_bins - 1), label="bin")] = value
        message = f"non-finite bins in frame {first + bad[0]}$"
        with pytest.raises(ValueError, match=message):
            synthesize_block(bins, l, params, first)
        with pytest.raises(ValueError, match=message):
            synthesize_frame(SpectrumFrame(bins[bad[0]], first + bad[0]), l, params)


@pytest.mark.parametrize("entry", ["analyze", "AnalysisStream", "synthesize_block"])
def test_window_of_another_geometry_is_rejected(entry):
    params = FrameParams()
    g, l = build_windows(TUKEY, FrameParams(iws=128, ows=32))  # sized for other params
    call = {
        "analyze": lambda: analyze(np.zeros(320), g, params),
        "AnalysisStream": lambda: AnalysisStream(g, params),
        "synthesize_block": lambda: synthesize_block(np.zeros((2, params.n_bins), complex), l, params),
    }[entry]
    with pytest.raises(ValueError, match=r"window length (128 does not match iws 256|32 does not match ows 64)"):
        call()


class TestLatencyAccounting:
    def test_algorithmic_latency_table(self):
        # 4 ms output window, 2 ms hop: 4/2/0/-2 ms for k = 0..3
        for k, expected in [(0, 4.0), (1, 2.0), (2, 0.0), (3, -2.0)]:
            assert algorithmic_latency(FrameParams(frames_ahead=k)) == expected

    def _release_times(self, params, probes):
        g, l = build_windows(TUKEY, params)
        astream = AnalysisStream(g, params)
        sstream = SynthesisStream(params)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(48 * params.hop)
        when = {}
        for i in range(len(x)):
            for frame in astream.push(x[i : i + 1]):
                mono = SpectrumFrame(frame.bins[0], frame.frame_index)
                sstream.push(synthesize_frame(mono, l, params))
            for n in probes:
                if n not in when and sstream.released > n:
                    when[n] = i + 1
        return when

    def test_release_exact_on_hop_boundaries_and_interiors(self):
        params = FrameParams()
        b, a = params.hop, params.ows
        boundary, interior = 16 * b, 16 * b + 5
        when = self._release_times(params, [boundary, interior])
        # boundary sample: available after exactly n + ows ingested samples
        assert when[boundary] == boundary + a
        # interior sample: released with its hop block, never later than n + ows
        assert when[interior] == (interior // b) * b + a
        assert when[interior] <= interior + a

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_release_advances_one_hop_per_predicted_frame(self, k):
        params = FrameParams(frames_ahead=k)
        b = params.hop
        n = 16 * b
        when = self._release_times(params, [n])
        assert when[n] == n + params.ows - k * b
