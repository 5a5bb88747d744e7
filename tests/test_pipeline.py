import json
import os
import re
import sys
import time
from contextlib import closing
from dataclasses import asdict

import numpy as np
import pytest

from dualwin import estimators, pipeline
from dualwin.beamformer import OnlineMcwf, apply_filter
from dualwin.estimators import EstimatorInput, EstimatorKind, make_estimator, save_frame_file
from dualwin.framing import (
    AnalysisStream,
    FrameParams,
    SignalFrames,
    SpectrumFrame,
    SynthesisStream,
    analyze,
    build_windows,
    synthesize_frame,
)
from dualwin.metrics import si_sdr
from dualwin.pipeline import (
    ConfigError,
    PipelineConfig,
    Session,
    audit_latency,
    run_pipeline,
)
from dualwin.simulate import make_scene
from dualwin.windows import RECT, TUKEY

STUB = os.path.join(os.path.dirname(__file__), "external_stub.py")


@pytest.fixture(scope="module")
def scene():
    return make_scene(seed=0, channels=6, snr_db=0.0, duration_s=0.75)


class TestTransparency:
    def test_oracle_complex_reconstructs_reference(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_complex"))
        out, report = run_pipeline(cfg, scene.mixture, scene.target_direct)
        assert si_sdr(out, scene.target_direct) >= 40.0
        rel = np.linalg.norm(out - scene.target_direct) / np.linalg.norm(scene.target_direct)
        assert rel < 1e-8
        assert report.metrics.si_sdr_db >= 40.0

    def test_passthrough_reproduces_mixture_channel(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("passthrough"))
        out, _ = run_pipeline(cfg, scene.mixture)
        assert si_sdr(out, scene.mixture[0]) >= 40.0

    def test_oracle_with_one_frame_prediction_stays_aligned(self, scene):
        # the oracle genuinely predicts frame t+1 at time t, so the output is
        # time-aligned with the reference apart from the first hop of samples
        params = FrameParams(frames_ahead=1)
        cfg = PipelineConfig(params=params, stage1=EstimatorKind("oracle_complex"))
        out, report = run_pipeline(cfg, scene.mixture, scene.target_direct)
        skip = params.frames_ahead * params.hop
        ref = scene.target_direct
        rel = np.linalg.norm(out[skip:] - ref[skip:]) / np.linalg.norm(ref[skip:])
        assert rel < 1e-8
        assert report.algorithmic_latency_ms == 2.0

    def test_rect_window_transparency(self, scene):
        cfg = PipelineConfig(window=RECT, stage1=EstimatorKind("oracle_complex"))
        out, _ = run_pipeline(cfg, scene.mixture, scene.target_direct)
        assert si_sdr(out, scene.target_direct) >= 40.0

    def test_passthrough_equals_complex_oracle_on_noise_free_scene(self):
        # without noise the mixture channel q is the reference, so the two
        # estimators produce bit-identical frames
        from dualwin.simulate import array_geometry, spatialize

        rng = np.random.default_rng(44)
        src = np.fft.irfft(
            np.fft.rfft(rng.standard_normal(8000)) * (np.fft.rfftfreq(8000) < 0.4), 8000
        )
        mixture = spatialize(src, 0.7, array_geometry(4, 0.2), 16000)
        reference = mixture[0]
        out_pt, _ = run_pipeline(PipelineConfig(), mixture)
        out_oc, _ = run_pipeline(
            PipelineConfig(stage1=EstimatorKind("oracle_complex")), mixture, reference
        )
        np.testing.assert_array_equal(out_pt, out_oc)


class TestStageTopology:
    def test_stage2_identity_matches_single_stage_bits(self, scene):
        single = PipelineConfig(stage1=EstimatorKind("oracle_mag_mask"))
        chained = PipelineConfig(
            stage1=EstimatorKind("oracle_mag_mask"),
            stage2=EstimatorKind("passthrough", source="stage1"),
        )
        out_a, _ = run_pipeline(single, scene.mixture, scene.target_direct)
        out_b, _ = run_pipeline(chained, scene.mixture, scene.target_direct)
        np.testing.assert_array_equal(out_a, out_b)

    def test_beamformer_last_equals_passthrough_of_beamformer(self, scene):
        bare = PipelineConfig(
            stage1=EstimatorKind("oracle_mag_mask"), beamformer="woodbury"
        )
        wrapped = PipelineConfig(
            stage1=EstimatorKind("oracle_mag_mask"),
            beamformer="woodbury",
            stage2=EstimatorKind("passthrough", source="beamformer"),
        )
        out_a, _ = run_pipeline(bare, scene.mixture, scene.target_direct)
        out_b, _ = run_pipeline(wrapped, scene.mixture, scene.target_direct)
        np.testing.assert_array_equal(out_a, out_b)

    def test_beamformed_pipeline_beats_mixture(self, scene):
        cfg = PipelineConfig(
            stage1=EstimatorKind("oracle_mag_mask"),
            beamformer="woodbury",
            stage2=EstimatorKind("passthrough", source="beamformer"),
        )
        out, _ = run_pipeline(cfg, scene.mixture, scene.target_direct)
        assert si_sdr(out, scene.target_direct) > si_sdr(
            scene.mixture[0], scene.target_direct
        )

    def test_file_backed_stage(self, tmp_path, scene):
        params = FrameParams()
        g, _ = build_windows(TUKEY, params)
        frames = analyze(scene.target_direct, g, params)
        path = str(tmp_path / "frames.npz")
        save_frame_file(path, frames, params)
        cfg = PipelineConfig(stage1=EstimatorKind("file", path=path))
        out, _ = run_pipeline(cfg, scene.mixture)
        keep = len(out) - params.ows  # tail frames are not in the file
        assert si_sdr(out[:keep], scene.target_direct[:keep]) >= 40.0

    def test_file_of_flush_rows_replays_at_the_cap(self, tmp_path):
        # a file that holds the flush rows also releases the last hop from the target
        params = FrameParams()
        g, _ = build_windows(TUKEY, params)
        scene = make_scene(seed=7, channels=6, snr_db=5.0, duration_s=1.0)
        framed = SignalFrames(scene.target_direct, g, params, flush=True)
        path = str(tmp_path / "frames.npz")
        rows = framed.block(0, len(framed))[:, 0]
        save_frame_file(path, rows, params)
        cfg = PipelineConfig(stage1=EstimatorKind("file", path=path))
        out, _ = run_pipeline(cfg, scene.mixture)
        assert len(framed) > len(scene.target_direct) // params.hop
        assert si_sdr(out, scene.target_direct) == 100.0  # SI_SDR_CAP_DB, as oracle_complex
        save_frame_file(path, np.concatenate([rows, rows[-1:]]), params)  # one row past the flush
        with pytest.raises(ValueError, match=f"holds 502 frames, stream expects 500 to 501$"):
            run_pipeline(cfg, scene.mixture)

    def test_external_stage_matches_passthrough(self, scene):
        command = f"{sys.executable} {STUB} identity"
        cfg = PipelineConfig(stage1=EstimatorKind("external", command=command))
        out_ext, _ = run_pipeline(cfg, scene.mixture[:2])
        out_ref, _ = run_pipeline(PipelineConfig(), scene.mixture[:2])
        # float32 wire format, so near- but not bit-identical
        assert np.max(np.abs(out_ext - out_ref)) < 1e-5


MASK = EstimatorKind("oracle_mag_mask")
TO_BEAMFORMER = EstimatorKind("passthrough", source="beamformer")
HORIZON = EstimatorKind("external", command=f"{sys.executable} {STUB} horizon")


class TestCausality:
    @pytest.mark.parametrize(
        "stages",
        [
            {},
            {"stage1": MASK, "beamformer": "woodbury", "stage2": TO_BEAMFORMER},
            {"stage1": MASK, "beamformer": "woodbury"},
            {"stage1": EstimatorKind("external", command=f"{sys.executable} {STUB} identity")},
        ],
        # "mask-direct-out": the beamformer's output is the pipeline's output
        ids=["passthrough", "mask-woodbury-passthrough", "mask-direct-out", "external"],
    )
    def test_zeroing_future_input_is_invisible_before_the_bound(self, stages):
        # the configured chain, not only an identity chain; the oracle sees a
        # fixed reference, so only the mixture's future is zeroed
        params = FrameParams()
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, 4000))
        ref = rng.standard_normal(4000)
        cut = 2400
        x2 = x.copy()
        x2[:, cut:] = 0.0
        cfg = PipelineConfig(params=params, **stages)
        out_a, _ = run_pipeline(cfg, x, ref)
        out_b, _ = run_pipeline(cfg, x2, ref)
        bound = cut - params.ows
        np.testing.assert_array_equal(out_a[:bound], out_b[:bound])
        assert not np.array_equal(out_a, out_b)

    def test_prediction_bound_with_clairvoyant_estimator(self):
        # for an honest predictor the causal bound shifts by k*hop (shown by
        # the identity-chain audit below); a clairvoyant oracle spends its
        # k-hop scheduling gain on look-ahead, so its bound stays cut - ows
        params = FrameParams(frames_ahead=1)
        rng = np.random.default_rng(43)
        x = rng.standard_normal((2, 4000))
        ref = rng.standard_normal(4000)
        cut = 2400
        x2 = x.copy()
        x2[:, cut:] = 0.0
        cfg = PipelineConfig(params=params, stage1=EstimatorKind("oracle_mag_mask"))
        out_a, _ = run_pipeline(cfg, x, ref)
        out_b, _ = run_pipeline(cfg, x2, ref)
        bound = cut - params.ows
        np.testing.assert_array_equal(out_a[:bound], out_b[:bound])
        assert not np.array_equal(out_a, out_b)

    def test_audit_passes_for_all_horizons(self):
        for check in map(audit_latency, (0, 1, 2, 3, 18, 40, 1000)):
            assert check.ok, check

    def test_audit_reports_expected_milliseconds(self):
        measured = [audit_latency(k).measured_ms for k in (0, 1, 2, 3, 18, 40, 1000)]
        assert measured == [4.0, 2.0, 0.0, -2.0, -32.0, -76.0, -1996.0]

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_audit_fails_a_look_ahead_stage(self, monkeypatch, k):
        # a stage that reads one row past its frame: output one hop early, and
        # released samples that depend on input not yet pushed
        read = estimators.TableEstimator.estimate_block
        monkeypatch.setattr(
            estimators.TableEstimator,
            "estimate_block",
            lambda self, mixture, stage1, beamformed, t0: read(self, mixture, stage1, beamformed, t0 + 1),
        )
        check = audit_latency(k)
        assert not check.impulse_ok and not check.causality_ok
        assert not check.ok

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_audit_fails_a_wrong_latency_formula(self, monkeypatch, k):
        # one hop fewer than the chain delivers: the measured delay must refute it
        monkeypatch.setattr(pipeline, "algorithmic_latency", lambda p: p.ows_ms - (p.frames_ahead + 1) * p.hop_ms)
        check = audit_latency(k)
        assert check.expected_ms == check.measured_ms - 2.0
        assert not check.timing_ok and check.impulse_ok and check.causality_ok
        assert not check.ok


class TestSession:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chunked_pushes_match_run_pipeline(self, scene, k):
        cfg = PipelineConfig(
            params=FrameParams(frames_ahead=k),
            stage1=MASK,
            beamformer="woodbury",
            stage2=EstimatorKind("oracle_complex"),
        )
        mixture, reference = scene.mixture, scene.target_direct
        expected, report = run_pipeline(cfg, mixture, reference)
        session = Session(cfg, mixture.shape[0], reference, mixture)
        parts, pos = [], 0
        for size in (1, 7, 32, 100, 5000, mixture.shape[1]):
            parts.append(session.push(mixture[:, pos : pos + size]))
            pos += size
        parts.append(session.flush())
        session.close()
        out = np.concatenate(parts)
        assert len(out) >= len(expected)
        np.testing.assert_array_equal(out[: len(expected)], expected)
        assert session.frames == report.frames

    @pytest.mark.parametrize("shape", [(2, 1600), (1, 2, 800), ()], ids=["two-channels", "3-d", "scalar"])
    @pytest.mark.parametrize("with_mixture", [False, True])
    def test_reference_must_be_one_channel(self, shape, with_mixture):
        # a (C, n) reference must not be flattened into C * n samples
        mixture = np.zeros((1, 1600)) if with_mixture else None
        with pytest.raises(ConfigError, match=re.escape(f"reference must be one channel, got shape {shape}")):
            Session(PipelineConfig(), 1, np.zeros(shape), mixture)
        for reference in (np.zeros(1600), np.zeros((1, 1600))):
            Session(PipelineConfig(), 1, reference, mixture).close()

    def test_flush_releases_every_pushed_sample_once(self):
        x = np.random.default_rng(45).standard_normal(3333)
        session = Session(PipelineConfig(), 1)
        out = np.concatenate([session.push(x), session.flush()])
        assert len(session.flush()) == 0
        np.testing.assert_allclose(out[: len(x)], x, rtol=0, atol=1e-10)

    def test_push_after_flush_raises(self):
        # the flush's zero padding ended the stream; more input would land after it
        x = np.random.default_rng(46).standard_normal(1600)
        session = Session(PipelineConfig(), 1)
        out = np.concatenate([session.push(x), session.flush()])
        np.testing.assert_allclose(out[: len(x)], x, rtol=0, atol=1e-10)
        frames = session.frames
        for chunk in (x, np.zeros(0)):
            with pytest.raises(ValueError, match="cannot push after flush"):
                session.push(chunk)
        assert session.frames == frames
        assert len(session.flush()) == 0

    @pytest.mark.parametrize(
        "stage1, signals", [("passthrough", []), ("oracle_complex", [1]), ("oracle_mag_mask", [2])]
    )
    def test_reference_is_framed_only_for_an_oracle(self, scene, monkeypatch, stage1, signals):
        # an oracle keeps its primed signals, (reference) or (reference, mixture[ref_mic]),
        # frames nothing at set-up and, read a few hops at a time, frames one block of rows
        built, framed = [], []

        class CountingFrames(SignalFrames):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.channels)

            def block(self, start, stop):
                framed.append((start, stop))
                return super().block(start, stop)

        monkeypatch.setattr(estimators, "SignalFrames", CountingFrames)
        cfg = PipelineConfig(stage1=EstimatorKind(stage1))
        with closing(Session(cfg, 6, scene.target_direct, scene.mixture)) as session:
            assert built == signals and framed == []
            for _ in range(5):
                session.push(scene.mixture[:, : cfg.params.hop])
            session.push(scene.mixture[:, :7])
            session.flush()
        assert session.frames > 5
        assert framed == ([(0, estimators._ORACLE_ROWS)] if signals else [])

    def test_mask_oracle_needs_the_mixture(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_mag_mask"))
        with pytest.raises(ValueError, match="mixture's reference channel"):
            Session(cfg, 6, scene.target_direct)

    def test_reference_length_is_checked_without_an_oracle(self, scene):
        with pytest.raises(ConfigError, match="length"):
            Session(PipelineConfig(), 6, scene.target_direct[:-1], scene.mixture)

    @pytest.mark.parametrize(
        "stages, horizon",
        [
            ({"stage1": HORIZON}, 2),
            ({"stage1": HORIZON, "beamformer": "woodbury", "stage2": EstimatorKind("oracle_complex")}, 0),
            ({"stage1": MASK, "beamformer": "woodbury", "stage2": HORIZON}, 2),
        ],
        ids=["alone", "stage1-before-the-beamformer", "stage2"],
    )
    def test_external_child_is_told_its_stage_horizon(self, scene, monkeypatch, stages, horizon):
        # the child replies to every bin with the horizon field of its handshake
        replies = []
        estimate_block = estimators.ExternalEstimator.estimate_block
        monkeypatch.setattr(
            estimators.ExternalEstimator,
            "estimate_block",
            lambda self, *args: replies.append(estimate_block(self, *args)) or replies[-1],
        )
        cfg = PipelineConfig(params=FrameParams(frames_ahead=2), **stages)
        with closing(Session(cfg, 6, scene.target_direct, scene.mixture)) as session:
            session.push(scene.mixture[:, : 10 * cfg.params.hop])
        assert len(replies) == 1
        assert np.array_equal(replies[0], np.full((10, cfg.params.n_bins), float(horizon)))

    def test_failed_construction_closes_the_stage1_child(self, tmp_path, monkeypatch):
        closed = []
        close = estimators.ExternalEstimator.close
        monkeypatch.setattr(
            estimators.ExternalEstimator, "close", lambda self: closed.append(self) or close(self)
        )
        cfg = PipelineConfig(
            stage1=EstimatorKind("external", command=f"{sys.executable} {STUB} identity"),
            stage2=EstimatorKind("file", path=str(tmp_path / "missing.npz")),
        )
        with pytest.raises(FileNotFoundError):
            Session(cfg, 2)
        assert len(closed) == 1 and closed[0]._proc.poll() is not None


def _per_frame_chain(cfg, mixture, reference):
    """The chain composed from the per-frame entry points, one hop per push,
    as the benchmark's live streams (``perfbench/adapter.py``) compose it:
    ``AnalysisStream.push``, the estimators, ``OnlineMcwf.update`` and
    ``apply_filter``, ``synthesize_frame`` and ``SynthesisStream.push``, then
    zero hops until every input sample is out. The last estimator stage
    reads row t + k at frame t, as in a ``Session``."""
    params = cfg.params
    k = params.frames_ahead
    channels, n = mixture.shape
    g, l = build_windows(cfg.window, params)
    tail = np.zeros(params.ows)
    bound = dict(
        channels=channels,
        ref_mic=cfg.ref_mic,  # the adapter passes none, so its mixture passthroughs forward mic 0
        reference_frames=analyze(np.concatenate([reference, tail]), g, params),
        mixture_ref_frames=analyze(np.concatenate([mixture[cfg.ref_mic], tail]), g, params),
        expected_frames=n // params.hop,
    )
    ahead1 = 0 if cfg.stage2 is not None else k  # PipelineConfig refuses the beamformer last at k > 0
    est1 = make_estimator(cfg.stage1, params, frames_ahead=ahead1, stage=1, **bound)
    est2 = bf = None
    if cfg.stage2 is not None:
        est2 = make_estimator(cfg.stage2, params, frames_ahead=k, stage=2, **bound)
    if cfg.beamformer is not None:
        # every keyword the benchmark adapter passes
        bf = OnlineMcwf(
            channels,
            params.n_bins,
            mode=cfg.beamformer,
            loading=cfg.loading,
            update_stride=cfg.update_stride,
            forgetting=cfg.forgetting,
            ref_mic=cfg.ref_mic,
        )
    astream, sstream = AnalysisStream(g, params, channels), SynthesisStream(params)

    def push(hop):
        parts = []
        for frame in astream.push(hop):
            t = frame.frame_index
            final = s1 = est1.estimate(EstimatorInput(frame.bins), t + ahead1)
            bf_out = None
            if bf is not None:
                final = bf_out = apply_filter(bf.update(frame.bins, s1), frame.bins)
            if est2 is not None:
                final = est2.estimate(EstimatorInput(frame.bins, s1, bf_out), t + k)
            parts.append(sstream.push(synthesize_frame(SpectrumFrame(final, t), l, params)))
        return parts

    released = []
    try:
        for start in range(0, n, params.hop):
            released += push(mixture[:, start : start + params.hop])
        while sstream.released < n:
            released += push(np.zeros((channels, params.hop)))
    finally:
        for est in (est1, est2):
            if est is not None:
                est.close()
    return np.concatenate(released)[:n]


class TestPerFrameEntryPoints:
    @pytest.mark.parametrize(
        "stages",
        [
            {"stage1": MASK, "beamformer": "woodbury", "stage2": TO_BEAMFORMER},
            {"stage1": EstimatorKind("external", command=f"{sys.executable} {STUB} identity")},
        ],
        ids=["mask-woodbury-passthrough", "external"],
    )
    def test_hop_by_hop_chain_matches_run_pipeline(self, scene, stages):
        # run_pipeline pushes blocks of hops; a frame's output must not
        # depend on the block it came in
        cfg = PipelineConfig(**stages)
        n = scene.mixture.shape[1] // cfg.params.hop * cfg.params.hop
        mixture, reference = scene.mixture[:, :n], scene.target_direct[:n]
        expected, _ = run_pipeline(cfg, mixture, reference)
        np.testing.assert_array_equal(_per_frame_chain(cfg, mixture, reference), expected)


EXTERNAL = EstimatorKind("external", command=f"{sys.executable} {STUB} identity")
BLOCK_CHAINS = {
    "passthrough": {},
    "passthrough-ref-mic-5": {"ref_mic": 5},
    "complex": {"stage1": EstimatorKind("oracle_complex")},
    "mask": {"stage1": MASK},
    "file": {"stage1": "file"},
    "external": {"stage1": EXTERNAL},
    "complex-passthrough-stage1": {
        "stage1": EstimatorKind("oracle_complex"),
        "stage2": EstimatorKind("passthrough", source="stage1"),
    },
    "complex-passthrough-mixture": {  # only stage 2 reads the mixture
        "stage1": EstimatorKind("oracle_complex"),
        "stage2": EstimatorKind("passthrough"),
        "ref_mic": 3,
    },
    "mask-direct-out": {"stage1": MASK, "beamformer": "woodbury"},
    "mask-woodbury-passthrough": {"stage1": MASK, "beamformer": "woodbury", "stage2": TO_BEAMFORMER},
    "mask-woodbury-complex": {
        "stage1": MASK, "beamformer": "woodbury", "stage2": EstimatorKind("oracle_complex")
    },
    "mask-woodbury-external": {"stage1": MASK, "beamformer": "woodbury", "stage2": EXTERNAL},
}

TABLE_CHAINS = ("complex", "mask", "file", "complex-passthrough-stage1")  # no stage reads the mixture


class TestBlockPath:
    """A Session runs each push stage-major over its frame block; its output
    must be the per-frame chain's, bit for bit, whatever the push size."""

    N = 5000  # 156 hops and 8 samples

    @pytest.fixture(scope="class")
    def per_frame(self, scene, tmp_path_factory):
        """(config, per-frame output) per (chain, k), made once; the
        ``ConfigError`` and None for a chain ``PipelineConfig`` refuses."""
        cache = {}
        mixture, reference = scene.mixture[:, : self.N], scene.target_direct[: self.N]

        def get(chain, k):
            if (chain, k) not in cache:
                params = FrameParams(frames_ahead=k)
                stages = dict(BLOCK_CHAINS[chain])
                if stages.get("stage1") == "file":
                    path = tmp_path_factory.mktemp("frames") / "est.npz"
                    g, _ = build_windows(TUKEY, params)
                    save_frame_file(path, 0.5 * analyze(reference, g, params), params)
                    stages["stage1"] = EstimatorKind("file", path=str(path))
                try:
                    cfg = PipelineConfig(params=params, **stages)
                except ConfigError as exc:
                    cache[chain, k] = exc, None
                else:
                    cache[chain, k] = cfg, _per_frame_chain(cfg, mixture, reference)
            return cache[chain, k]

        return mixture, reference, get

    @pytest.mark.parametrize("hops", [1, 7, 32, 33])
    @pytest.mark.parametrize("chain, k", [(chain, k) for chain in BLOCK_CHAINS for k in range(4)])
    def test_session_equals_the_per_frame_chain(self, per_frame, chain, k, hops):
        mixture, reference, get = per_frame
        cfg, expected = get(chain, k)
        if isinstance(cfg, ConfigError):
            # no Session to compare: the only refusal is of a last stage that cannot predict
            assert k > 0 and str(cfg).startswith("frames_ahead > 0 needs a last stage that predicts")
            return
        step = hops * cfg.params.hop
        with closing(Session(cfg, mixture.shape[0], reference, mixture)) as session:
            parts = [session.push(mixture[:, i : i + step]) for i in range(0, self.N, step)]
            parts.append(session.flush())
        assert np.array_equal(np.concatenate(parts)[: self.N], expected)

    @pytest.mark.parametrize("chain", BLOCK_CHAINS)
    def test_each_push_analyzes_once_and_runs_the_frames_it_counts(self, per_frame, monkeypatch, chain):
        # perfbench counts a run's frames as the len() of every AnalysisStream.push result;
        # a chain that reads no mixture row analyzes none, and the others every row
        mixture, reference, get = per_frame
        cfg, _ = get(chain, 0)
        lengths, synthesized, rows = [], [], set()
        push, synthesize = AnalysisStream.push, pipeline.synthesize_block

        def counting_push(self, chunk):
            block = push(self, chunk)
            lengths.append(len(block))
            rows.update((len(chunk), block.bins.shape[1]))
            return block

        def counting_synthesize(bins, *args):
            synthesized.append(len(bins))
            return synthesize(bins, *args)

        monkeypatch.setattr(AnalysisStream, "push", counting_push)
        monkeypatch.setattr(pipeline, "synthesize_block", counting_synthesize)
        with closing(Session(cfg, mixture.shape[0], reference, mixture)) as session:
            for size in (1, 31, 32, 33, 7 * 32, 33 * 32, 0, self.N):
                session.push(mixture[:, :size])
            session.flush()
        assert len(lengths) == 9 and lengths == synthesized
        assert sum(lengths) == session.frames and lengths[-1] > 0
        assert rows == {0 if chain in TABLE_CHAINS else mixture.shape[0]}


class TestRunReport:
    def test_lengths_and_counts(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_complex"))
        n = scene.mixture.shape[1]
        out, report = run_pipeline(cfg, scene.mixture, scene.target_direct)
        assert out.shape == (n,)
        assert report.frames == cfg.params.frames_to_release(n) >= n // cfg.params.hop
        assert report.algorithmic_latency_ms == 4.0

    def test_odd_length_input_is_preserved(self):
        x = np.random.default_rng(41).standard_normal(3333)
        out, _ = run_pipeline(PipelineConfig(), x)
        assert out.shape == (3333,)

    @pytest.mark.parametrize(
        "chain, k",
        [("oracle_complex", k) for k in range(4)] + [("passthrough", 0), ("mcwf", 0)],
    )
    def test_frames_run_until_the_output_is_complete(self, chain, k):
        # every input frame runs, then zero hops until the last output sample
        # is released; the oracle tables still cover the tail exactly. A
        # passthrough or the beamformer as the last stage allows only k = 0.
        params = FrameParams(frames_ahead=k)
        n, hop, ows = 3333, params.hop, params.ows
        ref = np.random.default_rng(42).standard_normal(n)
        stages = {
            "oracle_complex": dict(stage1=EstimatorKind("oracle_complex")),
            "passthrough": dict(stage1=EstimatorKind("passthrough")),
            "mcwf": dict(
                stage1=EstimatorKind("oracle_mag_mask"),
                beamformer="woodbury",
                stage2=TO_BEAMFORMER,
            ),
        }[chain]
        cfg = PipelineConfig(params=params, **stages)
        out, report = run_pipeline(cfg, np.stack([ref, ref]), ref)
        expected = max(n // hop, -(-(n + ows) // hop) - 1 - k)
        assert report.frames == params.frames_to_release(n) == expected
        if chain != "mcwf":
            np.testing.assert_allclose(out[k * hop :], ref[k * hop :], rtol=0, atol=1e-10)

    def test_frame_time_includes_analysis(self, monkeypatch):
        push = pipeline.AnalysisStream.push

        def slow_push(self, chunk):
            frames = push(self, chunk)
            time.sleep(0.002 * len(frames))
            return frames

        monkeypatch.setattr(pipeline.AnalysisStream, "push", slow_push)
        _, report = run_pipeline(PipelineConfig(), np.zeros(320))
        assert report.frame_time_ms_mean >= 2.0

    def test_runs_are_reproducible(self, scene):
        cfg = PipelineConfig(
            stage1=EstimatorKind("oracle_mag_mask"), beamformer="woodbury"
        )
        out_a, rep_a = run_pipeline(cfg, scene.mixture, scene.target_direct)
        out_b, rep_b = run_pipeline(cfg, scene.mixture, scene.target_direct)
        np.testing.assert_array_equal(out_a, out_b)
        da, db = asdict(rep_a), asdict(rep_b)
        for d in (da, db):
            d.pop("frame_time_ms_mean")
            d.pop("frame_time_ms_max")
        assert da == db

    def test_json_serialization_is_stable(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_complex"))
        _, report = run_pipeline(cfg, scene.mixture, scene.target_direct)
        payload = json.loads(json.dumps(asdict(report), sort_keys=True))  # as the CLI writes it
        assert payload["algorithmic_latency_ms"] == 4.0
        assert payload["metrics"]["si_sdr_db"] >= 40.0
        assert list(payload) == sorted(payload)


class TestValidation:
    def test_oracle_without_reference_rejected(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_complex"))
        with pytest.raises(ConfigError, match="reference"):
            run_pipeline(cfg, scene.mixture)

    def test_ref_mic_out_of_range(self):
        cfg = PipelineConfig(ref_mic=3)
        with pytest.raises(ConfigError, match="ref_mic"):
            run_pipeline(cfg, np.zeros((2, 1000)))

    @pytest.mark.parametrize("rows", [1, 6])
    def test_mixture_channels_must_match(self, scene, rows):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_mag_mask"), ref_mic=1)
        mixture = scene.mixture[:rows]
        with pytest.raises(ConfigError, match=f"mixture has {rows} channels, expected 2"):
            Session(cfg, 2, reference=scene.target_direct, mixture=mixture)

    @pytest.mark.parametrize(
        "stages",
        [{"stage1": EstimatorKind("oracle_complex")}, {"stage1": MASK, "beamformer": "woodbury"}],
        ids=["table-only", "beamformer"],
    )
    @pytest.mark.parametrize(
        "shape, match",
        [
            ((5, 64), "expected 6 channels, got 5"),
            ((64,), r"expected a \(6, n\) chunk, got shape \(64,\)"),
            ((6, 2, 32), r"expected a \(6, n\) chunk, got shape \(6, 2, 32\)"),
        ],
        ids=["5-rows", "1-d", "3-d"],
    )
    def test_push_checks_the_chunk_shape(self, scene, stages, shape, match):
        cfg = PipelineConfig(**stages)
        with closing(Session(cfg, 6, scene.target_direct, scene.mixture)) as session:
            with pytest.raises(ValueError, match=match):
                session.push(np.zeros(shape))
            assert session.frames == 0
            session.push(scene.mixture[:, :64])  # a rejected chunk leaves the stream usable
            assert session.frames == 2

    def test_reference_length_mismatch(self, scene):
        cfg = PipelineConfig(stage1=EstimatorKind("oracle_complex"))
        with pytest.raises(ConfigError, match="length"):
            run_pipeline(cfg, scene.mixture, scene.target_direct[:-1])

    def test_beamformer_cannot_terminate_a_predicting_chain(self):
        with pytest.raises(ConfigError, match="beamformer"):
            PipelineConfig(
                params=FrameParams(frames_ahead=1), beamformer="woodbury"
            )

    @pytest.mark.parametrize(
        "stages, refused",
        [
            ({}, "a passthrough"),
            ({"stage1": MASK, "beamformer": "woodbury", "stage2": TO_BEAMFORMER}, "a passthrough"),
            ({"stage1": MASK, "stage2": EstimatorKind("passthrough", source="stage1")}, "a passthrough"),
            ({"stage1": MASK, "beamformer": "woodbury"}, "the beamformer"),
        ],
        ids=["passthrough-alone", "passthrough-after-the-mcwf", "passthrough-after-a-mask", "mcwf-last"],
    )
    def test_a_predicting_chain_needs_a_last_stage_that_predicts(self, stages, refused):
        PipelineConfig(**stages)
        with pytest.raises(ConfigError, match=f"^frames_ahead > 0 needs a last stage that predicts .* not {refused}$"):
            PipelineConfig(params=FrameParams(frames_ahead=1), **stages)

    @pytest.mark.parametrize(
        "last",
        [EstimatorKind("oracle_complex"), MASK, EstimatorKind("file", path="est.npz"), HORIZON],
        ids=["oracle-complex", "oracle-mask", "file", "external"],
    )
    def test_a_predicting_chain_accepts_a_last_stage_that_predicts(self, last):
        for stages in (
            {"stage1": last},
            {"stage1": EstimatorKind("passthrough"), "stage2": last},  # stage 1 works at frame t
            {"stage1": MASK, "beamformer": "woodbury", "stage2": last},
        ):
            PipelineConfig(params=FrameParams(frames_ahead=1), **stages)  # does not raise

    def test_single_channel_beamformer_warns(self):
        cfg = PipelineConfig(
            stage1=EstimatorKind("oracle_mag_mask"), beamformer="woodbury"
        )
        x = np.random.default_rng(42).standard_normal(2000)
        with pytest.warns(UserWarning, match="single-channel"):
            run_pipeline(cfg, x, x.copy())

    @pytest.mark.parametrize("beamformer", [None, "woodbury"], ids=["off", "woodbury"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"loading": 0.0}, "loading must be finite and > 0, got 0.0"),
            ({"loading": 1e-310}, "loading must be finite and > 0, got 1e-310"),
            ({"forgetting": 1.5}, "forgetting must be in (0, 1], got 1.5"),
            ({"forgetting": 0.0}, "forgetting must be in (0, 1], got 0.0"),
        ],
    )
    def test_loading_and_forgetting_are_checked_whatever_the_beamformer(self, beamformer, setting, message):
        # one rule, shared with OnlineMcwf: the config refuses what the beamformer would
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig(beamformer=beamformer, **setting)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OnlineMcwf(2, 3, **setting)

    def test_unknown_beamformer_mode_rejected(self):
        with pytest.raises(ConfigError, match="beamformer"):
            PipelineConfig(beamformer="gev")

    def test_update_stride_is_a_constant_not_a_field(self):
        # the MCWF updates its filter every frame; the constant stays for the benchmark adapter
        with pytest.raises(TypeError):
            PipelineConfig(update_stride=2)
        assert PipelineConfig().update_stride == 1
        assert "update_stride" not in asdict(PipelineConfig())
