import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from dualwin import estimators
from dualwin.estimators import (
    EstimatorInput,
    EstimatorKind,
    ExternalEstimator,
    ExternalProtocolError,
    PassthroughEstimator,
    load_frame_file,
    make_estimator,
    save_frame_file,
)
from dualwin.framing import FrameParams, SignalFrames, build_windows
from dualwin.windows import TUKEY

STUB = os.path.join(os.path.dirname(__file__), "external_stub.py")


def _frame(rng, channels, n_bins):
    return rng.standard_normal((channels, n_bins)) + 1j * rng.standard_normal(
        (channels, n_bins)
    )


class TestPassthrough:
    def test_forwards_selected_channel(self):
        rng = np.random.default_rng(0)
        mixture = _frame(rng, 3, 5)
        est = PassthroughEstimator(5, channel=2)
        np.testing.assert_array_equal(est.estimate(EstimatorInput(mixture), 0), mixture[2])

    def test_a_horizon_is_refused(self):
        # a passthrough cannot see the future, so it cannot be the stage that predicts
        kind = EstimatorKind("passthrough")
        with pytest.raises(ValueError, match="a passthrough cannot predict ahead, got frames_ahead=1"):
            make_estimator(kind, FrameParams(), 1, channels=2, stage=1)
        assert isinstance(make_estimator(kind, FrameParams(), 0, channels=2, stage=1), PassthroughEstimator)

    def test_stage2_sources(self):
        rng = np.random.default_rng(1)
        mixture = _frame(rng, 2, 4)
        s1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inp = EstimatorInput(mixture, s1, bf)
        np.testing.assert_array_equal(
            PassthroughEstimator(4, source="stage1").estimate(inp, 0), s1
        )
        np.testing.assert_array_equal(
            PassthroughEstimator(4, source="beamformer").estimate(inp, 0), bf
        )


def _bind_oracle(kind, frames_ahead, reference, mixture=None):
    # a geometry with as many bins as the tables (n_bins = n_dft/2 + 1, at least 2)
    n_dft = max(2, 2 * (reference.shape[1] - 1))
    params = FrameParams(iws=2, ows=2, hop=1, n_dft=n_dft)
    return make_estimator(
        EstimatorKind(kind), params, frames_ahead, channels=1, stage=1,
        reference_frames=reference, mixture_ref_frames=mixture,
    )


def _old_mask(s, y):
    """The per-frame magnitude mask the table must reproduce bit for bit."""
    return np.clip(np.abs(s) / np.maximum(np.abs(y), 1e-8), 0, 5) * y


class TestOracles:
    def test_complex_oracle_returns_reference(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        est = _bind_oracle("oracle_complex", 0, ref)
        inp = EstimatorInput(np.zeros((1, 4), complex))
        np.testing.assert_array_equal(est.estimate(inp, 3), ref[3])

    def test_complex_oracle_is_clairvoyant(self):
        # bound with a horizon, a table still replays the row it is asked for: the caller reads ahead
        ref = np.arange(12, dtype=complex).reshape(6, 2)
        est = _bind_oracle("oracle_complex", 1, ref)
        inp = EstimatorInput(np.zeros((1, 2), complex))
        np.testing.assert_array_equal(est.estimate(inp, 3 + 1), ref[4])
        np.testing.assert_array_equal(est.estimate(inp, 5 + 1), np.zeros(2))  # past the end

    def test_mask_keeps_mixture_phase_and_reference_magnitude(self):
        y = np.array([[2.0 * np.exp(1j * 0.3)]])
        s = np.array([[2.0 * np.exp(1j * 2.0)]])  # same magnitude, other phase
        est = _bind_oracle("oracle_mag_mask", 0, s, y)
        out = est.estimate(EstimatorInput(y), 0)
        assert np.abs(out[0]) == pytest.approx(2.0, abs=1e-12)
        assert np.angle(out[0]) == pytest.approx(0.3, abs=1e-12)

    def test_mask_is_clipped(self):
        y = np.array([[0.1 + 0j]])
        s = np.array([[10.0 + 0j]])
        est = _bind_oracle("oracle_mag_mask", 0, s, y)
        out = est.estimate(EstimatorInput(y), 0)
        assert np.abs(out[0]) == pytest.approx(0.5, abs=1e-12)  # 5 * |y|

    def test_mask_table_matches_per_frame_expression(self):
        rng = np.random.default_rng(25)
        shape = (40, 129)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y[rng.random(shape) < 0.1] *= 1e-10  # |Y| below the floor
        y[rng.random(shape) < 0.02] = 0.0
        s[rng.random(shape) < 0.2] *= 100.0  # masks above the clip
        quiet = rng.random(shape) < 0.05  # both tiny: the floor sets the mask
        y[quiet] *= 1e-10
        s[quiet] *= 1e-10
        floored = np.abs(y) < 1e-8
        assert np.any(floored & (np.abs(s) / 1e-8 < 5))
        assert np.any(np.abs(s) / np.maximum(np.abs(y), 1e-8) > 5)
        est = _bind_oracle("oracle_mag_mask", 0, s, y)
        inp = EstimatorInput(np.zeros((1, shape[1]), complex))
        for t in range(shape[0]):
            assert np.array_equal(est.estimate(inp, t), _old_mask(s[t], y[t]))


@pytest.mark.parametrize(
    "kind, n_ref, n_mix",
    [
        ("oracle_complex", 6, None),
        ("oracle_mag_mask", 7, 5),
        ("oracle_mag_mask", 5, 7),
        ("file", 6, None),
    ],
)
def test_table_returns_row_t_plus_k_then_zeros(tmp_path, kind, n_ref, n_mix):
    params = FrameParams()
    rng = np.random.default_rng(26)

    def spectrogram(n):
        shape = (n, params.n_bins)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    ref = spectrogram(n_ref)
    mix = spectrogram(n_mix) if n_mix else None
    expected = ref
    if kind == "oracle_mag_mask":
        n = min(n_ref, n_mix)
        expected = _old_mask(ref[:n], mix[:n])
    path = None
    if kind == "file":
        path = str(tmp_path / "est.npz")
        save_frame_file(path, ref, params)
    est = make_estimator(
        EstimatorKind(kind, path=path), params, 2, channels=1, stage=1,
        reference_frames=None if path else ref, mixture_ref_frames=mix,
    )
    inp = EstimatorInput(np.zeros((1, params.n_bins), complex))
    for t in range(len(expected) + 2):
        out = est.estimate(inp, t + 2)  # the caller reads k = 2 rows ahead
        row = expected[t + 2] if t + 2 < len(expected) else np.zeros(params.n_bins)
        assert np.array_equal(out, row), t


R = estimators._MASK_ROWS
O = estimators._ORACLE_ROWS


@pytest.mark.parametrize(
    "n_ref, n_mix",
    [(0, 0), (1, 1), (R - 1, R - 1), (R, R), (R + 1, R + 1), (2 * R + 5, 2 * R + 5),
     (2 * R + 5, R + 1), (R - 1, 2 * R + 5), (0, R)],
)
def test_blocked_mask_table_matches_unblocked_bytes(n_ref, n_mix):
    rng = np.random.default_rng(n_ref + 7 * n_mix)
    n_bins = 129

    def spectrogram(n):
        return rng.standard_normal((n, n_bins)) + 1j * rng.standard_normal((n, n_bins))

    s, y = spectrogram(n_ref), spectrogram(n_mix)
    y[rng.random(y.shape) < 0.1] *= 1e-10  # spectral nulls: |Y| below MASK_FLOOR
    y[rng.random(y.shape) < 0.02] = 0.0
    s[rng.random(s.shape) < 0.2] *= 100.0  # masks above the clip
    s[rng.random(len(s)) < 0.1] = 0.0  # all-zero reference rows
    if len(s):
        s[-1] = 0.0
    n = min(n_ref, n_mix)
    table = estimators._mask_table(s, y)
    expected = _old_mask(s[:n], y[:n])  # the whole table in one expression
    assert table.shape == expected.shape == (n, n_bins)
    assert table.dtype == expected.dtype
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["oracle_complex", "oracle_mag_mask"])
@pytest.mark.parametrize(
    "reads", [[1] * (2 * R + 20), [32] * 10, [37, 1, R + 50, 0, 5, 1000], [R, R, R], [O + 1] * 12]
)
def test_signal_bound_oracle_rows_are_the_whole_table(kind, reads):
    # bound to signals, an oracle frames its rows a block at a time as they are read
    params = FrameParams()
    g, _ = build_windows(TUKEY, params)
    rng = np.random.default_rng(len(reads))
    n = (2 * R + 7) * params.hop + 5
    reference, mixture_ref = rng.standard_normal(n), rng.standard_normal(n)
    mixture_ref[: 40 * params.hop] = 0.0  # spectral nulls: |Y| below MASK_FLOOR
    table = make_estimator(
        EstimatorKind(kind), params, 0, channels=1, stage=1,
        window=g, reference=reference, mixture_ref=mixture_ref,
    ).table
    whole = SignalFrames([reference, mixture_ref], g, params, flush=True)
    pairs = whole.block(0, len(whole))
    expected = _old_mask(pairs[:, 0], pairs[:, 1]) if kind == "oracle_mag_mask" else pairs[:, 0]
    assert len(table) == len(expected) == params.frames_to_release(n)
    starts = np.cumsum([0] + reads)
    got = np.concatenate([table[a:b] for a, b in zip(starts[:-1], starts[1:])])
    assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert table[2:5].tobytes() == np.ascontiguousarray(expected[2:5]).tobytes()  # out of order


def test_signal_bound_mask_oracle_needs_the_mixture_channel():
    params = FrameParams()
    g, _ = build_windows(TUKEY, params)
    with pytest.raises(ValueError, match="mixture's reference channel"):
        make_estimator(
            EstimatorKind("oracle_mag_mask"), params, 0, channels=1, stage=1,
            window=g, reference=np.zeros(1000),
        )


class TestFrameFiles:
    def test_round_trip(self, tmp_path):
        params = FrameParams()
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((10, params.n_bins)) + 1j * rng.standard_normal(
            (10, params.n_bins)
        )
        path = tmp_path / "est.npz"
        save_frame_file(path, frames, params)
        loaded = load_frame_file(path, params, samples=10 * params.hop)
        np.testing.assert_array_equal(loaded, frames)

    def test_geometry_mismatch_rejected(self, tmp_path):
        params = FrameParams()
        path = tmp_path / "est.npz"
        save_frame_file(path, np.zeros((4, params.n_bins), complex), params)
        with pytest.raises(ValueError, match="ows|hop"):
            load_frame_file(path, FrameParams(ows=32, hop=16))

    def test_frame_count_mismatch_rejected(self, tmp_path):
        params = FrameParams()
        path = tmp_path / "est.npz"
        save_frame_file(path, np.zeros((4, params.n_bins), complex), params)
        with pytest.raises(ValueError, match="4 frames"):
            load_frame_file(path, params, samples=9 * params.hop)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_rows_from_the_whole_hops_up_to_the_flush_count(self, tmp_path, k, extra):
        # 16/4/2 ms: 10 whole hops and a partial one take 12 frames to release at k = 0
        params = FrameParams(frames_ahead=k)
        n = 10 * params.hop + extra
        lo, hi = 10, (11 if extra == 0 else 12)
        assert hi == FrameParams().frames_to_release(n)
        path = tmp_path / "est.npz"
        for rows in range(lo - 2, hi + 3):
            save_frame_file(path, np.zeros((rows, params.n_bins), complex), params)
            if lo <= rows <= hi:
                assert len(load_frame_file(path, params, samples=n)) == rows
            else:
                with pytest.raises(ValueError) as err:
                    load_frame_file(path, params, samples=n)
                assert str(err.value) == f"frame file holds {rows} frames, stream expects {lo} to {hi}"


def _old_interleave(values):
    """The explicit (re, im) float32 interleave the request encoder replaced."""
    flat = np.asarray(values, dtype=np.complex128).ravel()
    out = np.empty(2 * flat.size, dtype="<f4")
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tobytes()


def _old_decode(raw):
    """The reply decoder the single complex64 cast replaced."""
    raw = np.frombuffer(raw, dtype="<f4")
    return (raw[0::2] + 1j * raw[1::2]).astype(np.complex128)


class TestWireCodec:
    def test_request_bytes_equal_explicit_interleave(self):
        rng = np.random.default_rng(27)
        frame = _frame(rng, 6, 129)
        frame[0, :4] = [np.inf, -np.inf, complex(np.nan, 1), complex(0, -np.inf)]
        frame[1, :3] = [1e40, -1e-50, complex(-0.0, -0.0)]  # float32 overflow, underflow, -0
        with np.errstate(over="ignore"):  # both encoders cast 1e40 to inf
            cases = (
                frame,
                frame.T,  # non-contiguous: C order of the view, as ravel() gave
                frame[2],
                frame.real,  # real input gets zero imaginary parts
                frame.astype(np.complex64),
                np.zeros(129, complex),
            )
            for values in cases:
                assert ExternalEstimator._encode(values) == _old_interleave(values)

    def test_reply_decodes_like_old_expression(self):
        rng = np.random.default_rng(28)
        mixture = _frame(rng, 2, 9) * 10.0 ** rng.integers(-30, 30, (2, 9))
        mixture[0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
        est = ExternalEstimator(9, f"{sys.executable} {STUB} identity", 2, 1, timeout=5.0)
        try:
            out = est.estimate(EstimatorInput(mixture), 0)
        finally:
            est.close()
        assert out.dtype == np.complex128
        assert np.array_equal(out, _old_decode(_old_interleave(mixture[0])))


class TestExternal:
    def _make(self, mode, n_bins=9, channels=2, stage=1, timeout=5.0):
        command = f"{sys.executable} {STUB} {mode}"
        return ExternalEstimator(n_bins, command, channels, stage, timeout=timeout)

    def test_identity_child_round_trips_float32(self):
        est = self._make("identity")
        try:
            rng = np.random.default_rng(4)
            mixture = _frame(rng, 2, 9)
            out = est.estimate(EstimatorInput(mixture), 0)
            np.testing.assert_allclose(out, mixture[0], atol=1e-6)  # f32 wire format
            out2 = est.estimate(EstimatorInput(2 * mixture), 1)
            np.testing.assert_allclose(out2, 2 * mixture[0], atol=1e-6)
        finally:
            est.close()

    def test_stage2_payload_accepted(self):
        est = self._make("identity", stage=2)
        try:
            rng = np.random.default_rng(5)
            inp = EstimatorInput(
                _frame(rng, 2, 9),
                rng.standard_normal(9) + 0j,
                rng.standard_normal(9) + 0j,
            )
            out = est.estimate(inp, 0)
            np.testing.assert_allclose(out, inp.mixture[0], atol=1e-6)
        finally:
            est.close()

    def test_reply_in_pieces_is_reassembled(self):
        est = self._make("split")
        try:
            rng = np.random.default_rng(30)
            for t in range(3):
                mixture = _frame(rng, 2, 9)
                out = est.estimate(EstimatorInput(mixture), t)
                assert np.array_equal(out, _old_decode(_old_interleave(mixture[0])))
        finally:
            est.close()

    def test_wrong_reply_length_raises(self):
        est = self._make("short")
        try:
            with pytest.raises(ExternalProtocolError, match="replied 36 bytes, expected 72"):
                est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
        finally:
            est.close()

    def test_timeout_raises(self):
        est = self._make("hang", timeout=0.3)
        try:
            with pytest.raises(ExternalProtocolError, match="timed out"):
                est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
        finally:
            est.close()

    @staticmethod
    def _record_waits(monkeypatch):
        waits = []
        wait = subprocess.Popen.wait

        def recording_wait(self, timeout=None):
            waits.append(timeout)
            return wait(self, timeout)

        monkeypatch.setattr(subprocess.Popen, "wait", recording_wait)
        return waits

    def test_close_after_timeout_kills_the_child(self, monkeypatch):
        waits = self._record_waits(monkeypatch)
        est = self._make("hang", timeout=0.2)
        with pytest.raises(ExternalProtocolError, match="timed out after 0.2s"):
            est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
        est.close()
        assert est._proc.returncode < 0  # killed, not exited
        assert 2.0 not in waits

    def test_clean_close_waits_for_the_child_to_exit(self, monkeypatch):
        waits = self._record_waits(monkeypatch)
        est = self._make("identity")
        est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
        est.close()
        assert est._proc.returncode == 0  # saw EOF and exited on its own
        assert waits == [2.0]

    def test_child_gone_after_the_handshake_is_a_closed_pipe(self):
        est = self._make("exit")
        est._proc.wait()
        try:
            with pytest.raises(ExternalProtocolError, match="^external estimator pipe closed: "):
                est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
            assert est._failed
        finally:
            est.close()

    def test_child_gone_before_its_reply_closed_its_output_mid_frame(self):
        est = self._make("exit_after_frame")
        try:
            with pytest.raises(ExternalProtocolError, match="^external estimator closed its output mid-frame$"):
                est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
            assert est._failed
        finally:
            est.close()

    @pytest.mark.parametrize("mode", ["identity", "hang", "exit"], ids=["clean", "failed", "exited"])
    def test_close_closes_both_pipe_ends(self, mode):
        est = self._make(mode, timeout=0.2)
        if mode == "hang":
            with pytest.raises(ExternalProtocolError, match="timed out"):
                est.estimate(EstimatorInput(np.zeros((2, 9), complex)), 0)
        elif mode == "exit":
            est._proc.wait()
        est.close()
        assert est._proc.stdin.closed and est._proc.stdout.closed

    def test_child_gone_before_the_handshake_is_closed(self, monkeypatch):
        # the handshake write meets a child that has already exited: the
        # constructor closes both pipe ends and reaps the child, then raises
        children = []

        class ExitedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.wait()
                children.append(self)

        monkeypatch.setattr(subprocess, "Popen", ExitedPopen)
        with pytest.raises(ExternalProtocolError, match="^external estimator pipe closed: "):
            ExternalEstimator(9, [sys.executable, "-c", ""], 2, 1)
        (child,) = children
        assert child.stdin.closed and child.stdout.closed and child.returncode == 0
        del children, child
        gc.collect()  # an unclosed pipe end would warn here


class TestEstimatorKind:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorKind("dnn")
        with pytest.raises(ValueError):
            EstimatorKind("passthrough", source="oracle")
        with pytest.raises(ValueError):
            EstimatorKind("file")
        with pytest.raises(ValueError):
            EstimatorKind("external")

    def test_factory_requires_reference_for_oracles(self):
        params = FrameParams()
        with pytest.raises(ValueError, match="reference"):
            make_estimator(
                EstimatorKind("oracle_complex"), params, 0, channels=1, stage=1
            )

    def test_factory_checks_passthrough_channel(self):
        params = FrameParams()
        with pytest.raises(ValueError, match="out of range"):
            make_estimator(
                EstimatorKind("passthrough", channel=4), params, 0, channels=2, stage=1
            )


class TestEstimateBlock:
    """``estimate_block`` equals the per-frame ``estimate`` of each frame, stacked."""

    N_BINS, CHANNELS = 9, 3

    def _inputs(self, seed, frames):
        rng = np.random.default_rng(seed)
        mixture = np.stack([_frame(rng, self.CHANNELS, self.N_BINS) for _ in range(frames)])
        stage1, beamformed = (_frame(rng, frames, self.N_BINS) for _ in range(2))
        return mixture, stage1, beamformed

    @staticmethod
    def _stacked(est, mixture, stage1, beamformed, t0):
        rows = [
            est.estimate(
                EstimatorInput(
                    mixture[i],
                    None if stage1 is None else stage1[i],
                    None if beamformed is None else beamformed[i],
                ),
                t0 + i,
            )
            for i in range(len(mixture))
        ]
        return np.reshape(rows, (len(mixture), est.n_bins))

    @pytest.mark.parametrize("t0", [0, 1, 3])
    @pytest.mark.parametrize(
        "channel, source", [(0, "mixture"), (2, "mixture"), (0, "stage1"), (0, "beamformer")]
    )
    def test_passthrough(self, t0, channel, source):
        est = PassthroughEstimator(self.N_BINS, channel=channel, source=source)
        mixture, stage1, beamformed = self._inputs(40, 6)
        got = est.estimate_block(mixture, stage1, beamformed, t0)
        assert got.shape == (6, self.N_BINS)
        assert np.array_equal(got, self._stacked(est, mixture, stage1, beamformed, t0))
        # forwarded, not copied, whatever the row
        assert np.shares_memory(got, {"mixture": mixture, "stage1": stage1, "beamformer": beamformed}[source])

    @pytest.mark.parametrize("kind", ["oracle_complex", "oracle_mag_mask", "file"])
    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_table_blocks_inside_straddling_and_past_the_table(self, tmp_path, kind, k):
        params = FrameParams(iws=16, ows=16, hop=8, n_dft=16)
        rng = np.random.default_rng(41)
        shape = (10, params.n_bins)
        ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        path = None
        if kind == "file":
            path = str(tmp_path / "est.npz")
            save_frame_file(path, ref, params)
        est = make_estimator(
            EstimatorKind(kind, path=path), params, k, channels=1, stage=1,
            reference_frames=None if path else ref, mixture_ref_frames=mix,
        )
        table = est.table
        for t0, frames in [(0, 1), (0, 10 - k), (0, 12), (3, 4), (10 - k - 2, 5), (10 - k, 3), (20, 2), (5, 0)]:
            mixture = np.zeros((frames, 1, params.n_bins), complex)
            got = est.estimate_block(mixture, None, None, t0 + k)  # the caller reads k rows ahead
            assert got.shape == (frames, params.n_bins), (t0, frames)
            assert np.array_equal(got, self._stacked(est, mixture, None, None, t0 + k)), (t0, frames)
            if frames and t0 + k + frames <= len(table):  # rows in range: a view of the table
                assert np.shares_memory(got, table), (t0, frames)

    @pytest.mark.parametrize("kind", ["oracle_complex", "oracle_mag_mask"])
    @pytest.mark.parametrize("k", [0, 2])
    def test_signal_bound_oracle_per_frame_reads(self, kind, k):
        # bound to signals, as a Session binds it, the per-frame estimate reads one row at a time
        params = FrameParams()
        g, _ = build_windows(TUKEY, params)
        rng = np.random.default_rng(44)
        n = 70 * params.hop + 5
        reference, mixture_ref = rng.standard_normal(n), rng.standard_normal(n)

        def bind():
            return make_estimator(
                EstimatorKind(kind), params, k, channels=1, stage=1,
                window=g, reference=reference, mixture_ref=mixture_ref,
            )

        per_frame, block = bind(), bind()
        rows = len(block.table)
        mixture = np.zeros((rows + 3, 1, params.n_bins), complex)  # t = 0 .. len + 2
        expected = block.estimate_block(mixture, None, None, k)  # rows k .. len + k + 2
        got = self._stacked(per_frame, mixture, None, None, k)
        assert got.tobytes() == expected.tobytes()
        assert expected[: rows - k].all(axis=1).any() and not expected[rows - k :].any()

    @pytest.mark.parametrize("stage, with_beamformer", [(1, False), (2, False), (2, True)])
    def test_external_sends_the_per_frame_bytes(self, monkeypatch, stage, with_beamformer):
        mixture, stage1, beamformed = self._inputs(42, 5)
        if stage == 1:
            stage1 = beamformed = None
        elif not with_beamformer:
            beamformed = None
        sent = {"block": [], "frames": []}
        write = ExternalEstimator._write_all
        results = {}
        for path in ("block", "frames"):
            monkeypatch.setattr(
                ExternalEstimator, "_write_all", lambda self, data, path=path: sent[path].append(data) or write(self, data)
            )
            est = ExternalEstimator(self.N_BINS, f"{sys.executable} {STUB} identity", self.CHANNELS, stage)
            try:
                if path == "block":
                    results[path] = est.estimate_block(mixture, stage1, beamformed, 7)
                else:
                    results[path] = self._stacked(est, mixture, stage1, beamformed, 7)
            finally:
                est.close()
        assert sent["block"] == sent["frames"] and len(sent["block"]) == 1 + len(mixture)
        assert np.array_equal(results["block"], results["frames"])
