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
from dualwin.framing import FrameParams

STUB = os.path.join(os.path.dirname(__file__), "external_stub.py")


def _frame(rng, channels, n_bins):
    return rng.standard_normal((channels, n_bins)) + 1j * rng.standard_normal(
        (channels, n_bins)
    )


class TestPassthrough:
    def test_forwards_selected_channel(self):
        rng = np.random.default_rng(0)
        mixture = _frame(rng, 3, 5)
        est = PassthroughEstimator(5, 0, channel=2)
        np.testing.assert_array_equal(est.estimate(EstimatorInput(mixture), 0), mixture[2])

    def test_prediction_is_zeros(self):
        # a passthrough cannot see the future; asked for t+1 it yields silence
        est = PassthroughEstimator(5, 1, channel=0)
        out = est.estimate(EstimatorInput(np.ones((2, 5), complex)), 3)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_stage2_sources(self):
        rng = np.random.default_rng(1)
        mixture = _frame(rng, 2, 4)
        s1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inp = EstimatorInput(mixture, s1, bf)
        np.testing.assert_array_equal(
            PassthroughEstimator(4, 0, source="stage1").estimate(inp, 0), s1
        )
        np.testing.assert_array_equal(
            PassthroughEstimator(4, 0, source="beamformer").estimate(inp, 0), bf
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
        ref = np.arange(12, dtype=complex).reshape(6, 2)
        est = _bind_oracle("oracle_complex", 1, ref)
        inp = EstimatorInput(np.zeros((1, 2), complex))
        np.testing.assert_array_equal(est.estimate(inp, 3), ref[4])
        np.testing.assert_array_equal(est.estimate(inp, 5), np.zeros(2))  # past the end

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
        out = est.estimate(inp, t)
        row = expected[t + 2] if t + 2 < len(expected) else np.zeros(params.n_bins)
        assert np.array_equal(out, row), t


R = estimators._MASK_ROWS


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


class TestFrameFiles:
    def test_round_trip(self, tmp_path):
        params = FrameParams()
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((10, params.n_bins)) + 1j * rng.standard_normal(
            (10, params.n_bins)
        )
        path = tmp_path / "est.npz"
        save_frame_file(path, frames, params)
        loaded = load_frame_file(path, params, expected_frames=10)
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
            load_frame_file(path, params, expected_frames=9)


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
        est = ExternalEstimator(9, 0, f"{sys.executable} {STUB} identity", 2, 1, 5.0)
        try:
            out = est.estimate(EstimatorInput(mixture), 0)
        finally:
            est.close()
        assert out.dtype == np.complex128
        assert np.array_equal(out, _old_decode(_old_interleave(mixture[0])))


class TestExternal:
    def _make(self, mode, n_bins=9, channels=2, stage=1, timeout=5.0):
        command = f"{sys.executable} {STUB} {mode}"
        return ExternalEstimator(n_bins, 0, command, channels, stage, timeout)

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
