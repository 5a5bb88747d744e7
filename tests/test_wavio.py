import struct
import wave

import numpy as np
import pytest

from dualwin.wavio import WavError, read_wav, write_wav


@pytest.fixture
def stereo():
    rng = np.random.default_rng(0)
    return np.clip(0.5 * rng.standard_normal((2, 500)), -1.0, 1.0)


class TestRoundTrips:
    def test_float32_round_trip_is_bit_exact(self, tmp_path, stereo):
        data = stereo.astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.wav"
        write_wav(path, data, 16000, bit_depth=32)
        back, fs = read_wav(path)
        assert fs == 16000
        np.testing.assert_array_equal(back, data)

    def test_16_bit_round_trip_error_bound(self, tmp_path, stereo):
        path = tmp_path / "i16.wav"
        write_wav(path, stereo, 16000, bit_depth=16)
        back, _ = read_wav(path)
        assert np.max(np.abs(back - stereo)) <= 2.0**-15

    def test_24_bit_round_trip_error_bound(self, tmp_path, stereo):
        path = tmp_path / "i24.wav"
        write_wav(path, stereo, 48000, bit_depth=24)
        back, fs = read_wav(path)
        assert fs == 48000
        assert np.max(np.abs(back - stereo)) <= 2.0**-23

    def test_mono_signal_round_trip(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 333)
        path = tmp_path / "mono.wav"
        write_wav(path, x, 8000, bit_depth=32)
        back, _ = read_wav(path)
        assert back.shape == (1, 333)

    def test_interleaving_matches_stdlib_wave(self, tmp_path, stereo):
        # independent decoder: the stdlib wave module on the 16-bit file
        path = tmp_path / "check.wav"
        write_wav(path, stereo, 16000, bit_depth=16)
        with wave.open(str(path)) as fh:
            assert fh.getnchannels() == 2
            assert fh.getframerate() == 16000
            raw = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
        ours, _ = read_wav(path)
        np.testing.assert_array_equal(
            raw.reshape(-1, 2).T / 32768.0, ours
        )


class TestErrors:
    def test_truncated_file_names_byte_offset(self, tmp_path, stereo):
        path = tmp_path / "trunc.wav"
        write_wav(path, stereo, 16000)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(WavError, match=r"byte offset \d+"):
            read_wav(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_sample_rejected(self, tmp_path, stereo, value):
        path = tmp_path / "non-finite.wav"
        stereo = stereo.copy()
        stereo[1, 250] = value
        write_wav(path, stereo, 16000)
        with pytest.raises(WavError, match="non-finite sample value"):
            read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "bogus.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 40)
        with pytest.raises(WavError, match="RIFF"):
            read_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        # hand-build an 8-bit PCM file
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
        data = bytes(range(16))
        body = b"WAVE"
        body += struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
        body += struct.pack("<4sI", b"data", len(data)) + data
        path = tmp_path / "u8.wav"
        path.write_bytes(struct.pack("<4sI", b"RIFF", len(body)) + body)
        with pytest.raises(WavError, match="unsupported codec"):
            read_wav(path)

    def test_missing_data_chunk_rejected(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"WAVE" + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(struct.pack("<4sI", b"RIFF", len(body)) + body)
        with pytest.raises(WavError, match="data"):
            read_wav(path)

    def test_bad_bit_depth_rejected(self, tmp_path):
        with pytest.raises(WavError, match="bit depth"):
            write_wav(tmp_path / "x.wav", np.zeros(10), 16000, bit_depth=12)

    def test_pcm_values_are_clipped_not_wrapped(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, np.array([2.0, -2.0]), 16000, bit_depth=16)
        back, _ = read_wav(path)
        np.testing.assert_allclose(back[0], [32767 / 32768.0, -1.0], atol=1e-12)
