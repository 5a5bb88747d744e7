import struct
import tracemalloc
import wave

import numpy as np
import pytest

from dualwin.wavio import WavError, check_format, read_wav, write_wav


@pytest.fixture
def stereo():
    rng = np.random.default_rng(0)
    return np.clip(0.5 * rng.standard_normal((2, 500)), -1.0, 1.0)


def _poison_float_sample(path, index, value):
    """Store ``value`` as interleaved sample ``index`` of a 32-bit float WAV:
    the only way to make a non-finite one, since ``write_wav`` refuses."""
    blob = bytearray(path.read_bytes())
    start = blob.index(b"data") + 8 + 4 * index
    blob[start : start + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


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
        write_wav(path, stereo, 16000)
        _poison_float_sample(path, 2 * 250 + 1, value)  # stereo[1, 250]
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

    @pytest.mark.parametrize(
        "shape, rate",
        [((6, 10), 200_000_000), ((1, 10), 0), ((20_000, 1), 16000)],
        ids=["byte-rate-past-32-bits", "rate-0", "block-past-16-bits"],
    )
    def test_format_past_the_header_fields_rejected_before_writing(self, tmp_path, shape, rate):
        path = tmp_path / "x.wav"
        with pytest.raises(WavError, match="does not fit a WAV header|do not fit a WAV header"):
            write_wav(path, np.zeros(shape), rate)
        assert not path.exists()

    def test_zero_channels_rejected_before_writing(self, tmp_path):
        # the file would declare zero channels, which read_wav refuses
        path = tmp_path / "x.wav"
        with pytest.raises(WavError, match="a WAV file needs at least 1 channel, got 0"):
            write_wav(path, np.zeros((0, 10)), 16000)
        assert not path.exists()
        with pytest.raises(WavError, match="at least 1 channel"):
            check_format(0, 16000)

    def test_data_past_32_bit_chunk_sizes_rejected_before_writing(self, tmp_path):
        # 6 GiB of float32 data; broadcast_to allocates none of it
        path = tmp_path / "x.wav"
        with pytest.raises(WavError, match="do not fit a WAV file's 32-bit chunk sizes"):
            write_wav(path, np.broadcast_to(0.0, (6, 2**28)), 16000)
        assert not path.exists()

    def test_largest_riff_chunk_is_accepted(self):
        # 16-bit mono: 36 header bytes after the RIFF size field, then 2 bytes per sample
        n = (0xFFFFFFFF - 36) // 2
        check_format(1, 16000, 16, n)
        with pytest.raises(WavError, match="32-bit chunk sizes"):
            check_format(1, 16000, 16, n + 1)

    @pytest.mark.parametrize(
        "value, bit_depth",
        [(np.nan, 16), (np.nan, 24), (np.nan, 32), (np.inf, 16), (-np.inf, 32), (1e39, 32)],
    )
    def test_unwritable_sample_rejected_before_writing(self, tmp_path, stereo, value, bit_depth):
        path = tmp_path / "x.wav"
        stereo = stereo.copy()
        stereo[1, 250] = value
        with pytest.raises(WavError, match=f"cannot write a sample of magnitude .* at {bit_depth} bits"):
            write_wav(path, stereo, 16000, bit_depth=bit_depth)
        assert not path.exists()

    def test_largest_float32_is_written(self, tmp_path):
        # the range check stops at float32's limit, not before it
        path = tmp_path / "max.wav"
        peak = float(np.finfo(np.float32).max)
        write_wav(path, np.array([peak, -peak]), 16000)
        assert read_wav(path)[0].tolist() == [[peak, -peak]]

    def test_pcm_values_are_clipped_not_wrapped(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, np.array([2.0, -2.0]), 16000, bit_depth=16)
        back, _ = read_wav(path)
        np.testing.assert_allclose(back[0], [32767 / 32768.0, -1.0], atol=1e-12)


def _over_declared_wav(path, before_fmt=b""):
    """A one-channel float WAV with 16 real data bytes, whose data chunk
    declares 2**26 + 16 of them; ``before_fmt`` is placed ahead of fmt."""
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, 16000, 64000, 4, 32)
    body = b"WAVE" + before_fmt + fmt + struct.pack("<4sI", b"data", 2**26 + 16) + bytes(16)
    path.write_bytes(struct.pack("<4sI", b"RIFF", len(body)) + body)


class TestDeclaredSizes:
    """A chunk's declared size is checked against the file before anything
    of that size is allocated."""

    @staticmethod
    def _read_peak(path):
        tracemalloc.start()
        try:
            with pytest.raises(WavError) as info:
                read_wav(path)
            return str(info.value), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_over_declared_data_chunk_allocates_nothing(self, tmp_path):
        path = tmp_path / "over.wav"
        _over_declared_wav(path)
        message, peak = self._read_peak(path)
        assert message == "truncated file: expected 67108880 bytes of data chunk at byte offset 44, got 16"
        assert peak < 2**20

    def test_over_declared_unknown_chunk_before_fmt_allocates_nothing(self, tmp_path):
        path = tmp_path / "over-list.wav"
        _over_declared_wav(path, before_fmt=struct.pack("<4sI", b"LIST", 2**26) + b"INFO")
        message, peak = self._read_peak(path)
        assert message == "truncated file: expected 67108864 bytes of LIST chunk at byte offset 20, got 52"
        assert peak < 2**20


def _expected_wav(channels, n, rate, bits, payload):
    """The file ``write_wav`` should write, built field by field."""
    tag = 3 if bits == 32 else 1
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", 16) + fmt
    if bits == 32:
        chunks += b"fact" + struct.pack("<II", 4, n)
    pad = b"\x00" if len(payload) % 2 else b""
    chunks += b"data" + struct.pack("<I", len(payload)) + payload + pad
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestWrittenBytes:
    @pytest.mark.parametrize("bits", [16, 24, 32])
    @pytest.mark.parametrize("shape", [(1, 301), (2, 300), (2, 0)], ids=["mono-odd", "stereo", "empty"])
    def test_bytes_match_a_header_built_independently(self, tmp_path, bits, shape):
        # 24-bit mono of odd length is the one case with a pad byte
        x = np.random.default_rng(1).uniform(-0.9, 0.9, shape)
        path = tmp_path / "x.wav"
        write_wav(path, x, 22050, bit_depth=bits)
        frames = x.T
        if bits == 32:
            payload = frames.astype("<f4").tobytes()
        elif bits == 16:
            payload = np.round(frames * 2**15).astype("<i2").tobytes()
        else:
            payload = b"".join(int(v).to_bytes(3, "little", signed=True) for v in np.round(frames * 2**23).ravel())
        assert path.read_bytes() == _expected_wav(shape[0], shape[1], 22050, bits, payload)
