import errno
import os
import stat
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from dualwin import wavio
from dualwin.wavio import WavError, check_format, check_writable, read_wav, write_fresh, write_wav


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
        write_wav(path, data, 16000)
        back, fs = read_wav(path)
        assert fs == 16000
        np.testing.assert_array_equal(back, data)

    def test_mono_signal_round_trip(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 333)
        path = tmp_path / "mono.wav"
        write_wav(path, x, 8000)
        back, _ = read_wav(path)
        assert back.shape == (1, 333)


class TestReadingPcm:
    """PCM comes only from other programs: read files the stdlib wave module wrote."""

    @pytest.mark.parametrize(
        "bits, channels, n", [(16, 2, 300), (24, 2, 300), (24, 1, 301)], ids=["16-bit", "24-bit", "24-bit-odd-data-chunk"]
    )
    def test_samples_are_the_integers_over_2_to_the_bits_minus_1(self, tmp_path, bits, channels, n):
        rng = np.random.default_rng(bits)
        ints = rng.integers(-(2 ** (bits - 1)), 2 ** (bits - 1), (channels, n))
        ints[:, :2] = [-(2 ** (bits - 1)), 2 ** (bits - 1) - 1]  # both ends of the range
        path = tmp_path / "pcm.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(channels)
            fh.setsampwidth(bits // 8)
            fh.setframerate(48000)
            fh.writeframes(b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in ints.T.ravel()))
        if n * channels * bits // 8 % 2:  # add the pad byte the wave module leaves out, and a chunk after it
            path.write_bytes(path.read_bytes() + b"\x00" + _riff((b"LIST", b"INFO"))[12:])
        back, fs = read_wav(path)
        assert fs == 48000
        np.testing.assert_array_equal(back, ints / 2.0 ** (bits - 1))


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

    def test_three_dimensional_samples_rejected(self):
        with pytest.raises(WavError, match=r"^samples must be 1-D or \(channels, n\), got shape \(2, 3, 4\)$"):
            check_writable(np.zeros((2, 3, 4)), 16000)

    def test_data_past_32_bit_chunk_sizes_rejected_before_writing(self, tmp_path):
        # 6 GiB of float32 data; broadcast_to allocates none of it
        path = tmp_path / "x.wav"
        with pytest.raises(WavError, match="do not fit a WAV file's 32-bit chunk sizes"):
            write_wav(path, np.broadcast_to(0.0, (6, 2**28)), 16000)
        assert not path.exists()

    def test_largest_riff_chunk_is_accepted(self):
        # float32 mono: 48 header bytes after the RIFF size field, then 4 bytes per sample
        n = (0xFFFFFFFF - 48) // 4
        check_format(1, 16000, n)
        with pytest.raises(WavError, match="32-bit chunk sizes"):
            check_format(1, 16000, n + 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_unwritable_sample_rejected_before_writing(self, tmp_path, stereo, value):
        path = tmp_path / "x.wav"
        stereo = stereo.copy()
        stereo[1, 250] = value
        with pytest.raises(WavError, match="cannot write a sample of magnitude .* at 32 bits"):
            write_wav(path, stereo, 16000)
        assert not path.exists()

    def test_largest_float32_is_written(self, tmp_path):
        # the range check stops at float32's limit, not before it
        path = tmp_path / "max.wav"
        peak = float(np.finfo(np.float32).max)
        write_wav(path, np.array([peak, -peak]), 16000)
        assert read_wav(path)[0].tolist() == [[peak, -peak]]


def _riff(*chunks):
    """A RIFF/WAVE file of the given (chunk id, payload) pairs, pad bytes included."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) % 2) for cid, payload in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _extensible_fmt(tag, channels, rate, bits):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk: cbSize 22, the valid bits, a
    channel mask and a SubFormat GUID whose first two bytes are the format tag."""
    block = channels * bits // 8
    guid = struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71")
    head = struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block, block, bits)
    return head + struct.pack("<HHI", 22, bits, (1 << channels) - 1) + guid


class TestExtensibleFormat:
    """Multichannel files from other tools usually carry the extensible fmt chunk."""

    @pytest.mark.parametrize("bits", [24, 32], ids=["pcm24", "float32"])
    def test_reads_like_the_plain_file(self, tmp_path, bits):
        ints = np.random.default_rng(3).integers(-(2**23), 2**23, (6, 200))
        x = ints / 2.0**23  # exact in float32 and in 24-bit PCM
        if bits == 32:
            tag, payload = 3, x.T.astype("<f4").tobytes()
        else:
            tag, payload = 1, b"".join(int(v).to_bytes(3, "little", signed=True) for v in ints.T.ravel())
        fmt = _extensible_fmt(tag, 6, 48000, bits)
        assert len(fmt) == 40
        extensible, plain = tmp_path / "ext.wav", tmp_path / "plain.wav"
        extensible.write_bytes(_riff((b"fmt ", fmt), (b"data", payload)))
        # the plain file: the same first 16 fmt bytes with the tag itself in place of 0xFFFE
        plain.write_bytes(_riff((b"fmt ", struct.pack("<H", tag) + fmt[2:16]), (b"data", payload)))
        (got, got_rate), (want, want_rate) = read_wav(extensible), read_wav(plain)
        assert got_rate == want_rate == 48000
        assert np.array_equal(got, want) and np.array_equal(got, x)


class TestHeaderMessages:
    DATA = (b"data", bytes(4))

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"RIFF\x04\x00", "truncated file: expected 12 bytes of RIFF header at byte offset 0, got 6"),
            (_riff() + b"fmt ", "truncated chunk header at byte offset 12"),
            (_riff(DATA), "missing fmt chunk"),
            (_riff((b"fmt ", struct.pack("<HHIIH", 1, 1, 8000, 16000, 2)), DATA), "fmt chunk too short (14 bytes)"),
            (
                _riff((b"fmt ", _extensible_fmt(1, 1, 8000, 16)[:24]), DATA),
                "extensible fmt chunk too short for a sub-format",
            ),
            (_riff((b"fmt ", struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16)), DATA), "fmt chunk declares zero channels"),
        ],
        ids=["under-12-bytes", "cut-off-chunk-header", "no-fmt", "fmt-14-bytes", "extensible-fmt-24-bytes", "zero-channels"],
    )
    def test_malformed_header_is_named(self, tmp_path, blob, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(WavError) as info:
            read_wav(path)
        assert str(info.value) == message


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


def _expected_wav(channels, n, rate, payload):
    """The float32 file ``write_wav`` should write, built field by field."""
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
    chunks = b"fmt " + struct.pack("<I", 16) + fmt
    chunks += b"fact" + struct.pack("<II", 4, n)
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestWrittenBytes:
    @pytest.mark.parametrize(
        "shape",
        [(1, 301), (2, 300), (2, 0), (6, 160), (1, 1), (301,)],
        ids=["mono-odd", "stereo", "empty", "six-channels", "one-sample", "one-dimensional"],
    )
    def test_bytes_match_a_header_built_independently(self, tmp_path, shape):
        x = np.random.default_rng(1).uniform(-0.9, 0.9, shape)
        path = tmp_path / "x.wav"
        write_wav(path, x, 22050)
        frames = np.atleast_2d(x).T  # one row per sample time, channels interleaved
        payload = b"".join(struct.pack("<f", v) for v in frames.ravel())
        assert path.read_bytes() == _expected_wav(frames.shape[1], frames.shape[0], 22050, payload)


class _DiskFullAfter:
    """A written file whose writes fail with ENOSPC once ``limit`` bytes are in."""

    def __init__(self, fh, limit):
        self.fh, self.room = fh, limit

    def write(self, data):
        data = memoryview(data).cast("B")
        self.fh.write(data[: self.room])
        if len(data) > self.room:
            self.room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_writes_after(monkeypatch, limit, suffix=""):
    """Make every :func:`write_fresh` to a path ending in ``suffix`` fail
    with ENOSPC after ``limit`` bytes."""
    real = wavio.open_fresh

    def opened(path):
        fh, fresh = real(path)
        return (_DiskFullAfter(fh, limit) if str(path).endswith(suffix) else fh), fresh

    monkeypatch.setattr(wavio, "open_fresh", opened)


class TestReplacingAnOutput:
    """An existing output is replaced by a new file unless it is a link or not
    this user's to replace; then it is written through as ``open`` would."""

    def test_own_file_becomes_a_new_file_with_its_mode(self, tmp_path, stereo):
        path = tmp_path / "x.wav"
        write_wav(path, stereo, 16000)
        os.chmod(path, 0o600)
        before = path.read_bytes()
        with open(path, "rb") as old:  # held open, so the old inode's number is not reused
            assert write_wav(path, stereo[:, :100], 16000) is True  # fresh: the caller may remove it
            assert os.fstat(old.fileno()).st_ino != os.stat(path).st_ino
            assert old.read() == before  # replaced, not truncated
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert np.array_equal(read_wav(path)[0], stereo[:, :100].astype(np.float32))

    def test_symlink_stays_a_link_to_the_new_bytes(self, tmp_path, stereo):
        target, link = tmp_path / "target.wav", tmp_path / "link.wav"
        write_wav(target, stereo, 16000)
        link.symlink_to(target)
        assert write_wav(link, stereo[:, :100], 16000) is False
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert np.array_equal(read_wav(target)[0], stereo[:, :100].astype(np.float32))

    def test_hard_link_shows_the_new_bytes_under_both_names(self, tmp_path, stereo):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(a, stereo, 16000)
        os.link(a, b)
        assert write_wav(a, stereo[:, :100], 16000) is False
        assert os.path.samefile(a, b) and a.read_bytes() == b.read_bytes()
        assert np.array_equal(read_wav(b)[0], stereo[:, :100].astype(np.float32))

    def test_file_of_another_user_is_written_in_place(self, tmp_path, stereo, monkeypatch):
        path = tmp_path / "x.wav"
        write_wav(path, stereo, 16000)
        monkeypatch.setattr(os, "geteuid", lambda: os.stat(path).st_uid + 1)
        with open(path, "rb") as old:  # held open, so a new file could not reuse its inode number
            write_wav(path, stereo[:, :100], 16000)
            assert os.fstat(old.fileno()).st_ino == os.stat(path).st_ino
        assert np.array_equal(read_wav(path)[0], stereo[:, :100].astype(np.float32))

    def test_read_only_file_is_opened_as_a_plain_overwrite(self, tmp_path, stereo):
        # root may write it in place; anyone else gets open's PermissionError, as before
        path = tmp_path / "x.wav"
        write_wav(path, stereo, 16000)
        os.chmod(path, 0o444)
        before = path.read_bytes()
        with open(path, "rb") as old:  # held open, so a new file could not reuse its inode number
            if os.access(path, os.W_OK):
                write_wav(path, stereo[:, :100], 16000)
                assert np.array_equal(read_wav(path)[0], stereo[:, :100].astype(np.float32))
            else:
                with pytest.raises(PermissionError):
                    write_wav(path, stereo[:, :100], 16000)
                assert path.read_bytes() == before
            assert os.fstat(old.fileno()).st_ino == os.stat(path).st_ino
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o444

    def test_fifo_is_written_through(self, tmp_path, stereo):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_wav(fifo, stereo[:, :10], 16000)
            blob = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        other = tmp_path / "x.wav"
        write_wav(other, stereo[:, :10], 16000)
        assert blob == other.read_bytes()

    def test_parts_are_written_in_order_to_a_fresh_file_with_the_old_mode(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old and longer\n")
        os.chmod(path, 0o640)
        assert write_fresh(path, b"ne", memoryview(b"w\n"), b"") is True
        assert path.read_bytes() == b"new\n" and stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_directory_raises_what_open_raises(self, tmp_path, stereo):
        with pytest.raises(IsADirectoryError):
            write_wav(tmp_path, stereo, 16000)
        assert tmp_path.is_dir()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replaced"])
    def test_failed_write_of_a_fresh_file_leaves_no_file(self, tmp_path, stereo, monkeypatch, existing):
        path = tmp_path / "x.wav"
        if existing:
            write_wav(path, stereo, 16000)
        fail_writes_after(monkeypatch, 100)  # inside the payload
        with pytest.raises(OSError, match="No space left on device"):
            write_wav(path, stereo, 16000)
        assert not path.exists()

    def test_failed_write_through_a_link_removes_nothing(self, tmp_path, stereo, monkeypatch):
        target, link = tmp_path / "target.wav", tmp_path / "link.wav"
        write_wav(target, stereo, 16000)
        link.symlink_to(target)
        fail_writes_after(monkeypatch, 100)
        with pytest.raises(OSError, match="No space left on device"):
            write_wav(link, stereo, 16000)
        assert link.is_symlink() and target.stat().st_size == 100
