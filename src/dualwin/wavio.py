"""Multichannel RIFF/WAVE files: reads 16/24-bit PCM and 32-bit IEEE float,
writes 32-bit IEEE float.

Samples cross this boundary as float64 in [-1, 1] with shape
(channels, n). PCM samples read are scaled by 2**-(bits-1). Every file
written is float32, so writing float32-valued data and reading it back is
bit-exact, and any other float64 value is rounded once, to float32.
Malformed or truncated files raise :class:`WavError` naming the byte
offset where parsing failed; float data holding an inf or NaN raises it
too, and so does writing one.

An output is replaced by a new file, not truncated in place (see
:func:`open_fresh`), unless it is a link or not this user's to replace,
which is written through as a plain ``open`` would; a failed write leaves
no new file behind.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct

import numpy as np

_FORMAT_PCM = 0x0001
_FORMAT_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
# the bytes a written file's RIFF size counts ahead of its samples: "WAVE" and the
# fmt (8 + 16), fact (8 + 4) and data (8) chunk headers
_WRITTEN_HEADER = 4 + 24 + 12 + 8


class WavError(ValueError):
    """Malformed, truncated, or unsupported WAV file."""


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file.

    Return:
        (samples, sample_rate): float64 samples of shape (channels, n)
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise WavError(
            f"truncated file: expected 12 bytes of RIFF header at byte offset 0, got {len(blob)}"
        )
    riff, _, wave = struct.unpack_from("<4sI4s", blob)
    if riff != b"RIFF" or wave != b"WAVE":
        raise WavError(f"not a RIFF/WAVE file (header {riff!r}/{wave!r} at byte offset 0)")
    # every declared size is checked against the bytes that follow before it is used
    view, chunks, offset = memoryview(blob), {}, 12
    while offset < len(blob):
        if len(blob) - offset < 8:
            raise WavError(f"truncated chunk header at byte offset {offset}")
        chunk_id, size = struct.unpack_from("<4sI", blob, offset)
        offset += 8
        if size > len(blob) - offset:
            raise WavError(
                f"truncated file: expected {size} bytes of {chunk_id.decode('latin1')} chunk "
                f"at byte offset {offset}, got {len(blob) - offset}"
            )
        chunks[chunk_id] = view[offset : offset + size]
        offset += size + size % 2  # RIFF pad byte
    fmt = chunks.get(b"fmt ")
    data = chunks.get(b"data")
    if fmt is None:
        raise WavError("missing fmt chunk")
    if data is None:
        raise WavError("missing data chunk")
    if len(fmt) < 16:
        raise WavError(f"fmt chunk too short ({len(fmt)} bytes)")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _FORMAT_EXTENSIBLE:
        if len(fmt) < 26:
            raise WavError("extensible fmt chunk too short for a sub-format")
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if channels < 1:
        raise WavError("fmt chunk declares zero channels")

    if tag == _FORMAT_FLOAT and bits == 32:
        flat, scale = np.frombuffer(data, dtype="<f4", count=len(data) // 4), None
        if not np.isfinite(flat).all():  # float32 holds an inf or NaN exactly when float64 does
            raise WavError(f"non-finite sample value in the float data of {path}")
    elif tag == _FORMAT_PCM and bits == 16:
        flat, scale = np.frombuffer(data, dtype="<i2", count=len(data) // 2), 32768.0
    elif tag == _FORMAT_PCM and bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8, count=len(data) - len(data) % 3)
        triplets = raw.reshape(-1, 3).astype(np.int64)
        values = triplets[:, 0] | (triplets[:, 1] << 8) | (triplets[:, 2] << 16)
        flat, scale = (values ^ 0x800000) - 0x800000, float(2**23)  # sign-extend 24 bits
    else:
        raise WavError(
            f"unsupported codec: format tag {tag:#06x} with {bits} bits per sample"
        )
    n_frames = len(flat) // channels
    interleaved = flat[: n_frames * channels].reshape(n_frames, channels).T
    # one pass from the interleaved file samples to the (channels, n) float64 result
    samples = np.empty((channels, n_frames))
    if scale is None:
        samples[:] = interleaved  # float32 widens to float64 exactly
    else:
        np.divide(interleaved, scale, out=samples)
    return samples, rate


def check_format(channels: int, sample_rate: int, n: int = 0):
    """Raise :class:`WavError` unless a float32 WAV header can hold this
    format and ``n`` samples per channel: at least one channel, a sample
    rate of at least 1 Hz, a block size and byte rate that fit their 16- and
    32-bit header fields, and data and RIFF chunk sizes that fit 32 bits."""
    if channels < 1:
        raise WavError(f"a WAV file needs at least 1 channel, got {channels}")
    block_align = 4 * channels
    if block_align > 0xFFFF:
        raise WavError(f"{channels} channels of 32 bits do not fit a WAV header")
    if sample_rate < 1 or sample_rate * block_align > 0xFFFFFFFF:
        raise WavError(
            f"sample rate {sample_rate} Hz with {channels} channels of 32 bits "
            f"does not fit a WAV header"
        )
    data = n * block_align
    if _WRITTEN_HEADER + data > 0xFFFFFFFF:
        raise WavError(
            f"{data} bytes of samples ({n} per channel) do not fit a WAV file's 32-bit chunk sizes"
        )


def check_writable(samples: np.ndarray, sample_rate: int) -> np.ndarray:
    """Raise :class:`WavError` unless :func:`write_wav` can store these
    samples: shape (channels, n) or (n,), a format and length that
    :func:`check_format` accepts, and every sample finite and within the
    float32 range. Returns the samples as a (channels, n) float64 array."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    if samples.ndim != 2:
        raise WavError(f"samples must be 1-D or (channels, n), got shape {samples.shape}")
    check_format(len(samples), sample_rate, samples.shape[1])
    peak = np.max(np.abs(samples), initial=0.0)  # nan if any sample is nan
    if not peak <= np.finfo(np.float32).max:
        raise WavError(f"cannot write a sample of magnitude {peak:g} at 32 bits")
    return samples


def write_wav(path, samples: np.ndarray, sample_rate: int) -> bool:
    """Write samples, shape (channels, n) or (n,), to a 32-bit float WAV file.

    Samples that :func:`check_writable` rejects raise before the file is
    opened. The file is opened with :func:`open_fresh`; when a write to a
    fresh file fails, the file is removed before the error propagates.
    Returns ``fresh``: True when the path now names a file this call
    created, which a caller may remove; False when it wrote through a link
    or into a file it may not replace.
    """
    samples = check_writable(samples, sample_rate)
    channels, n = samples.shape
    payload = samples.T.reshape(-1).astype("<f4")  # interleaved: frame by frame
    block_align = 4 * channels
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sII4sI",
        b"RIFF", _WRITTEN_HEADER + payload.nbytes, b"WAVE",
        b"fmt ", 16, _FORMAT_FLOAT, channels, sample_rate, sample_rate * block_align, block_align, 32,
        b"fact", 4, n,
        b"data", payload.nbytes,
    )
    fh, fresh = open_fresh(path)
    try:
        with fh:
            fh.write(header)
            fh.write(payload)
    except BaseException:
        if fresh:  # a failed write (a full disk, say) leaves no partial file behind
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return fresh


def open_fresh(path, mode: str = "wb", encoding: str | None = None):
    """Open an output for writing as a new file; returns ``(file, fresh)``.

    Truncating a file that holds data makes ext4 (``auto_da_alloc``) start
    its writeback at close, and so does renaming a file over it: replacing an
    ``enhance`` job's WAV and report costs 0.39-0.54 ms either way, against
    0.17-0.20 ms for new files (one CPU of a 2-vCPU host). So a regular file
    with one link, which this process's user owns and may write, is unlinked
    and created anew with its permission bits kept, and a missing one is
    created: ``fresh`` is True. Any other path, a symlink, a hard-linked
    file, a device, a FIFO, a file of another user, a read-only file or one
    whose unlink or exclusive create fails, is opened with
    ``open(path, mode)`` exactly as a plain overwrite, so a link stays a link
    and its target takes the bytes: ``fresh`` is False.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    except OSError:
        return open(path, mode, encoding=encoding), False
    fd = None
    if st is None or (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and st.st_uid == os.geteuid()
        and st.st_mode & stat.S_IWUSR
    ):
        with contextlib.suppress(OSError):  # a failed unlink, or a file made since the lstat
            if st is not None:
                os.unlink(path)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    if fd is None:
        return open(path, mode, encoding=encoding), False
    try:
        if st is not None:
            os.fchmod(fd, stat.S_IMODE(st.st_mode))  # the umask may strip bits the old file had
        return open(fd, mode, encoding=encoding), True
    except BaseException:
        os.close(fd)
        raise
