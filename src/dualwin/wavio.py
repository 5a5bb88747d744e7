"""Multichannel RIFF/WAVE files: 16/24-bit PCM and 32-bit IEEE float.

Samples cross this boundary as float64 in [-1, 1] with shape
(channels, n). Integer formats are scaled by 2**(bits-1) (writes round and
clip); the float format is stored as float32, so writing float32-valued
data and reading it back is bit-exact. Malformed or truncated files raise
:class:`WavError` naming the byte offset where parsing failed; float data
holding an inf or NaN raises it too, and so does writing one.
"""

from __future__ import annotations

import struct

import numpy as np

_FORMAT_PCM = 0x0001
_FORMAT_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE

SUPPORTED_BIT_DEPTHS = (16, 24, 32)  # 32 means IEEE float


class WavError(ValueError):
    """Malformed, truncated, or unsupported WAV file."""


def _read_exact(fh, n: int, what: str) -> bytes:
    offset = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise WavError(
            f"truncated file: expected {n} bytes of {what} at byte offset "
            f"{offset}, got {len(data)}"
        )
    return data


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file.

    Return:
        (samples, sample_rate): float64 samples of shape (channels, n)
    """
    with open(path, "rb") as fh:
        riff, _, wave = struct.unpack("<4sI4s", _read_exact(fh, 12, "RIFF header"))
        if riff != b"RIFF" or wave != b"WAVE":
            raise WavError(
                f"not a RIFF/WAVE file (header {riff!r}/{wave!r} at byte offset 0)"
            )
        fmt = None
        data = None
        while True:
            header = fh.read(8)
            if not header:
                break
            if len(header) != 8:
                raise WavError(
                    f"truncated chunk header at byte offset {fh.tell() - len(header)}"
                )
            chunk_id, size = struct.unpack("<4sI", header)
            body = _read_exact(fh, size, f"{chunk_id.decode('latin1')} chunk")
            if size % 2:
                fh.read(1)  # RIFF pad byte
            if chunk_id == b"fmt ":
                fmt = body
            elif chunk_id == b"data":
                data = body
        if fmt is None:
            raise WavError("missing fmt chunk")
        if data is None:
            raise WavError("missing data chunk")
        if len(fmt) < 16:
            raise WavError(f"fmt chunk too short ({len(fmt)} bytes)")
        tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
        if tag == _FORMAT_EXTENSIBLE:
            if len(fmt) < 26:
                raise WavError("extensible fmt chunk too short for a sub-format")
            (tag,) = struct.unpack("<H", fmt[24:26])
        if channels < 1:
            raise WavError("fmt chunk declares zero channels")

    if tag == _FORMAT_FLOAT and bits == 32:
        flat = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4").astype(
            np.float64
        )
        if not np.isfinite(flat).all():
            raise WavError(f"non-finite sample value in the float data of {path}")
    elif tag == _FORMAT_PCM and bits == 16:
        flat = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2").astype(
            np.float64
        ) / 32768.0
    elif tag == _FORMAT_PCM and bits == 24:
        raw = np.frombuffer(data[: len(data) - len(data) % 3], dtype=np.uint8)
        triplets = raw.reshape(-1, 3).astype(np.int64)
        values = triplets[:, 0] | (triplets[:, 1] << 8) | (triplets[:, 2] << 16)
        values = (values ^ 0x800000) - 0x800000  # sign-extend 24 bits
        flat = values.astype(np.float64) / float(2**23)
    else:
        raise WavError(
            f"unsupported codec: format tag {tag:#06x} with {bits} bits per sample"
        )
    n_frames = len(flat) // channels
    return flat[: n_frames * channels].reshape(n_frames, channels).T.copy(), rate


def check_format(channels: int, sample_rate: int, bit_depth: int = 32):
    """Raise :class:`WavError` unless a WAV header can hold this format:
    a supported bit depth, a sample rate of at least 1 Hz, and a block
    size and byte rate that fit their 16- and 32-bit header fields."""
    if bit_depth not in SUPPORTED_BIT_DEPTHS:
        raise WavError(
            f"unsupported bit depth {bit_depth}, expected one of {SUPPORTED_BIT_DEPTHS}"
        )
    block_align = channels * (bit_depth // 8)
    if block_align > 0xFFFF:
        raise WavError(f"{channels} channels of {bit_depth} bits do not fit a WAV header")
    if sample_rate < 1 or sample_rate * block_align > 0xFFFFFFFF:
        raise WavError(
            f"sample rate {sample_rate} Hz with {channels} channels of {bit_depth} bits "
            f"does not fit a WAV header"
        )


def write_wav(path, samples: np.ndarray, sample_rate: int, bit_depth: int = 32):
    """Write samples, shape (channels, n) or (n,), to a WAV file.

    ``bit_depth`` 16 and 24 write PCM (values rounded and clipped to
    [-1, 1]); 32 writes IEEE float32 verbatim. A format that
    :func:`check_format` rejects, a sample that is not finite, or at 32 bits
    one beyond the float32 range, raises before the file is opened.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    if samples.ndim != 2:
        raise WavError(f"samples must be 1-D or (channels, n), got shape {samples.shape}")
    channels, n = samples.shape
    check_format(channels, sample_rate, bit_depth)
    peak = np.max(np.abs(samples), initial=0.0)  # nan if any sample is nan
    if not peak <= np.finfo(np.float32 if bit_depth == 32 else np.float64).max:
        raise WavError(f"cannot write a sample of magnitude {peak:g} at {bit_depth} bits")
    interleaved = samples.T.reshape(-1)

    if bit_depth == 32:
        payload = interleaved.astype("<f4").tobytes()
        tag = _FORMAT_FLOAT
    elif bit_depth == 16:
        scaled = np.clip(np.round(interleaved * 32768.0), -32768, 32767)
        payload = scaled.astype("<i2").tobytes()
        tag = _FORMAT_PCM
    else:
        scaled = np.clip(np.round(interleaved * float(2**23)), -(2**23), 2**23 - 1)
        values = scaled.astype(np.int64) & 0xFFFFFF
        triplets = np.empty((len(values), 3), dtype=np.uint8)
        triplets[:, 0] = values & 0xFF
        triplets[:, 1] = (values >> 8) & 0xFF
        triplets[:, 2] = (values >> 16) & 0xFF
        payload = triplets.tobytes()
        tag = _FORMAT_PCM

    block_align = channels * (bit_depth // 8)
    fmt = struct.pack(
        "<HHIIHH",
        tag,
        channels,
        sample_rate,
        sample_rate * block_align,
        block_align,
        bit_depth,
    )
    chunks = [(b"fmt ", fmt)]
    if tag == _FORMAT_FLOAT:
        chunks.append((b"fact", struct.pack("<I", n)))
    chunks.append((b"data", payload))

    body = b"WAVE"
    for chunk_id, chunk in chunks:
        body += struct.pack("<4sI", chunk_id, len(chunk)) + chunk
        if len(chunk) % 2:
            body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", b"RIFF", len(body)) + body)
