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


def check_format(channels: int, sample_rate: int, bit_depth: int = 32, n: int = 0):
    """Raise :class:`WavError` unless a WAV header can hold this format and
    ``n`` samples per channel: a supported bit depth, at least one channel,
    a sample rate of at least 1 Hz, a block size and byte rate that fit
    their 16- and 32-bit header fields, and data and RIFF chunk sizes that
    fit 32 bits."""
    if bit_depth not in SUPPORTED_BIT_DEPTHS:
        raise WavError(
            f"unsupported bit depth {bit_depth}, expected one of {SUPPORTED_BIT_DEPTHS}"
        )
    if channels < 1:
        raise WavError(f"a WAV file needs at least 1 channel, got {channels}")
    block_align = channels * (bit_depth // 8)
    if block_align > 0xFFFF:
        raise WavError(f"{channels} channels of {bit_depth} bits do not fit a WAV header")
    if sample_rate < 1 or sample_rate * block_align > 0xFFFFFFFF:
        raise WavError(
            f"sample rate {sample_rate} Hz with {channels} channels of {bit_depth} bits "
            f"does not fit a WAV header"
        )
    data = n * block_align
    # "WAVE", the fmt chunk, the float format's fact chunk, the data chunk header and pad byte
    riff = 4 + 24 + (12 if bit_depth == 32 else 0) + 8 + data + data % 2
    if riff > 0xFFFFFFFF:
        raise WavError(
            f"{data} bytes of samples ({n} per channel) do not fit a WAV file's 32-bit chunk sizes"
        )


def check_writable(samples: np.ndarray, sample_rate: int, bit_depth: int = 32) -> np.ndarray:
    """Raise :class:`WavError` unless :func:`write_wav` can store these
    samples: shape (channels, n) or (n,), a format and length that
    :func:`check_format` accepts, and every sample finite and, at 32 bits,
    within the float32 range. Returns the samples as a (channels, n)
    float64 array."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    if samples.ndim != 2:
        raise WavError(f"samples must be 1-D or (channels, n), got shape {samples.shape}")
    check_format(len(samples), sample_rate, bit_depth, samples.shape[1])
    peak = np.max(np.abs(samples), initial=0.0)  # nan if any sample is nan
    if not peak <= np.finfo(np.float32 if bit_depth == 32 else np.float64).max:
        raise WavError(f"cannot write a sample of magnitude {peak:g} at {bit_depth} bits")
    return samples


def write_wav(path, samples: np.ndarray, sample_rate: int, bit_depth: int = 32):
    """Write samples, shape (channels, n) or (n,), to a WAV file.

    ``bit_depth`` 16 and 24 write PCM (values rounded and clipped to
    [-1, 1]); 32 writes IEEE float32 verbatim. Samples that
    :func:`check_writable` rejects raise before the file is opened.
    """
    samples = check_writable(samples, sample_rate, bit_depth)
    channels, n = samples.shape
    interleaved = samples.T.reshape(-1)

    if bit_depth == 32:
        payload = interleaved.astype("<f4")
        tag = _FORMAT_FLOAT
    elif bit_depth == 16:
        scaled = np.clip(np.round(interleaved * 32768.0), -32768, 32767)
        payload = scaled.astype("<i2")
        tag = _FORMAT_PCM
    else:
        scaled = np.clip(np.round(interleaved * float(2**23)), -(2**23), 2**23 - 1)
        values = scaled.astype(np.int64) & 0xFFFFFF
        payload = np.empty((len(values), 3), dtype=np.uint8)
        payload[:, 0] = values & 0xFF
        payload[:, 1] = (values >> 8) & 0xFF
        payload[:, 2] = (values >> 16) & 0xFF
        tag = _FORMAT_PCM

    block_align = channels * (bit_depth // 8)
    byte_rate = sample_rate * block_align
    headers = struct.pack(
        "<4sIHHIIHH", b"fmt ", 16, tag, channels, sample_rate, byte_rate, block_align, bit_depth
    )
    if tag == _FORMAT_FLOAT:
        headers += struct.pack("<4sII", b"fact", 4, n)
    headers += struct.pack("<4sI", b"data", payload.nbytes)
    pad = payload.nbytes % 2
    riff_size = 4 + len(headers) + payload.nbytes + pad
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE") + headers)
        fh.write(payload)
        fh.write(b"\x00" * pad)
