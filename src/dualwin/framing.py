"""Streaming dual-window STFT analysis and synthesis.

Analysis uses an input window of ``iws`` samples with a hop of ``hop``
samples and an ``n_dft``-point real DFT (zero-padded on the right when
``iws < n_dft``). Synthesis keeps only the last ``ows`` samples of each
frame's inverse over the analysis segment, samples ``iws - ows .. iws - 1``,
applies the synthesis window, and overlap-adds with the same hop (the
low-delay scheme of Mauler & Martin, EUSIPCO 2007). Only those ``ows``
samples are ever computed: they are one real matrix-vector product of a
precomputed basis, the matching ``ows`` rows of the inverse real DFT with
the synthesis window folded in, and the interleaved (re, im) bins. Keeping
``ows < iws`` is what cuts the algorithmic latency from the input window
length down to the output window length; predicting ``frames_ahead``
frames shifts each synthesis chunk one hop later per frame and cuts a
further hop of latency each.

Streams are primed with ``iws - hop`` zeros so that frame ``t`` ends at
input sample ``(t+1)*hop`` and output sample indices line up exactly with
input sample indices from the first sample on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .windows import WindowKind, make_analysis_window, make_synthesis_window


@dataclass(frozen=True)
class FrameParams:
    """STFT/iSTFT geometry: sizes in samples, plus the prediction horizon.

    ``iws`` is the analysis (input) window size, ``ows`` the output window
    size used for overlap-add, ``hop`` the hop size, and ``frames_ahead``
    the number of frames the final estimator predicts into the future.
    Defaults are 16 kHz with 16/4/2 ms sizes and a 256-point DFT.
    """

    sample_rate: int = 16000
    iws: int = 256
    ows: int = 64
    hop: int = 32
    n_dft: int = 256
    frames_ahead: int = 0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.hop <= 0:
            raise ValueError(f"hop must be positive, got {self.hop}")
        if self.ows <= 0 or self.ows % self.hop != 0:
            raise ValueError(
                f"ows ({self.ows}) must be a positive multiple of hop ({self.hop})"
            )
        if not self.ows <= self.iws <= self.n_dft:
            raise ValueError(
                f"need ows <= iws <= n_dft, got {self.ows}/{self.iws}/{self.n_dft}"
            )
        if self.n_dft % 2 != 0:
            raise ValueError(f"n_dft must be even, got {self.n_dft}")
        if self.frames_ahead < 0:
            raise ValueError(f"frames_ahead must be >= 0, got {self.frames_ahead}")

    @property
    def n_bins(self) -> int:
        return self.n_dft // 2 + 1

    def ms(self, samples: int) -> float:
        return 1000.0 * samples / self.sample_rate

    @property
    def ows_ms(self) -> float:
        return self.ms(self.ows)

    @property
    def hop_ms(self) -> float:
        return self.ms(self.hop)

    def frames_to_release(self, n: int) -> int:
        """Frames after which the first ``n`` output samples are released.

        That takes every whole input hop among them, ``n // hop`` frames,
        and enough frames for the overlap-add to release sample ``n - 1``:
        after frame ``t`` the first ``(t + frames_ahead + 2) * hop - ows``
        samples are out, so at least one frame and
        ``ceil((n + ows) / hop) - 1 - frames_ahead`` frames. Later frames
        only reach samples from ``n`` on.
        """
        if n <= 0:
            return 0
        return max(1, n // self.hop, -(-(n + self.ows) // self.hop) - 1 - self.frames_ahead)


def algorithmic_latency(params: FrameParams) -> float:
    """Algorithmic latency in ms: output window span minus predicted hops.

    May be negative when ``frames_ahead > ows/hop - 1`` (the system emits
    samples before their aligned input arrives, fully predicted).
    """
    return params.ows_ms - params.frames_ahead * params.hop_ms


class SpectrumFrame(NamedTuple):
    """One-sided DFT coefficients at frame ``frame_index``: (n_bins,) for one
    channel, or (channels, n_bins) as a :class:`FrameBlock` yields them."""

    bins: np.ndarray
    frame_index: int


class FrameBlock:
    """The frames of one :meth:`AnalysisStream.push`: ``bins``, shape
    (T, channels, n_bins), of frames ``first_frame .. first_frame + T - 1``.

    ``pipeline.Session`` runs its stages over ``bins`` whole. Per-frame
    callers, such as the benchmark adapter until the per-frame API is
    deleted (ROADMAP item 4 (c)), read it as a sequence of T
    :class:`SpectrumFrame`: ``len``, integer indexing and iteration build
    them on demand.
    """

    __slots__ = ("bins", "first_frame")

    def __init__(self, bins: np.ndarray, first_frame: int):
        self.bins = bins
        self.first_frame = first_frame

    def __len__(self) -> int:
        return len(self.bins)

    def __getitem__(self, i: int) -> SpectrumFrame:
        t0 = self.first_frame
        return SpectrumFrame(self.bins[i], range(t0, t0 + len(self.bins))[i])

    def __iter__(self):
        # indexing beats iterating the array, and a generator beats building a list
        bins, t0 = self.bins, self.first_frame
        for i in range(len(bins)):
            yield SpectrumFrame(bins[i], t0 + i)


# Frames per block of analyze: one block's window products and spectra, 128 * (iws * 8 +
# n_bins * 16) bytes = 0.5 MB per channel at 256/129, stay cache-resident. Median ms of a 25 s
# mono analyze on 2 vCPUs, two sweeps: the unblocked code 33.0/35.6, one block 46.8/47.8, blocks
# of 16 frames 34.4/34.0, 64 24.3/24.2, 128 22.3/22.5, 256 22.6/23.5, 512 30.2/27.3.
_ANALYZE_FRAMES = 128


def _frames(
    data: np.ndarray, start: int, stop: int, window: np.ndarray, params: FrameParams, work: np.ndarray
) -> np.ndarray:
    """Spectra, shape (T, channels, n_bins), of the T = (stop - start - iws)
    // hop + 1 frames ``data[:, s : s + iws]``, ``s = start + t*hop``, that
    fit in columns ``start:stop`` of a C-contiguous (channels, >= stop) array.

    One strided view is windowed and transformed in one batch. ``np.ndarray``
    builds the view, bounds-checked, in under 1 us per live hop; ``as_strided``
    takes about 4 us. The window products go to ``work[:T]``.
    """
    hop, iws = params.hop, params.iws
    n_frames = (stop - start - iws) // hop + 1
    step, sample = data.strides
    view = np.ndarray(
        (n_frames, data.shape[0], iws), data.dtype, data, start * sample, (hop * sample, step, sample)
    )
    prod = np.multiply(view, window, out=work[:n_frames])
    return np.fft.rfft(prod, n=params.n_dft, axis=-1)


class AnalysisStream:
    """Chunk-in, frames-out STFT analysis with internal buffering.

    The stream starts primed with ``iws - hop`` zeros, so the first frame is
    emitted after one hop of input and contains those zeros followed by the
    first hop of samples. Arbitrary chunk sizes are accepted; leftovers
    shorter than a hop wait for the next push. Samples and window products
    live in two buffers kept across pushes, which grow with the largest push
    seen; the returned bins are always new arrays. Single-writer: do not
    push concurrently on one stream.

    Zero ``channels`` means frame counting only: pushes take (0, n) chunks
    and return blocks of (T, 0, n_bins) bins, with the frame indices a
    one-channel stream would give, and no window product or DFT is run.
    ``pipeline.Session`` frames a chain that reads no mixture row this way.
    """

    def __init__(self, window: np.ndarray, params: FrameParams, channels: int = 1):
        if len(window) != params.iws:
            raise ValueError(f"window length {len(window)} does not match iws {params.iws}")
        if channels < 0:
            raise ValueError(f"channels must be >= 0, got {channels}")
        self.window = window
        self.params = params
        self.channels = channels
        # _buf[:, _lo:_hi] holds the last iws - hop samples seen, plus any
        # partial hop; new samples go after them, and the kept ones move back
        # to the front only when the buffer is full (every ~iws/hop pushes)
        self._buf = np.zeros((channels, 2 * params.iws))
        self._lo, self._hi = 0, params.iws - params.hop
        self._work = np.empty((1, channels, params.iws))
        self._t = 0

    @property
    def frames_emitted(self) -> int:
        return self._t

    def push(self, chunk: np.ndarray) -> FrameBlock:
        """Ingest samples, shape (n,) for mono or (channels, n); returns
        the block of one frame per completed hop (possibly none)."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1:
            chunk = chunk[np.newaxis, :]
        if chunk.shape[0] != self.channels:
            raise ValueError(
                f"expected {self.channels} channels, got {chunk.shape[0]}"
            )
        iws, hop = self.params.iws, self.params.hop
        lo, hi, m = self._lo, self._hi, chunk.shape[1]
        if hi + m > self._buf.shape[1]:
            buf = self._buf
            if 2 * (hi - lo + m) > buf.shape[1]:
                buf = np.empty((self.channels, 2 * (hi - lo + m)))
            buf[:, : hi - lo] = self._buf[:, lo:hi]
            self._buf, lo, hi = buf, 0, hi - lo
        self._buf[:, hi : hi + m] = chunk
        hi += m
        n_frames = (hi - lo - iws) // hop + 1
        if not self.channels:  # framing zero rows still costs 5-8 us a call on 2 vCPUs
            bins = np.empty((n_frames, 0, self.params.n_bins), dtype=np.complex128)
        else:
            if n_frames > len(self._work):
                self._work = np.empty((n_frames, self.channels, iws))
            bins = _frames(self._buf, lo, hi, self.window, self.params, self._work)
        self._lo, self._hi = lo + n_frames * hop, hi
        block = FrameBlock(bins, self._t)
        self._t += n_frames
        return block


def analyze(
    signal: np.ndarray,
    window: np.ndarray,
    params: FrameParams,
    flush: bool = False,
) -> np.ndarray:
    """One-shot analysis of a full signal.

    ``signal`` may be (n,) or (channels, n). Returns the complex
    spectrogram, shape (T, n_bins) or (T, channels, n_bins), with
    ``T = floor(n / hop)``: the frames an :class:`AnalysisStream` emits
    for the same samples. With ``flush=True`` the signal is zero-padded so
    that ``T = params.frames_to_release(n)``: the frames that synthesis
    needs to release all ``n`` samples; ``pipeline.Session`` sizes its
    oracle tables this way at ``frames_ahead=0``, where row t is output slot t.

    The primed signal is framed ``_ANALYZE_FRAMES`` frames at a time into
    the preallocated result, through one reused buffer of window products,
    so besides the result and the primed copy of the input only one block's
    window products and spectra are alive: 0.5 MB per channel at the
    default geometry, however long the signal. Each frame's arithmetic is
    that of one unblocked call, so the bytes do not depend on the blocking.
    """
    if len(window) != params.iws:
        raise ValueError(f"window length {len(window)} does not match iws {params.iws}")
    signal = np.asarray(signal, dtype=np.float64)
    n, hop = signal.shape[-1], params.hop
    n_frames = params.frames_to_release(n) if flush else n // hop
    primed = np.pad(
        np.atleast_2d(signal), ((0, 0), (params.iws - hop, max(n_frames * hop - n, 0)))
    )
    bins = np.empty((n_frames, len(primed), params.n_bins), dtype=np.complex128)
    work = np.empty((min(n_frames, _ANALYZE_FRAMES), len(primed), params.iws))
    for t in range(0, n_frames, _ANALYZE_FRAMES):
        stop = min(t + _ANALYZE_FRAMES, n_frames)
        bins[t:stop] = _frames(primed, t * hop, (stop - 1) * hop + params.iws, window, params, work)
    return bins[:, 0, :] if signal.ndim == 1 else bins


@functools.lru_cache(maxsize=32)
def _synthesis_basis(window: bytes, iws: int, n_dft: int) -> np.ndarray:
    """(ows, 2 * n_bins) basis of :func:`synthesize_block`: rows
    ``iws - ows .. iws - 1`` of the ``n_dft``-point inverse real DFT over
    interleaved (re, im) bins, times the synthesis window. Bin ``k`` weighs
    ``w_k cos(2 pi k n / N)`` on its real part and ``-w_k sin(2 pi k n / N)``
    on its imaginary part, with ``w_k = 1/N`` at DC and Nyquist, whose
    imaginary parts get weight 0 as in ``np.fft.irfft``, and ``2/N``
    elsewhere. Keyed by the window's bytes, so streams and jobs share it.
    """
    l = np.frombuffer(window)
    n = np.arange(iws - len(l), iws)[:, np.newaxis]
    k = np.arange(n_dft // 2 + 1)
    angle = (2 * np.pi / n_dft) * (n * k % n_dft)  # integer modulo keeps the angle exact
    weight = np.full(len(k), 2.0 / n_dft)
    weight[[0, -1]] = 1.0 / n_dft
    basis = np.empty((len(l), len(k), 2))
    basis[..., 0] = weight * np.cos(angle)
    basis[..., 1] = -weight * np.sin(angle)
    basis[:, [0, -1], 1] = 0.0
    basis *= l[:, np.newaxis, np.newaxis]
    basis = basis.reshape(len(l), 2 * len(k))
    basis.setflags(write=False)
    return basis


def synthesize_block(
    bins: np.ndarray, l: np.ndarray, params: FrameParams, first_frame: int = 0
) -> np.ndarray:
    """Invert frames ``first_frame, ...``, bins (T, n_bins) or (n_bins,), to
    their windowed overlap-add chunks, (T, ows) or (ows,): each is
    ``irfft(bins, n_dft)[iws - ows : iws] * l``, the last ``ows``
    samples of the analysis segment before padding, as one product of the
    cached basis of those rows, window folded in, with the (re, im) float64
    view of its bins; a gemm over the block would change the roundings."""
    bins = np.ascontiguousarray(bins, dtype=np.complex128)
    if bins.ndim > 2 or bins.shape[-1] != params.n_bins:
        raise ValueError(f"expected {params.n_bins} bins per frame, got shape {bins.shape}")
    v = bins.view(np.float64)
    finite = np.isfinite(v)
    if not np.logical_and.reduce(finite, axis=None):  # without .all()'s Python wrapper
        bad = first_frame + int(np.argmin(finite.all(axis=-1)))
        raise ValueError(f"non-finite bins in frame {bad}")
    if len(l) != params.ows:
        raise ValueError(f"window length {len(l)} does not match ows {params.ows}")
    basis = _synthesis_basis(l.tobytes(), params.iws, params.n_dft)
    if v.ndim == 2 and len(v) > 1:
        return np.matmul(basis, v[..., np.newaxis])[..., 0]
    return np.dot(basis, v.T).T  # the same gemv, without matmul's ~2 us of set-up


def synthesize_frame(frame: SpectrumFrame, l: np.ndarray, params: FrameParams) -> np.ndarray:
    """:func:`synthesize_block` of one frame: its (ows,) chunk."""
    return synthesize_block(frame.bins, l, params, frame.frame_index)


class SynthesisStream:
    """Overlap-add of ``ows``-sample chunks with future-frame scheduling.

    The chunk pushed at frame ``t`` is placed in the output slot
    ``t + frames_ahead``; each chunk releases the hop-sized prefix that can
    receive no further contributions. When ``frames_ahead > 0`` the first
    ``frames_ahead * hop`` output samples are released with their missing
    past contributions treated as zeros.
    """

    def __init__(self, params: FrameParams):
        self.params = params
        # _acc[_lo : _lo + ows - hop]: the unreleased sums, then zeros; one-hop pushes move them
        # to a fresh buffer only every ~15 * ows / hop pushes
        self._acc = np.zeros(16 * params.ows)
        self._lo = 0
        self._start = (params.frames_ahead + 1) * params.hop - params.ows  # next chunk's first sample
        self._released = 0

    @property
    def released(self) -> int:
        """Total output samples released so far."""
        return self._released

    def push(self, chunks: np.ndarray) -> np.ndarray:
        """Add one chunk, shape (ows,), or T chunks, shape (T, ows), oldest
        first; returns the output samples (possibly empty) that became final.

        T > 1 chunks are added in ``ows / hop`` slice-adds, one per hop of a
        chunk, each through one (T, hop) view. Running them from a chunk's
        last hop to its first adds each output sample's terms in frame
        order, as one push per chunk does, so the sums are bit-identical
        however the chunks are split into pushes."""
        a, b = self.params.ows, self.params.hop
        chunks = np.asarray(chunks, dtype=np.float64)
        if chunks.shape[-1:] != (a,) or chunks.ndim > 2:
            raise ValueError(f"expected chunks of {a} samples, got shape {chunks.shape}")
        chunks = chunks.reshape(-1, a)
        n = len(chunks) * b
        acc, lo = self._acc, self._lo
        if lo + a - b + n > len(acc):
            acc = np.zeros(max(len(acc), 2 * (a - b + n)))
            acc[: a - b] = self._acc[lo : lo + a - b]
            self._acc, lo = acc, 0
        if len(chunks) == 1:  # per-frame path: one slice-add, 0.7 us against 3.6 for two passes
            target = acc[lo : lo + a]
            target += chunks[0]  # on a view: no write-back through __setitem__
        else:
            for r in range(a - b, -1, -b):
                target = acc[lo + r : lo + r + n].reshape(-1, b)
                target += chunks[:, r : r + b]
        self._lo, start = lo + n, self._start
        end = self._start = start + n  # released now: output samples [start, end)
        if start == self._released:
            self._released = end
            return acc[lo : lo + n].copy()
        # the first releases drop samples before 0, and give the gap k > 0 leaves as zeros
        if end <= max(start, 0):
            return np.empty(0)
        gap, self._released = max(start, 0) - self._released, end
        return np.concatenate([np.zeros(gap), acc[lo + max(-start, 0) : lo + n]])


def build_windows(kind: WindowKind, params: FrameParams) -> tuple[np.ndarray, np.ndarray]:
    """Matched (analysis, synthesis) pair for the given geometry: read-only
    arrays of ``iws`` and ``ows`` samples."""
    g = make_analysis_window(kind, params)
    return g, make_synthesis_window(g, params)
